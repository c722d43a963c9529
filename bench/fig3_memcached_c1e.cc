/**
 * @file
 * Figure 3 reproduction: impact of server-side C1E on Memcached
 * latency as seen by LP and HP clients, plus the paper's
 * conflicting-conclusions check — does each client's confidence
 * interval separate the C1E-on and C1E-off configurations?
 */

#include <cstdio>

#include "bench_common.hh"

using namespace tpv;
using namespace tpv::bench;
using namespace tpv::core;

namespace {

const char *
verdict(int ordering)
{
    switch (ordering) {
      case +1:
        return "on-worse";
      case -1:
        return "on-better";
      default:
        return "same";
    }
}

} // namespace

int
main()
{
    const BenchOptions opt = BenchOptions::fromEnv();
    std::printf("Figure 3: Memcached C1E study (LP/HP clients)\n");
    std::printf("runs=%d duration=%s\n", opt.runs,
                formatTime(opt.duration).c_str());

    const auto loads = memcachedLoads();
    const auto grid = sweepAxis<LoadAxis>(
        c1eStudyConfigs(), loads,
        [&](const std::string &label, double qps) {
            return configFor(label,
                             withTiming(ExperimentConfig::forMemcached(qps),
                                        opt));
        },
        opt.runner(), progress);

    TableReporter avg("Fig 3a: Average Response Time, median us "
                      "(paper: LP 64-145% above HP)");
    TableReporter p99("Fig 3b: 99th Percentile Latency, median us");
    avg.header({"KQPS", "LP-C1Eoff", "LP-C1Eon", "HP-C1Eoff", "HP-C1Eon"});
    p99.header({"KQPS", "LP-C1Eoff", "LP-C1Eon", "HP-C1Eoff", "HP-C1Eon"});

    TableReporter slow("Fig 3c/3d: C1E_ON / C1E_OFF slowdown (paper: "
                       "HP up to 19% avg / 18% p99; LP up to 13% / 7%)");
    slow.header({"KQPS", "LP-avg", "HP-avg", "LP-p99", "HP-p99"});

    for (double qps : loads) {
        const std::string label =
            std::to_string(static_cast<int>(qps / 1000));
        avg.row(label, {grid.at("LP-C1Eoff", qps).result.medianAvg(),
                        grid.at("LP-C1Eon", qps).result.medianAvg(),
                        grid.at("HP-C1Eoff", qps).result.medianAvg(),
                        grid.at("HP-C1Eon", qps).result.medianAvg()});
        p99.row(label, {grid.at("LP-C1Eoff", qps).result.medianP99(),
                        grid.at("LP-C1Eon", qps).result.medianP99(),
                        grid.at("HP-C1Eoff", qps).result.medianP99(),
                        grid.at("HP-C1Eon", qps).result.medianP99()});
        slow.row(label,
                 {slowdownAvg(grid.at("LP-C1Eon", qps).result,
                              grid.at("LP-C1Eoff", qps).result),
                  slowdownAvg(grid.at("HP-C1Eon", qps).result,
                              grid.at("HP-C1Eoff", qps).result),
                  slowdownP99(grid.at("LP-C1Eon", qps).result,
                              grid.at("LP-C1Eoff", qps).result),
                  slowdownP99(grid.at("HP-C1Eon", qps).result,
                              grid.at("HP-C1Eoff", qps).result)});
    }

    avg.print();
    p99.print();
    slow.print();

    // Finding 2: do the two clients reach the same conclusion about
    // C1E at each load? (non-overlapping CI check of Section V-A)
    std::printf("\nConclusion check (CI separation of C1E on vs off):\n");
    std::printf("%-8s %-12s %-12s %s\n", "KQPS", "LP-says", "HP-says",
                "agree?");
    for (double qps : loads) {
        const int lp =
            confidentAvgOrdering(grid.at("LP-C1Eon", qps).result,
                                 grid.at("LP-C1Eoff", qps).result);
        const int hp =
            confidentAvgOrdering(grid.at("HP-C1Eon", qps).result,
                                 grid.at("HP-C1Eoff", qps).result);
        std::printf("%-8d %-12s %-12s %s\n",
                    static_cast<int>(qps / 1000), verdict(lp), verdict(hp),
                    lp == hp ? "yes" : "CONFLICT");
    }
    return 0;
}
