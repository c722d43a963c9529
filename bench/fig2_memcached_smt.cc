/**
 * @file
 * Figure 2 reproduction: impact of server-side SMT on Memcached
 * latency as seen by LP and HP clients, over 10K-500K QPS.
 *
 * Panels: (a) median of per-run average response time, (b) median of
 * per-run 99th percentile, (c) SMT_OFF / SMT_ON average-slowdown per
 * client, (d) the same for the 99th percentile.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace tpv;
using namespace tpv::bench;
using namespace tpv::core;

int
main()
{
    const BenchOptions opt = BenchOptions::fromEnv();
    std::printf("Figure 2: Memcached SMT study (LP/HP clients)\n");
    std::printf("runs=%d duration=%s\n", opt.runs,
                formatTime(opt.duration).c_str());

    const auto loads = memcachedLoads();
    const auto grid = sweepAxis<LoadAxis>(
        smtStudyConfigs(), loads,
        [&](const std::string &label, double qps) {
            return configFor(label,
                             withTiming(ExperimentConfig::forMemcached(qps),
                                        opt));
        },
        opt.runner(), progress);

    TableReporter avg("Fig 2a: Average Response Time, median us "
                      "(paper: LP 80-150% above HP)");
    TableReporter p99("Fig 2b: 99th Percentile Latency, median us "
                      "(paper: LP 33-200% above HP)");
    avg.header({"KQPS", "LP-SMToff", "LP-SMTon", "HP-SMToff", "HP-SMTon"});
    p99.header({"KQPS", "LP-SMToff", "LP-SMTon", "HP-SMToff", "HP-SMTon"});

    TableReporter speedAvg("Fig 2c: SMT_OFF / SMT_ON on avg (paper: "
                           "LP ~1.0x, HP up to ~1.05x)");
    TableReporter speedP99("Fig 2d: SMT_OFF / SMT_ON on p99 (paper: "
                           "LP <= ~3%, HP up to ~13%)");
    speedAvg.header({"KQPS", "LP", "HP"});
    speedP99.header({"KQPS", "LP", "HP"});

    for (double qps : loads) {
        const std::string label = std::to_string(
            static_cast<int>(qps / 1000));
        avg.row(label, {grid.at("LP-SMToff", qps).result.medianAvg(),
                        grid.at("LP-SMTon", qps).result.medianAvg(),
                        grid.at("HP-SMToff", qps).result.medianAvg(),
                        grid.at("HP-SMTon", qps).result.medianAvg()});
        p99.row(label, {grid.at("LP-SMToff", qps).result.medianP99(),
                        grid.at("LP-SMTon", qps).result.medianP99(),
                        grid.at("HP-SMToff", qps).result.medianP99(),
                        grid.at("HP-SMTon", qps).result.medianP99()});
        speedAvg.row(label,
                     {slowdownAvg(grid.at("LP-SMToff", qps).result,
                                  grid.at("LP-SMTon", qps).result),
                      slowdownAvg(grid.at("HP-SMToff", qps).result,
                                  grid.at("HP-SMTon", qps).result)});
        speedP99.row(label,
                     {slowdownP99(grid.at("LP-SMToff", qps).result,
                                  grid.at("LP-SMTon", qps).result),
                      slowdownP99(grid.at("HP-SMToff", qps).result,
                                  grid.at("HP-SMTon", qps).result)});
    }

    avg.print();
    p99.print();
    speedAvg.print();
    speedP99.print();

    // The headline comparison of Section V-A.
    std::printf("\nLP/HP end-to-end ratio (avg): ");
    for (double qps : loads) {
        std::printf("%.2f ", grid.at("LP-SMToff", qps).result.meanAvg() /
                                 grid.at("HP-SMToff", qps).result.meanAvg());
    }
    std::printf("\n");
    return 0;
}
