/**
 * @file
 * Figure 5 reproduction: run-to-run standard deviation of the average
 * response time — Memcached (a) and HDSearch (b), LP/HP clients, SMT
 * on/off servers. The paper's shape: LP variability is largest at low
 * QPS (deep sleeps), HP variability grows at high QPS (queueing).
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
    std::printf("Figure 5: stdev of per-run average response time\n");
    std::printf("runs=%d duration=%s\n", opt.runs,
                formatTime(opt.duration).c_str());

    // (a) Memcached.
    const auto mcLoads = memcachedLoads();
    const auto mcGrid = sweepAxis<LoadAxis>(
        smtStudyConfigs(), mcLoads,
        [&](const std::string &label, double qps) {
            return configFor(label,
                             withTiming(ExperimentConfig::forMemcached(qps),
                                        opt));
        },
        opt.runner(), progress);

    TableReporter a("Fig 5a: Memcached stdev of run-averages (us); "
                    "paper: LP peaks at low QPS, HP rises with QPS");
    a.header({"KQPS", "LP-SMToff", "LP-SMTon", "HP-SMToff", "HP-SMTon"});
    for (double qps : mcLoads) {
        a.row(std::to_string(static_cast<int>(qps / 1000)),
              {mcGrid.at("LP-SMToff", qps).result.stdevAvg(),
               mcGrid.at("LP-SMTon", qps).result.stdevAvg(),
               mcGrid.at("HP-SMToff", qps).result.stdevAvg(),
               mcGrid.at("HP-SMTon", qps).result.stdevAvg()});
    }
    a.print();

    // (b) HDSearch.
    const std::vector<double> hdsLoads{500, 1000, 1500, 2000, 2500};
    const auto hdsGrid = sweepAxis<LoadAxis>(
        smtStudyConfigs(), hdsLoads,
        [&](const std::string &label, double qps) {
            return configFor(label,
                             withTiming(ExperimentConfig::forHdSearch(qps),
                                        opt));
        },
        opt.runner(), progress);

    TableReporter b("Fig 5b: HDSearch stdev of run-averages (us); "
                    "paper: ~20us, dwarfed by the 400us+ service time");
    b.header({"QPS", "LP-SMToff", "LP-SMTon", "HP-SMToff", "HP-SMTon"});
    for (double qps : hdsLoads) {
        b.row(std::to_string(static_cast<int>(qps)),
              {hdsGrid.at("LP-SMToff", qps).result.stdevAvg(),
               hdsGrid.at("LP-SMTon", qps).result.stdevAvg(),
               hdsGrid.at("HP-SMToff", qps).result.stdevAvg(),
               hdsGrid.at("HP-SMTon", qps).result.stdevAvg()});
    }
    b.print();
    return 0;
}
