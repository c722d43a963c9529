/**
 * @file
 * Figure 6 reproduction: Social Network (DeathStarBench) under LP and
 * HP clients — (a) LP/HP ratio for avg and p99, (b) absolute average
 * response time, (c) absolute p99. At multi-millisecond latencies the
 * client configuration barely matters (Finding 3).
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
    std::printf("Figure 6: Social Network LP vs HP clients\n");
    std::printf("runs=%d duration=%s\n", opt.runs,
                formatTime(opt.duration).c_str());

    const std::vector<double> loads{100, 200, 300, 400, 500, 600};
    const auto grid = sweepAxis<LoadAxis>(
        {"LP", "HP"}, loads,
        [&](const std::string &label, double qps) {
            auto cfg = withTiming(ExperimentConfig::forSocialNetwork(qps),
                                  opt);
            cfg.client = label == "LP" ? hw::HwConfig::clientLP()
                                       : hw::HwConfig::clientHP();
            cfg.label = label;
            return cfg;
        },
        opt.runner(), progress);

    TableReporter ratio("Fig 6a: LP / HP ratio (paper: avg <= ~1.05, "
                        "p99 ~= 1.0)");
    ratio.header({"QPS", "avg", "p99"});
    TableReporter avg("Fig 6b: Average Response Time (ms)");
    avg.header({"QPS", "LP", "HP"});
    TableReporter p99("Fig 6c: 99th Percentile Latency (ms)");
    p99.header({"QPS", "LP", "HP"});

    for (double qps : loads) {
        const std::string label = std::to_string(static_cast<int>(qps));
        const auto &lp = grid.at("LP", qps).result;
        const auto &hp = grid.at("HP", qps).result;
        ratio.row(label, {lp.meanAvg() / hp.meanAvg(),
                          lp.meanP99() / hp.meanP99()});
        avg.row(label,
                {lp.medianAvg() / 1000.0, hp.medianAvg() / 1000.0});
        p99.row(label,
                {lp.medianP99() / 1000.0, hp.medianP99() / 1000.0});
    }
    ratio.print();
    avg.print();
    p99.print();
    return 0;
}
