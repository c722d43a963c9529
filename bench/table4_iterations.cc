/**
 * @file
 * Table IV reproduction: repetitions needed for a 1%-error 95% CI per
 * configuration, by Jain's parametric formula and by CONFIRM, plus
 * each configuration's Shapiro-Wilk verdict. The paper's structure:
 * LP needs many repetitions at low QPS, HP at high QPS; CONFIRM caps
 * at ">runs" when the sample set cannot reach the target error.
 */

#include <cstdio>
#include <string>

#include "bench_common.hh"
#include "stats/sample_size.hh"
#include "stats/shapiro_wilk.hh"

using namespace tpv;
using namespace tpv::bench;
using namespace tpv::core;

int
main()
{
    BenchOptions opt = BenchOptions::fromEnv();
    opt.runs = std::max(opt.runs, 50);
    std::printf("Table IV: iterations for 1%% error at 95%% confidence\n");
    std::printf("runs=%d duration=%s\n", opt.runs,
                formatTime(opt.duration).c_str());

    const std::vector<std::string> configs{"LP-SMToff", "LP-SMTon",
                                           "HP-SMToff", "HP-SMTon",
                                           "LP-C1Eon",  "HP-C1Eon"};
    const auto loads = memcachedLoads();
    const auto grid = sweepAxis<LoadAxis>(
        configs, loads,
        [&](const std::string &label, double qps) {
            return configFor(label,
                             withTiming(ExperimentConfig::forMemcached(qps),
                                        opt));
        },
        opt.runner(), progress);

    std::printf("\n%-12s %-8s %12s %12s %14s\n", "Config", "QPS",
                "Parametric", "CONFIRM", "Shapiro-Wilk");
    for (const auto &c : configs) {
        for (double qps : loads) {
            const auto &samples = grid.at(c, qps).result.avgPerRun;
            const auto jain = stats::jainIterations(samples, 1.0);
            const auto confirm = stats::confirmIterations(samples);
            const auto sw = stats::shapiroWilk(samples);
            char confirmStr[32];
            if (confirm.saturated) {
                std::snprintf(confirmStr, sizeof(confirmStr), ">%zu",
                              samples.size());
            } else {
                std::snprintf(confirmStr, sizeof(confirmStr), "%llu",
                              static_cast<unsigned long long>(
                                  confirm.iterations));
            }
            std::printf("%-12s %-8d %12llu %12s %14s\n", c.c_str(),
                        static_cast<int>(qps / 1000),
                        static_cast<unsigned long long>(jain), confirmStr,
                        sw.normalAt(0.05) ? "pass" : "fail");
        }
        std::printf("\n");
    }
    return 0;
}
