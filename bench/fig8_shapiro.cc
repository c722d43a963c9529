/**
 * @file
 * Figure 8 reproduction: Shapiro-Wilk normality p-values for the 42
 * configurations of Section V-A (six client/server scenarios x seven
 * loads, 50 runs each). The paper finds roughly half the
 * configurations fail normality at alpha = 0.05.
 */

#include <cstdio>

#include "bench_common.hh"
#include "stats/shapiro_wilk.hh"

using namespace tpv;
using namespace tpv::bench;
using namespace tpv::core;

int
main()
{
    BenchOptions opt = BenchOptions::fromEnv();
    // Normality testing needs the paper's 50-run sample size.
    opt.runs = std::max(opt.runs, 50);
    std::printf("Figure 8: Shapiro-Wilk p-values over 42 configurations\n");
    std::printf("runs=%d duration=%s threshold=0.05\n", opt.runs,
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

    TableReporter table("Fig 8: Shapiro-Wilk p-value of the 50 per-run "
                        "averages (fail = p < 0.05)");
    std::vector<std::string> cols{"KQPS"};
    for (const auto &c : configs)
        cols.push_back(c);
    table.header(cols);

    int total = 0, pass = 0;
    for (double qps : loads) {
        std::vector<double> row;
        for (const auto &c : configs) {
            const auto p =
                stats::shapiroWilk(grid.at(c, qps).result.avgPerRun);
            row.push_back(p.pValue);
            ++total;
            pass += p.normalAt(0.05);
        }
        table.row(std::to_string(static_cast<int>(qps / 1000)), row);
    }
    table.print();
    std::printf("\nConfigurations passing normality: %d / %d "
                "(paper: ~50%%)\n",
                pass, total);
    return 0;
}
