/**
 * @file
 * Figure 4 reproduction: SMT and C1E studies on HDSearch — a service
 * ~10x slower than Memcached, where client configuration shifts the
 * absolute numbers only mildly (LP 7-17% above HP on avg) and both
 * clients report the same speedup trends.
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
    std::printf("Figure 4: HDSearch SMT + C1E studies (LP/HP clients)\n");
    std::printf("runs=%d duration=%s\n", opt.runs,
                formatTime(opt.duration).c_str());

    const std::vector<double> loads{500, 1000, 1500, 2000, 2500};
    std::vector<std::string> configs = smtStudyConfigs();
    for (const auto &c : c1eStudyConfigs())
        configs.push_back(c);

    const auto grid = sweepAxis<LoadAxis>(
        configs, loads,
        [&](const std::string &label, double qps) {
            return configFor(label,
                             withTiming(ExperimentConfig::forHdSearch(qps),
                                        opt));
        },
        opt.runner(), progress);

    TableReporter smtAvg("Fig 4a: Average Response Time (ms), SMT study");
    TableReporter smtP99("Fig 4b: 99th Percentile Latency (ms), SMT study");
    TableReporter c1eAvg("Fig 4c: Average Response Time (ms), C1E study");
    TableReporter c1eP99("Fig 4d: 99th Percentile Latency (ms), C1E study");
    const std::vector<std::string> smtCols{"QPS", "LP-SMToff", "LP-SMTon",
                                           "HP-SMToff", "HP-SMTon"};
    const std::vector<std::string> c1eCols{"QPS", "LP-C1Eoff", "LP-C1Eon",
                                           "HP-C1Eoff", "HP-C1Eon"};
    smtAvg.header(smtCols);
    smtP99.header(smtCols);
    c1eAvg.header(c1eCols);
    c1eP99.header(c1eCols);

    auto ms = [](double us) { return us / 1000.0; };
    for (double qps : loads) {
        const std::string label = std::to_string(static_cast<int>(qps));
        smtAvg.row(label,
                   {ms(grid.at("LP-SMToff", qps).result.medianAvg()),
                    ms(grid.at("LP-SMTon", qps).result.medianAvg()),
                    ms(grid.at("HP-SMToff", qps).result.medianAvg()),
                    ms(grid.at("HP-SMTon", qps).result.medianAvg())});
        smtP99.row(label,
                   {ms(grid.at("LP-SMToff", qps).result.medianP99()),
                    ms(grid.at("LP-SMTon", qps).result.medianP99()),
                    ms(grid.at("HP-SMToff", qps).result.medianP99()),
                    ms(grid.at("HP-SMTon", qps).result.medianP99())});
        c1eAvg.row(label,
                   {ms(grid.at("LP-C1Eoff", qps).result.medianAvg()),
                    ms(grid.at("LP-C1Eon", qps).result.medianAvg()),
                    ms(grid.at("HP-C1Eoff", qps).result.medianAvg()),
                    ms(grid.at("HP-C1Eon", qps).result.medianAvg())});
        c1eP99.row(label,
                   {ms(grid.at("LP-C1Eoff", qps).result.medianP99()),
                    ms(grid.at("LP-C1Eon", qps).result.medianP99()),
                    ms(grid.at("HP-C1Eoff", qps).result.medianP99()),
                    ms(grid.at("HP-C1Eon", qps).result.medianP99())});
    }
    smtAvg.print();
    smtP99.print();
    c1eAvg.print();
    c1eP99.print();

    // Section V-B's headline: LP only 7-17% above HP on avg, and both
    // clients report the same trends.
    std::printf("\nLP/HP avg ratio (paper: 1.07-1.17): ");
    for (double qps : loads) {
        std::printf("%.3f ", grid.at("LP-SMToff", qps).result.meanAvg() /
                                 grid.at("HP-SMToff", qps).result.meanAvg());
    }
    std::printf("\nSMT speedup agreement LP vs HP (avg ratios): ");
    for (double qps : loads) {
        const double lp = slowdownAvg(grid.at("LP-SMToff", qps).result,
                                      grid.at("LP-SMTon", qps).result);
        const double hp = slowdownAvg(grid.at("HP-SMToff", qps).result,
                                      grid.at("HP-SMTon", qps).result);
        std::printf("(%.3f vs %.3f) ", lp, hp);
    }
    std::printf("\n");
    return 0;
}
