/**
 * @file
 * Figure 7 reproduction: the synthetic sensitivity analysis. Sweep
 * the added service delay 0-400us at 5K-20K QPS under LP and HP
 * clients: (a/b) LP/HP ratio for avg and p99 per load, (c/d) absolute
 * avg and p99 at 5K, (e/f) at 20K. Paper: the ratio falls from ~2.8x
 * at no delay toward ~1.0x at 400us.
 *
 * The paper uses 20 runs for this study; we keep that scale factor
 * relative to TPV_RUNS.
 */

#include <cstdio>
#include <map>

#include "bench_common.hh"

using namespace tpv;
using namespace tpv::bench;
using namespace tpv::core;

int
main()
{
    BenchOptions opt = BenchOptions::fromEnv();
    // Paper Section V-B: "the results presented in this section are
    // the average of 20 runs" (vs 50 elsewhere).
    opt.runs = std::max(2, opt.runs * 2 / 5);
    std::printf("Figure 7: synthetic workload delay sweep\n");
    std::printf("runs=%d duration=%s\n", opt.runs,
                formatTime(opt.duration).c_str());

    const std::vector<double> loads{5e3, 10e3, 15e3, 20e3};
    const std::vector<Time> delays{0, usec(100), usec(200), usec(300),
                                   usec(400)};

    // One flat (client x delay) x load grid through the scheduler:
    // every (config, qps, repetition) task lands in the same bag, so
    // the whole figure scales with hardware concurrency. Each label
    // maps back to its (client, delay) spec — labels are display
    // strings, never parsed.
    struct CellSpec
    {
        bool lowPower;
        Time delay;
    };
    std::vector<std::string> labels;
    std::map<std::string, CellSpec> specs;
    for (bool lowPower : {true, false}) {
        for (Time d : delays) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%s-%dus",
                          lowPower ? "LP" : "HP",
                          static_cast<int>(toUsec(d)));
            labels.push_back(buf);
            specs[buf] = CellSpec{lowPower, d};
        }
    }
    const auto factory = [&](const std::string &label,
                                      double qps) {
        const CellSpec &spec = specs.at(label);
        auto cfg = withTiming(
            ExperimentConfig::forSynthetic(qps, spec.delay), opt);
        cfg.client = spec.lowPower ? hw::HwConfig::clientLP()
                                   : hw::HwConfig::clientHP();
        cfg.label = label;
        return cfg;
    };
    const StudyGrid swept =
        sweepAxis<LoadAxis>(labels, loads, factory, opt.runner(),
                            bench::progress);

    // grid[load][delay][client] -> result
    struct Cell
    {
        RepeatedResult lp, hp;
    };
    std::vector<std::vector<Cell>> grid(loads.size());
    for (std::size_t li = 0; li < loads.size(); ++li) {
        for (std::size_t di = 0; di < delays.size(); ++di) {
            Cell cell;
            cell.lp = swept.at(labels[di], loads[li]).result;
            cell.hp =
                swept.at(labels[delays.size() + di], loads[li]).result;
            grid[li].push_back(std::move(cell));
        }
    }

    TableReporter ra("Fig 7a: LP/HP ratio on avg (paper: 2.8x at 0us "
                     "-> ~1.02x at 400us)");
    ra.header({"delay_us", "5K", "10K", "15K", "20K"});
    TableReporter rb("Fig 7b: LP/HP ratio on p99 (paper: 3.5x -> ~1x)");
    rb.header({"delay_us", "5K", "10K", "15K", "20K"});
    for (std::size_t di = 0; di < delays.size(); ++di) {
        std::vector<double> rowA, rowB;
        for (std::size_t li = 0; li < loads.size(); ++li) {
            const Cell &c = grid[li][di];
            rowA.push_back(c.lp.meanAvg() / c.hp.meanAvg());
            rowB.push_back(c.lp.meanP99() / c.hp.meanP99());
        }
        const std::string label =
            std::to_string(static_cast<int>(toUsec(delays[di])));
        ra.row(label, rowA);
        rb.row(label, rowB);
    }
    ra.print();
    rb.print();

    auto absolute = [&](std::size_t li, const char *title,
                        bool p99) {
        TableReporter t(title);
        t.header({"delay_us", "HP", "LP"});
        for (std::size_t di = 0; di < delays.size(); ++di) {
            const Cell &c = grid[li][di];
            t.row(std::to_string(static_cast<int>(toUsec(delays[di]))),
                  {p99 ? c.hp.medianP99() : c.hp.medianAvg(),
                   p99 ? c.lp.medianP99() : c.lp.medianAvg()});
        }
        t.print();
    };
    absolute(0, "Fig 7c: avg us at 5K QPS (paper: linear in delay)",
             false);
    absolute(0, "Fig 7d: p99 us at 5K QPS", true);
    absolute(3, "Fig 7e: avg us at 20K QPS", false);
    absolute(3, "Fig 7f: p99 us at 20K QPS", true);
    return 0;
}
