/** @file Tests for sweep/study helpers and reporting. */

#include "core/study.hh"

#include <gtest/gtest.h>

namespace tpv {
namespace core {
namespace {

auto
quickFactory()
{
    return [](const std::string &label, double qps) {
        auto cfg = ExperimentConfig::forMemcached(qps);
        cfg.client = label.substr(0, 2) == "LP" ? hw::HwConfig::clientLP()
                                                : hw::HwConfig::clientHP();
        cfg.gen.warmup = msec(5);
        cfg.gen.duration = msec(30);
        cfg.label = label;
        return cfg;
    };
}

TEST(Study, SweepCoversTheGrid)
{
    RunnerOptions opt;
    opt.runs = 3;
    auto grid = sweepAxis<LoadAxis>({"LP", "HP"}, {20e3, 50e3},
                                    quickFactory(), opt);
    EXPECT_EQ(grid.cells.size(), 4u);
    EXPECT_EQ(grid.configs(), (std::vector<std::string>{"LP", "HP"}));
    EXPECT_EQ(grid.loads(), (std::vector<double>{20e3, 50e3}));
    EXPECT_EQ(grid.at("LP", 20e3).result.runs.size(), 3u);
}

TEST(Study, ProgressCallbackFiresPerCell)
{
    RunnerOptions opt;
    opt.runs = 2;
    int fired = 0;
    sweepAxis<LoadAxis>({"HP"}, {20e3, 50e3}, quickFactory(), opt,
                        [&](const StudyCell &) { ++fired; });
    EXPECT_EQ(fired, 2);
}

TEST(Study, SlowdownRatiosOrdered)
{
    RunnerOptions opt;
    opt.runs = 4;
    auto grid =
        sweepAxis<LoadAxis>({"LP", "HP"}, {50e3}, quickFactory(), opt);
    const auto &lp = grid.at("LP", 50e3).result;
    const auto &hp = grid.at("HP", 50e3).result;
    EXPECT_GT(slowdownAvg(lp, hp), 1.2);
    EXPECT_GT(slowdownP99(lp, hp), 1.2);
}

TEST(Study, ConfidentOrderingDetectsSeparation)
{
    RunnerOptions opt;
    opt.runs = 8;
    auto grid =
        sweepAxis<LoadAxis>({"LP", "HP"}, {50e3}, quickFactory(), opt);
    // LP and HP medians are far apart: CIs must not overlap.
    EXPECT_EQ(confidentAvgOrdering(grid.at("LP", 50e3).result,
                                   grid.at("HP", 50e3).result),
              +1);
}

TEST(TableReporter, CsvRoundTrip)
{
    TableReporter t("demo");
    t.header({"qps", "LP", "HP"});
    t.row("10K", {91.0, 43.0});
    t.row("50K", {70.5, 43.2});
    const std::string csv = t.csv();
    EXPECT_NE(csv.find("qps,LP,HP"), std::string::npos);
    EXPECT_NE(csv.find("10K,91,43"), std::string::npos);
    EXPECT_NE(csv.find("50K,70.5,43.2"), std::string::npos);
}

TEST(TableReporterDeathTest, RowWidthMustMatchHeader)
{
    TableReporter t("demo");
    t.header({"qps", "LP", "HP"});
    EXPECT_DEATH(t.row("10K", {1.0}), "row width");
}

} // namespace
} // namespace core
} // namespace tpv
