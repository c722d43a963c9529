/** @file Tests for the diagnostics front door (sim/logging.hh). */

#include "sim/logging.hh"

#include <gtest/gtest.h>

#include <string>

#include "hw/machine.hh"
#include "sim/simulator.hh"

namespace tpv {
namespace {

TEST(Logging, WarnWritesOneTaggedLineToStderr)
{
    testing::internal::CaptureStderr();
    warn("x=", 3);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "warn: x=3\n");
}

TEST(Logging, IdlePollWithCStatesWarnsOnMachineBuild)
{
    hw::HwConfig cfg;
    cfg.name = "polling";
    cfg.cores = 2;
    cfg.idlePoll = true;
    cfg.cstates = {hw::CState::C0, hw::CState::C1};

    Simulator sim;
    testing::internal::CaptureStderr();
    hw::Machine m(sim, cfg);
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: HwConfig 'polling': idle=poll set; enabled C-states "
              "beyond C0 are ignored\n");

    // C0 alone leaves nothing for idle=poll to override: no warning.
    cfg.cstates = {hw::CState::C0};
    Simulator quiet;
    testing::internal::CaptureStderr();
    hw::Machine q(quiet, cfg);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

} // namespace
} // namespace tpv
