/**
 * @file
 * Fault injection + recovery: deterministic schedules, the zero-cost
 * disabled path, reproducible degradation, and failover effectiveness.
 */

#include <gtest/gtest.h>

#include "sim/fault_injector.hh"
#include "trainbox/report.hh"
#include "trainbox/server_builder.hh"
#include "trainbox/training_session.hh"

namespace tb {
namespace {

FaultConfig
windowScenario()
{
    FaultConfig fc;
    fc.enabled = true;
    fc.ssdDegrade = {0.5, 2.0, 0.05};
    fc.prepCrash = {0.2, 5.0, 0.0};
    fc.ethDegrade = {0.3, 1.0, 0.2};
    fc.routeLoss = {0.1, 4.0, 0.0};
    return fc;
}

TEST(FaultSchedule, DeterministicAndNonOverlapping)
{
    const FaultConfig fc = windowScenario();
    FaultTargets targets;
    targets.numSsds = 8;
    targets.numGroups = 4;

    const auto a = FaultInjector(fc, targets).preview(100.0);
    const auto b = FaultInjector(fc, targets).preview(100.0);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].target, b[i].target);
        EXPECT_DOUBLE_EQ(a[i].start, b[i].start);
        EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
    }

    // Windows of one class never overlap, and targets stay in range.
    std::map<FaultKind, Time> prev_end;
    for (const auto &ev : a) {
        EXPECT_GE(ev.start, prev_end[ev.kind]);
        prev_end[ev.kind] = ev.start + ev.duration;
        const std::size_t space = ev.kind == FaultKind::SsdDegrade
            ? targets.numSsds
            : (ev.kind == FaultKind::EthDegrade ? 1 : targets.numGroups);
        EXPECT_LT(ev.target, space);
    }
}

TEST(FaultSchedule, NewSeedNewSchedule)
{
    FaultConfig fc = windowScenario();
    FaultTargets targets;
    targets.numSsds = 8;
    targets.numGroups = 4;
    const auto a = FaultInjector(fc, targets).preview(100.0);
    fc.seed ^= 0x1;
    const auto b = FaultInjector(fc, targets).preview(100.0);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    EXPECT_NE(a.front().start, b.front().start);
}

TEST(FaultSchedule, DisabledClassesProduceNothing)
{
    const FaultConfig fc; // all rates zero
    FaultTargets targets;
    targets.numSsds = 4;
    targets.numGroups = 2;
    EXPECT_TRUE(FaultInjector(fc, targets).preview(1000.0).empty());
}

SessionResult
runSession(const ServerConfig &cfg, std::size_t warmup = 4,
           std::size_t measure = 8)
{
    auto server = buildServer(cfg);
    TrainingSession session(*server);
    return session.run(warmup, measure);
}

ServerConfig
trainBoxConfig(std::size_t n_acc)
{
    ServerConfig cfg;
    cfg.preset = ArchPreset::TrainBox;
    cfg.model = workload::ModelId::Resnet50;
    cfg.numAccelerators = n_acc;
    cfg.prepPoolFpgas = 8; // force a pool so failover has a target
    return cfg;
}

TEST(FaultSession, DisabledPathIsBitIdentical)
{
    const ServerConfig base = trainBoxConfig(32);

    // A config full of armed-but-disabled fault knobs must produce the
    // exact same result as one that never mentions faults.
    ServerConfig knobs = base;
    knobs.faults = windowScenario();
    knobs.faults.enabled = false;
    knobs.faults.ssdReadFailureProb = 0.3;
    knobs.faults.stragglerProb = 0.5;

    const SessionResult a = runSession(base);
    const SessionResult b = runSession(knobs);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_DOUBLE_EQ(a.stepTime, b.stepTime);
    EXPECT_DOUBLE_EQ(a.prepLatency, b.prepLatency);
    EXPECT_EQ(b.faults.faultsInjected, 0u);
    EXPECT_EQ(b.faults.ssdRetries, 0u);
    EXPECT_DOUBLE_EQ(b.faults.degradedTime, 0.0);
}

TEST(FaultSession, SsdDegradationReproducesExactly)
{
    ServerConfig cfg = trainBoxConfig(32);
    const SessionResult healthy = runSession(cfg);

    // Scale windows to the run: several arrivals, step-length outages
    // that throttle one SSD to 1% — reads stripe over the box's SSDs,
    // so the whole group's fetch is capped while the window is open.
    cfg.faults.enabled = true;
    cfg.faults.ssdDegrade.ratePerSec = 2.0 / healthy.stepTime;
    cfg.faults.ssdDegrade.duration = healthy.stepTime;
    cfg.faults.ssdDegrade.magnitude = 0.01;
    cfg.faults.ssdReadFailureProb = 0.1;

    const SessionResult a = runSession(cfg);
    const SessionResult b = runSession(cfg);

    EXPECT_GT(a.faults.faultsInjected, 0u);
    EXPECT_GT(a.faults.readFailures, 0u);
    EXPECT_GT(a.faults.ssdRetries, 0u);
    EXPECT_GT(a.faults.degradedTime, 0.0);
    EXPECT_LE(a.throughput, healthy.throughput);

    // Same seed, same config => bit-identical degraded run.
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.faults.faultsInjected, b.faults.faultsInjected);
    EXPECT_EQ(a.faults.ssdRetries, b.faults.ssdRetries);
    EXPECT_DOUBLE_EQ(a.faults.degradedTime, b.faults.degradedTime);
}

TEST(FaultSession, PrepCrashFailoverBeatsNoFailover)
{
    ServerConfig cfg = trainBoxConfig(32);
    const SessionResult healthy = runSession(cfg);

    // One long crash early in the run that outlives the whole session:
    // the failover policy must keep goodput clearly above the collapsed
    // no-failover baseline.
    cfg.faults.enabled = true;
    cfg.faults.prepCrash.ratePerSec = 4.0 / healthy.stepTime;
    cfg.faults.prepCrash.duration = 1000.0 * healthy.stepTime;

    ServerConfig no_failover = cfg;
    no_failover.faults.poolFailover = false;

    const SessionResult with = runSession(cfg);
    const SessionResult without = runSession(no_failover);

    EXPECT_GT(with.faults.prepFailovers, 0u);
    EXPECT_EQ(without.faults.prepFailovers, 0u);
    const double with_goodput =
        SessionReport::computeGoodput(with.throughput, healthy.throughput);
    const double without_goodput = SessionReport::computeGoodput(
        without.throughput, healthy.throughput);
    EXPECT_GT(with_goodput, 2.0 * without_goodput);
    // Failover keeps the machine productive through the outage.
    EXPECT_GT(with_goodput, 0.5);
}

TEST(FaultSession, StragglerTimeoutBoundsStepTime)
{
    ServerConfig cfg = trainBoxConfig(16);
    cfg.faults.enabled = true;
    cfg.faults.stragglerProb = 0.4;
    cfg.faults.stragglerFactor = 8.0;

    ServerConfig wait_out = cfg;
    wait_out.faults.stepTimeoutFactor = 0.0; // barrier waits stragglers

    cfg.faults.stepTimeoutFactor = 1.5; // abort + re-dispatch at 1.5x

    const SessionResult bounded = runSession(cfg);
    const SessionResult unbounded = runSession(wait_out);

    EXPECT_GT(bounded.faults.stragglerSteps, 0u);
    EXPECT_GT(bounded.faults.computeRedispatches, 0u);
    EXPECT_EQ(unbounded.faults.computeRedispatches, 0u);
    EXPECT_EQ(bounded.faults.stragglerSteps,
              unbounded.faults.stragglerSteps);
    // Re-dispatching caps a straggling step at (1.5 + 1)x nominal
    // compute instead of 8x, so average step time must be lower.
    EXPECT_LT(bounded.stepTime, unbounded.stepTime);
}

TEST(FaultSession, AllClassesTogetherCompleteAndReproduce)
{
    ServerConfig cfg = trainBoxConfig(32);
    const SessionResult healthy = runSession(cfg);

    cfg.faults = windowScenario();
    const Time step = healthy.stepTime;
    cfg.faults.ssdDegrade = {1.0 / step, 0.5 * step, 0.05};
    cfg.faults.prepCrash = {0.5 / step, 2.0 * step, 0.0};
    cfg.faults.ethDegrade = {0.5 / step, step, 0.2};
    cfg.faults.routeLoss = {0.5 / step, step, 0.0};
    cfg.faults.ssdReadFailureProb = 0.05;
    cfg.faults.stragglerProb = 0.1;

    const SessionResult a = runSession(cfg);
    const SessionResult b = runSession(cfg);
    EXPECT_GT(a.faults.faultsInjected, 0u);
    EXPECT_GT(a.faults.degradedTime, 0.0);
    EXPECT_GT(a.throughput, 0.0);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.faults.faultsInjected, b.faults.faultsInjected);
}

} // namespace
} // namespace tb
