/**
 * @file
 * The shared arrival stream (sim/arrivals.hh) against its preview.
 *
 * Every injector claims arm() plays exactly what its preview lists.
 * Here each one is armed on a private queue, stepped to a horizon, and
 * what its handlers receive is compared field by field with the
 * preview: seeded classes, scripted events, elastic joins and deferred
 * scale-up joins alike. The queue's clock at each delivery must be the
 * arm-time origin plus the event's job-relative time, for an origin of
 * 0 and of one year.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/elastic_schedule.hh"
#include "sim/event_queue.hh"
#include "sim/fault_injector.hh"
#include "sim/ingest.hh"

namespace tb {
namespace {

constexpr Time kHorizon = 200.0;

/** Move @p eq's clock to @p t0, so arm() anchors there. */
void
advanceTo(EventQueue &eq, Time t0)
{
    eq.schedule(t0, [] {});
    eq.step();
    ASSERT_EQ(eq.now(), t0);
}

/** Run every event due at or before @p end. */
void
runTo(EventQueue &eq, Time end)
{
    while (!eq.empty() && eq.nextTime() <= end)
        eq.step();
}

class ArrivalOracle : public ::testing::TestWithParam<Time>
{
};

TEST_P(ArrivalOracle, FaultWindowsMatchPreview)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.ssdDegrade = {0.5, 2.0, 0.05};
    fc.prepCrash = {0.2, 5.0, 0.0};
    fc.ethDegrade = {0.3, 1.0, 0.2};
    fc.routeLoss = {0.1, 4.0, 0.0};
    fc.fatalCrash.ratePerSec = 0.05;
    FaultTargets targets;
    targets.numSsds = 8;
    targets.numGroups = 4;
    const std::vector<FaultEvent> want =
        FaultInjector(fc, targets).preview(kHorizon);
    ASSERT_GT(want.size(), 50u);

    const Time origin = GetParam();
    EventQueue eq;
    advanceTo(eq, origin);
    FaultInjector inj(fc, targets);
    std::vector<FaultEvent> got;
    std::size_t faults = 0, repairs = 0;
    inj.arm(
        eq,
        [&](const FaultEvent &ev) {
            EXPECT_EQ(eq.now(), origin + ev.start);
            ++faults;
            if (ev.start < kHorizon)
                got.push_back(ev);
        },
        [&](const FaultEvent &ev) {
            EXPECT_EQ(eq.now(), origin + ev.start + ev.duration);
            ++repairs;
        });
    runTo(eq, origin + kHorizon);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << i;
        EXPECT_EQ(got[i].target, want[i].target) << i;
        EXPECT_EQ(got[i].start, want[i].start) << i;
        EXPECT_EQ(got[i].duration, want[i].duration) << i;
        EXPECT_EQ(got[i].magnitude, want[i].magnitude) << i;
    }
    EXPECT_EQ(inj.delivered(), faults);
    EXPECT_GT(repairs, 0u);
    EXPECT_LE(repairs, faults);
}

TEST_P(ArrivalOracle, ElasticTimelineMatchesPreview)
{
    ElasticityConfig cfg;
    cfg.enabled = true;
    cfg.graceWindow = 1.5;
    cfg.groupDrain = {0.05, 8.0};
    cfg.groupPreempt = {0.04, 12.0};
    cfg.prepDrain = {0.08, 6.0};
    cfg.prepPreempt = {0.06, 10.0};
    cfg.deferredJoinGroups = 2;
    cfg.scaleUpTime = 30.0;
    cfg.schedule = {
        {ElasticTargetKind::Group, ElasticAction::Preempt, 1, 10.0},
        {ElasticTargetKind::Prep, ElasticAction::Drain, 2, 50.0},
        {ElasticTargetKind::Prep, ElasticAction::Join, 2, 500.0},
    };
    ElasticTargets targets;
    targets.numGroups = 8;
    const std::vector<ElasticEvent> want =
        ElasticScheduler(cfg, targets).preview(kHorizon);
    ASSERT_GT(want.size(), 20u);

    const Time origin = GetParam();
    EventQueue eq;
    advanceTo(eq, origin);
    ElasticScheduler sched(cfg, targets);
    EXPECT_EQ(sched.deferredGroups(), (std::vector<std::size_t>{7, 6}));
    std::vector<ElasticEvent> got;
    std::size_t calls = 0;
    sched.arm(eq, [&](const ElasticEvent &ev) {
        EXPECT_EQ(eq.now(), origin + ev.at);
        ++calls;
        if (ev.at < kHorizon)
            got.push_back(ev);
    });
    runTo(eq, origin + kHorizon);

    ASSERT_EQ(got.size(), want.size());
    std::size_t joins = 0, scripted = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].target, want[i].target) << i;
        EXPECT_EQ(got[i].action, want[i].action) << i;
        EXPECT_EQ(got[i].index, want[i].index) << i;
        EXPECT_EQ(got[i].at, want[i].at) << i;
        joins += want[i].action == ElasticAction::Join;
        scripted += want[i].at == 10.0 || want[i].at == 30.0 ||
                    want[i].at == 50.0;
    }
    // Paired joins, both scale-up joins and the two in-horizon
    // scripted events are all part of the comparison.
    EXPECT_GT(joins, 4u);
    EXPECT_EQ(scripted, 4u);
    EXPECT_EQ(sched.delivered(), calls);
}

TEST_P(ArrivalOracle, IngestArrivalsMatchPreview)
{
    IngestConfig cfg;
    cfg.enabled = true;
    cfg.steady = {500.0, 64.0, 2};
    cfg.diurnal = {300.0, 32.0, 1};
    cfg.burst = {200.0, 256.0, 0};
    cfg.diurnalAmplitude = 0.8;
    cfg.diurnalPeriod = 50.0;
    cfg.schedule = {
        {IngestTrafficKind::Burst, 100.0, 0, 5.0},
        {IngestTrafficKind::Steady, 50.0, 2, 120.0},
        {IngestTrafficKind::Burst, 70.0, 0, 900.0},
    };
    const std::vector<IngestArrival> want =
        IngestScheduler(cfg).preview(kHorizon);
    ASSERT_GT(want.size(), 1000u);

    const Time origin = GetParam();
    EventQueue eq;
    advanceTo(eq, origin);
    IngestScheduler sched(cfg);
    std::vector<IngestArrival> got;
    sched.arm(eq, [&](const IngestArrival &ev) {
        EXPECT_EQ(eq.now(), origin + ev.at);
        if (ev.at < kHorizon)
            got.push_back(ev);
    });
    runTo(eq, origin + kHorizon);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << i;
        EXPECT_EQ(got[i].samples, want[i].samples) << i;
        EXPECT_EQ(got[i].priority, want[i].priority) << i;
        EXPECT_EQ(got[i].at, want[i].at) << i;
    }
}

TEST_P(ArrivalOracle, FleetFaultsMatchTheirList)
{
    FleetFaultConfig cfg;
    cfg.enabled = true;
    cfg.hostOutage = {50.0, 2.0};
    cfg.boxLoss = {40.0, 3.0};
    cfg.poolPartition = {60.0, 0.0};
    cfg.boxLossUnits = 2;
    cfg.schedule = {
        {FleetFaultKind::HostOutage, 1, 10.0, 1.0, 1},
        {FleetFaultKind::PoolPartition, 0, 20.0, 0.0, 3},
    };
    const std::size_t hosts = 4;
    const std::vector<FleetFaultEvent> want =
        FleetFaultInjector(cfg, hosts, kHorizon).events();
    ASSERT_GT(want.size(), 20u);

    const Time origin = GetParam();
    EventQueue eq;
    advanceTo(eq, origin);
    FleetFaultInjector inj(cfg, hosts, kHorizon);
    std::vector<FleetFaultEvent> got;
    std::vector<std::size_t> repaired;
    inj.arm(
        eq,
        [&](const FleetFaultEvent &ev, std::size_t idx) {
            EXPECT_EQ(eq.now(), origin + ev.start);
            EXPECT_EQ(idx, got.size());
            got.push_back(ev);
        },
        [&](const FleetFaultEvent &ev, std::size_t idx) {
            EXPECT_EQ(eq.now(), origin + ev.start + ev.duration);
            ASSERT_LT(idx, got.size());
            EXPECT_EQ(ev.start, got[idx].start);
            repaired.push_back(idx);
        });
    while (eq.step()) {
    }

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << i;
        EXPECT_EQ(got[i].host, want[i].host) << i;
        EXPECT_EQ(got[i].start, want[i].start) << i;
        EXPECT_EQ(got[i].duration, want[i].duration) << i;
        EXPECT_EQ(got[i].units, want[i].units) << i;
        EXPECT_LT(want[i].start, kHorizon) << i;
    }
    EXPECT_EQ(inj.faultsInjected(), want.size());
    EXPECT_EQ(repaired.size(), want.size());
}

INSTANTIATE_TEST_SUITE_P(Origins, ArrivalOracle,
                         ::testing::Values(0.0, 365.0 * 86400.0));

} // namespace
} // namespace tb
