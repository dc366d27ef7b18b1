/**
 * @file
 * Tests for the fluid-flow contention engine — the analytical heart of
 * the simulator, so these check exact rate allocations and completion
 * times, not just plumbing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fluid/fluid.hh"

namespace tb {
namespace {

struct FluidTest : public ::testing::Test
{
    EventQueue eq;
    FluidNetwork net{eq};
};

TEST_F(FluidTest, SingleFlowRunsAtCapacity)
{
    FluidResource *link = net.addResource("link", 100.0);
    double done_at = -1.0;
    FlowSpec spec;
    spec.category = "x";
    spec.size = 500.0;
    spec.demands = {{link, 1.0}};
    spec.onComplete = [&](Time t) { done_at = t; };
    net.startFlow(std::move(spec));
    eq.run();
    EXPECT_DOUBLE_EQ(done_at, 5.0);
    EXPECT_DOUBLE_EQ(link->totalServed(), 500.0);
}

TEST_F(FluidTest, TwoEqualFlowsShareFairly)
{
    FluidResource *link = net.addResource("link", 100.0);
    std::vector<double> done;
    for (int i = 0; i < 2; ++i) {
        FlowSpec spec;
        spec.category = "x";
        spec.size = 100.0;
        spec.demands = {{link, 1.0}};
        spec.onComplete = [&](Time t) { done.push_back(t); };
        net.startFlow(std::move(spec));
    }
    eq.run();
    // Both at 50 units/s -> both finish at t = 2.
    ASSERT_EQ(done.size(), 2u);
    EXPECT_DOUBLE_EQ(done[0], 2.0);
    EXPECT_DOUBLE_EQ(done[1], 2.0);
}

TEST_F(FluidTest, ShortFlowReleasesBandwidth)
{
    FluidResource *link = net.addResource("link", 100.0);
    double long_done = -1.0, short_done = -1.0;
    FlowSpec long_flow;
    long_flow.category = "long";
    long_flow.size = 150.0;
    long_flow.demands = {{link, 1.0}};
    long_flow.onComplete = [&](Time t) { long_done = t; };
    net.startFlow(std::move(long_flow));

    FlowSpec short_flow;
    short_flow.category = "short";
    short_flow.size = 50.0;
    short_flow.demands = {{link, 1.0}};
    short_flow.onComplete = [&](Time t) { short_done = t; };
    net.startFlow(std::move(short_flow));

    eq.run();
    // Shared at 50/s until the short one finishes at t=1 (50 each);
    // the long one then runs at 100/s for its remaining 100 -> t=2.
    EXPECT_DOUBLE_EQ(short_done, 1.0);
    EXPECT_DOUBLE_EQ(long_done, 2.0);
}

TEST_F(FluidTest, RateCapLimitsFlow)
{
    FluidResource *link = net.addResource("link", 100.0);
    double done = -1.0;
    FlowSpec spec;
    spec.category = "x";
    spec.size = 100.0;
    spec.rateCap = 20.0;
    spec.demands = {{link, 1.0}};
    spec.onComplete = [&](Time t) { done = t; };
    net.startFlow(std::move(spec));
    eq.run();
    EXPECT_DOUBLE_EQ(done, 5.0);
}

TEST_F(FluidTest, CappedFlowLeavesBandwidthToOthers)
{
    FluidResource *link = net.addResource("link", 100.0);
    double capped_done = -1.0, open_done = -1.0;
    FlowSpec capped;
    capped.category = "capped";
    capped.size = 100.0;
    capped.rateCap = 25.0;
    capped.demands = {{link, 1.0}};
    capped.onComplete = [&](Time t) { capped_done = t; };
    net.startFlow(std::move(capped));

    FlowSpec open;
    open.category = "open";
    open.size = 150.0;
    open.demands = {{link, 1.0}};
    open.onComplete = [&](Time t) { open_done = t; };
    net.startFlow(std::move(open));

    eq.run();
    // Capped runs at 25, open takes the remaining 75: open finishes at
    // t=2, capped at t=4.
    EXPECT_DOUBLE_EQ(open_done, 2.0);
    EXPECT_DOUBLE_EQ(capped_done, 4.0);
}

TEST_F(FluidTest, WeightedDemandConsumesProportionally)
{
    FluidResource *link = net.addResource("link", 100.0);
    double done = -1.0;
    FlowSpec spec;
    spec.category = "x";
    spec.size = 10.0; // base units (e.g., samples)
    spec.demands = {{link, 20.0}}; // 20 bytes per sample
    spec.onComplete = [&](Time t) { done = t; };
    net.startFlow(std::move(spec));
    eq.run();
    // 200 bytes at 100 B/s.
    EXPECT_DOUBLE_EQ(done, 2.0);
    EXPECT_DOUBLE_EQ(link->totalServed(), 200.0);
}

TEST_F(FluidTest, MultiResourceFlowLimitedByTightest)
{
    FluidResource *fast = net.addResource("fast", 1000.0);
    FluidResource *slow = net.addResource("slow", 10.0);
    double done = -1.0;
    FlowSpec spec;
    spec.category = "x";
    spec.size = 100.0;
    spec.demands = {{fast, 1.0}, {slow, 1.0}};
    spec.onComplete = [&](Time t) { done = t; };
    net.startFlow(std::move(spec));
    eq.run();
    EXPECT_DOUBLE_EQ(done, 10.0);
    EXPECT_DOUBLE_EQ(fast->totalServed(), 100.0);
    EXPECT_DOUBLE_EQ(slow->totalServed(), 100.0);
}

TEST_F(FluidTest, MaxMinFairnessAcrossTwoLinks)
{
    // Classic: flow A uses link1, flow B uses link2, flow C uses both.
    // link1 cap 100, link2 cap 50. Max-min: C and B split link2 at 25
    // each; A gets link1's remainder, 75.
    FluidResource *l1 = net.addResource("l1", 100.0);
    FluidResource *l2 = net.addResource("l2", 50.0);

    auto start = [&](std::vector<FlowDemand> demands) {
        FlowSpec spec;
        spec.category = "x";
        spec.size = 1e9; // effectively infinite
        spec.demands = std::move(demands);
        return net.startFlow(std::move(spec));
    };
    const FlowId a = start({{l1, 1.0}});
    const FlowId b = start({{l2, 1.0}});
    const FlowId c = start({{l1, 1.0}, {l2, 1.0}});

    EXPECT_DOUBLE_EQ(net.flowRate(b), 25.0);
    EXPECT_DOUBLE_EQ(net.flowRate(c), 25.0);
    EXPECT_DOUBLE_EQ(net.flowRate(a), 75.0);
}

TEST_F(FluidTest, FairWeightSplitsProportionally)
{
    FluidResource *link = net.addResource("link", 90.0);
    auto start = [&](double weight) {
        FlowSpec spec;
        spec.category = "x";
        spec.size = 1e9;
        spec.fairWeight = weight;
        spec.demands = {{link, 1.0}};
        return net.startFlow(std::move(spec));
    };
    const FlowId light = start(1.0);
    const FlowId heavy = start(2.0);
    EXPECT_DOUBLE_EQ(net.flowRate(light), 30.0);
    EXPECT_DOUBLE_EQ(net.flowRate(heavy), 60.0);
}

TEST_F(FluidTest, PerCategoryAccounting)
{
    FluidResource *link = net.addResource("link", 100.0);
    for (const char *cat : {"a", "b"}) {
        FlowSpec spec;
        spec.category = cat;
        spec.size = 100.0;
        spec.demands = {{link, 1.0}};
        net.startFlow(std::move(spec));
    }
    eq.run();
    EXPECT_DOUBLE_EQ(link->served("a"), 100.0);
    EXPECT_DOUBLE_EQ(link->served("b"), 100.0);
    EXPECT_DOUBLE_EQ(link->served("missing"), 0.0);
    EXPECT_DOUBLE_EQ(link->totalServed(), 200.0);
}

TEST_F(FluidTest, UtilizationWindow)
{
    FluidResource *link = net.addResource("link", 100.0);
    FlowSpec spec;
    spec.category = "x";
    spec.size = 100.0;
    spec.demands = {{link, 1.0}};
    net.startFlow(std::move(spec));
    eq.run();
    // Busy 1 s; idle until t=2.
    eq.schedule(2.0, [] {});
    eq.run();
    EXPECT_NEAR(link->utilization(eq.now()), 0.5, 1e-12);

    net.resetAccounting();
    EXPECT_DOUBLE_EQ(link->totalServed(), 0.0);
}

TEST_F(FluidTest, ZeroSizeFlowCompletesImmediately)
{
    FluidResource *link = net.addResource("link", 100.0);
    double done = -1.0;
    FlowSpec spec;
    spec.category = "x";
    spec.size = 0.0;
    spec.demands = {{link, 1.0}};
    spec.onComplete = [&](Time t) { done = t; };
    net.startFlow(std::move(spec));
    eq.run();
    EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST_F(FluidTest, CancelSuppressesCompletion)
{
    FluidResource *link = net.addResource("link", 100.0);
    bool fired = false;
    FlowSpec spec;
    spec.category = "x";
    spec.size = 100.0;
    spec.demands = {{link, 1.0}};
    spec.onComplete = [&](Time) { fired = true; };
    const FlowId id = net.startFlow(std::move(spec));
    eq.schedule(0.5, [&] { net.cancelFlow(id); });
    eq.run();
    EXPECT_FALSE(fired);
    // Half the flow was served before cancellation.
    EXPECT_DOUBLE_EQ(link->totalServed(), 50.0);
}

TEST_F(FluidTest, FlowRemainingTracksProgress)
{
    FluidResource *link = net.addResource("link", 100.0);
    FlowSpec spec;
    spec.category = "x";
    spec.size = 100.0;
    spec.demands = {{link, 1.0}};
    const FlowId id = net.startFlow(std::move(spec));
    double remaining_at_half = -1.0;
    eq.schedule(0.5, [&] { remaining_at_half = net.flowRemaining(id); });
    eq.run();
    EXPECT_DOUBLE_EQ(remaining_at_half, 50.0);
    EXPECT_DOUBLE_EQ(net.flowRemaining(id), 0.0);
}

TEST_F(FluidTest, CapacityChangeTakesEffect)
{
    FluidResource *link = net.addResource("link", 100.0);
    double done = -1.0;
    FlowSpec spec;
    spec.category = "x";
    spec.size = 100.0;
    spec.demands = {{link, 1.0}};
    spec.onComplete = [&](Time t) { done = t; };
    net.startFlow(std::move(spec));
    eq.schedule(0.5, [&] {
        link->setCapacity(200.0); // double speed halfway through
        net.capacityChanged();
    });
    eq.run();
    // 50 served in 0.5 s, remaining 50 at 200/s -> 0.25 s more.
    EXPECT_DOUBLE_EQ(done, 0.75);
}

TEST_F(FluidTest, ZeroCapacityParksFlowUntilRestored)
{
    // Elastic detach drops a resource to zero capacity while a flow is
    // mid-transfer: the flow must park at rate 0 (no panic, no
    // spurious completion) and resume when capacity returns.
    FluidResource *link = net.addResource("link", 100.0);
    double done = -1.0;
    FlowSpec spec;
    spec.category = "x";
    spec.size = 100.0;
    spec.demands = {{link, 1.0}};
    spec.onComplete = [&](Time t) { done = t; };
    const FlowId id = net.startFlow(std::move(spec));

    eq.schedule(0.5, [&] {
        link->setCapacity(0.0);
        net.capacityChanged(link);
    });
    double remaining_while_parked = -1.0;
    eq.schedule(3.0, [&] {
        EXPECT_DOUBLE_EQ(net.flowRate(id), 0.0);
        remaining_while_parked = net.flowRemaining(id);
    });
    eq.schedule(4.0, [&] {
        link->setCapacity(100.0);
        net.capacityChanged(link);
    });
    eq.run();
    // 50 served by t=0.5, frozen through [0.5, 4.0], the remaining 50
    // at 100/s -> completes at t=4.5.
    EXPECT_DOUBLE_EQ(remaining_while_parked, 50.0);
    EXPECT_DOUBLE_EQ(done, 4.5);
    EXPECT_DOUBLE_EQ(link->totalServed(), 100.0);
}

TEST_F(FluidTest, ZeroCapacityNewFlowWaitsForCapacity)
{
    // A flow started against an already-parked resource stays pending
    // (rate 0) and completes once capacity appears.
    FluidResource *link = net.addResource("link", 100.0);
    link->setCapacity(0.0);
    net.capacityChanged(link);

    double done = -1.0;
    FlowSpec spec;
    spec.category = "x";
    spec.size = 50.0;
    spec.demands = {{link, 1.0}};
    spec.onComplete = [&](Time t) { done = t; };
    const FlowId id = net.startFlow(std::move(spec));
    EXPECT_DOUBLE_EQ(net.flowRate(id), 0.0);

    eq.schedule(2.0, [&] {
        link->setCapacity(50.0);
        net.capacityChanged(link);
    });
    eq.run();
    EXPECT_DOUBLE_EQ(done, 3.0);
}

TEST(FluidDeath, NegativeCapacityPanics)
{
    EventQueue eq;
    FluidNetwork net(eq);
    FluidResource *link = net.addResource("l", 1.0);
    EXPECT_DEATH(link->setCapacity(-1.0), "capacity");
}

TEST_F(FluidTest, ManyFlowsAggregateCapacity)
{
    FluidResource *link = net.addResource("link", 100.0);
    int completed = 0;
    for (int i = 0; i < 10; ++i) {
        FlowSpec spec;
        spec.category = "x";
        spec.size = 10.0;
        spec.demands = {{link, 1.0}};
        spec.onComplete = [&](Time) { ++completed; };
        net.startFlow(std::move(spec));
    }
    eq.run();
    EXPECT_EQ(completed, 10);
    EXPECT_DOUBLE_EQ(eq.now(), 1.0); // 100 units at 100/s total
}

TEST_F(FluidTest, FindResourceByName)
{
    FluidResource *link = net.addResource("pcie.rc", 1.0);
    EXPECT_EQ(net.findResource("pcie.rc"), link);
    EXPECT_EQ(net.findResource("nope"), nullptr);
}

TEST_F(FluidTest, DemandSetMergesDuplicates)
{
    FluidResource *a = net.addResource("a", 1.0);
    FluidResource *b = net.addResource("b", 1.0);
    DemandSet ds;
    ds.add(a, 1.0);
    ds.add(b, 2.0);
    ds.add(a, 3.0);
    ds.add({{b, 1.0}}, 2.0);
    const auto demands = ds.build();
    ASSERT_EQ(demands.size(), 2u);
    for (const auto &d : demands) {
        if (d.resource == a)
            EXPECT_DOUBLE_EQ(d.weight, 4.0);
        else
            EXPECT_DOUBLE_EQ(d.weight, 4.0);
    }
}

TEST_F(FluidTest, ChainedFlowsViaCompletions)
{
    // A three-stage chain driven by onComplete, as the training session
    // does: total time = sum of stage times.
    FluidResource *link = net.addResource("link", 100.0);
    double final_done = -1.0;
    std::function<void(int)> stage = [&](int idx) {
        FlowSpec spec;
        spec.category = "stage" + std::to_string(idx);
        spec.size = 100.0;
        spec.demands = {{link, 1.0}};
        spec.onComplete = [&, idx](Time t) {
            if (idx == 2)
                final_done = t;
            else
                stage(idx + 1);
        };
        net.startFlow(std::move(spec));
    };
    stage(0);
    eq.run();
    EXPECT_DOUBLE_EQ(final_done, 3.0);
}

TEST_F(FluidTest, ReleaseCancelsOnlyTheOwnersFlows)
{
    // Two owners share a link; a's two flows go, b's flow speeds up to
    // the full link, and a's callbacks never run.
    FluidResource *link = net.addResource("link", 100.0);
    const OwnerId a = eq.newOwner();
    const OwnerId b = eq.newOwner();
    std::vector<OwnerId> ranAs;
    auto start = [&](double size) {
        FlowSpec spec;
        spec.category = "x";
        spec.size = size;
        spec.demands = {{link, 1.0}};
        spec.onComplete = [&](Time) { ranAs.push_back(eq.owner()); };
        return net.startFlow(std::move(spec));
    };
    eq.runAs(a, [&] {
        start(100.0);
        start(300.0);
    });
    FlowId survivor = 0;
    eq.runAs(b, [&] { survivor = start(300.0); });
    eq.run(0.5);
    ASSERT_EQ(net.numActive(), 3u);

    net.release(a);
    eq.release(a);
    EXPECT_EQ(net.numActive(), 1u);
    EXPECT_DOUBLE_EQ(net.flowRate(survivor), 100.0);
    eq.run();
    // b's flow ran at 100/3 for 0.5 s, then alone at 100.
    ASSERT_EQ(ranAs.size(), 1u);
    EXPECT_EQ(ranAs[0], b);
    EXPECT_DOUBLE_EQ(eq.now(), 0.5 + (300.0 - 100.0 / 6.0) / 100.0);
}

TEST(FluidDeath, StartByReleasedOwnerPanics)
{
    EventQueue eq;
    FluidNetwork net(eq);
    FluidResource *link = net.addResource("l", 1.0);
    const OwnerId a = eq.newOwner();
    eq.release(a);
    FlowSpec spec;
    spec.category = "late";
    spec.size = 1.0;
    spec.demands = {{link, 1.0}};
    EXPECT_DEATH(eq.runAs(a, [&] { net.startFlow(std::move(spec)); }),
                 "after its release");
}

TEST(FluidDeath, UnconstrainedFlowPanics)
{
    EventQueue eq;
    FluidNetwork net(eq);
    FlowSpec spec;
    spec.category = "bad";
    spec.size = 1.0;
    EXPECT_DEATH(net.startFlow(std::move(spec)), "neither demands");
}

TEST(FluidDeath, NegativeWeightPanics)
{
    EventQueue eq;
    FluidNetwork net(eq);
    FluidResource *link = net.addResource("l", 1.0);
    FlowSpec spec;
    spec.category = "bad";
    spec.size = 1.0;
    spec.demands = {{link, -1.0}};
    EXPECT_DEATH(net.startFlow(std::move(spec)), "weight");
}

} // namespace
} // namespace tb
