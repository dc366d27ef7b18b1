/**
 * @file
 * Equivalence suite for the incremental fluid solver.
 *
 * The incremental solver (dirty-set tracking + per-component progressive
 * filling) is an optimization, not a model change: for any topology and
 * any arrival/cancel script it must produce the same rates, the same
 * completion times, and the same accounting as re-solving every
 * component on every event (FullResolve). These tests replay randomized
 * scripts — random topologies x random flow arrival/departure schedules
 * — under both modes and compare the full observable trace. The same
 * harness pins metrics-on/off and FlowBatch-vs-unbatched bit-identity.
 * Two more checks cover the lazy flow state: accounting read mid-flight
 * equals an eager integration, and the work counted per event does not
 * grow with the rest of the network. The last pins the commit rule:
 * whatever an event mutates costs one solve.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "common/random.hh"
#include "fluid/fluid.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"

namespace tb {
namespace {

using Mode = FluidNetwork::SolverMode;

// --- randomized script generation ----------------------------------------

struct ScriptDemand
{
    std::size_t res;
    double weight;
};

struct ScriptStart
{
    double at;
    double size;
    double cap;
    double fairWeight;
    std::vector<ScriptDemand> demands;
};

struct ScriptCancel
{
    double at;
    std::size_t startIdx;
};

struct Script
{
    std::vector<double> capacities;
    std::vector<ScriptStart> starts;
    std::vector<ScriptCancel> cancels;
};

Script
makeScript(std::uint64_t seed)
{
    Rng rng(seed);
    Script s;
    const std::size_t nres =
        static_cast<std::size_t>(rng.uniformInt(5, 14));
    for (std::size_t i = 0; i < nres; ++i)
        s.capacities.push_back(rng.uniform(20.0, 200.0));

    double t = 0.0;
    const std::size_t nstarts = 80;
    for (std::size_t i = 0; i < nstarts; ++i) {
        t += rng.uniform(0.0, 0.4);
        ScriptStart st;
        st.at = t;
        st.size = rng.uniform(1.0, 40.0);
        st.cap = rng.uniform() < 0.3 ? rng.uniform(2.0, 20.0) : 0.0;
        st.fairWeight = rng.uniform(0.5, 2.0);
        const std::size_t ndem =
            static_cast<std::size_t>(rng.uniformInt(0, 3));
        for (std::size_t d = 0; d < ndem; ++d) {
            const std::size_t r = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(nres) - 1));
            bool dup = false;
            for (const auto &have : st.demands)
                dup = dup || have.res == r;
            if (!dup)
                st.demands.push_back({r, rng.uniform(0.2, 2.0)});
        }
        if (st.demands.empty() && st.cap <= 0.0)
            st.cap = rng.uniform(2.0, 20.0); // keep the flow constrained
        s.starts.push_back(std::move(st));
    }
    for (std::size_t c = 0; c < 15; ++c) {
        const std::size_t idx = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(nstarts) - 1));
        s.cancels.push_back(
            {s.starts[idx].at + rng.uniform(0.05, 1.5), idx});
    }
    return s;
}

// --- replay harness ------------------------------------------------------

struct RunTrace
{
    std::vector<double> completionTimes;
    /// script start index, or n + k for the k-th successor
    std::vector<std::size_t> completionIdx;
    std::vector<double> rateSamples; ///< all flows' rates after each op
    std::vector<double> servedTotals;
    double endTime = 0.0;
};

struct RunConfig
{
    Mode mode = Mode::FullResolve;
    bool metrics = false;
    bool batchStarts = false; ///< wrap each start op in a FlowBatch
    /// Leave every solve to the event's end: read rates only between
    /// events, where a read must not solve, and let completions start a
    /// successor (start index % 3 != 1) or cancel a scripted flow
    /// (% 3 != 0) inside the completion event, as session callbacks do.
    bool eventEndSolves = false;
};

RunTrace
replay(const Script &s, const RunConfig &cfg)
{
    EventQueue eq;
    FluidNetwork net(eq);
    net.setSolverMode(cfg.mode);
    MetricsRegistry reg;
    if (cfg.metrics) {
        reg.enable();
        net.attachMetrics(&reg);
    }

    std::vector<FluidResource *> res;
    for (std::size_t i = 0; i < s.capacities.size(); ++i)
        res.push_back(net.addResource("r" + std::to_string(i),
                                      s.capacities[i]));

    RunTrace trace;
    const std::size_t n = s.starts.size();
    std::vector<FlowId> ids(n, 0);
    std::vector<FlowId> successorIds; ///< trace index n + position

    auto sampleRates = [&] {
        for (std::size_t i = 0; i < ids.size(); ++i)
            trace.rateSamples.push_back(
                ids[i] ? net.flowRate(ids[i]) : 0.0);
        for (FlowId id : successorIds)
            trace.rateSamples.push_back(net.flowRate(id));
    };
    auto sampleInEvent = [&] {
        if (!cfg.eventEndSolves)
            sampleRates();
    };

    std::function<FlowSpec(std::size_t, double, std::size_t)> specFor =
        [&](std::size_t i, double size, std::size_t traceIdx) {
        const ScriptStart &start = s.starts[i];
        FlowSpec spec;
        spec.category = "cat" + std::to_string(i % 5);
        spec.size = size;
        spec.rateCap = start.cap;
        spec.fairWeight = start.fairWeight;
        for (const auto &d : start.demands)
            spec.demands.push_back({res[d.res], d.weight});
        spec.onComplete = [&, i, traceIdx](Time now) {
            trace.completionTimes.push_back(now);
            trace.completionIdx.push_back(traceIdx);
            if (!cfg.eventEndSolves || traceIdx >= n)
                return;
            if (i % 3 != 1)
                successorIds.push_back(net.startFlow(
                    specFor(i, 0.5 * s.starts[i].size,
                            n + successorIds.size())));
            if (i % 3 != 0) {
                const FlowId victim = ids[(7 * i + 3) % n];
                if (victim != 0)
                    net.cancelFlow(victim);
            }
            sampleInEvent();
        };
        return spec;
    };

    for (std::size_t i = 0; i < n; ++i) {
        eq.schedule(s.starts[i].at, [&, i] {
            FlowSpec spec = specFor(i, s.starts[i].size, i);
            if (cfg.batchStarts) {
                FluidNetwork::FlowBatch batch(net);
                ids[i] = net.startFlow(std::move(spec));
            } else {
                ids[i] = net.startFlow(std::move(spec));
            }
            sampleInEvent();
        });
    }
    for (const ScriptCancel &c : s.cancels) {
        eq.schedule(c.at, [&, c] {
            if (ids[c.startIdx] != 0)
                net.cancelFlow(ids[c.startIdx]);
            sampleInEvent();
        });
    }

    if (cfg.eventEndSolves) {
        while (eq.step()) {
            const std::uint64_t solves = net.solverStats().solves;
            sampleRates();
            EXPECT_EQ(net.solverStats().solves, solves)
                << "a read between events solved";
        }
    } else {
        eq.run();
    }
    for (const auto &r : net.resources())
        trace.servedTotals.push_back(r->totalServed());
    trace.endTime = eq.now();
    return trace;
}

/** Assert two traces are element-for-element identical. */
void
expectTracesEqual(const RunTrace &a, const RunTrace &b,
                  const char *label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(a.completionTimes.size(), b.completionTimes.size());
    for (std::size_t i = 0; i < a.completionTimes.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.completionTimes[i], b.completionTimes[i]);
        EXPECT_EQ(a.completionIdx[i], b.completionIdx[i]);
    }
    ASSERT_EQ(a.rateSamples.size(), b.rateSamples.size());
    for (std::size_t i = 0; i < a.rateSamples.size(); ++i)
        EXPECT_DOUBLE_EQ(a.rateSamples[i], b.rateSamples[i]);
    ASSERT_EQ(a.servedTotals.size(), b.servedTotals.size());
    for (std::size_t i = 0; i < a.servedTotals.size(); ++i)
        EXPECT_DOUBLE_EQ(a.servedTotals[i], b.servedTotals[i]);
    EXPECT_DOUBLE_EQ(a.endTime, b.endTime);
}

// --- tests ---------------------------------------------------------------

TEST(FluidIncremental, RandomizedEquivalenceWithFullResolve)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Script s = makeScript(seed * 0x9e37);
        const RunTrace full = replay(s, {.mode = Mode::FullResolve});
        const RunTrace inc = replay(s, {.mode = Mode::Incremental});
        expectTracesEqual(full, inc, "incremental vs full");
    }
}

TEST(FluidIncremental, RandomizedEquivalenceWithEventEndSolves)
{
    // Nothing reads inside an event, so every solve is the one the
    // event's end runs, and completions start and cancel flows inside
    // the completion event.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Script s = makeScript(seed * 0x51ed);
        const RunTrace full = replay(
            s, {.mode = Mode::FullResolve, .eventEndSolves = true});
        const RunTrace incremental = replay(
            s, {.mode = Mode::Incremental, .eventEndSolves = true});
        ASSERT_GT(full.completionIdx.size(), s.starts.size() / 2);
        EXPECT_GT(*std::max_element(full.completionIdx.begin(),
                                    full.completionIdx.end()),
                  s.starts.size());
        expectTracesEqual(full, incremental, "incremental vs full");
    }
}

TEST(FluidIncremental, MetricsOnOffBitIdentity)
{
    // Metrics instrumentation must not perturb the simulation.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Script s = makeScript(seed * 0x3e77);
        const RunTrace off = replay(s, {.mode = Mode::Incremental});
        const RunTrace on =
            replay(s, {.mode = Mode::Incremental, .metrics = true});
        expectTracesEqual(off, on, "metrics on vs off");
    }
}

TEST(FluidIncremental, FlowBatchBitIdentity)
{
    // A batch inside an event defers to the event's end like an
    // unbatched start, so the observable behavior is identical.
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Script s = makeScript(seed * 0xba7c);
        const RunTrace plain = replay(s, {.mode = Mode::Incremental});
        const RunTrace batched =
            replay(s, {.mode = Mode::Incremental, .batchStarts = true});
        expectTracesEqual(plain, batched, "batched vs unbatched");
    }
}

TEST(FluidIncremental, BatchedGroupLaunchMatchesSequential)
{
    // k flows launched at one timestamp inside one FlowBatch must get
    // exactly the rates of k sequential startFlow calls.
    auto run = [](bool batch) {
        EventQueue eq;
        FluidNetwork net(eq);
        FluidResource *a = net.addResource("a", 90.0);
        FluidResource *b = net.addResource("b", 60.0);
        std::vector<FlowId> ids;
        auto launchAll = [&] {
            for (int i = 0; i < 6; ++i) {
                FlowSpec spec;
                spec.category = "g";
                spec.size = 100.0 + i;
                spec.fairWeight = 1.0 + 0.25 * i;
                spec.demands = {{a, 1.0}};
                if (i % 2)
                    spec.demands.push_back({b, 0.5});
                ids.push_back(net.startFlow(std::move(spec)));
            }
        };
        if (batch) {
            FluidNetwork::FlowBatch fb(net);
            launchAll();
        } else {
            launchAll();
        }
        std::vector<double> rates;
        for (FlowId id : ids)
            rates.push_back(net.flowRate(id));
        return rates;
    };
    const auto seq = run(false);
    const auto bat = run(true);
    ASSERT_EQ(seq.size(), bat.size());
    for (std::size_t i = 0; i < seq.size(); ++i)
        EXPECT_DOUBLE_EQ(seq[i], bat[i]);
}

TEST(FluidIncremental, CleanComponentsAreSkipped)
{
    // Two disjoint components; mutating one must not re-solve the other.
    EventQueue eq;
    FluidNetwork net(eq);
    FluidResource *a = net.addResource("a", 100.0);
    FluidResource *b = net.addResource("b", 100.0);

    auto start = [&](FluidResource *r, double size) {
        FlowSpec spec;
        spec.category = "x";
        spec.size = size;
        spec.demands = {{r, 1.0}};
        return net.startFlow(std::move(spec));
    };

    start(a, 500.0);
    start(a, 500.0);
    const FlowId onB = start(b, 500.0);
    const auto before = net.solverStats();

    // A fourth flow on `a` dirties only component {a}: 3 flows solved.
    start(a, 500.0);
    const auto after = net.solverStats();
    EXPECT_EQ(after.solves, before.solves + 1);
    EXPECT_EQ(after.componentsSolved, before.componentsSolved + 1);
    EXPECT_EQ(after.flowsSolved, before.flowsSolved + 3);

    // The clean component kept its cached (correct) rate.
    EXPECT_DOUBLE_EQ(net.flowRate(onB), 100.0);
}

TEST(FluidIncremental, TargetedCapacityChangeResolvesOneComponent)
{
    EventQueue eq;
    FluidNetwork net(eq);
    FluidResource *a = net.addResource("a", 100.0);
    FluidResource *b = net.addResource("b", 100.0);

    FlowSpec fa;
    fa.category = "x";
    fa.size = 1000.0;
    fa.demands = {{a, 1.0}};
    const FlowId flowA = net.startFlow(std::move(fa));

    FlowSpec fb;
    fb.category = "x";
    fb.size = 1000.0;
    fb.demands = {{b, 1.0}};
    const FlowId flowB = net.startFlow(std::move(fb));

    const auto before = net.solverStats();
    a->setCapacity(40.0);
    net.capacityChanged(a);
    const auto after = net.solverStats();

    EXPECT_DOUBLE_EQ(net.flowRate(flowA), 40.0);
    EXPECT_DOUBLE_EQ(net.flowRate(flowB), 100.0);
    EXPECT_EQ(after.flowsSolved, before.flowsSolved + 1);

    // The global overload still re-solves everything.
    net.capacityChanged();
    EXPECT_DOUBLE_EQ(net.flowRate(flowA), 40.0);
    EXPECT_DOUBLE_EQ(net.flowRate(flowB), 100.0);
}

TEST(FluidIncremental, FullResolveModeStillSolvesEverything)
{
    EventQueue eq;
    FluidNetwork net(eq);
    net.setSolverMode(Mode::FullResolve);
    FluidResource *a = net.addResource("a", 100.0);
    FluidResource *b = net.addResource("b", 100.0);

    auto start = [&](FluidResource *r) {
        FlowSpec spec;
        spec.category = "x";
        spec.size = 500.0;
        spec.demands = {{r, 1.0}};
        return net.startFlow(std::move(spec));
    };
    start(a);
    const auto before = net.solverStats();
    start(b);
    const auto after = net.solverStats();
    EXPECT_EQ(after.fullSolves, before.fullSolves + 1);
    EXPECT_EQ(after.flowsSolved, before.flowsSolved + 2);
    EXPECT_EQ(after.componentsSolved, before.componentsSolved + 2);
}

// --- read-time accounting ----------------------------------------------

/**
 * Replay @p s and, at probe times while flows are in flight, compare
 * the network's lazily integrated served(), servedByCategory() and
 * utilization() with an eager integration of the observed rates: the
 * harness charges every flow weight * rate * dt on each of its
 * resources at every start, cancel, completion and probe. Returns the
 * largest relative difference seen.
 */
double
maxReadTimeAccountingError(const Script &s)
{
    EventQueue eq;
    FluidNetwork net(eq);
    std::vector<FluidResource *> res;
    for (std::size_t i = 0; i < s.capacities.size(); ++i)
        res.push_back(net.addResource("r" + std::to_string(i),
                                      s.capacities[i]));

    const std::size_t ncat = 5;
    std::vector<FlowId> ids(s.starts.size(), 0);
    std::vector<double> rates(s.starts.size(), 0.0);
    // eager[r][c]: units served on resource r for category c
    std::vector<std::vector<double>> eager(
        res.size(), std::vector<double>(ncat, 0.0));
    Time last = 0.0;

    auto charge = [&] {
        const double dt = eq.now() - last;
        last = eq.now();
        for (std::size_t i = 0; i < ids.size(); ++i)
            for (const auto &d : s.starts[i].demands)
                eager[d.res][i % ncat] += d.weight * rates[i] * dt;
    };
    auto sample = [&] {
        for (std::size_t i = 0; i < ids.size(); ++i)
            rates[i] = ids[i] ? net.flowRate(ids[i]) : 0.0;
    };

    double worst = 0.0;
    auto compare = [&](double lazy, double ref) {
        const double err = std::fabs(lazy - ref) /
                           std::max(std::fabs(ref), 1e-300);
        worst = std::max(worst, ref == 0.0 ? std::fabs(lazy) : err);
    };

    for (std::size_t i = 0; i < s.starts.size(); ++i) {
        eq.schedule(s.starts[i].at, [&, i] {
            charge();
            const ScriptStart &start = s.starts[i];
            FlowSpec spec;
            spec.category = "cat" + std::to_string(i % ncat);
            spec.size = start.size;
            spec.rateCap = start.cap;
            spec.fairWeight = start.fairWeight;
            for (const auto &d : start.demands)
                spec.demands.push_back({res[d.res], d.weight});
            spec.onComplete = [&](Time) {
                charge();
                sample();
            };
            ids[i] = net.startFlow(std::move(spec));
            sample();
        });
    }
    for (const ScriptCancel &c : s.cancels) {
        eq.schedule(c.at, [&, c] {
            charge();
            if (ids[c.startIdx] != 0)
                net.cancelFlow(ids[c.startIdx]);
            sample();
        });
    }
    for (double t = 0.37; t < s.starts.back().at; t += 0.37) {
        eq.schedule(t, [&] {
            charge();
            for (std::size_t r = 0; r < res.size(); ++r) {
                double total = 0.0;
                const auto byCat = res[r]->servedByCategory();
                for (std::size_t c = 0; c < ncat; ++c) {
                    const std::string cat = "cat" + std::to_string(c);
                    compare(res[r]->served(cat), eager[r][c]);
                    const auto it = byCat.find(cat);
                    compare(it == byCat.end() ? 0.0 : it->second,
                            eager[r][c]);
                    total += eager[r][c];
                }
                compare(res[r]->totalServed(), total);
                compare(res[r]->utilization(eq.now()),
                        total / (s.capacities[r] * eq.now()));
            }
        });
    }
    eq.run();
    return worst;
}

TEST(FluidIncremental, ReadTimeAccountingMatchesEagerIntegration)
{
    // Measured over these schedules: at most 1.3e-15 relative. Both
    // sides integrate the same piecewise-constant rates; they differ
    // only in summation order and split points. The bound is about 8x
    // the measurement.
    double worst = 0.0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        worst = std::max(
            worst, maxReadTimeAccountingError(makeScript(seed * 0x5a17)));
    EXPECT_LE(worst, 1e-14);
}

// --- work per event follows the changed component ----------------------

struct ChurnRun
{
    FluidNetwork::SolverStats work; ///< counters spent by the churn
    std::vector<double> rates;      ///< churn flows' rates after each op
    std::vector<double> completions;
};

/**
 * Start and complete a handful of flows in one two-resource component
 * while @p background disjoint components, each with two flows that
 * outlive the run, sit in the network. Returns the solver work the
 * churn cost and what it observed.
 */
ChurnRun
runChurn(std::size_t background, Mode mode)
{
    EventQueue eq;
    FluidNetwork net(eq);
    net.setSolverMode(mode);
    FluidResource *a = net.addResource("a", 100.0);
    FluidResource *b = net.addResource("b", 60.0);
    {
        FluidNetwork::FlowBatch batch(net);
        for (std::size_t i = 0; i < background; ++i) {
            FluidResource *r = net.addResource(
                "bg" + std::to_string(i), 50.0 + static_cast<double>(i % 7));
            for (int k = 0; k < 2; ++k) {
                FlowSpec spec;
                spec.category = "bg";
                spec.size = 1e9;
                spec.rateCap = k == 0 ? 10.0 : 0.0;
                spec.demands = {{r, 1.0}};
                net.startFlow(std::move(spec));
            }
        }
    }
    eq.run(0.5);
    const FluidNetwork::SolverStats before = net.solverStats();

    ChurnRun out;
    std::vector<FlowId> ids;
    for (int i = 0; i < 6; ++i) {
        eq.schedule(1.0 + 0.25 * i, [&, i] {
            FlowSpec spec;
            spec.category = i % 2 ? "odd" : "even";
            spec.size = 40.0 + 10.0 * i;
            spec.fairWeight = 1.0 + 0.5 * (i % 3);
            spec.demands = {{a, 1.0}};
            if (i % 2)
                spec.demands.push_back({b, 0.5});
            spec.onComplete = [&](Time now) {
                out.completions.push_back(now);
                for (FlowId id : ids)
                    out.rates.push_back(net.flowRate(id));
            };
            ids.push_back(net.startFlow(std::move(spec)));
            for (FlowId id : ids)
                out.rates.push_back(net.flowRate(id));
        });
    }
    eq.run(100.0);

    const FluidNetwork::SolverStats &after = net.solverStats();
    out.work.solves = after.solves - before.solves;
    out.work.componentsSolved =
        after.componentsSolved - before.componentsSolved;
    out.work.flowsSolved = after.flowsSolved - before.flowsSolved;
    out.work.flowsReanchored =
        after.flowsReanchored - before.flowsReanchored;
    out.work.heapOps = after.heapOps - before.heapOps;
    EXPECT_EQ(net.numActive(), 2 * background);
    return out;
}

TEST(FluidIncremental, WorkPerEventIsIndependentOfNetworkSize)
{
    const ChurnRun alone = runChurn(0, Mode::Incremental);
    ASSERT_EQ(alone.completions.size(), 6u);
    EXPECT_GT(alone.work.flowsReanchored, 0u);
    for (Mode mode : {Mode::Incremental, Mode::FullResolve}) {
        SCOPED_TRACE(mode == Mode::Incremental ? "incremental" : "full");
        const ChurnRun crowded = runChurn(1000, mode);
        // Re-anchoring and heap work count only the churned component:
        // a clean component's flows are never re-anchored, even when
        // FullResolve re-solves them.
        EXPECT_EQ(crowded.work.flowsReanchored, alone.work.flowsReanchored);
        EXPECT_EQ(crowded.work.heapOps, alone.work.heapOps);
        if (mode == Mode::Incremental) {
            EXPECT_EQ(crowded.work.solves, alone.work.solves);
            EXPECT_EQ(crowded.work.componentsSolved,
                      alone.work.componentsSolved);
            EXPECT_EQ(crowded.work.flowsSolved, alone.work.flowsSolved);
        }
        ASSERT_EQ(crowded.rates.size(), alone.rates.size());
        for (std::size_t i = 0; i < alone.rates.size(); ++i)
            EXPECT_EQ(crowded.rates[i], alone.rates[i]);
        ASSERT_EQ(crowded.completions.size(), alone.completions.size());
        for (std::size_t i = 0; i < alone.completions.size(); ++i)
            EXPECT_EQ(crowded.completions[i], alone.completions[i]);
    }
}

// --- one solve per event --------------------------------------------------

TEST(FluidIncremental, SuccessorStartsInOneEventCostOneSolve)
{
    // k flows on one shared link finish at the same timestamp, and each
    // completion callback starts a successor: the completions and the k
    // starts are one event, so together they cost exactly one solve. A
    // rate read inside a callback solves first and must match a fresh
    // FullResolve network holding the same flows.
    constexpr int k = 5;
    EventQueue eq;
    FluidNetwork net(eq);
    FluidResource *link = net.addResource("link", 100.0);
    FluidResource *pool = net.addResource("pool", 70.0);

    auto successor = [&](int i) {
        FlowSpec spec;
        spec.category = "next";
        spec.size = 50.0 + i;
        spec.fairWeight = 1.0 + 0.5 * i;
        spec.demands = {{link, 1.0}};
        if (i % 2)
            spec.demands.push_back({pool, 0.8});
        return spec;
    };

    std::vector<FlowId> next;
    std::vector<double> readRates;
    for (int i = 0; i < k; ++i) {
        FlowSpec spec;
        spec.category = "first";
        spec.size = 10.0;
        spec.demands = {{link, 1.0}};
        spec.onComplete = [&, i](Time) {
            next.push_back(net.startFlow(successor(i)));
            if (i == k - 1)
                for (FlowId id : next)
                    readRates.push_back(net.flowRate(id));
        };
        net.startFlow(std::move(spec));
    }
    // All k equal flows share the link evenly and finish together.
    const FluidNetwork::SolverStats atStart = net.solverStats();
    const std::uint64_t eventsBefore = eq.numExecuted();
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(eq.numExecuted(), eventsBefore + 1);
    ASSERT_EQ(next.size(), static_cast<std::size_t>(k));

    const FluidNetwork::SolverStats &after = net.solverStats();
    EXPECT_EQ(after.solves - atStart.solves, 1u);
    EXPECT_EQ(after.componentsSolved - atStart.componentsSolved, 1u);
    EXPECT_EQ(after.flowsSolved - atStart.flowsSolved,
              static_cast<std::uint64_t>(k));

    EventQueue freshEq;
    FluidNetwork fresh(freshEq);
    fresh.setSolverMode(FluidNetwork::SolverMode::FullResolve);
    link = fresh.addResource("link", 100.0);
    pool = fresh.addResource("pool", 70.0);
    ASSERT_EQ(readRates.size(), static_cast<std::size_t>(k));
    std::vector<FlowId> freshIds;
    for (int i = 0; i < k; ++i)
        freshIds.push_back(fresh.startFlow(successor(i)));
    for (int i = 0; i < k; ++i) {
        EXPECT_DOUBLE_EQ(readRates[i], fresh.flowRate(freshIds[i]));
        EXPECT_DOUBLE_EQ(net.flowRate(next[i]), readRates[i]);
    }
}

} // namespace
} // namespace tb
