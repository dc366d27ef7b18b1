/**
 * @file
 * Fluid-flow contention engine.
 *
 * Every shared hardware resource in the simulated server — a PCIe link
 * direction, the root complex, host DRAM bandwidth, the CPU core pool, an
 * SSD's read path, an FPGA prep pipeline, an Ethernet link — is a
 * FluidResource with a capacity in units/second. Work moves through the
 * system as fluid flows: a flow has a size in *base units* (bytes for a DMA,
 * samples for a prep task) and a set of per-resource demand weights (units
 * of that resource consumed per base unit served). A DMA that crosses three
 * PCIe links and writes host memory is one flow with four demands.
 *
 * At any instant the engine assigns each active flow a base rate via
 * progressive filling (weighted max-min fairness with optional per-flow
 * rate caps — a prep task cannot exceed its parallelism, a device port
 * cannot exceed its line rate). Rates are piecewise constant between flow
 * arrivals/departures, so flow state is lazy: each flow keeps its remaining
 * size at an anchor time plus its rate, and is re-anchored only when it
 * completes or a re-solve changes its rate. Projected finish times live in
 * an indexed min-heap, and exactly one completion event — at the heap's
 * top — is pending in the EventQueue.
 *
 * The solver is *incremental*: progressive filling is run per connected
 * component of the flow/resource sharing graph, and a mutation (flow
 * start/cancel/completion, capacity change, a flow draining to zero) only
 * re-solves the components it touched. Clean components keep their cached
 * rates, which are exactly what a fresh solve would produce — max-min
 * allocations are independent across components (the dirty-set invariant;
 * see docs/PERFORMANCE.md). FullResolve mode re-solves every component on
 * every solve and is the reference the equivalence tests pin against.
 *
 * Mutations commit once per event. Inside an EventQueue callback, flow
 * starts, cancels and capacity changes only mark the dirty set; the
 * solve, the load settling and the completion-event reschedule run once,
 * when the callback returns (the network is the queue's event-end hook).
 * Code run through EventQueue::runAs() outside an event counts as one;
 * any other mutation outside events commits at once. flowRate() runs a
 * pending solve first, so a rate read is never stale.
 *
 * A flow belongs to the queue's running owner when it starts, and its
 * completion callback runs as that owner. release(owner) cancels every
 * flow of one owner. The completion event and the commit are unowned:
 * they serve every owner's flows, so no release can take them away.
 *
 * The engine also performs per-category accounting on every resource
 * (bytes moved for "data_load" vs "formatting" vs ...), which is what the
 * host-resource figures of the paper (Figs 10/11/22) are built from. Each
 * resource holds one aggregate load per category, integrated whenever that
 * load changes and up to the current time when read.
 */

#ifndef TRAINBOX_FLUID_FLUID_HH
#define TRAINBOX_FLUID_FLUID_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace tb {

class FluidNetwork;
class MetricsRegistry;
class MetricCounter;
class MetricGauge;
class TimeWeightedHistogram;
struct FluidFlow;

/** A capacity-limited shared resource (link, memory, core pool, ...). */
class FluidResource
{
  public:
    FluidResource(std::string name, Rate capacity);

    const std::string &name() const { return name_; }
    Rate capacity() const { return capacity_; }

    /**
     * Change capacity (e.g., Gen3 -> Gen4 sweep); caller must notify the
     * network via capacityChanged(). Zero is legal — active flows
     * demanding a zero-capacity resource are parked at rate 0 (no
     * divide-by-zero, no NaN rates) until a later setCapacity +
     * capacityChanged restores them. Negative or non-finite panics.
     */
    void setCapacity(Rate capacity);

    /** Total units served through this resource so far. */
    double totalServed() const;

    /** Units served per accounting category (categories served > 0). */
    std::map<std::string, double> servedByCategory() const;

    /** Served units for one category (0 when absent). */
    double served(const std::string &category) const;

    /**
     * Time-average utilization in [0, 1] over the window since the last
     * resetAccounting(), given the current simulation time.
     */
    double utilization(Time now) const;

    /** Clear accounting counters and restart the utilization window. */
    void resetAccounting(Time now);

    /**
     * Time-weighted utilization history recorded by the network's
     * metrics instrumentation, brought up to the current time (nullptr
     * when metrics are disabled).
     */
    const TimeWeightedHistogram *utilizationHistory() const;

  private:
    friend class FluidNetwork;

    /** Served units and current load (units/s) of one category. */
    struct Account
    {
        std::uint32_t category;
        double load;
        double served;
    };

    /** Settle the network's pending loads; the time reads integrate to. */
    Time settledNow() const;
    /** Charge the current loads over [accounted_, now]. */
    void integrate(Time now);
    /** Index of @p category's entry in accounts_ (added if absent). */
    std::uint32_t account(std::uint32_t category);
    /** Finish a mutation's load changes at @p now. */
    void settleLoad(Time now);
    /** Extend the utilization history up to @p now. */
    void recordUtilization(Time now) const;

    std::string name_;
    Rate capacity_;
    const FluidNetwork *net_ = nullptr;

    // accounting: served units are exact up to accounted_, and grow at
    // the aggregate loads after it
    std::vector<Account> accounts_;
    double load_ = 0.0;
    double totalServed_ = 0.0;
    Time accounted_ = 0.0;
    Time windowStart_ = 0.0;
    bool loadStale_ = false; ///< queued for settleLoad

    // scratch space for the allocator
    double allocScratch_ = 0.0;
    double weightScratch_ = 0.0;

    // incremental-solver state
    std::size_t index_ = 0; ///< creation order (solve iteration order)
    bool dirty_ = false;    ///< queued in the network's dirty set
    std::uint64_t mark_ = 0; ///< BFS visit epoch (gather + components)
    /** Flows demanding this resource, as (flow, demand index) pairs. */
    std::vector<std::pair<FluidFlow *, std::uint32_t>> members_;

    // metrics instrumentation (inert while metrics are disabled)
    TimeWeightedHistogram *utilHist_ = nullptr;
    mutable Time utilRecorded_ = 0.0; ///< history covers up to here
    double util_ = 0.0;               ///< utilization since then
};

/** One resource consumed by a flow: @p weight units per base unit. */
struct FlowDemand
{
    FluidResource *resource;
    double weight;
};

/** Identifier for an active flow. */
using FlowId = std::uint64_t;

/** Everything needed to launch a flow. */
struct FlowSpec
{
    /** Accounting category (e.g., "formatting", "data_load"). */
    std::string category;

    /** Total size in base units. */
    double size = 0.0;

    /** Maximum base rate (0 = uncapped). */
    double rateCap = 0.0;

    /**
     * Fair-share weight: under contention flows receive base rates
     * proportional to this weight (progressive filling raises rate by
     * weight * t). Use it to model processor-time fairness: a CPU task
     * costing c core-seconds per sample with fairWeight 1/c receives the
     * same core-time as its peers, so its wall time scales with its
     * work, as an OS scheduler would arrange.
     */
    double fairWeight = 1.0;

    /** Resources consumed while the flow runs. */
    std::vector<FlowDemand> demands;

    /** Invoked (once) at completion time. */
    std::function<void(Time)> onComplete;
};

/**
 * Solver-internal per-flow state. Exposed at namespace scope only so
 * FluidResource can hold back-pointers; not part of the public API.
 */
struct FluidFlow
{
    FlowId id;
    OwnerId owner = 0;      ///< the queue's owner when it started
    std::uint32_t category; ///< interned accounting category
    double remaining;       ///< base units left at `anchor`
    Time anchor;
    double rate = 0.0;
    Time finish;            ///< projected completion (heap key)
    double loadRate = 0.0;  ///< rate its resources' loads carry
    bool unsettled = false; ///< queued until loads catch up with rate
    double rateCap;
    double fairWeight;
    std::vector<FlowDemand> demands;
    std::function<void(Time)> onComplete;

    // allocator scratch
    double fill = 0.0;
    bool frozen = false;

    /** Slot of demand i in demands[i].resource->members_. */
    std::vector<std::uint32_t> memberSlot;
    /** Slot of demand i's category in demands[i].resource->accounts_. */
    std::vector<std::uint32_t> accountSlot;
    std::uint64_t mark = 0; ///< BFS visit epoch (gather + components)
    std::size_t heapPos = 0; ///< index in the completion heap
    /** Neighbours in the owner's list of live flows. */
    FluidFlow *ownerPrev = nullptr;
    FluidFlow *ownerNext = nullptr;
};

/**
 * Accumulates (resource, weight) pairs, merging duplicates — convenient
 * when a flow's route shares links with other parts of its path (e.g.,
 * reads spread over many SSDs behind common switches). Routes touch a
 * handful of resources, so merging is a linear search.
 */
class DemandSet
{
  public:
    /** Add @p weight on @p resource (merged if already present). */
    void add(FluidResource *resource, double weight);

    /** Add a list of demands, each scaled by @p scale. */
    void add(const std::vector<FlowDemand> &demands, double scale = 1.0);

    /** The merged demands, in order of each resource's first add. */
    std::vector<FlowDemand> build() const { return demands_; }

    bool empty() const { return demands_.empty(); }

  private:
    std::vector<FlowDemand> demands_;
};

/**
 * The contention engine. Owns resources, runs flows, and keeps the
 * completion event in the EventQueue up to date.
 */
class FluidNetwork
{
  public:
    /**
     * Solver strategy. Incremental (the default) re-solves only the
     * connected components touched since the last solve; FullResolve
     * re-solves every component on every solve. Both run the same
     * per-component progressive filling, so their results are
     * bit-identical — FullResolve is the in-tree oracle the equivalence
     * tests and bench/sim_perf compare against.
     */
    enum class SolverMode
    {
        Incremental,
        FullResolve,
    };

    /** Cumulative solver work counters (monotonic; for bench/tests). */
    struct SolverStats
    {
        std::uint64_t solves = 0; ///< solve passes that re-solved work
        std::uint64_t fullSolves = 0; ///< passes forced by FullResolve
        std::uint64_t componentsSolved = 0;
        std::uint64_t flowsSolved = 0; ///< sum of solved component sizes
        /** Flows brought up to date because a re-solve moved their rate. */
        std::uint64_t flowsReanchored = 0;
        /** Completion-heap pushes, key updates and removals. */
        std::uint64_t heapOps = 0;
    };

    explicit FluidNetwork(EventQueue &eq);
    ~FluidNetwork();

    FluidNetwork(const FluidNetwork &) = delete;
    FluidNetwork &operator=(const FluidNetwork &) = delete;

    /**
     * Create a resource owned by the network. The current name prefix
     * (see setNamePrefix) is prepended to @p name, so component builders
     * stay prefix-oblivious while multiple sessions share one network.
     */
    FluidResource *addResource(const std::string &name, Rate capacity);

    /**
     * Namespace prefix prepended to every subsequently added resource
     * name ("job0." while building that job's server, "" afterwards).
     * Per-session namespacing keeps name lookups and the "util.<name>"
     * metric space collision-free when N servers share one network;
     * the dirty-set solver is unaffected (components are discovered
     * structurally, not by name).
     */
    void setNamePrefix(std::string prefix) { namePrefix_ = std::move(prefix); }

    /** Current resource-name prefix ("" when unset). */
    const std::string &namePrefix() const { return namePrefix_; }

    /** Look up a resource by name (nullptr when absent). */
    FluidResource *findResource(const std::string &name) const;

    /** All resources, in creation order. */
    const std::vector<std::unique_ptr<FluidResource>> &resources() const
    {
        return resources_;
    }

    /**
     * Launch a flow. Completion fires through the EventQueue. A flow of
     * size 0 completes via an immediate event.
     */
    FlowId startFlow(FlowSpec spec);

    /** Abort a flow without firing its completion callback. */
    void cancelFlow(FlowId id);

    /**
     * Cancel every flow of @p owner (see EventQueue::release), in time
     * proportional to their number.
     */
    void release(OwnerId owner);

    /**
     * Current allocated base rate of a flow (0 when unknown/starved).
     * Runs any pending solve first, so inside an event it is not a pure
     * read: it re-anchors the flows whose rates change at
     * that point, and later finish times can differ in the last bits
     * from a run that does not read (docs/PERFORMANCE.md, "One solve
     * per event"). Between events there is nothing pending.
     */
    double flowRate(FlowId id);

    /** Remaining base units of a flow (0 when unknown). */
    double flowRemaining(FlowId id) const;

    /** Number of in-flight flows. */
    std::size_t numActive() const { return flows_.size(); }

    /** Notify the network that any resource capacity may have changed. */
    void capacityChanged();

    /**
     * Notify the network that one resource's capacity changed. Only the
     * component containing @p resource is re-solved (in Incremental
     * mode), so prefer this over the global overload for single-device
     * degradation/repair events.
     */
    void capacityChanged(FluidResource *resource);

    /** Select the solver strategy (takes effect at the next solve). */
    void setSolverMode(SolverMode mode) { mode_ = mode; }
    SolverMode solverMode() const { return mode_; }

    /** Cumulative solver work counters. */
    const SolverStats &solverStats() const { return stats_; }

    /**
     * Reset accounting on all resources (and, when metrics are
     * attached, their utilization histories — the metrics window is
     * the accounting window).
     */
    void resetAccounting();

    /**
     * Reset accounting on the creation-order index range
     * [begin, end) only — one session's slice of a shared network.
     * A session opening its measurement window must not clear the
     * served totals of co-resident sessions; a standalone server's
     * range covers every resource, making this identical to the
     * global reset.
     */
    void resetAccounting(std::size_t begin, std::size_t end);

    /**
     * Attach a metrics registry. When the registry is enabled, the
     * network keeps one time-weighted utilization histogram per
     * resource ("util.<resource>") — rates are piecewise constant
     * between flow events, so every inter-event interval becomes one
     * exact histogram sample — plus flow lifecycle counters. A
     * disabled registry (or nullptr) leaves the network exactly on the
     * uninstrumented path. Must be attached before flows start.
     */
    void attachMetrics(MetricsRegistry *metrics);

    /**
     * Record utilization histories up to the current time. Accounting
     * is untouched (it is read lazily), so the call never changes a
     * result; a no-op when metrics are not attached.
     */
    void flushMetrics();

  private:
    friend class FluidResource;

    /**
     * Commit a mutation: at the end of the current event inside one
     * (runAs() included), at once outside events.
     */
    void afterMutation();
    /** Solve, settle the loads and move the completion event. */
    void commit();

    /** True when a mutation has marked something the solver has not seen. */
    bool
    solvePending() const
    {
        return !dirtyResources_.empty() || !dirtyFlowIds_.empty();
    }

    /** Re-solve the components reachable from the dirty set. */
    void solveDirty();
    /** Progressive filling over compFlows_/compRes_ (sorted). */
    void solveComponent();

    void scheduleCompletion();
    void completeEarliest();
    void instrumentResource(FluidResource *r);

    std::uint32_t internCategory(const std::string &category);

    /** Bring @p flow up to date at now and give it @p rate. */
    void reanchor(FluidFlow &flow, double rate);

    /**
     * Carry the rates changed at unsettledAt_ into their resources'
     * loads, once the clock has moved past that time (always when
     * @p force). Rates change several times per timestamp in a busy
     * component; loads only need the last value. Logically const:
     * reads call it.
     */
    void settle(bool force = false) const;

    /** Integrate @p r's loads up to @p at; settleLoads() finishes them. */
    void
    touch(FluidResource *r, Time at) const
    {
        if (!r->loadStale_) {
            r->loadStale_ = true;
            r->integrate(at);
            staleLoads_.push_back(r);
        }
    }

    /** Move @p flow's share of its resources' loads to @p rate at @p at. */
    void
    shiftLoad(FluidFlow &flow, double rate, Time at) const
    {
        for (std::size_t i = 0; i < flow.demands.size(); ++i) {
            const FlowDemand &d = flow.demands[i];
            const double delta = d.weight * rate - d.weight * flow.loadRate;
            touch(d.resource, at);
            d.resource->accounts_[flow.accountSlot[i]].load += delta;
            d.resource->load_ += delta;
        }
        flow.loadRate = rate;
    }

    /** Finish the loads of every touched resource at @p at. */
    void settleLoads(Time at) const;

    // completion heap, ordered by (finish, id)
    void heapPush(FluidFlow *flow);
    void heapUpdate(FluidFlow *flow);
    void heapRemove(FluidFlow *flow);
    void siftUp(std::size_t pos);
    void siftDown(std::size_t pos);

    /** Register a flow in its resources' member lists. */
    void addMembership(FluidFlow &flow);
    /**
     * Take a leaving flow out of its resources' loads and member lists
     * and its owner's list, and mark those resources dirty.
     */
    void detach(FluidFlow &flow);

    void
    markDirty(FluidResource *r)
    {
        if (!r->dirty_) {
            r->dirty_ = true;
            dirtyResources_.push_back(r);
        }
    }

    /** Mark a flow and all resources it touches dirty. */
    void
    markFlowDirty(FluidFlow &flow)
    {
        for (const auto &d : flow.demands)
            markDirty(d.resource);
        dirtyFlowIds_.push_back(flow.id);
    }

    EventQueue &eq_;
    std::vector<std::unique_ptr<FluidResource>> resources_;
    std::string namePrefix_;
    std::map<FlowId, FluidFlow> flows_;
    FlowId nextId_ = 1;
    /** Head of each owner's list of live flows, by owner id. */
    std::vector<FluidFlow *> owned_;
    std::vector<FluidFlow *> heap_; ///< completion heap
    EventId pending_{};
    Time pendingAt_ = 0.0; ///< heap key the pending event was set for

    std::unordered_map<std::string, std::uint32_t> categoryIds_;
    std::vector<std::string> categoryNames_;
    /** Flows whose rate changed at unsettledAt_ (see settle()). */
    mutable std::vector<FluidFlow *> unsettled_;
    Time unsettledAt_ = 0.0;
    /** Resources whose loads changed and are not yet settled. */
    mutable std::vector<FluidResource *> staleLoads_;

    SolverMode mode_ = SolverMode::Incremental;
    SolverStats stats_;
    std::uint64_t mark_ = 0; ///< BFS epoch source

    /** Resources touched since the last solve (dirty_ flag set). */
    std::vector<FluidResource *> dirtyResources_;
    /**
     * Flows touched since the last solve, by id — ids, not pointers,
     * because a flow can be started and cancelled within one event.
     * Also covers demandless (cap-only) flows, which no resource
     * member list reaches.
     */
    std::vector<FlowId> dirtyFlowIds_;

    // reusable solver scratch (cleared per solve; avoids per-event
    // allocation in the hot path)
    std::vector<FluidFlow *> affected_;
    std::vector<FluidResource *> resQueue_;
    std::vector<FluidFlow *> compFlows_;
    std::vector<FluidResource *> compRes_;

    // metrics instrumentation (all nullptr when metrics are disabled)
    MetricsRegistry *metrics_ = nullptr;
    MetricCounter *flowsStartedCtr_ = nullptr;
    MetricCounter *flowsCompletedCtr_ = nullptr;
    MetricCounter *flowsCancelledCtr_ = nullptr;
    MetricGauge *activeFlowsGauge_ = nullptr;
};

} // namespace tb

#endif // TRAINBOX_FLUID_FLUID_HH
