#include "fluid/fluid.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "sim/metrics.hh"

namespace tb {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

bool
byId(const FluidFlow *a, const FluidFlow *b)
{
    return a->id < b->id;
}

/** Completion-heap order: projected finish, then id. */
bool
finishesFirst(const FluidFlow *a, const FluidFlow *b)
{
    return a->finish < b->finish ||
           (a->finish == b->finish && a->id < b->id);
}
} // namespace

FluidResource::FluidResource(std::string name, Rate capacity)
    : name_(std::move(name)), capacity_(capacity)
{
    panic_if(capacity <= 0.0, "resource %s with non-positive capacity %g",
             name_.c_str(), capacity);
}

void
FluidResource::setCapacity(Rate capacity)
{
    // Zero is a legal *runtime* capacity (an elastic member that left,
    // a device that is fully down): the solver parks flows demanding a
    // zero-capacity resource at rate 0 until capacity returns. Only
    // negative or non-finite capacities are programming errors.
    panic_if(capacity < 0.0 || !std::isfinite(capacity),
             "resource %s capacity %g must be finite and >= 0",
             name_.c_str(), capacity);
    capacity_ = capacity;
}

Time
FluidResource::settledNow() const
{
    if (net_ == nullptr)
        return accounted_;
    net_->settle();
    return net_->eq_.now();
}

void
FluidResource::integrate(Time now)
{
    const double dt = now - accounted_;
    if (dt <= 0.0)
        return;
    accounted_ = now;
    if (load_ <= 0.0)
        return;
    for (Account &a : accounts_)
        a.served += a.load * dt;
    totalServed_ += load_ * dt;
}

std::uint32_t
FluidResource::account(std::uint32_t category)
{
    auto it = std::find_if(accounts_.begin(), accounts_.end(),
                           [&](const Account &a) {
                               return a.category == category;
                           });
    if (it != accounts_.end())
        return static_cast<std::uint32_t>(it - accounts_.begin());
    accounts_.push_back({category, 0.0, 0.0});
    return static_cast<std::uint32_t>(accounts_.size() - 1);
}

void
FluidResource::settleLoad(Time now)
{
    loadStale_ = false;
    // Loads move by deltas; an idle resource returns to exactly zero,
    // and rounding never leaves a negative load.
    const double cap = members_.empty() ? 0.0 : kInf;
    for (Account &a : accounts_)
        a.load = std::clamp(a.load, 0.0, cap);
    load_ = std::clamp(load_, 0.0, cap);
    if (utilHist_) {
        recordUtilization(now);
        util_ = capacity_ > 0.0 ? std::min(1.0, load_ / capacity_) : 0.0;
    }
}

void
FluidResource::recordUtilization(Time now) const
{
    if (now > utilRecorded_)
        utilHist_->record(util_, now - utilRecorded_);
    utilRecorded_ = now;
}

double
FluidResource::totalServed() const
{
    const Time now = settledNow();
    return totalServed_ + load_ * (now - accounted_);
}

std::map<std::string, double>
FluidResource::servedByCategory() const
{
    const Time now = settledNow();
    std::map<std::string, double> out;
    for (const Account &a : accounts_) {
        const double served = a.served + a.load * (now - accounted_);
        if (served > 0.0)
            out[net_->categoryNames_[a.category]] = served;
    }
    return out;
}

double
FluidResource::served(const std::string &category) const
{
    const auto byCategory = servedByCategory();
    auto it = byCategory.find(category);
    return it == byCategory.end() ? 0.0 : it->second;
}

double
FluidResource::utilization(Time now) const
{
    const double window = now - windowStart_;
    if (window <= 0.0 || capacity_ <= 0.0)
        return 0.0;
    settledNow();
    const double served = totalServed_ + load_ * (now - accounted_);
    return served / (capacity_ * window);
}

void
FluidResource::resetAccounting(Time now)
{
    totalServed_ = 0.0;
    for (Account &a : accounts_)
        a.served = 0.0;
    accounted_ = now;
    windowStart_ = now;
}

const TimeWeightedHistogram *
FluidResource::utilizationHistory() const
{
    if (utilHist_)
        recordUtilization(settledNow());
    return utilHist_;
}

void
DemandSet::add(FluidResource *resource, double weight)
{
    panic_if(resource == nullptr, "DemandSet::add null resource");
    if (weight <= 0.0)
        return;
    for (FlowDemand &d : demands_) {
        if (d.resource == resource) {
            d.weight += weight;
            return;
        }
    }
    demands_.push_back({resource, weight});
}

void
DemandSet::add(const std::vector<FlowDemand> &demands, double scale)
{
    for (const auto &d : demands)
        add(d.resource, d.weight * scale);
}

FluidNetwork::FluidNetwork(EventQueue &eq) : eq_(eq)
{
    eq_.setEventEndHook([this] { commit(); });
}

FluidNetwork::~FluidNetwork()
{
    eq_.setEventEndHook(nullptr);
    eq_.cancel(pending_);
}

FluidResource *
FluidNetwork::addResource(const std::string &name, Rate capacity)
{
    resources_.push_back(
        std::make_unique<FluidResource>(namePrefix_ + name, capacity));
    FluidResource *r = resources_.back().get();
    r->index_ = resources_.size() - 1;
    r->net_ = this;
    if (metrics_)
        instrumentResource(r);
    return r;
}

void
FluidNetwork::instrumentResource(FluidResource *r)
{
    r->utilHist_ = metrics_->histogram(
        "util." + r->name(), "time-weighted utilization of " + r->name());
    r->utilRecorded_ = eq_.now();
}

void
FluidNetwork::attachMetrics(MetricsRegistry *metrics)
{
    if (metrics == nullptr || !metrics->enabled())
        return;
    metrics_ = metrics;
    flowsStartedCtr_ = metrics_->counter("fluid.flows_started",
                                         "flows launched");
    flowsCompletedCtr_ = metrics_->counter("fluid.flows_completed",
                                           "flows run to completion");
    flowsCancelledCtr_ = metrics_->counter("fluid.flows_cancelled",
                                           "flows aborted");
    activeFlowsGauge_ = metrics_->gauge("fluid.active_flows",
                                        "in-flight flows");
    for (auto &r : resources_)
        instrumentResource(r.get());
}

void
FluidNetwork::flushMetrics()
{
    if (!metrics_)
        return;
    settle();
    for (auto &r : resources_)
        r->recordUtilization(eq_.now());
}

std::uint32_t
FluidNetwork::internCategory(const std::string &category)
{
    auto [it, added] = categoryIds_.try_emplace(
        category, static_cast<std::uint32_t>(categoryNames_.size()));
    if (added)
        categoryNames_.push_back(category);
    return it->second;
}

FluidResource *
FluidNetwork::findResource(const std::string &name) const
{
    for (const auto &r : resources_)
        if (r->name() == name)
            return r.get();
    return nullptr;
}

void
FluidNetwork::addMembership(FluidFlow &flow)
{
    flow.memberSlot.resize(flow.demands.size());
    flow.accountSlot.resize(flow.demands.size());
    for (std::size_t i = 0; i < flow.demands.size(); ++i) {
        FluidResource *r = flow.demands[i].resource;
        flow.accountSlot[i] = r->account(flow.category);
        flow.memberSlot[i] = static_cast<std::uint32_t>(r->members_.size());
        r->members_.emplace_back(&flow, static_cast<std::uint32_t>(i));
    }
}

void
FluidNetwork::detach(FluidFlow &flow)
{
    (flow.ownerPrev ? flow.ownerPrev->ownerNext : owned_[flow.owner]) =
        flow.ownerNext;
    if (flow.ownerNext)
        flow.ownerNext->ownerPrev = flow.ownerPrev;
    settle(flow.unsettled);
    shiftLoad(flow, 0.0, eq_.now());
    for (std::size_t i = 0; i < flow.demands.size(); ++i) {
        FluidResource *r = flow.demands[i].resource;
        markDirty(r);
        auto &vec = r->members_;
        const std::uint32_t slot = flow.memberSlot[i];
        vec[slot] = vec.back();
        vec.pop_back();
        // Swap-remove moved another entry into this slot; fix its
        // back-reference (self-moves were just popped).
        if (slot < vec.size())
            vec[slot].first->memberSlot[vec[slot].second] = slot;
    }
}

FlowId
FluidNetwork::startFlow(FlowSpec spec)
{
    panic_if(spec.size < 0.0, "flow with negative size %g", spec.size);
    panic_if(spec.fairWeight <= 0.0, "flow with fair weight %g",
             spec.fairWeight);
    panic_if(spec.demands.empty() && spec.rateCap <= 0.0 && spec.size > 0.0,
             "flow '%s' has neither demands nor a rate cap",
             spec.category.c_str());
    for (const auto &d : spec.demands) {
        panic_if(d.resource == nullptr, "flow demand with null resource");
        panic_if(d.weight <= 0.0, "flow demand with weight %g on %s",
                 d.weight, d.resource->name().c_str());
    }

    const Time now = eq_.now();
    const FlowId id = nextId_++;
    FluidFlow flow;
    flow.id = id;
    flow.owner = eq_.owner();
    panic_if(eq_.released(flow.owner),
             "owner %u started a flow after its release", flow.owner);
    flow.category = internCategory(spec.category);
    flow.remaining = spec.size;
    flow.anchor = now;
    flow.finish = spec.size > 0.0 ? kInf : now;
    flow.rateCap = spec.rateCap;
    flow.fairWeight = spec.fairWeight;
    flow.demands = std::move(spec.demands);
    flow.onComplete = std::move(spec.onComplete);
    FluidFlow &f = flows_.emplace(id, std::move(flow)).first->second;
    if (f.owner >= owned_.size())
        owned_.resize(f.owner + 1, nullptr);
    f.ownerNext = owned_[f.owner];
    if (f.ownerNext)
        f.ownerNext->ownerPrev = &f;
    owned_[f.owner] = &f;
    addMembership(f);
    markFlowDirty(f);
    heapPush(&f);

    if (flowsStartedCtr_) {
        flowsStartedCtr_->inc();
        activeFlowsGauge_->set(static_cast<double>(flows_.size()));
    }

    afterMutation();
    return id;
}

void
FluidNetwork::cancelFlow(FlowId id)
{
    auto it = flows_.find(id);
    if (it != flows_.end()) {
        heapRemove(&it->second);
        detach(it->second);
        flows_.erase(it);
        if (flowsCancelledCtr_) {
            flowsCancelledCtr_->inc();
            activeFlowsGauge_->set(static_cast<double>(flows_.size()));
        }
    }
    afterMutation();
}

void
FluidNetwork::release(OwnerId owner)
{
    if (owner >= owned_.size() || owned_[owner] == nullptr)
        return;
    while (FluidFlow *flow = owned_[owner]) {
        const FlowId id = flow->id;
        heapRemove(flow);
        detach(*flow);
        flows_.erase(id);
        if (flowsCancelledCtr_)
            flowsCancelledCtr_->inc();
    }
    if (activeFlowsGauge_)
        activeFlowsGauge_->set(static_cast<double>(flows_.size()));
    afterMutation();
}

double
FluidNetwork::flowRate(FlowId id)
{
    if (solvePending())
        solveDirty();
    auto it = flows_.find(id);
    return it == flows_.end() ? 0.0 : it->second.rate;
}

double
FluidNetwork::flowRemaining(FlowId id) const
{
    auto it = flows_.find(id);
    if (it == flows_.end())
        return 0.0;
    const FluidFlow &flow = it->second;
    return std::max(0.0, flow.remaining -
                             flow.rate * (eq_.now() - flow.anchor));
}

void
FluidNetwork::capacityChanged()
{
    settle();
    for (auto &r : resources_) {
        markDirty(r.get());
        touch(r.get(), eq_.now());
    }
    afterMutation();
}

void
FluidNetwork::capacityChanged(FluidResource *resource)
{
    panic_if(resource == nullptr, "capacityChanged(null resource)");
    settle();
    markDirty(resource);
    touch(resource, eq_.now());
    afterMutation();
}

void
FluidNetwork::resetAccounting()
{
    resetAccounting(0, resources_.size());
}

void
FluidNetwork::resetAccounting(std::size_t begin, std::size_t end)
{
    panic_if(begin > end || end > resources_.size(),
             "resetAccounting range [%zu, %zu) out of bounds (%zu resources)",
             begin, end, resources_.size());
    settle();
    for (std::size_t i = begin; i < end; ++i) {
        auto &r = resources_[i];
        r->resetAccounting(eq_.now());
        if (r->utilHist_) {
            r->utilHist_->reset();
            r->utilRecorded_ = eq_.now();
        }
    }
}

void
FluidNetwork::afterMutation()
{
    if (eq_.inEvent())
        eq_.requestEventEnd();
    else
        commit();
}

void
FluidNetwork::commit()
{
    solveDirty();
    settleLoads(eq_.now());
    scheduleCompletion();
}

void
FluidNetwork::settle(bool force) const
{
    if (unsettled_.empty() || (!force && unsettledAt_ >= eq_.now()))
        return;
    for (FluidFlow *flow : unsettled_) {
        flow->unsettled = false;
        shiftLoad(*flow, flow->rate, unsettledAt_);
    }
    unsettled_.clear();
    settleLoads(unsettledAt_);
}

void
FluidNetwork::settleLoads(Time at) const
{
    for (FluidResource *r : staleLoads_)
        r->settleLoad(at);
    staleLoads_.clear();
}

void
FluidNetwork::reanchor(FluidFlow &flow, double rate)
{
    const Time now = eq_.now();
    settle();
    flow.remaining =
        std::max(0.0, flow.remaining - flow.rate * (now - flow.anchor));
    flow.anchor = now;
    flow.rate = rate;
    if (!flow.unsettled) {
        flow.unsettled = true;
        unsettled_.push_back(&flow);
    }
    unsettledAt_ = now;
    if (flow.remaining <= 0.0)
        flow.finish = now;
    else
        flow.finish = rate > 0.0 ? now + flow.remaining / rate : kInf;
    heapUpdate(&flow);
    ++stats_.flowsReanchored;
}

void
FluidNetwork::solveDirty()
{
    affected_.clear();
    resQueue_.clear();
    const std::uint64_t mark = ++mark_;

    if (mode_ == SolverMode::FullResolve) {
        ++stats_.fullSolves;
        for (FluidResource *r : dirtyResources_)
            r->dirty_ = false;
        dirtyResources_.clear();
        dirtyFlowIds_.clear();
        for (auto &[id, flow] : flows_) {
            flow.mark = mark;
            affected_.push_back(&flow);
        }
        if (affected_.empty())
            return;
    } else {
        // Gather: BFS over the sharing graph from the dirty seeds. Every
        // flow sharing a resource with a dirty flow can see its max-min
        // share shift, transitively — the closure is exactly the union
        // of the connected components that contain a dirty seed.
        for (FluidResource *r : dirtyResources_) {
            r->dirty_ = false;
            if (r->mark_ != mark) {
                r->mark_ = mark;
                resQueue_.push_back(r);
            }
        }
        dirtyResources_.clear();
        for (FlowId id : dirtyFlowIds_) {
            auto it = flows_.find(id);
            if (it == flows_.end() || it->second.mark == mark)
                continue;
            FluidFlow &flow = it->second;
            flow.mark = mark;
            affected_.push_back(&flow);
            for (const auto &d : flow.demands) {
                if (d.resource->mark_ != mark) {
                    d.resource->mark_ = mark;
                    resQueue_.push_back(d.resource);
                }
            }
        }
        dirtyFlowIds_.clear();
        for (std::size_t head = 0; head < resQueue_.size(); ++head) {
            FluidResource *r = resQueue_[head];
            for (const auto &[flow, di] : r->members_) {
                if (flow->mark == mark)
                    continue;
                flow->mark = mark;
                affected_.push_back(flow);
                for (const auto &d : flow->demands) {
                    if (d.resource->mark_ != mark) {
                        d.resource->mark_ = mark;
                        resQueue_.push_back(d.resource);
                    }
                }
            }
        }
        if (affected_.empty())
            return;
        std::sort(affected_.begin(), affected_.end(), byId);
    }

    ++stats_.solves;

    // Partition the affected set into true connected components and run
    // progressive filling on each. Components are seeded in ascending
    // flow-id order, so the decomposition is deterministic.
    const std::uint64_t cmark = ++mark_;
    for (FluidFlow *seed : affected_) {
        if (seed->mark == cmark)
            continue;
        compFlows_.clear();
        compRes_.clear();
        seed->mark = cmark;
        compFlows_.push_back(seed);
        for (std::size_t head = 0; head < compFlows_.size(); ++head) {
            FluidFlow *flow = compFlows_[head];
            for (const auto &d : flow->demands) {
                FluidResource *r = d.resource;
                if (r->mark_ == cmark)
                    continue;
                r->mark_ = cmark;
                compRes_.push_back(r);
                for (const auto &[member, di] : r->members_) {
                    if (member->mark != cmark) {
                        member->mark = cmark;
                        compFlows_.push_back(member);
                    }
                }
            }
        }
        std::sort(compFlows_.begin(), compFlows_.end(), byId);
        std::sort(compRes_.begin(), compRes_.end(),
                  [](const FluidResource *a, const FluidResource *b) {
                      return a->index_ < b->index_;
                  });
        solveComponent();
        ++stats_.componentsSolved;
        stats_.flowsSolved += compFlows_.size();
        // Only flows whose rate moved are brought up to date, so which
        // clean components a pass happens to visit never shows.
        for (FluidFlow *flow : compFlows_)
            if (flow->fill != flow->rate)
                reanchor(*flow, flow->fill);
    }
}

void
FluidNetwork::solveComponent()
{
    // Progressive filling: raise all unfrozen flow rates uniformly until a
    // flow hits its cap or a resource saturates; repeat. Restricted to one
    // connected component, this performs the same iterations in the same
    // order (flows by id, resources by creation order) as a whole-network
    // solve would on this component — resources outside the component
    // never constrain it, and flows outside never contribute weight.
    for (FluidResource *r : compRes_) {
        r->allocScratch_ = r->capacity(); // remaining slack
        r->weightScratch_ = 0.0;          // active weight (recomputed below)
    }

    std::size_t unfrozen = 0;
    for (FluidFlow *flow : compFlows_) {
        flow->fill = 0.0;
        flow->frozen = flow->remaining <= 0.0; // drained at its anchor
        if (!flow->frozen)
            ++unfrozen;
    }

    while (unfrozen > 0) {
        for (FluidResource *r : compRes_)
            r->weightScratch_ = 0.0;
        for (FluidFlow *flow : compFlows_) {
            if (flow->frozen)
                continue;
            for (const auto &d : flow->demands)
                d.resource->weightScratch_ += d.weight * flow->fairWeight;
        }

        double step = kInf;
        for (FluidResource *r : compRes_) {
            if (r->weightScratch_ > 0.0)
                step = std::min(step,
                                std::max(0.0, r->allocScratch_) /
                                    r->weightScratch_);
        }
        for (FluidFlow *flow : compFlows_) {
            if (flow->frozen || flow->rateCap <= 0.0)
                continue;
            step = std::min(step, (flow->rateCap - flow->fill) /
                                      flow->fairWeight);
        }
        panic_if(std::isinf(step),
                 "unconstrained flow in fluid network (no demand, no cap)");

        for (FluidFlow *flow : compFlows_) {
            if (flow->frozen)
                continue;
            flow->fill += step * flow->fairWeight;
            for (const auto &d : flow->demands)
                d.resource->allocScratch_ -=
                    d.weight * flow->fairWeight * step;
        }

        // Freeze flows that hit their caps.
        for (FluidFlow *flow : compFlows_) {
            if (flow->frozen)
                continue;
            if (flow->rateCap > 0.0 &&
                flow->fill >= flow->rateCap * (1.0 - 1e-12)) {
                flow->frozen = true;
                --unfrozen;
            }
        }
        // Freeze flows on saturated resources.
        for (FluidResource *r : compRes_) {
            if (r->weightScratch_ <= 0.0)
                continue;
            if (r->allocScratch_ <= 1e-12 * r->capacity()) {
                for (FluidFlow *flow : compFlows_) {
                    if (flow->frozen)
                        continue;
                    for (const auto &d : flow->demands) {
                        if (d.resource == r) {
                            flow->frozen = true;
                            --unfrozen;
                            break;
                        }
                    }
                }
            }
        }
    }
}

void
FluidNetwork::scheduleCompletion()
{
    // One pending event, at the top of the heap; it moves only when the
    // top's key does. It serves every owner's flows, so it is unowned:
    // commits run between events or at an event's end, as owner 0.
    panic_if(eq_.owner() != 0, "completion event scheduled by owner %u",
             eq_.owner());
    const Time top = heap_.empty() ? kInf : heap_.front()->finish;
    if (pending_.valid() && top == pendingAt_)
        return;
    eq_.cancel(pending_);
    pendingAt_ = top;
    if (!std::isinf(top))
        pending_ = eq_.schedule(std::max(top, eq_.now()),
                                [this] { completeEarliest(); });
}

void
FluidNetwork::completeEarliest()
{
    pending_.invalidate();
    const Time now = eq_.now();
    settle();

    // A flow is finished when its remaining time cannot advance the
    // clock: at most 1 ns, or one ulp of `now` on a clock that coarse.
    const double tol = std::max(1e-9, std::nextafter(now, kInf) - now);
    std::vector<FluidFlow *> done;
    while (!heap_.empty() && heap_.front()->finish - now <= tol) {
        done.push_back(heap_.front());
        heapRemove(heap_.front());
    }
    std::sort(done.begin(), done.end(), byId);

    std::vector<std::pair<OwnerId, std::function<void(Time)>>> callbacks;
    callbacks.reserve(done.size());
    for (FluidFlow *flow : done) {
        detach(*flow);
        callbacks.emplace_back(flow->owner, std::move(flow->onComplete));
        flows_.erase(flow->id);
    }

    if (flowsCompletedCtr_ && !done.empty()) {
        flowsCompletedCtr_->add(static_cast<double>(done.size()));
        activeFlowsGauge_->set(static_cast<double>(flows_.size()));
    }

    // The callbacks' own starts join this solve at the end of the event.
    afterMutation();

    // Each callback runs as its flow's owner. An earlier callback may
    // have released that owner; its completions are cancelled then.
    for (auto &entry : callbacks) {
        std::function<void(Time)> &cb = entry.second;
        if (cb && !eq_.released(entry.first))
            eq_.runAs(entry.first, [&cb, now] { cb(now); });
    }
}

void
FluidNetwork::siftUp(std::size_t pos)
{
    FluidFlow *flow = heap_[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!finishesFirst(flow, heap_[parent]))
            break;
        heap_[pos] = heap_[parent];
        heap_[pos]->heapPos = pos;
        pos = parent;
    }
    heap_[pos] = flow;
    flow->heapPos = pos;
}

void
FluidNetwork::siftDown(std::size_t pos)
{
    FluidFlow *flow = heap_[pos];
    const std::size_t n = heap_.size();
    for (;;) {
        std::size_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n && finishesFirst(heap_[child + 1], heap_[child]))
            ++child;
        if (!finishesFirst(heap_[child], flow))
            break;
        heap_[pos] = heap_[child];
        heap_[pos]->heapPos = pos;
        pos = child;
    }
    heap_[pos] = flow;
    flow->heapPos = pos;
}

void
FluidNetwork::heapPush(FluidFlow *flow)
{
    flow->heapPos = heap_.size();
    heap_.push_back(flow);
    heapUpdate(flow);
}

void
FluidNetwork::heapUpdate(FluidFlow *flow)
{
    siftUp(flow->heapPos);
    siftDown(flow->heapPos);
    ++stats_.heapOps;
}

void
FluidNetwork::heapRemove(FluidFlow *flow)
{
    const std::size_t pos = flow->heapPos;
    FluidFlow *last = heap_.back();
    heap_.pop_back();
    if (last != flow) {
        heap_[pos] = last;
        last->heapPos = pos;
        siftUp(pos);
        siftDown(last->heapPos);
    }
    ++stats_.heapOps;
}

} // namespace tb
