#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace tb {

EventId
EventQueue::schedule(Time when, Callback cb, int priority)
{
    panic_if(when < now_, "scheduling event in the past (%g < %g)",
             when, now_);
    panic_if(released_[owner_], "owner %u scheduled after its release",
             owner_);
    const Key key{when, priority, owner_, nextSeq_++};
    heap_.push_back(Entry{key, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
    pending_.insert(key.seq);
    return EventId{key.seq};
}

EventId
EventQueue::scheduleIn(Time delay, Callback cb, int priority)
{
    panic_if(delay < 0.0, "negative event delay %g", delay);
    return schedule(now_ + delay, std::move(cb), priority);
}

bool
EventQueue::cancel(EventId &id)
{
    if (!id.valid())
        return false;
    const bool live = pending_.erase(id.seq) > 0;
    id.invalidate();
    // The heap entry stays behind as a tombstone; sweep when tombstones
    // dominate so cancel-heavy workloads stay O(1) amortized.
    if (live && heap_.size() >= compactMinHeap_ &&
        heap_.size() > 2 * pending_.size())
        compact();
    return live;
}

void
EventQueue::purgeTop() const
{
    while (!heap_.empty() &&
           pending_.find(heap_.front().key.seq) == pending_.end()) {
        std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
        heap_.pop_back();
    }
}

void
EventQueue::compact()
{
    std::erase_if(heap_, [this](const Entry &e) {
        return pending_.find(e.key.seq) == pending_.end();
    });
    std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
}

OwnerId
EventQueue::newOwner()
{
    released_.push_back(false);
    return static_cast<OwnerId>(released_.size() - 1);
}

void
EventQueue::release(OwnerId owner)
{
    panic_if(owner == 0 || owner >= released_.size(),
             "release of unknown owner %u", owner);
    if (released_[owner])
        return;
    released_[owner] = true;
    bool any = false;
    for (const Entry &e : heap_)
        if (e.key.owner == owner && pending_.erase(e.key.seq) > 0)
            any = true;
    if (any)
        compact();
}

void
EventQueue::setEventEndHook(Callback hook)
{
    panic_if(hook && eventEndHook_,
             "event queue already has an event-end hook");
    eventEndHook_ = std::move(hook);
    eventEndDue_ = false;
}

Time
EventQueue::nextTime() const
{
    panic_if(pending_.empty(), "nextTime() on empty event queue");
    purgeTop();
    return heap_.front().key.when;
}

bool
EventQueue::step()
{
    if (pending_.empty())
        return false;
    purgeTop();
    std::pop_heap(heap_.begin(), heap_.end(), EntryAfter{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    pending_.erase(entry.key.seq);
    now_ = entry.key.when;
    ++numExecuted_;
    owner_ = entry.key.owner;
    inEvent_ = true;
    entry.cb();
    inEvent_ = false;
    owner_ = 0;
    endEvent();
    return true;
}

void
EventQueue::run(Time until)
{
    while (!pending_.empty()) {
        purgeTop();
        if (until >= 0.0 && heap_.front().key.when > until) {
            now_ = until;
            return;
        }
        step();
    }
    if (until >= 0.0 && now_ < until)
        now_ = until;
}

} // namespace tb
