#include "sim/event_queue.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tb {

EventId
EventQueue::schedule(Time when, Callback cb, int priority)
{
    panic_if(when < now_, "scheduling event in the past (%g < %g)",
             when, now_);
    const Key key{when, priority, nextSeq_++};
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

std::vector<EventId>
EventQueue::scheduleBatch(std::vector<std::pair<Time, Callback>> items,
                          int priority)
{
    std::vector<EventId> ids;
    ids.reserve(items.size());
    // A batch larger than the live set re-heapifies once; smaller
    // batches sift entries in individually.
    const bool rebuild = items.size() > heap_.size();
    heap_.reserve(heap_.size() + items.size());
    for (auto &[when, cb] : items) {
        panic_if(when < now_, "scheduling event in the past (%g < %g)",
                 when, now_);
        const Key key{when, priority, nextSeq_++};
        heap_.push_back(Entry{key, std::move(cb)});
        if (!rebuild)
            std::push_heap(heap_.begin(), heap_.end(), EntryAfter{});
        pending_.insert(key.seq);
        ids.push_back(EventId{key.seq});
    }
    if (rebuild)
        std::make_heap(heap_.begin(), heap_.end(), EntryAfter{});
    return ids;
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
    inEvent_ = true;
    entry.cb();
    inEvent_ = false;
    if (eventEndDue_) {
        eventEndDue_ = false;
        eventEndHook_();
    }
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
