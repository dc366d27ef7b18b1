/**
 * @file
 * Discrete-event simulation core.
 *
 * The queue holds (time, priority, sequence) ordered callbacks. Components
 * schedule std::function callbacks; scheduled events can be cancelled via
 * the EventId handle. Time is continuous (seconds, double).
 *
 * Storage is a binary min-heap with *lazy deletion*: cancel() only drops
 * the event's sequence number from the pending set (O(1)); the heap entry
 * becomes a tombstone that is discarded when it surfaces at the top, or
 * swept out when tombstones outnumber live events (see docs/PERFORMANCE.md,
 * "Event-queue batching"). Execution order is the same strict total order
 * as before — (when, priority, seq) — so a heap rebuild never reorders
 * live events.
 *
 * One client may register an event-end hook: work it asks for while a
 * callback runs (requestEventEnd) is done once, when that callback
 * returns. The fluid network uses it to re-solve once per event however
 * many flows the callback started or cancelled; an event that asks for
 * nothing pays one flag test.
 *
 * Every event belongs to an owner: the one running when it was
 * scheduled (the running event's owner, or runAs()'s). Owner 0 is
 * unowned. release(owner) cancels every pending event of an owner, and
 * from then on a schedule by that owner panics, so a client that ends
 * leaves nothing behind on a shared queue (docs/FLEET.md, "Ownership").
 */

#ifndef TRAINBOX_SIM_EVENT_QUEUE_HH
#define TRAINBOX_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/units.hh"

namespace tb {

/** A client of the queue; events and flows carry one (0 = unowned). */
using OwnerId = std::uint32_t;

/** Handle identifying a scheduled event; usable for cancellation. */
struct EventId
{
    std::uint64_t seq = 0;

    bool valid() const { return seq != 0; }
    void invalidate() { seq = 0; }
};

/**
 * The event queue / simulation clock.
 *
 * Events at equal timestamps run in (priority, insertion) order; lower
 * priority values run first.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** Default priority for ordinary events. */
    static constexpr int defaultPriority = 100;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in seconds. */
    Time now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @return a handle usable with cancel().
     */
    EventId schedule(Time when, Callback cb, int priority = defaultPriority);

    /** Schedule @p cb to run @p delay seconds from now. */
    EventId scheduleIn(Time delay, Callback cb,
                       int priority = defaultPriority);

    /** Cancel a pending event. Returns false if already fired/cancelled. */
    bool cancel(EventId &id);

    /** True when no live events remain (tombstones don't count). */
    bool empty() const { return pending_.empty(); }

    /** Number of pending (live) events. */
    std::size_t size() const { return pending_.size(); }

    /** Time of the next pending event; panics when empty. */
    Time nextTime() const;

    /** Run a single event. Returns false when the queue is empty. */
    bool step();

    /** Run until the queue is empty or @p until is reached (inclusive). */
    void run(Time until = -1.0);

    /** Total number of events executed so far. */
    std::uint64_t numExecuted() const { return numExecuted_; }

    /** True while step() runs an event's callback, or runAs() its code. */
    bool inEvent() const { return inEvent_; }

    /** A fresh owner id (1, 2, ...), never released yet. */
    OwnerId newOwner();

    /** The owner of the code running now (0 between events). */
    OwnerId owner() const { return owner_; }

    /** Has @p owner been released? (Owner 0 never is.) */
    bool released(OwnerId owner) const { return released_[owner]; }

    /**
     * Run @p fn as @p owner: what it schedules, and the flows it
     * starts, belong to @p owner. Inside an event this only switches
     * the owner. Outside one, @p fn counts as an event of its own: the
     * event-end hook runs once when it returns, so the flows it starts
     * are solved together.
     */
    template <typename Fn>
    void
    runAs(OwnerId owner, Fn &&fn)
    {
        const OwnerId outer = owner_;
        const bool nested = inEvent_;
        owner_ = owner;
        inEvent_ = true;
        fn();
        owner_ = outer;
        inEvent_ = nested;
        if (!nested)
            endEvent();
    }

    /**
     * Cancel every pending event of @p owner (nonzero) and mark it
     * released: a later schedule by it panics. Idempotent. Costs one
     * pass over the heap, which on a private core holds little besides
     * the owner's own events.
     */
    void release(OwnerId owner);

    /**
     * Register the queue's one event-end hook (nullptr removes it).
     * Panics when a second client tries to register one.
     */
    void setEventEndHook(Callback hook);

    /**
     * Run the event-end hook once the current callback returns. Only
     * meaningful inside a callback (see inEvent()); idempotent.
     */
    void requestEventEnd() { eventEndDue_ = true; }

    /**
     * Minimum heap size before cancel() considers a tombstone sweep.
     * Below the threshold compaction is skipped entirely; above it a
     * sweep still requires tombstones to outnumber live events 2:1.
     * Compaction never reorders live events, so retuning the threshold
     * at any point is behavior-neutral — it only shifts when the
     * amortized O(n) sweeps happen. Long-lived multi-session cores size
     * this from the live-event count (see SimulationCore) so fleet-scale
     * churn doesn't thrash rebuilds.
     */
    void setCompactionThreshold(std::size_t minHeap)
    {
        compactMinHeap_ = minHeap;
    }

    /** Current compaction threshold (heap entries, tombstones included). */
    std::size_t compactionThreshold() const { return compactMinHeap_; }

  private:
    struct Key
    {
        Time when;
        int priority;
        OwnerId owner; ///< fills the padding; not part of the order
        std::uint64_t seq;

        bool
        operator<(const Key &o) const
        {
            if (when != o.when)
                return when < o.when;
            if (priority != o.priority)
                return priority < o.priority;
            return seq < o.seq;
        }
    };

    struct Entry
    {
        Key key;
        Callback cb;
    };

    /** Min-heap comparator (std heap primitives build a max-heap). */
    struct EntryAfter
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return b.key < a.key;
        }
    };

    /** Drop cancelled entries sitting at the top of the heap. */
    void purgeTop() const;

    /** Sweep all tombstones and re-heapify (amortized by cancel()). */
    void compact();

    /** Run the event-end hook if the code that just ran asked for it. */
    void
    endEvent()
    {
        if (eventEndDue_) {
            eventEndDue_ = false;
            eventEndHook_();
        }
    }

    /** Default compaction threshold; small queues never sweep. */
    static constexpr std::size_t kDefaultCompactMinHeap = 64;

    Time now_ = 0.0;
    std::size_t compactMinHeap_ = kDefaultCompactMinHeap;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t numExecuted_ = 0;
    bool inEvent_ = false;
    bool eventEndDue_ = false;
    Callback eventEndHook_;
    OwnerId owner_ = 0;
    std::vector<bool> released_{false}; ///< by owner id; owner 0 stays false

    // mutable so the const observers (nextTime) can discard tombstones;
    // purging never changes observable state.
    mutable std::vector<Entry> heap_;
    std::unordered_set<std::uint64_t> pending_;
};

} // namespace tb

#endif // TRAINBOX_SIM_EVENT_QUEUE_HH
