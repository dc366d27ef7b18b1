/**
 * @file
 * Seeded arrival streams: the one generator, player and preview behind
 * every disturbance injector (faults, elasticity, ingest, fleet faults).
 *
 * A stream is a scripted list plus classes, each an exponential
 * inter-arrival process on its own seed-derived Rng. arm() plays it at
 * job-relative times anchored at the clock when it runs: scripted
 * events first, then each class chains its next event lazily, so the
 * stream lasts as long as the run. An event may have a follow-up (a
 * fault's repair, a leave's join). A delivery runs in a fixed order,
 * which fixes tie order and event counts: deliver, schedule the
 * follow-up, schedule the class's next event. preview() lists offline
 * what arm() plays up to a horizon.
 *
 * An injector supplies a Source: its `Event`, its `Class` (derived from
 * ArrivalClass), `kFollowUps`, `at(ev)` (job-relative time),
 * `draw(class, start)` (the event starting at `start`: draws the rest
 * of it and moves prevEnd to where the next gap starts) and, with
 * follow-ups, `followUp(class, ev, origin)` (the event ending `ev`, at
 * its absolute time for a stream armed at `origin`).
 */

#ifndef TRAINBOX_SIM_ARRIVALS_HH
#define TRAINBOX_SIM_ARRIVALS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "sim/event_queue.hh"

namespace tb {

/** splitmix64 finalizer: derives unrelated streams from one seed. */
std::uint64_t mix64(std::uint64_t z);

/** The Rng of stream @p tag under @p seed (tags define the schedules). */
inline Rng
streamRng(std::uint64_t seed, std::uint64_t tag)
{
    return Rng(mix64(seed ^ tag));
}

/** One seeded class's generator state. */
struct ArrivalClass
{
    Rng rng;
    double rate = 0.0;  ///< events per simulated second
    Time prevEnd = 0.0; ///< job-relative time the next gap starts from

    /** Draw the next exponential gap; the start time it ends at. */
    Time
    nextStart()
    {
        const double u = rng.uniform();
        return prevEnd + -std::log(1.0 - u) / rate;
    }
};

/** Whether a Source's events have a follow-up, and how it is played. */
enum class FollowUps
{
    None,     ///< point events
    Unlisted, ///< a window's end: to onFollowUp, not previewed or counted
    Listed,   ///< an event of its own: to onEvent, previewed and counted
};

/** A follow-up event and its absolute delivery time. */
template <typename Event>
struct FollowUp
{
    Event event;
    Time when = 0.0;
};

/** One injector's classes and scripted events (scripted: no follow-up). */
template <typename Source>
class ArrivalStream
{
  public:
    using Event = typename Source::Event;
    using Class = typename Source::Class;
    using Handler = std::function<void(const Event &)>;

    ArrivalStream(std::vector<Class> classes, std::vector<Event> scripted)
        : classes_(std::move(classes)), scripted_(std::move(scripted)),
          pending_(classes_.size())
    {
    }

    // Armed events hold `this`.
    ArrivalStream(const ArrivalStream &) = delete;
    ArrivalStream &operator=(const ArrivalStream &) = delete;

    /**
     * Play the stream onto @p eq (at most once). @p onEvent receives
     * every event preview() lists, @p onFollowUp each unlisted
     * follow-up.
     */
    void
    arm(EventQueue &eq, Handler onEvent, Handler onFollowUp = nullptr)
    {
        panic_if(eq_ != nullptr, "arrival stream armed twice");
        eq_ = &eq;
        onEvent_ = std::move(onEvent);
        onFollowUp_ = std::move(onFollowUp);
        // 0 for a standalone run, so x + 0.0 leaves every time exact.
        origin_ = eq.now();
        for (const Event &ev : scripted_)
            eq.schedule(origin_ + Source::at(ev), [this, ev] {
                deliver(ev);
            });
        for (std::size_t i = 0; i < classes_.size(); ++i)
            scheduleNext(i);
    }

    /**
     * The events arm() plays in job-relative [0, horizon), in time
     * order (ties: scripted first, then classes in declaration order).
     * Call it before arm().
     */
    std::vector<Event>
    preview(Time horizon) const
    {
        panic_if(eq_ != nullptr, "preview() of an armed arrival stream");
        std::vector<Event> events;
        for (const Event &ev : scripted_)
            if (Source::at(ev) < horizon)
                events.push_back(ev);
        for (Class c : classes_) {
            while (true) {
                const Event ev = Source::draw(c, c.nextStart());
                if (Source::at(ev) >= horizon)
                    break;
                events.push_back(ev);
                if constexpr (Source::kFollowUps == FollowUps::Listed) {
                    const FollowUp<Event> f = Source::followUp(c, ev, 0.0);
                    if (f.when < horizon)
                        events.push_back(f.event);
                }
            }
        }
        std::stable_sort(events.begin(), events.end(),
                         [](const Event &a, const Event &b) {
                             return Source::at(a) < Source::at(b);
                         });
        return events;
    }

    /** Events delivered to onEvent so far. */
    std::size_t delivered() const { return delivered_; }

  private:
    void
    deliver(const Event &ev)
    {
        ++delivered_;
        if (onEvent_)
            onEvent_(ev);
    }

    /** Draw class @p idx's next event and schedule its delivery. */
    void
    scheduleNext(std::size_t idx)
    {
        Class &c = classes_[idx];
        pending_[idx] = Source::draw(c, c.nextStart());
        eq_->schedule(origin_ + Source::at(pending_[idx]), [this, idx] {
            // pending_[idx] holds until scheduleNext(idx) redraws it.
            const Event &ev = pending_[idx];
            deliver(ev);
            if constexpr (Source::kFollowUps != FollowUps::None) {
                const FollowUp<Event> f =
                    Source::followUp(classes_[idx], ev, origin_);
                eq_->schedule(f.when, [this, fe = f.event] {
                    if constexpr (Source::kFollowUps == FollowUps::Listed)
                        deliver(fe);
                    else if (onFollowUp_)
                        onFollowUp_(fe);
                });
            }
            scheduleNext(idx);
        });
    }

    std::vector<Class> classes_;
    std::vector<Event> scripted_;
    std::vector<Event> pending_; ///< per class: its scheduled event
    EventQueue *eq_ = nullptr;
    Handler onEvent_;
    Handler onFollowUp_;
    Time origin_ = 0.0; ///< clock at arm(): times are job-relative
    std::size_t delivered_ = 0;
};

} // namespace tb

#endif // TRAINBOX_SIM_ARRIVALS_HH
