/**
 * @file
 * Tests for the discrete-event core.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hh"

namespace tb {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(3.0, [&] { order.push_back(3); });
    eq.schedule(1.0, [&] { order.push_back(1); });
    eq.schedule(2.0, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(eq.now(), 3.0);
}

TEST(EventQueue, TieBrokenByPriorityThenInsertion)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(1.0, [&] { order.push_back(0); }, 50);
    eq.schedule(1.0, [&] { order.push_back(1); }, 10);
    eq.schedule(1.0, [&] { order.push_back(2); }, 50);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(EventQueue, ScheduleInUsesRelativeTime)
{
    EventQueue eq;
    double fired_at = -1.0;
    eq.schedule(2.0, [&] {
        eq.scheduleIn(1.5, [&] { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule(1.0, [&] { fired = true; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id)); // second cancel is a no-op
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireFails)
{
    EventQueue eq;
    EventId id = eq.schedule(1.0, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, RunUntilStopsBeforeLaterEvents)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1.0, [&] { ++count; });
    eq.schedule(5.0, [&] { ++count; });
    eq.run(2.0);
    EXPECT_EQ(count, 1);
    EXPECT_DOUBLE_EQ(eq.now(), 2.0);
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(1.0, [&] { ++count; });
    eq.schedule(2.0, [&] { ++count; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.scheduleIn(0.5, chain);
    };
    eq.scheduleIn(0.5, chain);
    eq.run();
    EXPECT_EQ(depth, 10);
    EXPECT_DOUBLE_EQ(eq.now(), 5.0);
    EXPECT_EQ(eq.numExecuted(), 10u);
}

TEST(EventQueue, CancelUnderLoad)
{
    // Regression for the O(n)-per-cancel removal path: thousands of
    // cancels against a large pending set, interleaved with execution.
    // With lazy tombstones this is O(1) amortized per cancel; the test
    // asserts the survivors run in exactly the right order and count.
    EventQueue eq;
    constexpr int kEvents = 20000;
    std::vector<EventId> ids;
    ids.reserve(kEvents);
    std::vector<int> fired;
    for (int i = 0; i < kEvents; ++i) {
        ids.push_back(eq.schedule(static_cast<Time>(i) * 0.001,
                                  [&fired, i] { fired.push_back(i); }));
    }
    EXPECT_EQ(eq.size(), static_cast<std::size_t>(kEvents));

    // Cancel every odd event (half the set, forcing compaction sweeps).
    for (int i = 1; i < kEvents; i += 2)
        EXPECT_TRUE(eq.cancel(ids[i]));
    EXPECT_EQ(eq.size(), static_cast<std::size_t>(kEvents / 2));

    // A second cancel of an already-tombstoned event reports false.
    for (int i = 1; i < 100; i += 2)
        EXPECT_FALSE(eq.cancel(ids[i]));

    eq.run();
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents / 2));
    for (int i = 0; i < kEvents / 2; ++i)
        EXPECT_EQ(fired[i], 2 * i) << "at " << i;
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelRescheduleChurn)
{
    // The fluid network's pattern: one pending completion event that is
    // cancelled and rescheduled on every mutation.
    EventQueue eq;
    int fired = 0;
    EventId pending{};
    for (int i = 0; i < 10000; ++i) {
        eq.cancel(pending);
        pending = eq.scheduleIn(1.0 + i * 1e-6, [&fired] { ++fired; });
    }
    // Tombstone sweeps must have bounded the heap: the live set is 1.
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SizeAndEmptyIgnoreTombstones)
{
    EventQueue eq;
    EventId a = eq.schedule(1.0, [] {});
    EventId b = eq.schedule(2.0, [] {});
    EXPECT_EQ(eq.size(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_FALSE(eq.empty());
    eq.cancel(b);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, NextTimeSkipsCancelledTop)
{
    EventQueue eq;
    EventId early = eq.schedule(1.0, [] {});
    eq.schedule(3.0, [] {});
    EXPECT_DOUBLE_EQ(eq.nextTime(), 1.0);
    eq.cancel(early);
    EXPECT_DOUBLE_EQ(eq.nextTime(), 3.0);
}

TEST(EventQueue, EventEndHookRunsOnceAfterRequestingCallback)
{
    EventQueue eq;
    std::vector<std::string> log;
    eq.setEventEndHook([&] {
        EXPECT_FALSE(eq.inEvent());
        log.push_back("hook");
    });
    EXPECT_FALSE(eq.inEvent());
    eq.schedule(1.0, [&] {
        EXPECT_TRUE(eq.inEvent());
        eq.requestEventEnd();
        eq.requestEventEnd(); // idempotent
        log.push_back("a");
    });
    eq.schedule(2.0, [&] { log.push_back("b"); }); // asks for nothing
    eq.run();
    EXPECT_EQ(log, (std::vector<std::string>{"a", "hook", "b"}));

    // Removing the hook lets another client register one.
    eq.setEventEndHook(nullptr);
    eq.setEventEndHook([] {});
}

TEST(EventQueue, EventsBelongToTheOwnerThatScheduledThem)
{
    EventQueue eq;
    const OwnerId a = eq.newOwner();
    const OwnerId b = eq.newOwner();
    EXPECT_NE(a, 0u);
    EXPECT_NE(a, b);
    std::vector<std::string> log;
    // A chain scheduled under runAs keeps its owner from event to event.
    std::function<void()> tick = [&] {
        EXPECT_EQ(eq.owner(), a);
        log.push_back("a");
        eq.scheduleIn(1.0, tick);
    };
    eq.runAs(a, [&] { eq.schedule(1.0, tick); });
    eq.runAs(b, [&] {
        eq.schedule(1.5, [&] {
            EXPECT_EQ(eq.owner(), b);
            log.push_back("b");
        });
    });
    eq.schedule(2.5, [&] {
        EXPECT_EQ(eq.owner(), 0u);
        log.push_back("unowned");
    });
    EXPECT_EQ(eq.owner(), 0u);
    eq.run(2.2);
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "a"}));

    // Releasing a cancels its pending event, and with it the chain;
    // b's and unowned events are untouched.
    eq.release(a);
    eq.release(a); // idempotent
    EXPECT_TRUE(eq.released(a));
    EXPECT_FALSE(eq.released(b));
    EXPECT_EQ(eq.size(), 1u);
    eq.run();
    EXPECT_EQ(log.back(), "unowned");
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunAsOutsideAnEventEndsLikeOne)
{
    EventQueue eq;
    int hooks = 0;
    eq.setEventEndHook([&] { ++hooks; });
    const OwnerId a = eq.newOwner();
    eq.runAs(a, [&] {
        EXPECT_TRUE(eq.inEvent());
        eq.requestEventEnd();
        // Nested: only the owner changes; the hook waits for the outer
        // scope.
        eq.runAs(0, [&] { eq.requestEventEnd(); });
        EXPECT_EQ(eq.owner(), a);
        EXPECT_EQ(hooks, 0);
    });
    EXPECT_FALSE(eq.inEvent());
    EXPECT_EQ(hooks, 1);
    eq.runAs(a, [] {}); // asks for nothing
    EXPECT_EQ(hooks, 1);
}

TEST(EventQueueDeath, ScheduleByReleasedOwnerPanics)
{
    EventQueue eq;
    const OwnerId a = eq.newOwner();
    eq.release(a);
    EXPECT_DEATH(eq.runAs(a, [&] { eq.schedule(1.0, [] {}); }),
                 "after its release");
}

TEST(EventQueueDeath, SecondEventEndHookPanics)
{
    EventQueue eq;
    eq.setEventEndHook([] {});
    EXPECT_DEATH(eq.setEventEndHook([] {}), "event-end hook");
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(5.0, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(1.0, [] {}), "past");
}

TEST(EventQueueDeath, NextTimeOnEmptyPanics)
{
    EventQueue eq;
    EXPECT_DEATH(eq.nextTime(), "empty");
}

} // namespace
} // namespace tb
