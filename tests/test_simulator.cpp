// Tests for the discrete-event simulation kernel: deterministic ordering,
// cancellation, in-place rescheduling, the same-instant lane, lazy heap keys,
// bounded runs, and a randomized differential test against a naive
// (time, seq)-ordered reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "des/simulator.hpp"

namespace cloudburst::des {
namespace {

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_seconds(1.5e-9), 2);  // rounds to nearest ns
}

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), kSimStart);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3 * kSecond, [&] { order.push_back(3); });
  sim.schedule(1 * kSecond, [&] { order.push_back(1); });
  sim.schedule(2 * kSecond, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3 * kSecond);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(kSecond, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesDuringCallbacks) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule(5 * kMillisecond, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 5 * kMillisecond);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 10) sim.schedule(kMillisecond, hop);
  };
  sim.schedule(0, hop);
  sim.run();
  EXPECT_EQ(hops, 10);
  EXPECT_EQ(sim.now(), 9 * kMillisecond);
}

TEST(Simulator, NegativeDelayThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(-1, [] {}), std::invalid_argument);
}

TEST(Simulator, ScheduleAtPastThrows) {
  Simulator sim;
  sim.schedule(kSecond, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(0, [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  auto handle = sim.schedule(kSecond, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  auto handle = sim.schedule(0, [] {});
  sim.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash or affect anything
}

TEST(Simulator, DefaultHandleIsNotPending) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // harmless
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule(1, [&] { ++count; });
  sim.schedule(2, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1 * kSecond, [&] { order.push_back(1); });
  sim.schedule(3 * kSecond, [&] { order.push_back(3); });
  sim.run_until(2 * kSecond);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), 2 * kSecond);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Simulator, RunUntilWithEmptyQueueKeepsClock) {
  Simulator sim;
  sim.schedule(kSecond, [] {});
  sim.run();
  EXPECT_EQ(sim.run_until(10 * kSecond), kSecond);
}

TEST(Simulator, ExecutedEventsCountsOnlyFired) {
  Simulator sim;
  auto h = sim.schedule(1, [] {});
  sim.schedule(2, [] {});
  h.cancel();
  sim.run();
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    // Deterministic pseudo-shuffled times.
    const SimTime t = ((i * 7919) % 1000) * kMillisecond;
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed_events(), 10000u);
}

// --- handle lifetime contract (see simulator.hpp) ---------------------------

TEST(EventHandleLifetime, PendingIsFalseAfterSimulatorDestroyed) {
  EventHandle h;
  {
    Simulator sim;
    h = sim.schedule(kSecond, [] {});
    EXPECT_TRUE(h.pending());
  }
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not touch the destroyed simulator
  EXPECT_FALSE(h.pending());
}

TEST(EventHandleLifetime, CancelAfterRunAndAfterDrainAreNoops) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule(kSecond, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.pending());
  h.cancel();
  h.cancel();
  EXPECT_EQ(sim.pending_events(), 0u);
  // The drained simulator keeps working afterwards.
  sim.schedule(kSecond, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventHandleLifetime, StaleHandleCannotCancelRecycledSlot) {
  Simulator sim;
  int fired = 0;
  EventHandle a = sim.schedule(kSecond, [&] { fired = 1; });
  a.cancel();
  // b reuses a's slab slot; a's stale generation must not reach it.
  EventHandle b = sim.schedule(kSecond, [&] { fired = 2; });
  a.cancel();
  EXPECT_FALSE(a.pending());
  EXPECT_TRUE(b.pending());
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventHandleLifetime, SelfCancelDuringCallbackIsNoop) {
  // The slot is released before the callback runs, so a handle reports
  // !pending() inside its own callback and self-cancel is harmless.
  Simulator sim;
  bool fired = false;
  EventHandle h;
  h = sim.schedule(kSecond, [&] {
    fired = true;
    EXPECT_FALSE(h.pending());
    h.cancel();
  });
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(Simulator, CompactionKeepsOrderUnderMassCancellation) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 10000; ++i) {
    handles.push_back(
        sim.schedule((i + 1) * kMillisecond, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 10000; ++i) {
    if (i % 10 != 3) handles[i].cancel();  // 90% cancelled: mass heap removal
  }
  EXPECT_EQ(sim.pending_events(), 1000u);
  sim.run();
  ASSERT_EQ(order.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(sim.executed_events(), 1000u);
}

// --- reschedule_at ----------------------------------------------------------

TEST(Reschedule, MovesPendingEventKeepingCallbackAndHandle) {
  Simulator sim;
  std::vector<int> order;
  EventHandle h = sim.schedule(kSecond, [&] { order.push_back(1); });
  sim.schedule(2 * kSecond, [&] { order.push_back(2); });
  EXPECT_TRUE(sim.reschedule_at(h, 3 * kSecond));
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(sim.now(), 3 * kSecond);
  EXPECT_FALSE(h.pending());
}

TEST(Reschedule, TakesAFreshSequenceNumberLikeCancelPlusSchedule) {
  // Rescheduling onto a time that already has events orders the moved event
  // after them, exactly as cancel() + schedule_at() of the callback would.
  Simulator sim;
  std::vector<int> order;
  EventHandle first = sim.schedule(kSecond, [&] { order.push_back(0); });
  sim.schedule(kSecond, [&] { order.push_back(1); });
  sim.schedule(kSecond, [&] { order.push_back(2); });
  EXPECT_TRUE(sim.reschedule_at(first, kSecond));
  sim.schedule(kSecond, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3}));
}

TEST(Reschedule, EarlierAndLaterMovesKeepHeapOrder) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 64; ++i) {
    handles.push_back(sim.schedule((i + 1) * kMillisecond, [&order, i] { order.push_back(i); }));
  }
  // Reverse the order: event i moves to (64 - i) ms.
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(sim.reschedule_at(handles[i], (64 - i) * kMillisecond));
  }
  sim.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], 63 - i);
}

TEST(Reschedule, CanBeCancelledAfterwards) {
  Simulator sim;
  bool ran = false;
  EventHandle h = sim.schedule(kSecond, [&] { ran = true; });
  ASSERT_TRUE(sim.reschedule_at(h, 2 * kSecond));
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Reschedule, AfterFireIsRejected) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.schedule(kSecond, [&] { ++fired; });
  sim.run();
  EXPECT_FALSE(sim.reschedule_at(h, 2 * kSecond));
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Reschedule, InsideOwnCallbackIsRejected) {
  Simulator sim;
  int fired = 0;
  EventHandle h;
  h = sim.schedule(kSecond, [&] {
    ++fired;
    EXPECT_FALSE(sim.reschedule_at(h, 2 * kSecond));
  });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), kSecond);
}

TEST(Reschedule, AfterCancelIsRejected) {
  Simulator sim;
  bool ran = false;
  EventHandle h = sim.schedule(kSecond, [&] { ran = true; });
  h.cancel();
  EXPECT_FALSE(sim.reschedule_at(h, 2 * kSecond));
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Reschedule, StaleHandleCannotMoveRecycledSlot) {
  Simulator sim;
  int fired = 0;
  EventHandle a = sim.schedule(kSecond, [&] { fired = 1; });
  a.cancel();
  // b reuses a's slab slot; a's stale generation must not reach it.
  EventHandle b = sim.schedule(kSecond, [&] { fired = 2; });
  EXPECT_FALSE(sim.reschedule_at(a, 5 * kSecond));
  EXPECT_TRUE(b.pending());
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), kSecond);  // b was not moved
}

TEST(Reschedule, DefaultHandleIsRejected) {
  Simulator sim;
  EXPECT_FALSE(sim.reschedule_at(EventHandle{}, kSecond));
}

TEST(Reschedule, HandleFromAnotherSimulatorIsRejected) {
  Simulator mine;
  Simulator other;
  bool mine_ran = false;
  bool other_ran = false;
  // Same slot and generation in both slabs: only ownership tells them apart.
  mine.schedule(kSecond, [&] { mine_ran = true; });
  EventHandle foreign = other.schedule(kSecond, [&] { other_ran = true; });
  EXPECT_FALSE(mine.reschedule_at(foreign, 5 * kSecond));
  EXPECT_TRUE(foreign.pending());
  mine.run();
  other.run();
  EXPECT_TRUE(mine_ran);
  EXPECT_TRUE(other_ran);
  EXPECT_EQ(mine.now(), kSecond);
  EXPECT_EQ(other.now(), kSecond);
}

TEST(Reschedule, HandleFromDestroyedSimulatorIsRejected) {
  EventHandle h;
  {
    Simulator gone;
    h = gone.schedule(kSecond, [] {});
  }
  Simulator sim;
  bool ran = false;
  sim.schedule(kSecond, [&] { ran = true; });
  EXPECT_FALSE(sim.reschedule_at(h, 5 * kSecond));
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), kSecond);
}

TEST(Reschedule, PastTimeThrowsAndLeavesEventInPlace) {
  Simulator sim;
  sim.schedule(2 * kSecond, [] {});
  sim.run();
  SimTime fired_at = -1;
  EventHandle h = sim.schedule(kSecond, [&] { fired_at = sim.now(); });
  EXPECT_THROW(sim.reschedule_at(h, kSecond), std::invalid_argument);
  EXPECT_TRUE(h.pending());
  sim.run();
  EXPECT_EQ(fired_at, 3 * kSecond);
}

// --- same-instant lane -------------------------------------------------------

TEST(SameInstantLane, HeapEventKeyedEarlierRunsBeforeLaneEventAtSameTime) {
  // `late` was keyed for 1 s before the clock got there; `now_event` is
  // scheduled at 1 s once the clock is there, so it sorts after `late`.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(kSecond, [&] {
    order.push_back(0);
    sim.schedule(0, [&] { order.push_back(2); });
  });
  sim.schedule(kSecond, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SameInstantLane, RescheduleToNowQueuesBehindEventsAlreadyAtNow) {
  Simulator sim;
  std::vector<int> order;
  EventHandle later = sim.schedule(2 * kSecond, [&] { order.push_back(4); });
  EventHandle lane;
  sim.schedule(kSecond, [&] {
    order.push_back(0);
    lane = sim.schedule(0, [&] { order.push_back(2); });
    sim.schedule(0, [&] { order.push_back(3); });
    EXPECT_TRUE(sim.reschedule_at(later, sim.now()));  // heap -> lane
    EXPECT_TRUE(sim.reschedule_at(lane, sim.now()));   // within the lane
  });
  sim.schedule(kSecond, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 2}));
  EXPECT_EQ(sim.now(), kSecond);
}

TEST(SameInstantLane, CancelAndLaterRescheduleOfLaneEntry) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> lane;
  sim.schedule(kSecond, [&] {
    for (int i = 0; i < 4; ++i) {
      lane.push_back(sim.schedule(0, [&order, i] { order.push_back(i); }));
    }
    lane[1].cancel();
    lane[1].cancel();  // double cancel stays a no-op
    EXPECT_FALSE(lane[1].pending());
    EXPECT_TRUE(sim.reschedule_at(lane[0], sim.now() + kMillisecond));  // lane -> heap
    EXPECT_TRUE(lane[0].pending());
    lane[3].cancel();  // the lane's tail
    EXPECT_EQ(sim.pending_events(), 2u);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 0}));
  EXPECT_EQ(sim.now(), kSecond + kMillisecond);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SameInstantLane, PendingEventsCountsLaneEntries) {
  Simulator sim;
  sim.schedule(0, [] {});  // at the current instant: a lane entry
  sim.schedule(kSecond, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  std::size_t seen = 0;
  sim.schedule(0, [&] {
    sim.schedule(0, [] {});
    sim.schedule(0, [] {});
    seen = sim.pending_events();
  });
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run();
  EXPECT_EQ(seen, 3u);  // the other two at 0 ran first: 2 new + the 1 s event
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(SameInstantLane, RunUntilWithOnlyLaneEntries) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(0, [&] {
    order.push_back(0);
    sim.schedule(0, [&] { order.push_back(2); });
  });
  sim.schedule(0, [&] { order.push_back(1); });
  EXPECT_EQ(sim.run_until(0), 0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.pending_events(), 0u);

  // Drained before the deadline: the clock stays at the last event.
  sim.schedule(0, [&] { order.push_back(3); });
  EXPECT_EQ(sim.run_until(5 * kMillisecond), 0);
  EXPECT_EQ(order.back(), 3);

  // A deadline behind the clock runs nothing, not even events due now.
  sim.schedule(kSecond, [] {});
  sim.run();
  sim.schedule(0, [&] { order.push_back(4); });
  EXPECT_EQ(sim.run_until(kMillisecond), kSecond);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.run_until(kSecond), kSecond);
  EXPECT_EQ(order.back(), 4);
}

// --- lazy heap keys -----------------------------------------------------------

TEST(LazyKeys, ManyLaterMovesThenAnEarlierOne) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> h;
  for (int i = 0; i < 8; ++i) {
    h.push_back(sim.schedule((i + 1) * kMillisecond, [&order, i] { order.push_back(i); }));
  }
  // Event 0 walks later past everyone; its heap entry keeps the old key.
  for (int k = 2; k <= 100; ++k) {
    EXPECT_TRUE(sim.reschedule_at(h[0], k * kMillisecond));
  }
  EXPECT_EQ(sim.pending_events(), 8u);
  // Run past a few events: the stale top is re-keyed, not fired early.
  sim.run_until(3 * kMillisecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // Later again, then earlier onto event 3's time (behind it: a fresh
  // sequence number), and event 7 earlier than its own heap key.
  EXPECT_TRUE(sim.reschedule_at(h[0], 200 * kMillisecond));
  EXPECT_TRUE(sim.reschedule_at(h[0], 4 * kMillisecond));
  EXPECT_TRUE(sim.reschedule_at(h[7], 3500 * kMicrosecond));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 7, 3, 0, 4, 5, 6}));
  EXPECT_EQ(sim.now(), 7 * kMillisecond);
}

TEST(LazyKeys, CancelAfterLaterMoveRemovesTheStaleEntry) {
  Simulator sim;
  bool ran = false;
  EventHandle h = sim.schedule(kMillisecond, [&] { ran = true; });
  sim.schedule(5 * kMillisecond, [] {});
  EXPECT_TRUE(sim.reschedule_at(h, 10 * kMillisecond));
  h.cancel();
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.now(), 5 * kMillisecond);
}

// --- differential test against a naive reference ----------------------------

// xorshift64* — self-contained so the op sequence never shifts under
// standard-library changes.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1Dull;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// Linear-scan event list ordered by (time, seq): the specification the
// indexed heap must reproduce exactly.
struct NaiveQueue {
  struct Event {
    SimTime time;
    std::uint64_t seq;
    bool pending;
  };
  std::vector<Event> events;  // indexed by event id
  std::uint64_t next_seq = 0;

  void schedule(SimTime when) { events.push_back(Event{when, next_seq++, true}); }
  bool cancel(std::size_t id) {
    if (!events[id].pending) return false;
    events[id].pending = false;
    return true;
  }
  bool reschedule(std::size_t id, SimTime when) {
    if (!events[id].pending) return false;
    events[id].time = when;
    events[id].seq = next_seq++;
    return true;
  }
  /// Id of the earliest pending event, or -1.
  long earliest() const {
    long best = -1;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Event& e = events[i];
      if (!e.pending) continue;
      if (best < 0 || e.time < events[best].time ||
          (e.time == events[best].time && e.seq < events[best].seq)) {
        best = static_cast<long>(i);
      }
    }
    return best;
  }
  std::size_t pending() const {
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(), [](const Event& e) { return e.pending; }));
  }
};

// Drives schedule/cancel/reschedule_at — from the top level and from inside
// callbacks — against both kernels. Times come from a handful of millisecond
// offsets, so most events tie on time and order by sequence alone.
void run_differential(std::uint64_t seed) {
  Simulator sim;
  NaiveQueue ref;
  Rng rng{seed};
  std::vector<EventHandle> handles;  // indexed by event id, like ref.events
  std::vector<std::size_t> fired;
  std::size_t cancels = 0, moves = 0, rejected = 0;
  constexpr std::size_t kMaxEvents = 4000;

  std::function<void(std::size_t)> on_fire;
  auto random_time = [&] { return sim.now() + static_cast<SimTime>(rng.below(4)) * kMillisecond; };
  auto random_ops = [&](std::uint64_t n) {
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::uint64_t r = rng.below(10);
      if (r < 4 || handles.empty()) {
        if (handles.size() >= kMaxEvents) continue;
        const std::size_t id = handles.size();
        const SimTime when = random_time();
        handles.push_back(sim.schedule_at(when, [&on_fire, id] { on_fire(id); }));
        ref.schedule(when);
      } else if (r < 7) {
        const std::size_t id = rng.below(handles.size());
        ASSERT_EQ(handles[id].pending(), ref.events[id].pending) << "event " << id;
        handles[id].cancel();
        cancels += ref.cancel(id);
      } else {
        const std::size_t id = rng.below(handles.size());
        const SimTime when = random_time();
        const bool moved = sim.reschedule_at(handles[id], when);
        ASSERT_EQ(moved, ref.reschedule(id, when)) << "event " << id;
        moves += moved;
        rejected += !moved;
      }
    }
    ASSERT_EQ(sim.pending_events(), ref.pending());
  };
  on_fire = [&](std::size_t id) {
    const long expected = ref.earliest();
    ASSERT_EQ(static_cast<long>(id), expected) << "fire #" << fired.size();
    EXPECT_EQ(sim.now(), ref.events[id].time);
    ref.events[id].pending = false;
    fired.push_back(id);
    random_ops(1 + rng.below(5));
  };

  random_ops(300);
  // Mix the three ways of advancing the clock.
  while (sim.pending_events() > 0) {
    const std::uint64_t how = rng.below(3);
    if (how == 0) {
      ASSERT_TRUE(sim.step());
    } else if (how == 1) {
      sim.run_until(sim.now() + static_cast<SimTime>(rng.below(3)) * kMillisecond);
    } else {
      random_ops(rng.below(3));
      ASSERT_TRUE(sim.step());
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(ref.earliest(), -1);
  EXPECT_EQ(sim.executed_events(), fired.size());
  // The run must have exercised every path, or the comparison is vacuous.
  EXPECT_GT(fired.size(), 1000u);
  EXPECT_GT(cancels, 200u);
  EXPECT_GT(moves, 200u);
  EXPECT_GT(rejected, 50u);
}

TEST(SimulatorDifferential, MatchesNaiveReferenceUnderRandomOps) {
  for (std::uint64_t seed : {0x5eedull, 0xdecafull, 0x2026'10'17ull}) {
    SCOPED_TRACE(seed);
    run_differential(seed);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace cloudburst::des
