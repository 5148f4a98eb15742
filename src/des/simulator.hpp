// Discrete-event simulation kernel.
//
// A Simulator owns a priority queue of (time, sequence, callback) events.
// Ties on time break by insertion sequence, which makes every run fully
// deterministic. Events may be cancelled via the EventHandle returned at
// scheduling time (used by the network layer when fair-share rates change
// and flow completion times must be re-estimated).
//
// Event storage & performance
// ---------------------------
// Event records live in a slab (a recycled vector of records addressed by
// slot index). The pending events form an indexed binary min-heap of small
// POD entries keyed by (time, seq) that point into the slab, and each slab
// record knows its position in that heap. Cancellation therefore removes the
// entry in O(log n): the heap never holds dead entries and never needs a
// compaction pass. reschedule_at() moves a pending event to a new time in
// place, keeping its callback and handle. Releasing a slot bumps its
// generation counter, so stale handles never match a recycled slot.
// Callbacks are stored in an EventFn — a move-only callable with 48 bytes of
// inline capture storage — so scheduling an event performs no heap
// allocation on the hot paths. See DESIGN.md "Simulator internals &
// performance".
//
// Lifetime contract
// -----------------
// An EventHandle may outlive its Simulator: it holds a shared tag that the
// Simulator clears on destruction, after which pending() returns false and
// cancel() is a no-op. Handles are plain values — copy them freely; cancel
// after fire, double cancel, and cancel after the queue drained are all
// no-ops. What a handle never does is keep the Simulator (or the event's
// callback) alive.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "des/event_fn.hpp"
#include "des/sim_time.hpp"

namespace cloudburst::des {

class Simulator;

/// Cancellation token for a scheduled event. Copyable; cancelling twice is a
/// no-op, as is cancelling an event that already fired or whose Simulator is
/// gone (see the lifetime contract above).
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing. Safe after the event has run, and safe
  /// after the owning Simulator was destroyed.
  void cancel();

  /// True if the event has neither fired nor been cancelled. False once the
  /// owning Simulator has been destroyed.
  bool pending() const;

 private:
  friend class Simulator;
  EventHandle(std::shared_ptr<Simulator*> owner, std::uint32_t slot,
              std::uint32_t generation)
      : owner_(std::move(owner)), slot_(slot), generation_(generation) {}

  std::shared_ptr<Simulator*> owner_;  ///< pointee nulled by ~Simulator
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Simulator {
 public:
  Simulator() : self_(std::make_shared<Simulator*>(this)) {}
  ~Simulator() { *self_ = nullptr; }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` to run at now() + delay (delay >= 0).
  EventHandle schedule(SimDuration delay, EventFn fn);

  /// Schedule at an absolute time >= now().
  EventHandle schedule_at(SimTime when, EventFn fn);

  /// Move the pending event behind `handle` to the absolute time `when`,
  /// keeping its callback and handle. The event takes a fresh sequence
  /// number, so it orders exactly as cancel() followed by schedule_at() of
  /// the same callback would. Returns false (and changes nothing) if the
  /// event is not pending in this Simulator: it fired, was cancelled, or the
  /// handle is default, stale or from another Simulator. Throws
  /// std::invalid_argument if `when` < now(), like schedule_at().
  bool reschedule_at(const EventHandle& handle, SimTime when);

  /// Run until the event queue drains. Returns the final simulated time.
  SimTime run();

  /// Run events with time <= deadline; the clock ends at
  /// min(deadline, last-event time). Returns the final simulated time.
  SimTime run_until(SimTime deadline);

  /// Execute at most one event. False if the queue was empty.
  bool step();

  /// Number of scheduled events that have neither fired nor been cancelled.
  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  friend class EventHandle;

  /// Heap position of a slab record that is not pending (free slot, or an
  /// event that is firing).
  static constexpr std::uint32_t kNotQueued = 0xFFFFFFFFu;

  /// One slab cell. `generation` advances every time the slot is released
  /// (fire or cancel), invalidating stale handles.
  struct EventRecord {
    std::uint32_t generation = 0;
    std::uint32_t heap_pos = kNotQueued;  ///< index into heap_ while pending
    EventFn fn;
  };

  /// Heap entry: the (time, seq) ordering key plus the slab slot it refers
  /// to. (time, seq) is a strict total order, so pop order does not depend
  /// on the heap's shape.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  bool cancel(std::uint32_t slot, std::uint32_t generation);
  bool is_pending(std::uint32_t slot, std::uint32_t generation) const;

  /// Store `e` at heap position `pos` and record the position in the slab.
  void place(std::size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    slab_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }
  /// Restore the heap property for the entry at `pos` after its key changed.
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void resift(std::size_t pos);
  /// Take the entry at `pos` out of the heap (the slot stays allocated).
  void heap_remove(std::size_t pos);
  /// Return a slot whose event fired or was cancelled to the free list.
  void release(std::uint32_t slot);

  SimTime now_ = kSimStart;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;

  std::vector<EventRecord> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;  ///< binary min-heap ordered by earlier()

  std::shared_ptr<Simulator*> self_;  ///< handles' liveness tag
};

}  // namespace cloudburst::des
