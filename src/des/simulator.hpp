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
// slot index), and each record holds its event's true (time, seq) key.
// Pending events sit in one of two places:
//
//  * The same-instant lane: an intrusive FIFO of slab slots holding the
//    events due at now(). An event scheduled or moved to now() takes a fresh
//    sequence number, which sorts last within its instant, so appending to
//    the lane keeps (time, seq) order and costs O(1).
//  * An indexed binary min-heap of (time, seq, slot) entries for later
//    events. Each record knows its heap position, so cancel() removes an
//    entry in O(log n) and the heap never holds dead entries. Keys are
//    lazy: an entry's key may be earlier than its record's, never later.
//    Moving an event later rewrites only the record; moving it earlier
//    re-keys the entry and sifts it up. step() and run_until() re-key stale
//    entries when they reach the top, until the top is exact.
//
// step() runs a heap event due at now() before the lane (it was keyed before
// the clock reached now(), so its sequence number is smaller), then the lane
// front, and only then advances the clock to the heap top. Every event thus
// runs in exact (time, seq) order. reschedule_at() moves a pending event in
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
  std::size_t pending_events() const { return heap_.size() + lane_size_; }
  std::uint64_t executed_events() const { return executed_; }

 private:
  friend class EventHandle;

  /// `heap_pos` of a slab record that is not pending (free slot, or an event
  /// that is firing), and of one waiting in the same-instant lane.
  static constexpr std::uint32_t kNotQueued = 0xFFFFFFFFu;
  static constexpr std::uint32_t kInLane = 0xFFFFFFFEu;
  /// End-of-lane marker for the lane's slot links.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Ordering key. (time, seq) is a strict total order, and a sequence
  /// number identifies the key it was issued with.
  struct Key {
    SimTime time;
    std::uint64_t seq;
  };
  static bool earlier(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// One slab cell. `generation` advances every time the slot is released
  /// (fire or cancel), invalidating stale handles.
  struct EventRecord {
    std::uint32_t generation = 0;
    std::uint32_t heap_pos = kNotQueued;  ///< index into heap_, or kInLane
    std::uint32_t lane_prev = kNoSlot;    ///< lane neighbours while kInLane
    std::uint32_t lane_next = kNoSlot;
    Key key{};  ///< the event's true key; its heap entry may hold an earlier one
    EventFn fn;
  };

  /// Heap entry: a lower bound on the event's key plus its slab slot.
  struct HeapEntry {
    Key key;
    std::uint32_t slot;
  };

  bool cancel(std::uint32_t slot, std::uint32_t generation);
  bool is_pending(std::uint32_t slot, std::uint32_t generation) const;

  /// Give `slot` the key (when, next seq) and queue it: in the lane if
  /// `when` is now(), else in the heap.
  void enqueue(std::uint32_t slot, SimTime when);
  /// Take a pending slot out of the lane or the heap (it stays allocated).
  void dequeue(std::uint32_t slot);
  void lane_push_back(std::uint32_t slot);
  void lane_unlink(std::uint32_t slot);

  /// Store `e` at heap position `pos` and record the position in the slab.
  void place(std::size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    slab_[e.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }
  /// Restore the heap property for the entry at `pos` after its key changed.
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Take the entry at `pos` out of the heap.
  void heap_remove(std::size_t pos);
  /// Re-key stale entries at the heap top until the top's key is exact, so
  /// the top is the earliest event in the heap.
  void settle_top();
  /// Time of the next event to run; false if none is pending.
  bool next_time(SimTime* t);
  /// Return a slot whose event fired or was cancelled to the free list.
  void release(std::uint32_t slot);

  SimTime now_ = kSimStart;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;

  std::vector<EventRecord> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;  ///< binary min-heap ordered by entry keys
  std::uint32_t lane_head_ = kNoSlot;  ///< same-instant FIFO, all at now_
  std::uint32_t lane_tail_ = kNoSlot;
  std::size_t lane_size_ = 0;

  std::shared_ptr<Simulator*> self_;  ///< handles' liveness tag
};

}  // namespace cloudburst::des
