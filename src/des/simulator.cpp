#include "des/simulator.hpp"

#include <cstdio>
#include <stdexcept>

namespace cloudburst::des {

std::string format(SimTime t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6fs", to_seconds(t));
  return buf;
}

void EventHandle::cancel() {
  if (owner_ && *owner_ != nullptr) {
    (*owner_)->cancel(slot_, generation_);
  }
}

bool EventHandle::pending() const {
  return owner_ && *owner_ != nullptr && (*owner_)->is_pending(slot_, generation_);
}

EventHandle Simulator::schedule(SimDuration delay, EventFn fn) {
  if (delay < 0) throw std::invalid_argument("Simulator::schedule: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_at(SimTime when, EventFn fn) {
  if (when < now_) throw std::invalid_argument("Simulator::schedule_at: time in the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  slab_[slot].fn = std::move(fn);
  enqueue(slot, when);
  return EventHandle(self_, slot, slab_[slot].generation);
}

bool Simulator::reschedule_at(const EventHandle& handle, SimTime when) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::reschedule_at: time in the past");
  }
  if (handle.owner_ != self_ || !is_pending(handle.slot_, handle.generation_)) {
    return false;
  }
  const std::uint32_t slot = handle.slot_;
  EventRecord& rec = slab_[slot];
  if (when == now_ || rec.heap_pos == kInLane) {
    dequeue(slot);
    enqueue(slot, when);
    return true;
  }
  // A heap event moving to a later instant. A fresh key sorts after any key
  // of equal time, so it undercuts the entry's key only at a strictly
  // earlier time; otherwise the entry stays a lower bound that settle_top()
  // re-keys once it reaches the top.
  rec.key = Key{when, next_seq_++};
  HeapEntry& entry = heap_[rec.heap_pos];
  if (when < entry.key.time) {
    entry.key = rec.key;
    sift_up(rec.heap_pos);
  }
  return true;
}

bool Simulator::cancel(std::uint32_t slot, std::uint32_t generation) {
  if (!is_pending(slot, generation)) return false;
  dequeue(slot);
  release(slot);
  return true;
}

bool Simulator::is_pending(std::uint32_t slot, std::uint32_t generation) const {
  return slot < slab_.size() && slab_[slot].generation == generation &&
         slab_[slot].heap_pos != kNotQueued;
}

void Simulator::enqueue(std::uint32_t slot, SimTime when) {
  slab_[slot].key = Key{when, next_seq_++};
  if (when == now_) {
    lane_push_back(slot);
  } else {
    heap_.push_back(HeapEntry{slab_[slot].key, slot});
    sift_up(heap_.size() - 1);
  }
}

void Simulator::dequeue(std::uint32_t slot) {
  if (slab_[slot].heap_pos == kInLane) {
    lane_unlink(slot);
  } else {
    heap_remove(slab_[slot].heap_pos);
  }
}

void Simulator::lane_push_back(std::uint32_t slot) {
  EventRecord& rec = slab_[slot];
  rec.heap_pos = kInLane;
  rec.lane_prev = lane_tail_;
  rec.lane_next = kNoSlot;
  (lane_tail_ == kNoSlot ? lane_head_ : slab_[lane_tail_].lane_next) = slot;
  lane_tail_ = slot;
  ++lane_size_;
}

void Simulator::lane_unlink(std::uint32_t slot) {
  EventRecord& rec = slab_[slot];
  (rec.lane_prev == kNoSlot ? lane_head_ : slab_[rec.lane_prev].lane_next) = rec.lane_next;
  (rec.lane_next == kNoSlot ? lane_tail_ : slab_[rec.lane_next].lane_prev) = rec.lane_prev;
  rec.heap_pos = kNotQueued;
  --lane_size_;
}

void Simulator::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!earlier(e.key, heap_[parent].key)) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Simulator::sift_down(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1].key, heap_[child].key)) ++child;
    if (!earlier(heap_[child].key, e.key)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void Simulator::heap_remove(std::size_t pos) {
  slab_[heap_[pos].slot].heap_pos = kNotQueued;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the last entry
  place(pos, last);
  if (pos > 0 && earlier(heap_[pos].key, heap_[(pos - 1) / 2].key)) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void Simulator::settle_top() {
  while (!heap_.empty()) {
    HeapEntry& top = heap_.front();
    const Key& exact = slab_[top.slot].key;
    if (top.key.seq == exact.seq) return;
    top.key = exact;
    sift_down(0);
  }
}

bool Simulator::next_time(SimTime* t) {
  if (lane_head_ != kNoSlot) {
    *t = now_;  // no heap event precedes now_
    return true;
  }
  settle_top();
  if (heap_.empty()) return false;
  *t = heap_.front().key.time;
  return true;
}

void Simulator::release(std::uint32_t slot) {
  EventRecord& rec = slab_[slot];
  rec.fn.reset();  // release captures now
  ++rec.generation;
  free_slots_.push_back(slot);
}

bool Simulator::step() {
  settle_top();
  std::uint32_t slot;
  // A heap event due now was keyed before the clock reached now_, so it
  // precedes the whole lane; with the lane empty the clock moves on.
  if (!heap_.empty() && (heap_.front().key.time == now_ || lane_head_ == kNoSlot)) {
    slot = heap_.front().slot;
    now_ = heap_.front().key.time;
    heap_remove(0);
  } else if (lane_head_ != kNoSlot) {
    slot = lane_head_;
    lane_unlink(slot);
  } else {
    return false;
  }
  // Release the slot before running: handles report !pending() during the
  // callback, and the callback may itself schedule into this slot.
  EventFn fn = std::move(slab_[slot].fn);
  release(slot);
  ++executed_;
  if (fn) fn();
  return true;
}

SimTime Simulator::run() {
  while (step()) {
  }
  return now_;
}

SimTime Simulator::run_until(SimTime deadline) {
  SimTime next = 0;
  while (next_time(&next) && next <= deadline) step();
  if (now_ < deadline && pending_events() == 0) {
    // Queue drained before the deadline: clock stays at the last event.
    return now_;
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace cloudburst::des
