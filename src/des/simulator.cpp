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
  EventRecord& rec = slab_[slot];
  rec.fn = std::move(fn);
  heap_.push_back(HeapEntry{when, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  return EventHandle(self_, slot, rec.generation);
}

bool Simulator::reschedule_at(const EventHandle& handle, SimTime when) {
  if (when < now_) {
    throw std::invalid_argument("Simulator::reschedule_at: time in the past");
  }
  if (handle.owner_ != self_ || !is_pending(handle.slot_, handle.generation_)) {
    return false;
  }
  const std::size_t pos = slab_[handle.slot_].heap_pos;
  heap_[pos].time = when;
  heap_[pos].seq = next_seq_++;
  resift(pos);
  return true;
}

bool Simulator::cancel(std::uint32_t slot, std::uint32_t generation) {
  if (!is_pending(slot, generation)) return false;
  heap_remove(slab_[slot].heap_pos);
  release(slot);
  return true;
}

bool Simulator::is_pending(std::uint32_t slot, std::uint32_t generation) const {
  return slot < slab_.size() && slab_[slot].generation == generation &&
         slab_[slot].heap_pos != kNotQueued;
}

void Simulator::sift_up(std::size_t pos) {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!earlier(e, heap_[parent])) break;
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
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void Simulator::resift(std::size_t pos) {
  if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) / 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void Simulator::heap_remove(std::size_t pos) {
  slab_[heap_[pos].slot].heap_pos = kNotQueued;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the last entry
  place(pos, last);
  resift(pos);
}

void Simulator::release(std::uint32_t slot) {
  EventRecord& rec = slab_[slot];
  rec.fn.reset();  // release captures now
  ++rec.generation;
  free_slots_.push_back(slot);
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  heap_remove(0);
  // Release the slot before running: handles report !pending() during the
  // callback, and the callback may itself schedule into this slot.
  EventFn fn = std::move(slab_[top.slot].fn);
  release(top.slot);
  now_ = top.time;
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
  while (!heap_.empty() && heap_.front().time <= deadline) step();
  if (now_ < deadline && heap_.empty()) {
    // Queue drained before the deadline: clock stays at the last event.
    return now_;
  }
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace cloudburst::des
