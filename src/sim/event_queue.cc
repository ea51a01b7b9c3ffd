#include "sim/event_queue.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace flower {

void EventHandle::Cancel() {
  if (queue_ == nullptr) return;
  // Seq check: stale after the event fired, was cancelled, or the slot
  // was reused — Cancel is a no-op in all three cases.
  if (queue_->SlotAt(slot_).seq != seq_) return;
  // Destroy the callback now: closures can own handles back into the
  // queue (periodic timers), and their captures must not linger until
  // the heap skims the stale item.
  queue_->FreeSlot(slot_);
  ++queue_->cancelled_;
}

bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->SlotAt(slot_).seq == seq_;
}

uint32_t EventQueue::AllocSlot() {
  if (free_head_ != kNoSlot) {
    const uint32_t index = free_head_;
    free_head_ = SlotAt(index).next_free;
    return index;
  }
  if ((next_unused_slot_ >> kSlabBits) >= slabs_.size()) {
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSlots));
  }
  return next_unused_slot_++;
}

void EventQueue::FreeSlot(uint32_t index) {
  Slot& slot = SlotAt(index);
  slot.fn.reset();
  slot.seq = kFreeSeq;
  slot.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::SiftUp(size_t index) const {
  const Item item = heap_[index];
  while (index > 0) {
    const size_t parent = (index - 1) / 4;
    if (!Earlier(item, heap_[parent])) break;
    heap_[index] = heap_[parent];
    index = parent;
  }
  heap_[index] = item;
}

void EventQueue::SiftDown(size_t index) const {
  const size_t size = heap_.size();
  const Item item = heap_[index];
  for (;;) {
    const size_t first_child = index * 4 + 1;
    if (first_child >= size) break;
    const size_t last_child =
        first_child + 4 <= size ? first_child + 4 : size;
    size_t best = first_child;
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (Earlier(heap_[c], heap_[best])) best = c;
    }
    if (!Earlier(heap_[best], item)) break;
    heap_[index] = heap_[best];
    index = best;
  }
  heap_[index] = item;
}

void EventQueue::PopRoot() const {
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

EventHandle EventQueue::Push(SimTime t, EventFn fn) {
  assert(t >= 0);
  if (__builtin_expect(next_seq_ == kFreeSeq, 0)) {
    // Reusing a seq would let a stale handle cancel a live event.
    std::fprintf(stderr,
                 "EventQueue: %u event sequence numbers used up; a queue "
                 "holds at most that many pushes\n",
                 kFreeSeq);
    std::abort();
  }
  const uint32_t index = AllocSlot();
  const uint32_t seq = next_seq_++;
  Slot& slot = SlotAt(index);
  slot.fn = std::move(fn);
  slot.seq = seq;
  heap_.push_back(Item::Make(t, seq, index));
  SiftUp(heap_.size() - 1);
  return EventHandle(this, index, seq);
}

bool EventQueue::empty() const {
  SkimCancelled();
  return heap_.empty();
}

SimTime EventQueue::NextTime() const {
  SkimCancelled();
  assert(!heap_.empty());
  return heap_[0].Time();
}

}  // namespace flower
