// Priority queue of timed events with O(log n) push/pop and O(1)
// cancellation — the simulator's event queue. Ties on time break by
// insertion sequence, which makes the whole simulation deterministic.
//
// Layout:
//  - Events live in slab-allocated slots with a free list: a Push costs
//    no heap allocation once the pool is warm, and the callback is
//    SBO-stored in its slot (event_fn.h). Slabs never move, so a
//    callback can be invoked in place while new events are pushed.
//  - A slot is one 64-byte cache line: the callable (48 inline bytes
//    plus its ops pointer), a 32-bit seq and a 32-bit free-list link.
//  - A slot remembers the seq of its current occupant; a handle (or a
//    heap item) whose seq no longer matches is stale — fired, cancelled,
//    or the slot was reused. seq is 32-bit and unique per push for the
//    queue's lifetime, so there is no ABA window: Push aborts (in every
//    build type) rather than reuse one after 2^32 - 1 pushes.
//  - The heap is a hand-rolled 4-ary implicit heap over 16-byte items,
//    each one unsigned 128-bit integer packing (time, seq, slot) — four
//    items to a cache line, one branchless compare per ordering
//    decision.
//  - Cancellation destroys the callback and frees the slot immediately;
//    the heap skims the stale item lazily. Handles hold no owning
//    pointers, so the old shared_ptr-cycle teardown hazard cannot exist
//    by construction.
//  - Dispatch is RunNextIfBefore: one skim, pop, invoke the callback in
//    its slot (no move, no temporary), then recycle the slot.
//
// Handles must not outlive their queue: everything in this codebase that
// stores one lives inside the owning Simulator's scope.
#ifndef FLOWERCDN_SIM_EVENT_QUEUE_H_
#define FLOWERCDN_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/event_fn.h"

namespace flower {

class EventQueue;

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert. Copyable 16-byte POD — all copies go stale together
/// once the event fires or is cancelled.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent.
  void Cancel();

  /// True if the event is still scheduled (not fired, not cancelled).
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, uint32_t slot, uint32_t seq)
      : queue_(queue), slot_(slot), seq_(seq) {}

  EventQueue* queue_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t seq_ = 0;
};
static_assert(sizeof(EventHandle) == 16, "EventHandle is 16 bytes");

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules fn at absolute time t. Requires t >= 0. Aborts, with a
  /// message, once the queue's 2^32 - 1 sequence numbers are used up.
  EventHandle Push(SimTime t, EventFn fn);

  bool empty() const;

  /// Time of the earliest live event. Requires !empty().
  SimTime NextTime() const;

  /// Dispatch: if a live event with time <= bound exists, pops it, calls
  /// `before(time)` (the simulator advances its clock here), invokes the
  /// callback in place, recycles the slot and returns true. Returns false
  /// otherwise. The callback may Push new events and Cancel others;
  /// cancelling its own (already firing) event is a no-op.
  template <typename BeforeFn>
  bool RunNextIfBefore(SimTime bound, BeforeFn&& before) {
    SkimCancelled();
    if (heap_.empty() || heap_[0].Time() > bound) return false;
    const Item item = heap_[0];
    PopRoot();
    Slot& slot = SlotAt(item.Slot());
    // Stale the seq first: handles read "fired" from here on, so a
    // Cancel from inside the callback cannot double-free the slot.
    slot.seq = kFreeSeq;
    before(item.Time());
    // Invoke+destroy in place, one type-erased call; slabs are stable,
    // so pushes during the call are safe.
    slot.fn.InvokeAndReset();
    // Only now may the slot be reused.
    RecycleSlot(item.Slot());
    return true;
  }

  /// Events cancelled over the queue's lifetime.
  uint64_t events_cancelled() const { return cancelled_; }

  /// Test seam: makes `seq` the next sequence number handed out, so a
  /// test can reach exhaustion without 2^32 pushes.
  void set_next_seq_for_testing(uint32_t seq) { next_seq_ = seq; }

 private:
  friend class EventHandle;

  static constexpr uint32_t kNoSlot = 0xffffffffu;
  /// Occupancy sentinel: seq values start at 0 and only count up, and
  /// Push refuses to hand this one out, so no live event ever carries it.
  static constexpr uint32_t kFreeSeq = 0xffffffffu;
  static constexpr uint32_t kSlabBits = 8;
  static constexpr uint32_t kSlabSlots = 1u << kSlabBits;  // 256 per slab

  /// One pooled event, one cache line. `seq` identifies the current
  /// occupant (kFreeSeq when the slot is free).
  struct alignas(64) Slot {
    EventFn fn;
    uint32_t seq = kFreeSeq;
    uint32_t next_free = kNoSlot;
  };
  static_assert(sizeof(Slot) == 64,
                "a slot is one cache line: resize EventFn::kInlineBytes");

  /// POD heap entry; the callback stays in the slot. One unsigned 128-bit
  /// integer packs time in the high 64 bits (Push asserts t >= 0, so the
  /// unsigned compare is order-preserving), then seq (ties break FIFO),
  /// then slot. seq is unique, so the order is total and the slot bits
  /// never decide it; every ordering decision is one branchless compare.
  struct Item {
    unsigned __int128 key;

    static Item Make(SimTime time, uint32_t seq, uint32_t slot) {
      return Item{
          (static_cast<unsigned __int128>(static_cast<uint64_t>(time))
           << 64) |
          (static_cast<unsigned __int128>(seq) << 32) | slot};
    }
    SimTime Time() const {
      return static_cast<SimTime>(static_cast<uint64_t>(key >> 64));
    }
    uint32_t Seq() const { return static_cast<uint32_t>(key >> 32); }
    uint32_t Slot() const { return static_cast<uint32_t>(key); }
  };
  static_assert(sizeof(Item) == 16, "a heap item is 16 bytes");
  static bool Earlier(const Item& a, const Item& b) { return a.key < b.key; }

  Slot& SlotAt(uint32_t index) {
    return slabs_[index >> kSlabBits][index & (kSlabSlots - 1)];
  }
  const Slot& SlotAt(uint32_t index) const {
    return slabs_[index >> kSlabBits][index & (kSlabSlots - 1)];
  }

  /// True while the heap item still names the slot's occupant.
  bool ItemLive(const Item& item) const {
    return SlotAt(item.Slot()).seq == item.Seq();
  }

  /// Takes a free slot (growing the slab list if the free list is dry).
  uint32_t AllocSlot();
  /// Destroys the slot's callback and returns it to the free list.
  void FreeSlot(uint32_t index);
  /// Returns an already-emptied slot (fn reset, seq staled by the
  /// dispatch fast path) to the free list.
  void RecycleSlot(uint32_t index) {
    Slot& slot = SlotAt(index);
    slot.next_free = free_head_;
    free_head_ = index;
  }

  // 4-ary implicit heap over heap_: children of i at 4i+1..4i+4.
  void SiftUp(size_t index) const;
  void SiftDown(size_t index) const;
  void PopRoot() const;

  /// Drops stale (cancelled) items from the root. Logically const: live
  /// events and their order are unchanged.
  void SkimCancelled() const {
    while (!heap_.empty() && !ItemLive(heap_[0])) PopRoot();
  }

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  uint32_t next_unused_slot_ = 0;
  uint32_t free_head_ = kNoSlot;
  uint32_t next_seq_ = 0;
  uint64_t cancelled_ = 0;
  // Skimming mutates only the physical heap (dropping entries that are
  // already dead), so const observers may do it without a const_cast.
  mutable std::vector<Item> heap_;
};

}  // namespace flower

#endif  // FLOWERCDN_SIM_EVENT_QUEUE_H_
