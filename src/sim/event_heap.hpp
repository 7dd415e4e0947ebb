// Inspectable binary min-heap for the async engine's event queue.
//
// std::priority_queue hides its container, but the engine needs two things it
// cannot provide: (1) iteration over the pending entries, so a crash retarget
// can account for mass carried by queued deliveries (see
// AsyncEngine::handle(kDetect)) and a checkpoint can write them in heap
// order, and (2) an allocation counter for the hot event queue, which feeds
// the PerfCounters layer. Same heap algorithms (std::push_heap /
// std::pop_heap), same Compare semantics as std::priority_queue. The async
// engine keeps small keys here and the events themselves in a slab, so every
// sift moves a key, not an event.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace pcf::sim {

template <typename T, typename Compare>
class EventHeap {
 public:
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] const T& top() const noexcept { return heap_.front(); }

  void push(T value) {
    if (heap_.size() == heap_.capacity()) ++reallocations_;
    heap_.push_back(std::move(value));
    std::push_heap(heap_.begin(), heap_.end(), cmp_);
  }

  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), cmp_);
    heap_.pop_back();
  }

  /// All pending entries in unspecified (heap) order — inspection only.
  [[nodiscard]] std::span<const T> items() const noexcept { return heap_; }

  /// Checkpoint restore: replaces the pending entries wholesale.
  /// `already_heap` means `items` came verbatim from items() of a saved heap
  /// and is installed without re-heapifying — pop order (including the
  /// tie-break-free raw layout) is then identical to the saved engine's, which
  /// the bitwise-continuation guarantee requires. Otherwise (lightweight
  /// restore filtered the list) the heap property is re-established.
  void restore_items(std::vector<T> items, bool already_heap) {
    heap_ = std::move(items);
    if (!already_heap) std::make_heap(heap_.begin(), heap_.end(), cmp_);
  }

  /// Times the backing vector grew (each growth is a reallocation + move of
  /// every pending entry — part of the hot-path allocation cost PerfCounters
  /// tracks).
  [[nodiscard]] std::uint64_t reallocations() const noexcept { return reallocations_; }

 private:
  std::vector<T> heap_;
  Compare cmp_{};
  std::uint64_t reallocations_ = 0;
};

}  // namespace pcf::sim
