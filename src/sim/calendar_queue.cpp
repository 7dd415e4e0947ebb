#include "sim/calendar_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "support/check.hpp"

namespace pcf::sim {

namespace {

/// Heap order for std::push_heap and friends: the root fires first.
bool fires_after(const EventKey& x, const EventKey& y) noexcept { return fires_before(y, x); }

/// Appends `key`, counting the growth of `keys`'s storage.
void append(std::vector<EventKey>& keys, const EventKey& key, std::uint64_t& growths) {
  if (keys.size() == keys.capacity()) ++growths;
  keys.push_back(key);
}

}  // namespace

CalendarQueue::CalendarQueue(double width, double horizon, std::size_t max_buckets) {
  PCF_CHECK_MSG(width > 0.0, "calendar queue: bucket width must be positive");
  PCF_CHECK_MSG(horizon >= 0.0, "calendar queue: horizon must be non-negative");
  // The largest power of two at most `width`, kept well inside the normal
  // range so the scale and its products stay exact.
  const int exponent = std::clamp(std::ilogb(width), -1000, 1000);
  scale_ = std::ldexp(1.0, -exponent);
  const auto cap = static_cast<double>(std::min<std::size_t>(max_buckets, std::size_t{1} << 30));
  const double wanted = std::clamp(std::ceil(horizon * scale_), 16.0, std::max(cap, 16.0));
  const std::size_t buckets = std::bit_ceil(static_cast<std::size_t>(wanted));
  mask_ = buckets - 1;
  heads_.assign(buckets, kNil);
}

void CalendarQueue::pop() {
  if (drain_.empty()) advance();
  std::pop_heap(drain_.begin(), drain_.end(), fires_after);
  drain_.pop_back();
  --size_;
}

void CalendarQueue::push_drain(const EventKey& key) {
  append(drain_, key, growths_);
  std::push_heap(drain_.begin(), drain_.end(), fires_after);
}

void CalendarQueue::link(const EventKey& key, std::size_t at) {
  std::uint32_t node = free_;
  if (node != kNil) {
    free_ = nodes_[node].next;
  } else {
    if (nodes_.size() == nodes_.capacity()) ++growths_;
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[node] = {key.time, key.seq, key.slot, heads_[at]};
  heads_[at] = node;
  ++ring_size_;
}

void CalendarQueue::push_overflow(const EventKey& key, std::int64_t b) {
  // The new root, if `key` becomes it, has the lower bucket: buckets are
  // monotone in time.
  overflow_bucket_ = overflow_.empty() ? b : std::min(overflow_bucket_, b);
  append(overflow_, key, growths_);
  std::push_heap(overflow_.begin(), overflow_.end(), fires_after);
}

void CalendarQueue::advance() {
  if (ring_size_ == 0) {
    // Only the overflow heap holds keys: jump to its earliest bucket.
    cur_ = overflow_bucket_;
  } else {
    // The ring holds buckets (cur_, cur_ + size), and every overflow key lies
    // past them, so the next non-empty ring bucket holds the earliest keys.
    do {
      ++cur_;
    } while (heads_[ring_index(cur_)] == kNil);
    std::uint32_t at = std::exchange(heads_[ring_index(cur_)], kNil);
    while (at != kNil) {
      Node& node = nodes_[at];
      append(drain_, {node.time, node.seq, node.slot}, growths_);
      const std::uint32_t next = node.next;
      node.next = free_;
      free_ = at;
      at = next;
      --ring_size_;
    }
    std::make_heap(drain_.begin(), drain_.end(), fires_after);
  }
  // The window moved: the overflow keys it now covers join the ring (or, on
  // a jump, the drain heap).
  while (!overflow_.empty() && overflow_bucket_ - cur_ <= static_cast<std::int64_t>(mask_)) {
    const EventKey key = overflow_.front();
    const std::int64_t b = overflow_bucket_;
    std::pop_heap(overflow_.begin(), overflow_.end(), fires_after);
    overflow_.pop_back();
    if (!overflow_.empty()) overflow_bucket_ = bucket(overflow_.front().time);
    place(key, b);
  }
}

std::vector<EventKey> CalendarQueue::sorted() const {
  std::vector<EventKey> keys;
  keys.reserve(size_);
  for_each([&](const EventKey& key) { keys.push_back(key); });
  std::sort(keys.begin(), keys.end(), fires_before);
  return keys;
}

void CalendarQueue::clear() {
  drain_.clear();
  std::fill(heads_.begin(), heads_.end(), kNil);
  nodes_.clear();
  free_ = kNil;
  ring_size_ = 0;
  overflow_.clear();
  size_ = 0;
  cur_ = 0;
}

}  // namespace pcf::sim
