// Calendar event queue for the async engine (R. Brown, "Calendar queues: a
// fast O(1) priority queue implementation for the simulation event set
// problem", CACM 31(10), 1988).
//
// Pops keys in exactly the order a binary heap over (time, seq) would: by
// time, ties by seq. Event times map to buckets of width 2^-k, so the bucket
// of t is floor(t * 2^k): a power-of-two scale makes the product exact, and
// both the product and the floor are monotone, so a key in a lower bucket
// never fires after a key in a higher one. Within a bucket the order comes
// from a binary heap, so the queue's order is exactly (time, seq) whatever
// the geometry; the geometry only decides the speed.
//
// Three places hold keys:
//  * the drain heap: every key whose bucket is at or before the current
//    bucket `cur_` — the bucket being drained, plus any key pushed for an
//    earlier time. Many events at one instant (a hub crash queues two
//    detector notices per edge) cost a heap push each, never a list walk;
//  * the ring: keys whose bucket lies in the window after `cur_`, one
//    intrusive singly linked list per bucket over a pooled node array;
//  * the overflow heap: keys past the window, including times too large for
//    a bucket index (they share the last bucket). Advancing the window
//    migrates the keys it reaches into the ring.
// A pop drains the heap; when it is empty, the window advances to the next
// non-empty bucket (or, with an empty ring, jumps to the overflow heap's
// earliest bucket) and that bucket's list is heapified.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pcf::sim {

/// A pending event's place in the queue: (time, seq) is its position in the
/// firing order (seq is unique), `slot` names its payload in the caller's
/// slab.
struct EventKey {
  double time;
  std::uint64_t seq;
  std::uint32_t slot;
};

/// The firing order: by time, ties by seq.
[[nodiscard]] inline bool fires_before(const EventKey& x, const EventKey& y) noexcept {
  return x.time != y.time ? x.time < y.time : x.seq < y.seq;
}

class CalendarQueue {
 public:
  /// Buckets are 2^-k wide, the largest power of two at most `width`; the
  /// ring covers at least `horizon` time units, in at most `max_buckets`
  /// buckets (at least 16, rounded up to a power of two). `width` must be
  /// positive and finite, `horizon` non-negative and finite.
  CalendarQueue(double width, double horizon, std::size_t max_buckets);

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Queues `key`. Its time must not be NaN.
  void push(const EventKey& key) {
    const std::int64_t b = bucket(key.time);
    if (size_++ == 0) cur_ = b;  // an empty queue re-anchors its window
    place(key, b);
  }

  /// The earliest key. Precondition: !empty(). May advance the window.
  [[nodiscard]] const EventKey& top() {
    if (drain_.empty()) advance();
    return drain_.front();
  }

  /// Removes the earliest key. Precondition: !empty().
  void pop();

  /// Visits every pending key, in no particular order.
  template <class F>
  void for_each(F&& visit) const {
    for (const EventKey& key : drain_) visit(key);
    for (std::uint32_t head : heads_) {
      for (std::uint32_t at = head; at != kNil; at = nodes_[at].next) {
        const Node& node = nodes_[at];
        visit(EventKey{node.time, node.seq, node.slot});
      }
    }
    for (const EventKey& key : overflow_) visit(key);
  }

  /// Every pending key, in firing order.
  [[nodiscard]] std::vector<EventKey> sorted() const;

  /// Drops every key; the next push re-anchors the window.
  void clear();

  /// Reserves ring nodes for `keys` pending keys.
  void reserve(std::size_t keys) { nodes_.reserve(keys); }

  /// Times a backing array (ring nodes, drain heap, overflow heap) grew.
  [[nodiscard]] std::uint64_t reallocations() const noexcept { return growths_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffU;
  /// Bucket indexes saturate here, so differences of two never overflow.
  static constexpr double kBucketLimit = 1152921504606846976.0;  // 2^60

  /// A ring entry: an EventKey plus its list link, in 24 bytes.
  struct Node {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t next;
  };

  /// floor(t * 2^k), saturated to ±2^60 (so +infinity and 1e300 share the
  /// last bucket). Monotone in t.
  [[nodiscard]] std::int64_t bucket(double t) const noexcept {
    double x = t * scale_;
    if (!(x < kBucketLimit)) {
      x = kBucketLimit;
    } else if (x < -kBucketLimit) {
      x = -kBucketLimit;
    }
    const auto b = static_cast<std::int64_t>(x);  // truncates toward zero
    return static_cast<double>(b) > x ? b - 1 : b;
  }
  [[nodiscard]] std::size_t ring_index(std::int64_t b) const noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(b)) & mask_;
  }

  /// Files `key` (of bucket `b`) in the drain heap, the ring or the overflow
  /// heap, by where `b` lies relative to the window.
  void place(const EventKey& key, std::int64_t b) {
    if (b <= cur_) {
      push_drain(key);
    } else if (b - cur_ <= static_cast<std::int64_t>(mask_)) {
      link(key, ring_index(b));
    } else {
      push_overflow(key, b);
    }
  }
  void push_drain(const EventKey& key);
  void link(const EventKey& key, std::size_t at);
  void push_overflow(const EventKey& key, std::int64_t b);
  /// Moves the window to the next non-empty bucket and heapifies it.
  /// Precondition: the drain heap is empty and the queue is not.
  void advance();

  double scale_;           // 2^k: the bucket of t is floor(t * scale_)
  std::size_t mask_;       // ring size - 1
  std::int64_t cur_ = 0;   // the bucket being drained
  std::vector<EventKey> drain_;     // min-heap: keys of buckets <= cur_
  std::vector<std::uint32_t> heads_;  // per ring bucket: first node, or kNil
  std::vector<Node> nodes_;         // the ring's node pool
  std::uint32_t free_ = kNil;       // free list through Node::next
  std::size_t ring_size_ = 0;       // keys in the ring
  std::vector<EventKey> overflow_;  // min-heap: keys past the window
  std::int64_t overflow_bucket_ = 0;  // the bucket of overflow_.front()
  std::size_t size_ = 0;
  std::uint64_t growths_ = 0;
};

}  // namespace pcf::sim
