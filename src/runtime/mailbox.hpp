// Thread-safe mailbox used by the threaded and socket runtimes.
//
// Each node owns one mailbox; any thread may push (deliver a packet), only
// the owning worker drains. Draining swaps the queue out under the lock so
// message processing happens outside the critical section.
//
// Capacity and backpressure: a mailbox constructed with capacity 0 is
// unbounded, which is how the threaded runtime's workers use it (a push that
// waited there could deadlock against the step barrier). A bounded mailbox
// admits at most `capacity` envelopes, and push() blocks at the limit until a
// drain frees space (or shutdown()) — the producer/consumer shape of the
// socket receive thread, where blocking the reader is the backpressure
// signal that lets the kernel socket buffer fill and overflow into
// *measured* UDP loss. Stats counts blocked_pushes, the push() calls that
// found the box full and waited (once per call, however long the wait), and
// high_watermark, the largest queue size ever admitted.
//
// Lock discipline is compiler-checked (DESIGN.md §11): mutex_ guards queue_,
// stats_, and shutdown_; the clang thread-safety preset turns any unlocked
// access into a build error.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <vector>

#include "core/reducer.hpp"
#include "support/annotations.hpp"

namespace pcf::runtime {

struct Envelope {
  net::NodeId from;
  core::Packet packet;
};

class Mailbox {
 public:
  /// Monotone producer-side telemetry (see class comment).
  struct Stats {
    std::uint64_t blocked_pushes = 0;  ///< push() calls that found the box full and waited
    std::uint64_t high_watermark = 0;  ///< max queue length ever admitted
  };

  /// capacity 0 = unbounded (never blocks).
  explicit Mailbox(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Blocking push: waits while the box is full. Returns false (and drops the
  /// envelope) only after shutdown() — the shutdown-aware wakeup that lets a
  /// producer thread exit instead of blocking forever on a full box nobody
  /// will drain again. A push that found the box full (and was not already
  /// shut down) counts once into blocked_pushes.
  bool push(Envelope envelope) {
    MutexLock lock(mutex_);
    if (full_locked() && !shutdown_) ++stats_.blocked_pushes;
    while (full_locked() && !shutdown_) space_.wait(lock.native());
    if (shutdown_) return false;
    admit_locked(std::move(envelope));
    return true;
  }

  /// Removes and returns all queued envelopes (FIFO order preserved), waking
  /// any producers blocked on a full box.
  [[nodiscard]] std::vector<Envelope> drain() {
    std::vector<Envelope> out;
    {
      MutexLock lock(mutex_);
      out.swap(queue_);
    }
    space_.notify_all();
    return out;
  }

  /// Wakes every blocked producer; subsequent pushes are rejected. Drain
  /// still returns whatever was admitted before the shutdown.
  void shutdown() {
    {
      MutexLock lock(mutex_);
      shutdown_ = true;
    }
    space_.notify_all();
  }

  [[nodiscard]] bool empty() const {
    MutexLock lock(mutex_);
    return queue_.empty();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] Stats stats() const {
    MutexLock lock(mutex_);
    return stats_;
  }

 private:
  [[nodiscard]] bool full_locked() const noexcept PCF_REQUIRES(mutex_) {
    return capacity_ != 0 && queue_.size() >= capacity_;
  }

  void admit_locked(Envelope&& envelope) PCF_REQUIRES(mutex_) {
    queue_.push_back(std::move(envelope));
    if (queue_.size() > stats_.high_watermark) stats_.high_watermark = queue_.size();
  }

  const std::size_t capacity_;
  std::condition_variable space_;
  mutable Mutex mutex_;
  std::vector<Envelope> queue_ PCF_GUARDED_BY(mutex_);
  Stats stats_ PCF_GUARDED_BY(mutex_);
  bool shutdown_ PCF_GUARDED_BY(mutex_) = false;
};

}  // namespace pcf::runtime
