// Lock-free bounded single-producer/single-consumer ring — the channel
// behind the threaded executor, and the ring-capacity policy it shares
// with the generated-C backend (partition/c_codegen.*), which emits the
// same ring in C11 and must size it identically.
//
// Every runtime channel is SPSC by construction: a channel is keyed by
// (edge, src processor, dst processor), so exactly one thread sends and
// exactly one thread receives.  That admits the classic wait-free ring
// (McKenney, "Is Parallel Programming Hard..."): a power-of-two buffer
// indexed by free-running head/tail counters, release-stores publishing
// each side's progress and acquire-loads observing the other side's.
//
// Layout notes:
//  * head (producer cursor) and tail (consumer cursor) live on separate
//    cache lines, so steady-state traffic is one line per direction;
//  * each side keeps a same-line cached copy of the *other* side's cursor
//    and refreshes it only when the ring looks full/empty, cutting
//    cross-core coherence misses to roughly one per wraparound instead of
//    one per message.
// Backpressure is spin-then-yield: a busy spin (messages in a steady
// pipeline arrive within microseconds) with periodic yields so an
// oversubscribed host — including the single-core CI runner — can schedule
// the peer thread.  A send stalled >30 s on a full ring raises a fatal
// diagnostic (only an undersized channel_capacity cap can produce that;
// exact sizing never blocks senders) — fatal because it fires on a worker
// thread, where an escaping exception is std::terminate: a loud abort
// with the message in the terminate diagnostic, by design, since a dead
// sender cannot unwind the peers blocked on its channels.
//
// Capacity policy: a channel's ring holds its *exact* total message count
// (ChannelDesc::messages), rounded up to a power of two so the cursors can
// be masked — at that size a bounded sender can never block, so the
// lock-free fast path is also wait-free for the whole run.  An optional
// cap bounds memory instead, trading wait-freedom for spin-then-yield
// backpressure (see RunOptions::channel_capacity for the deadlock caveat).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "support/assert.hpp"

namespace mimd {

/// Smallest power of two >= min_capacity (and >= 2): the ring sizes the
/// SpscChannel constructor and the emitted C both use, so cursor masking
/// works identically in both runtimes.
[[nodiscard]] constexpr std::size_t spsc_ring_capacity(
    std::size_t min_capacity) {
  std::size_t cap = 2;
  while (cap < min_capacity) cap <<= 1;
  return cap;
}

/// Capacity for a channel carrying `messages` values over the whole run:
/// exact sizing (never blocks a sender), optionally capped at `cap` (> 0)
/// for bounded memory, then rounded up to a power of two.
[[nodiscard]] constexpr std::size_t ring_capacity(std::int64_t messages,
                                                  std::int64_t cap = 0) {
  std::int64_t want = messages < 1 ? 1 : messages;
  if (cap > 0 && cap < want) want = cap;
  return spsc_ring_capacity(static_cast<std::size_t>(want));
}

/// The unit a channel carries: one value, tagged with its producing
/// iteration so receivers can assert FIFO delivery.
struct ChannelMessage {
  std::int64_t iter = 0;  ///< producing iteration, for FIFO validation
  double value = 0.0;
};

class SpscChannel {
 public:
  using Message = ChannelMessage;

  /// Capacity is `min_capacity` rounded up to a power of two (>= 2) —
  /// spsc_ring_capacity(), the same policy the generated-C rings use.
  /// Sizing a ring to its channel's total message count (see
  /// ChannelDesc::messages) makes send() wait-free for the whole run.
  explicit SpscChannel(std::size_t min_capacity) {
    const std::size_t cap = spsc_ring_capacity(min_capacity);
    buf_.resize(cap);
    mask_ = cap - 1;
  }

  /// A full ring can only happen on artificially capped capacities
  /// (RunOptions::channel_capacity) — exact sizing never blocks here.  An
  /// undersized cap can deadlock a valid program (circular wait across
  /// channels), so the wait loop gives up after ~30 s of no progress
  /// instead of spinning silently forever: MIMD_UNREACHABLE on this
  /// worker thread, which std::terminate's the process (see file header —
  /// deliberate, as peers cannot be unwound).
  void send(Message m) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ > mask_) {  // looks full: refresh, then wait
      cached_tail_ = tail_.load(std::memory_order_acquire);
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t spin = 0; head - cached_tail_ > mask_; ++spin) {
        if ((spin & 63) == 63) std::this_thread::yield();
        if ((spin & ((std::size_t{1} << 20) - 1)) == 0 && spin > 0 &&
            std::chrono::steady_clock::now() - t0 >
                std::chrono::seconds(30)) {
          MIMD_UNREACHABLE(
              "SpscChannel::send stalled 30s on a full ring — "
              "channel_capacity is too small for this program "
              "(see RunOptions::channel_capacity)");
        }
        cached_tail_ = tail_.load(std::memory_order_acquire);
      }
    }
    buf_[head & mask_] = m;
    head_.store(head + 1, std::memory_order_release);
  }

  Message receive() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (cached_head_ == tail) {  // looks empty: refresh, then wait
      cached_head_ = head_.load(std::memory_order_acquire);
      for (std::size_t spin = 0; cached_head_ == tail; ++spin) {
        if ((spin & 63) == 63) std::this_thread::yield();
        cached_head_ = head_.load(std::memory_order_acquire);
      }
    }
    const Message m = buf_[tail & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return m;
  }

  /// Messages sent but not yet received.  Racy by nature (either side may
  /// be mid-operation); exact only when both sides are quiescent.
  [[nodiscard]] std::size_t pending() const {
    return head_.load(std::memory_order_acquire) -
           tail_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

 private:
  std::vector<Message> buf_;
  std::size_t mask_ = 0;
  /// Producer side: its cursor plus its cache of the consumer's.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t cached_tail_ = 0;
  /// Consumer side, one line over.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t cached_head_ = 0;
  /// Keep whatever is allocated next off the consumer's line.
  alignas(64) std::byte pad_{};
};

}  // namespace mimd
