// Single-use single-producer/single-consumer channel — the value transport
// behind the threaded executor, and the sizing rule it shares with the
// generated-C backend (partition/c_codegen.*), which emits the same buffer
// in C11 and must size it identically.
//
// Every runtime channel is SPSC by construction: a channel is keyed by
// (edge, src processor, dst processor), so exactly one thread sends and
// exactly one thread receives.  Every channel is also single-use: a run
// builds it fresh, holding exactly the values it carries over that run
// (ChannelDesc::messages), so the buffer never fills and never wraps.
// That is the paper's machine: a processor never stalls while its value
// travels, only the consumer waits (schedule/machine.hpp).  McKenney's
// SPSC ring ("Is Parallel Programming Hard...") needs a full-side
// protocol and wraparound for an unbounded stream; a buffer filled once
// keeps only the publication discipline:
//  * send is one store plus a release-store of the head cursor — no loop,
//    no wait.  A send past the buffer is a ContractViolation, never a
//    wait or an overwrite (a compiled program never makes one);
//  * receive acquire-loads the head and keeps a copy on the consumer's
//    own cache line, refreshing it only when the buffer looks drained, so
//    a consumer behind its producer reads a run of values without
//    touching the producer's line.  Its wait is
//    spin-then-yield: a busy spin (values in a steady pipeline arrive
//    within microseconds) with periodic yields so an oversubscribed host
//    — including the single-core CI runner — can schedule the producer.
// Every value carries its producing iteration, so receivers can assert
// FIFO delivery.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "support/assert.hpp"

namespace mimd {

/// Buffer length for a channel carrying `messages` values over one run:
/// exactly that many, and at least one (the emitted C declares every
/// buffer as an array, and C has no zero-length arrays).  The executor
/// and the generated C both size their buffers with this call.
[[nodiscard]] constexpr std::size_t ring_capacity(std::int64_t messages) {
  return messages < 1 ? 1 : static_cast<std::size_t>(messages);
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

  /// Room for exactly `capacity` sends over the channel's lifetime.
  explicit SpscChannel(std::size_t capacity) : buf_(capacity) {}

  /// Never waits: throws ContractViolation once `capacity` values have
  /// been sent.
  void send(Message m) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    MIMD_EXPECTS(head < buf_.size());
    buf_[head] = m;
    head_.store(head + 1, std::memory_order_release);
  }

  Message receive() {
    if (cached_head_ == tail_) {  // looks drained: refresh, then wait
      cached_head_ = head_.load(std::memory_order_acquire);
      for (std::size_t spin = 0; cached_head_ == tail_; ++spin) {
        if ((spin & 63) == 63) std::this_thread::yield();
        cached_head_ = head_.load(std::memory_order_acquire);
      }
    }
    return buf_[tail_++];
  }

  /// Values sent but not yet received.  Call it from the consumer, or once
  /// both sides are quiescent.
  [[nodiscard]] std::size_t pending() const {
    return head_.load(std::memory_order_acquire) - tail_;
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

 private:
  std::vector<Message> buf_;
  /// The producer's cursor, alone on its line: the consumer polls it.
  alignas(64) std::atomic<std::size_t> head_{0};
  /// Consumer side, one line over: its cursor and its copy of head_.
  alignas(64) std::size_t tail_ = 0;
  std::size_t cached_head_ = 0;
  /// Keep whatever is allocated next off the consumer's line.
  alignas(64) std::byte pad_{};
};

}  // namespace mimd
