// SpscChannel — the single-use buffer behind every executor channel.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "runtime/spsc_ring.hpp"

namespace mimd {
namespace {

TEST(SpscRing, CapacityIsExactlyTheMessageCount) {
  // No rounding: a channel holds exactly the values its run sends, and
  // the shared sizing gives even a silent channel one slot (the emitted
  // C declares every buffer as an array).
  EXPECT_EQ(SpscChannel(1).capacity(), 1u);
  EXPECT_EQ(SpscChannel(3).capacity(), 3u);
  EXPECT_EQ(SpscChannel(1000).capacity(), 1000u);
  EXPECT_EQ(ring_capacity(0), 1u);
  EXPECT_EQ(ring_capacity(1), 1u);
  EXPECT_EQ(ring_capacity(3), 3u);
  EXPECT_EQ(ring_capacity(1000), 1000u);
}

TEST(SpscRing, SendPastCapacityIsAContractViolation) {
  // A send never waits and never overwrites: the fourth send into a
  // three-value channel is refused, and the three values stay intact.
  SpscChannel c(3);
  c.send({0, 0.5});
  c.send({1, 1.5});
  c.send({2, 2.5});
  EXPECT_THROW(c.send({3, 3.5}), ContractViolation);
  EXPECT_EQ(c.pending(), 3u);
  for (std::int64_t i = 0; i < 3; ++i) {
    const auto m = c.receive();
    EXPECT_EQ(m.iter, i);
    EXPECT_EQ(m.value, static_cast<double>(i) + 0.5);
  }
}

TEST(SpscRing, FifoOrderSingleThread) {
  SpscChannel c(4);
  c.send({0, 1.5});
  c.send({1, 2.5});
  c.send({2, 3.5});
  EXPECT_EQ(c.pending(), 3u);
  EXPECT_EQ(c.receive().iter, 0);
  EXPECT_EQ(c.receive().iter, 1);
  const auto m = c.receive();
  EXPECT_EQ(m.iter, 2);
  EXPECT_DOUBLE_EQ(m.value, 3.5);
  EXPECT_EQ(c.pending(), 0u);
}

TEST(SpscRing, ReceiveBlocksUntilSend) {
  SpscChannel c(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    c.send({7, 42.0});
  });
  const auto m = c.receive();  // must survive the spin phase and wait
  producer.join();
  EXPECT_EQ(m.iter, 7);
  EXPECT_DOUBLE_EQ(m.value, 42.0);
}

TEST(SpscRing, ProducerConsumerStressKeepsOrderAcrossWraparounds) {
  // A buffer of exactly its message count, a producer that never waits
  // and a jittered consumer: 100k values published under real
  // concurrency, every message tag checked.
  constexpr std::int64_t kCount = 100000;
  SpscChannel c(kCount);
  std::thread producer([&] {
    for (std::int64_t i = 0; i < kCount; ++i) {
      c.send({i, static_cast<double>(i) * 0.5});
    }
  });
  std::int64_t mismatches = 0;
  for (std::int64_t i = 0; i < kCount; ++i) {
    const auto m = c.receive();
    if (m.iter != i || m.value != static_cast<double>(i) * 0.5) ++mismatches;
    if ((i & 8191) == 8191) std::this_thread::yield();
  }
  producer.join();
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(c.pending(), 0u);
}

}  // namespace
}  // namespace mimd
