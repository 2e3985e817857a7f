// SpscChannel — the lock-free bounded ring behind every executor channel.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "runtime/spsc_ring.hpp"

namespace mimd {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscChannel(0).capacity(), 2u);
  EXPECT_EQ(SpscChannel(1).capacity(), 2u);
  EXPECT_EQ(SpscChannel(2).capacity(), 2u);
  EXPECT_EQ(SpscChannel(3).capacity(), 4u);
  EXPECT_EQ(SpscChannel(5).capacity(), 8u);
  EXPECT_EQ(SpscChannel(8).capacity(), 8u);
  EXPECT_EQ(SpscChannel(1000).capacity(), 1024u);
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

TEST(SpscRing, WraparoundKeepsValuesIntact) {
  // Capacity 4; drive the cursors far past the buffer size so every slot
  // is reused many times and the index masking is exercised at both ends.
  SpscChannel c(4);
  ASSERT_EQ(c.capacity(), 4u);
  std::int64_t next = 0;
  for (int round = 0; round < 1000; ++round) {
    const int burst = 1 + (round % 4);  // 1..4 = up to full capacity
    for (int i = 0; i < burst; ++i) {
      c.send({next + i, 0.25 * static_cast<double>(next + i)});
    }
    for (int i = 0; i < burst; ++i) {
      const auto m = c.receive();
      EXPECT_EQ(m.iter, next + i);
      EXPECT_DOUBLE_EQ(m.value, 0.25 * static_cast<double>(next + i));
    }
    next += burst;
  }
  EXPECT_EQ(c.pending(), 0u);
}

TEST(SpscRing, BackpressureBlocksProducerUntilConsumerDrains) {
  // Ring of 2 slots, 64 messages: the producer must stall on the full
  // ring and resume as the slow consumer drains.
  SpscChannel c(2);
  constexpr int kCount = 64;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) c.send({i, static_cast<double>(i)});
  });
  std::vector<std::int64_t> seen;
  seen.reserve(kCount);
  for (int i = 0; i < kCount; ++i) {
    if (i % 8 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      // The producer can never run more than capacity ahead.
      EXPECT_LE(c.pending(), c.capacity());
    }
    seen.push_back(c.receive().iter);
  }
  producer.join();
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
  }
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
  // Small ring, many messages, jittered consumer: tens of thousands of
  // wraparounds under real concurrency, every message tag checked.
  SpscChannel c(16);
  constexpr std::int64_t kCount = 100000;
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
