#include "src/serve/admission_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace tfsn::serve {
namespace {

TEST(AdmissionQueueTest, FifoOrderSingleConsumer) {
  AdmissionQueue<int> q(100);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(q.Push(i).ok());
  EXPECT_EQ(q.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    int v = -1;
    EXPECT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(AdmissionQueueTest, TryPushBackpressureOnFullQueue) {
  AdmissionQueue<int> q(3);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.Push(i).ok());
  int item = 99;
  EXPECT_TRUE(q.TryPush(&item).IsResourceExhausted());
  EXPECT_EQ(item, 99);  // refused pushes leave the item untouched
  int v;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_TRUE(q.TryPush(&item).ok());
  EXPECT_EQ(q.size(), 3u);
}

TEST(AdmissionQueueTest, PushBlocksUntilSpace) {
  AdmissionQueue<int> q(1);
  EXPECT_TRUE(q.Push(1).ok());
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2).ok());  // blocks: queue full
    second_pushed.store(true);
  });
  // The producer must not complete while the queue is full. (A sleep
  // cannot *prove* blocking, but a regression to non-blocking Push would
  // trip this overwhelmingly often.)
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_pushed.load());
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 2);
}

TEST(AdmissionQueueTest, ShutdownDrainsAllThenFails) {
  AdmissionQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.Push(i).ok());
  q.Close();
  EXPECT_TRUE(q.closed());
  // Producers fail fast after Close...
  EXPECT_TRUE(q.Push(99).IsUnavailable());
  int item = 99;
  EXPECT_TRUE(q.TryPush(&item).IsUnavailable());
  // ...but consumers drain every admitted item before seeing failure.
  for (int i = 0; i < 5; ++i) {
    int v = -1;
    EXPECT_TRUE(q.Pop(&v));
    EXPECT_EQ(v, i);
  }
  int v;
  EXPECT_FALSE(q.Pop(&v));
  EXPECT_FALSE(q.TryPop(&v));
}

TEST(AdmissionQueueTest, CloseWakesBlockedProducerAndConsumer) {
  AdmissionQueue<int> q(1);
  EXPECT_TRUE(q.Push(1).ok());
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(2).IsUnavailable());  // blocked on full, woken by Close
  });
  AdmissionQueue<int> empty(1);
  std::thread consumer([&] {
    int v;
    EXPECT_FALSE(empty.Pop(&v));  // blocked on empty, woken by Close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  empty.Close();
  producer.join();
  consumer.join();
  // The item admitted before Close is still drainable.
  int v = 0;
  EXPECT_TRUE(q.Pop(&v));
  EXPECT_EQ(v, 1);
}

// 8 producers x 4 consumers over a small queue: every item is delivered
// exactly once and shutdown loses nothing. Run under TSan in CI.
TEST(AdmissionQueueTest, ProducerConsumerHammer) {
  constexpr int kProducers = 8;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  AdmissionQueue<uint64_t> q(16);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(static_cast<uint64_t>(p) * kPerProducer + i).ok());
      }
    });
  }

  std::vector<std::vector<uint64_t>> received(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&q, &received, c] {
      uint64_t v;
      while (q.Pop(&v)) received[c].push_back(v);
    });
  }

  for (std::thread& t : producers) t.join();
  q.Close();
  for (std::thread& t : consumers) t.join();

  std::vector<uint64_t> all;
  for (const auto& chunk : received) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(all.size(),
            static_cast<size_t>(kProducers) * kPerProducer);
  std::sort(all.begin(), all.end());
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], i) << "item delivered zero or multiple times";
  }
}

// Per-consumer pop order respects the queue's FIFO total order even with
// competing consumers: what one consumer sees is a subsequence of the
// push order.
TEST(AdmissionQueueTest, PerConsumerOrderIsSubsequenceUnderContention) {
  AdmissionQueue<int> q(8);
  std::vector<int> seen_a, seen_b;
  std::thread ca([&] {
    int v;
    while (q.Pop(&v)) seen_a.push_back(v);
  });
  std::thread cb([&] {
    int v;
    while (q.Pop(&v)) seen_b.push_back(v);
  });
  for (int i = 0; i < 2000; ++i) ASSERT_TRUE(q.Push(i).ok());
  q.Close();
  ca.join();
  cb.join();
  EXPECT_TRUE(std::is_sorted(seen_a.begin(), seen_a.end()));
  EXPECT_TRUE(std::is_sorted(seen_b.begin(), seen_b.end()));
  EXPECT_EQ(seen_a.size() + seen_b.size(), 2000u);
}

}  // namespace
}  // namespace tfsn::serve
