// Unit tests for the common substrate: RNG determinism and statistics,
// bounded queue semantics under concurrency, Grid2D, SNR metric, aligned
// allocation, and precondition checking.
#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <new>
#include <numeric>
#include <thread>
#include <vector>

#include "common/aligned.h"
#include "common/check.h"
#include "common/grid2d.h"
#include "common/queue.h"
#include "common/rng.h"
#include "common/snr.h"
#include "common/timer.h"

namespace sarbp {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, NormalMeanStddev) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent1(21);
  Rng parent2(21);
  Rng child1 = parent1.split();
  Rng child2 = parent2.split();
  // Same construction -> same substreams.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child1.next(), child2.next());
  // Parent continues on a different (jumped) stream than the child.
  Rng parent3(21);
  Rng child3 = parent3.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent3.next() == child3.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, RepeatedSplitsDiffer) {
  Rng parent(33);
  Rng a = parent.split();
  Rng b = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) {
    auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueue, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
}

TEST(BoundedQueue, TryPopEmptyReturnsNullopt) {
  BoundedQueue<int> q(2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseUnblocksWaitingConsumer) {
  BoundedQueue<int> q(2);
  std::atomic<bool> got_end{false};
  std::thread consumer([&] {
    auto v = q.pop();
    got_end = !v.has_value();
  });
  q.close();
  consumer.join();
  EXPECT_TRUE(got_end);
}

TEST(BoundedQueue, ProducerConsumerStressPreservesAllItems) {
  BoundedQueue<int> q(16);
  constexpr int kItems = 20000;
  constexpr int kProducers = 4;
  std::atomic<long long> consumed_sum{0};
  std::atomic<int> consumed_count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = p; i < kItems; i += kProducers) EXPECT_TRUE(q.push(i));
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        consumed_sum += *v;
        consumed_count++;
      }
    });
  }
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed_count.load(), kItems);
  EXPECT_EQ(consumed_sum.load(),
            static_cast<long long>(kItems) * (kItems - 1) / 2);
}

TEST(BoundedQueue, BlockingPushWaitsForSpace) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));
    pushed = true;
  });
  // Give the producer a chance to block, then free a slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop(), std::optional<int>(2));
}

TEST(BoundedQueue, TryPushForTimesOutWhenFull) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.try_push_for(1, std::chrono::milliseconds(1)));
  EXPECT_FALSE(q.try_push_for(2, std::chrono::milliseconds(10)));
  EXPECT_EQ(q.size(), 1u);
}

TEST(BoundedQueue, TryPushForSucceedsWhenSpaceFrees) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    (void)q.pop();
  });
  EXPECT_TRUE(q.try_push_for(2, std::chrono::seconds(5)));
  consumer.join();
  EXPECT_EQ(q.pop(), std::optional<int>(2));
}

TEST(BoundedQueue, TryPushForReturnsFalsePromptlyWhenClosedDuringWait) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
  });
  // The wait is far longer than the close delay: a close() during the wait
  // must win over the deadline and fail the push immediately.
  Timer t;
  EXPECT_FALSE(q.try_push_for(2, std::chrono::seconds(30)));
  EXPECT_LT(t.seconds(), 10.0);
  closer.join();
  EXPECT_TRUE(q.closed());
}

TEST(BoundedQueue, TryPushForRacingCloseFromThirdThread) {
  // Three-way race: a producer blocked in try_push_for on a full queue, a
  // consumer that frees a slot, and a third thread that closes the queue —
  // all at once. Whatever interleaving wins, the producer must return (no
  // hang), and a true return means the item is actually delivered exactly
  // once (it can be popped or was popped by the consumer), never accepted
  // into a void.
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    BoundedQueue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::atomic<int> consumed_42{0};
    std::thread consumer([&] {
      while (auto v = q.pop()) {
        if (*v == 42) consumed_42++;
      }
    });
    std::thread closer([&] { q.close(); });
    const bool accepted = q.try_push_for(42, std::chrono::seconds(10));
    closer.join();
    consumer.join();
    if (accepted) {
      // Accepted before the close won: drain semantics guarantee delivery.
      EXPECT_EQ(consumed_42.load(), 1) << "accepted item lost (round "
                                       << round << ")";
    } else {
      EXPECT_EQ(consumed_42.load(), 0) << "rejected item delivered (round "
                                       << round << ")";
    }
    EXPECT_TRUE(q.closed());
  }
}

TEST(BoundedQueue, PopWakeupOrderDeliversEveryItemToSomeWaiter) {
  // Wakeup-ordering contract on the pop side: with several consumers parked
  // in pop(), each push must wake enough waiters that every item is taken
  // promptly, and close() must wake the rest exactly once each (no consumer
  // hangs, none observes an item after end-of-stream).
  constexpr int kConsumers = 4;
  constexpr int kItems = 1000;
  BoundedQueue<int> q(2);
  std::atomic<int> popped{0};
  std::atomic<int> end_signals{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (q.pop()) popped++;
      end_signals++;
      // The end state is sticky: a second pop must also say end-of-stream.
      EXPECT_FALSE(q.pop().has_value());
    });
  }
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(q.push(i));
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped.load(), kItems);
  EXPECT_EQ(end_signals.load(), kConsumers);
}

TEST(BoundedQueue, TryPopForTimesOutWhenEmpty) {
  BoundedQueue<int> q(2);
  EXPECT_FALSE(q.try_pop_for(std::chrono::milliseconds(10)).has_value());
  EXPECT_FALSE(q.closed());
}

TEST(BoundedQueue, TryPopForReceivesLatePush) {
  BoundedQueue<int> q(2);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(q.push(42));
  });
  const auto v = q.try_pop_for(std::chrono::seconds(5));
  producer.join();
  EXPECT_EQ(v, std::optional<int>(42));
}

TEST(BoundedQueue, TryPopForDrainsBacklogAfterClose) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  q.close();
  EXPECT_EQ(q.try_pop_for(std::chrono::milliseconds(1)), std::optional<int>(1));
  EXPECT_FALSE(q.try_pop_for(std::chrono::milliseconds(1)).has_value());
}

TEST(BoundedQueue, TryPopForWokenByCloseNotDeadline) {
  BoundedQueue<int> q(2);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    q.close();
  });
  Timer t;
  EXPECT_FALSE(q.try_pop_for(std::chrono::seconds(30)).has_value());
  EXPECT_LT(t.seconds(), 10.0);
  closer.join();
  // nullopt here means end-of-stream, distinguishable from a timeout.
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, TimedOpsStressWithMidStreamClose) {
  // timeout-vs-close race: timed producers and consumers hammer a tiny
  // queue while it is closed mid-stream. Every accepted item must be
  // delivered exactly once whether the waiters lose to the deadline or to
  // the close.
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 2000;
  BoundedQueue<int> q(2);
  std::atomic<long long> pushed_sum{0};
  std::atomic<long long> popped_sum{0};
  std::atomic<int> pushed_count{0};
  std::atomic<int> popped_count{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int item = p * kPerProducer + i;
        bool accepted = false;
        while (!q.closed()) {
          if (q.try_push_for(item, std::chrono::microseconds(50))) {
            accepted = true;
            break;
          }
        }
        if (!accepted) return;  // closed: all later pushes fail too
        pushed_sum += item;
        pushed_count++;
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (true) {
        if (auto v = q.try_pop_for(std::chrono::microseconds(50))) {
          popped_sum += *v;
          popped_count++;
        } else if (q.closed()) {
          // Timed out or ended; with the queue closed and a nullopt in
          // hand the stream may still hold a backlog — drain it.
          while (auto rest = q.try_pop()) {
            popped_sum += *rest;
            popped_count++;
          }
          return;
        }
      }
    });
  }
  while (popped_count.load() < kPerProducer) std::this_thread::yield();
  q.close();
  for (auto& t : producers) t.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped_count.load(), pushed_count.load());
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
}

TEST(BoundedQueue, MidStreamCloseWakesAllWaitersAndLosesNothing) {
  // Shutdown-protocol stress: N producers race M consumers on a tiny queue
  // while another thread closes it mid-stream. Every push that reported
  // success must be consumed (drain-then-end semantics), every blocked
  // waiter must wake, and pushes after close must fail.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 5000;
  BoundedQueue<int> q(4);
  std::atomic<long long> pushed_sum{0};
  std::atomic<int> pushed_count{0};
  std::atomic<long long> popped_sum{0};
  std::atomic<int> popped_count{0};
  std::atomic<bool> rejected_push{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int item = p * kPerProducer + i;
        if (q.push(item)) {
          pushed_sum += item;
          pushed_count++;
        } else {
          rejected_push = true;
          break;  // queue closed; all later pushes would fail too
        }
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        popped_sum += *v;
        popped_count++;
      }
      // After pop() returns nullopt the queue must stay ended.
      EXPECT_FALSE(q.pop().has_value());
    });
  }
  // Let traffic flow, then slam the door mid-stream.
  while (popped_count.load() < kPerProducer / 2) std::this_thread::yield();
  q.close();

  for (auto& t : producers) t.join();  // blocked pushers must wake
  for (auto& t : consumers) t.join();  // blocked poppers must wake
  EXPECT_TRUE(rejected_push.load());
  // No successfully-pushed item may be lost *or* duplicated.
  EXPECT_EQ(popped_count.load(), pushed_count.load());
  EXPECT_EQ(popped_sum.load(), pushed_sum.load());
  EXPECT_LT(pushed_count.load(), kProducers * kPerProducer);
}

TEST(Grid2D, ShapeAndAccess) {
  Grid2D<int> g(4, 3, 7);
  EXPECT_EQ(g.width(), 4);
  EXPECT_EQ(g.height(), 3);
  EXPECT_EQ(g.size(), 12);
  EXPECT_EQ(g.at(2, 1), 7);
  g.at(2, 1) = 42;
  EXPECT_EQ(g.at(2, 1), 42);
  EXPECT_EQ(g.row(1)[2], 42);
}

TEST(Grid2D, RowSpansAreContiguous) {
  Grid2D<int> g(5, 2);
  std::iota(g.flat().begin(), g.flat().end(), 0);
  EXPECT_EQ(g.row(0)[4], 4);
  EXPECT_EQ(g.row(1)[0], 5);
}

TEST(Grid2D, FillAndEquality) {
  Grid2D<float> a(3, 3, 1.0f);
  Grid2D<float> b(3, 3, 1.0f);
  EXPECT_EQ(a, b);
  b.at(0, 0) = 2.0f;
  EXPECT_FALSE(a == b);
  b.fill(1.0f);
  EXPECT_EQ(a, b);
}

TEST(Snr, IdenticalSignalsAreInfinite) {
  std::vector<CFloat> a = {{1, 2}, {3, 4}};
  EXPECT_TRUE(std::isinf(snr_db(std::span<const CFloat>(a),
                                std::span<const CFloat>(a))));
}

TEST(Snr, KnownRatio) {
  // Signal power 1, error amplitude 1e-3 -> SNR = 60 dB.
  std::vector<CDouble> ref(100, CDouble{1.0, 0.0});
  std::vector<CFloat> meas(100, CFloat{1.0f + 1e-3f, 0.0f});
  EXPECT_NEAR(snr_db(std::span<const CFloat>(meas),
                     std::span<const CDouble>(ref)),
              60.0, 0.5);
}

TEST(Snr, TwentyDbPerDigit) {
  std::vector<CDouble> ref(10, CDouble{1.0, 0.0});
  std::vector<CFloat> m1(10, CFloat{1.01f, 0.0f});
  std::vector<CFloat> m2(10, CFloat{1.001f, 0.0f});
  const double s1 = snr_db(std::span<const CFloat>(m1), std::span<const CDouble>(ref));
  const double s2 = snr_db(std::span<const CFloat>(m2), std::span<const CDouble>(ref));
  EXPECT_NEAR(s2 - s1, 20.0, 1.0);
}

TEST(Snr, ZeroSignalZeroNoiseIsNan) {
  // Degenerate all-zero comparison: neither "perfect" (+inf) nor "broken"
  // (-inf) is honest, so the ratio is reported as NaN.
  std::vector<CFloat> zeros(8, CFloat{0.0f, 0.0f});
  EXPECT_TRUE(std::isnan(snr_db(std::span<const CFloat>(zeros),
                                std::span<const CFloat>(zeros))));
}

TEST(Snr, ZeroReferenceNonzeroErrorIsNotNan) {
  std::vector<CFloat> ref(8, CFloat{0.0f, 0.0f});
  std::vector<CFloat> meas(8, CFloat{1.0f, 0.0f});
  const double snr = snr_db(std::span<const CFloat>(meas),
                            std::span<const CFloat>(ref));
  EXPECT_FALSE(std::isnan(snr));
  EXPECT_TRUE(std::isinf(snr));
  EXPECT_LT(snr, 0.0);
}

TEST(Snr, MismatchedSizesThrow) {
  std::vector<CFloat> a(3), b(4);
  EXPECT_THROW(snr_db(std::span<const CFloat>(a), std::span<const CFloat>(b)),
               PreconditionError);
}

TEST(Aligned, VectorDataIs64ByteAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    AlignedVector<float> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  }
  // 384² CFloat is a survey image: 1.125 MiB, past glibc's mmap threshold.
  for (std::size_t n : {1u, 3u, 17u, 384u * 384u}) {
    AlignedVector<CFloat> v(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u) << n;
  }
}

TEST(Aligned, OverflowingRequestThrows) {
  // The guard leaves room for the alignment padding, so no request wraps
  // the block size round to a small allocation.
  AlignedAllocator<float> alloc;
  EXPECT_THROW((void)alloc.allocate(SIZE_MAX / sizeof(float)),
               std::bad_array_new_length);
  EXPECT_THROW((void)alloc.allocate((SIZE_MAX - 64) / sizeof(float) + 1),
               std::bad_array_new_length);
}

TEST(Aligned, SameSizeRequestRefillsAFreedBlock) {
#if !defined(__GLIBC__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "checks glibc's heap, which a sanitizer replaces";
#else
  // A freed image's hole between two live ones takes the next image of its
  // size, so a service or stream that frees and forms same-sized images
  // does not grow its heap.
  constexpr std::size_t kFloats = 64 * 1024 / sizeof(float);
  AlignedVector<float> a(kFloats), b(kFloats), c(kFloats);
  const auto hole = reinterpret_cast<std::uintptr_t>(b.data());
  b = AlignedVector<float>();
  AlignedVector<float> d(kFloats);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()), hole);
#endif
}

TEST(Aligned, SlackAroundABlockIsPoisonedUnderAsan) {
#ifndef __SANITIZE_ADDRESS__
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  // The alignment slack sits inside the allocator's malloc block; poisoned,
  // an access one element past either end is reported.
  for (std::size_t n = 1; n <= 130; ++n) {
    AlignedVector<float> v(n);
    EXPECT_TRUE(__asan_address_is_poisoned(v.data() - 1)) << n;
    EXPECT_TRUE(__asan_address_is_poisoned(v.data() + v.size())) << n;
    EXPECT_FALSE(__asan_address_is_poisoned(v.data())) << n;
  }
#endif
}

TEST(Check, EnsureThrowsWithLocation) {
  try {
    ensure(false, "expected failure");
    FAIL() << "ensure did not throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("expected failure"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_common.cpp"), std::string::npos);
  }
}

TEST(Check, EnsurePassesQuietly) { EXPECT_NO_THROW(ensure(true, "ok")); }

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_GE(t.seconds(), 0.010);
  t.reset();
  EXPECT_LT(t.seconds(), 0.010);
}

TEST(SectionTimes, AccumulatesByName) {
  SectionTimes times;
  times.add("a", 1.0);
  times.add("a", 0.5);
  times.add("b", 2.0);
  EXPECT_DOUBLE_EQ(times.get("a"), 1.5);
  EXPECT_DOUBLE_EQ(times.get("b"), 2.0);
  EXPECT_DOUBLE_EQ(times.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(times.total(), 3.5);
  times.clear();
  EXPECT_DOUBLE_EQ(times.total(), 0.0);
}

}  // namespace
}  // namespace sarbp
