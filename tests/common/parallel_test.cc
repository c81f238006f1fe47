#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"

namespace hsis::common {
namespace {

TEST(ResolveThreadCountTest, KnobSemantics) {
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_EQ(ResolveThreadCount(0), HardwareConcurrency());
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(7), 7);
  EXPECT_EQ(ResolveThreadCount(-3), 1);
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (int threads : {1, 2, 4, 0}) {
    const size_t n = 777;
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(threads, n, [&](size_t i) { hits[i]++; });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, EmptyAndSingleton) {
  int calls = 0;
  ParallelFor(4, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(4, 1, [&](size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, SmallRangeFallsBackToSerial) {
  // A range smaller than the thread count must execute inline on the
  // calling thread instead of spawning workers for empty chunks.
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {4, 16}) {
    const size_t n = static_cast<size_t>(threads) - 1;
    size_t calls = 0;  // non-atomic on purpose: serial execution only
    ParallelFor(threads, n, [&](size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++calls;
    });
    EXPECT_EQ(calls, n);
  }
}

TEST(ParallelForTest, OrderPreservingSlots) {
  auto squares = [](int threads) {
    std::vector<int> out(100);
    ParallelFor(threads, out.size(),
                [&](size_t i) { out[i] = static_cast<int>(i * i); });
    return out;
  };
  const std::vector<int> serial = squares(1);
  for (int threads : {2, 3, 0}) EXPECT_EQ(squares(threads), serial);
}

TEST(ParallelForTilesTest, EveryIndexRunsExactlyOnce) {
  const size_t n = 1003;  // prime: last tile is ragged
  for (int threads : {1, 2, 4, 0}) {
    for (size_t tile : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                        size_t{5000}}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelForTiles(threads, n, tile, [&](size_t lo, size_t hi) {
        // Tile boundaries are fixed by the tile size alone.
        const size_t want = tile == 0 ? 1 : tile;
        EXPECT_EQ(lo % want, 0u);
        EXPECT_EQ(hi, std::min(n, lo + want));
        for (size_t i = lo; i < hi; ++i) hits[i]++;
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " tile=" << tile;
      }
    }
  }
}

TEST(ParallelForWithStatusBatchedTest, EveryIndexRunsExactlyOnce) {
  const size_t n = 1003;  // prime: last batch is ragged
  for (int threads : {1, 2, 4, 0}) {
    for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, size_t{5000}}) {
      std::vector<std::atomic<int>> hits(n);
      EXPECT_TRUE(ParallelForWithStatus(threads, n, batch, [&](size_t i) {
                    hits[i]++;
                    return Status::OK();
                  }).ok());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " batch=" << batch;
      }
    }
  }
}

TEST(ParallelForWithStatusBatchedTest, AscendingWithinEachBatch) {
  // Each participant records its own sequence, so the check does not
  // depend on how the participants interleave.
  const size_t n = 100, batch = 9;
  std::mutex mu;
  std::map<std::thread::id, std::vector<size_t>> by_thread;
  EXPECT_TRUE(ParallelForWithStatus(2, n, batch, [&](size_t i) {
                std::lock_guard<std::mutex> lock(mu);
                by_thread[std::this_thread::get_id()].push_back(i);
                return Status::OK();
              }).ok());
  size_t total = 0;
  for (const auto& [id, order] : by_thread) {
    total += order.size();
    // A batch runs whole on one participant, as one contiguous
    // ascending run: every index but a batch's last is followed by its
    // successor.
    for (size_t k = 0; k + 1 < order.size(); ++k) {
      if (order[k] % batch != batch - 1 && order[k] != n - 1) {
        EXPECT_EQ(order[k + 1], order[k] + 1) << k;
      }
    }
    if (!order.empty()) {
      EXPECT_TRUE(order.back() % batch == batch - 1 || order.back() == n - 1)
          << "a batch was split across participants";
    }
  }
  EXPECT_EQ(total, n);
}

TEST(ParallelForWithStatusBatchedTest, ZeroBatchSizeDegeneratesToUnbatched) {
  size_t calls = 0;
  EXPECT_TRUE(ParallelForWithStatus(1, 10, 0, [&](size_t) {
                ++calls;
                return Status::OK();
              }).ok());
  EXPECT_EQ(calls, 10u);
}

TEST(ParallelForWithStatusBatchedTest, ReportsSmallestIndexError) {
  for (int threads : {1, 2, 0}) {
    for (size_t batch : {size_t{1}, size_t{16}}) {
      Status s = ParallelForWithStatus(
          threads, 200, batch, [&](size_t i) -> Status {
            if (i % 11 == 5) {
              return Status::InvalidArgument("bad index " + std::to_string(i));
            }
            return Status::OK();
          });
      ASSERT_FALSE(s.ok());
      EXPECT_NE(s.message().find("bad index 5"), std::string::npos)
          << s.ToString();
    }
  }
}

TEST(ParallelForWithStatusTest, ReportsSmallestIndexError) {
  for (int threads : {1, 2, 8, 0}) {
    Status s = ParallelForWithStatus(threads, 100, [&](size_t i) -> Status {
      if (i % 7 == 3) {
        return Status::InvalidArgument("bad index " + std::to_string(i));
      }
      return Status::OK();
    });
    ASSERT_FALSE(s.ok());
    // Smallest failing index is 3 regardless of scheduling.
    EXPECT_NE(s.message().find("bad index 3"), std::string::npos)
        << s.ToString();
  }
}

TEST(ParallelForWithStatusTest, OkWhenAllSucceed) {
  EXPECT_TRUE(ParallelForWithStatus(0, 64, [](size_t) {
                return Status::OK();
              }).ok());
}

TEST(ParallelForTest, WorkersReusedAcrossCalls) {
  // The pool's workers persist: over many calls, a k-participant job is
  // only ever joined by the same k - 1 helpers, even when the pool has
  // grown larger for an earlier call.
  const int k = 4;
  ParallelFor(2 * k, 64, [](size_t) {});
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::set<std::thread::id> helpers;
  for (int call = 0; call < 200; ++call) {
    std::vector<int> out(50, -1);
    ParallelFor(k, out.size(), [&](size_t i) {
      // Slow enough that every eligible worker wakes and joins.
      std::this_thread::sleep_for(std::chrono::microseconds(10));
      out[i] = static_cast<int>(i) + call;
      if (std::this_thread::get_id() != caller) {
        std::lock_guard<std::mutex> lock(mu);
        helpers.insert(std::this_thread::get_id());
      }
    });
    for (size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i) + call);
    }
  }
  EXPECT_LE(helpers.size(), static_cast<size_t>(k - 1));
}

TEST(ParallelForTest, NestedCallsComplete) {
  // A body that itself calls ParallelFor (campaign ensembles of
  // protocol sessions do) must neither deadlock nor change a byte.
  auto run = [](int threads) {
    std::vector<uint64_t> out(24 * 37);
    ParallelFor(threads, 24, [&](size_t row) {
      ParallelFor(threads, 37, [&](size_t col) {
        Rng rng = Rng::ForIndex(row, col);
        out[row * 37 + col] = rng.NextUint64();
      });
    });
    return out;
  };
  const std::vector<uint64_t> serial = run(1);
  for (int threads : {2, 4, 0}) EXPECT_EQ(run(threads), serial) << threads;
}

TEST(ParallelForTest, ConcurrentCallersGetTheirOwnResults) {
  // Four threads share the one pool at once; each gets its ordered
  // result.
  std::vector<std::vector<size_t>> results(4);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < results.size(); ++c) {
    callers.emplace_back([&results, c] {
      for (int round = 0; round < 20; ++round) {
        std::vector<size_t>& out = results[c];
        out.assign(500, 0);
        ParallelFor(4, out.size(), [&out, c](size_t i) { out[i] = i * 7 + c; });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t c = 0; c < results.size(); ++c) {
    ASSERT_EQ(results[c].size(), 500u);
    for (size_t i = 0; i < 500; ++i) EXPECT_EQ(results[c][i], i * 7 + c);
  }
}

TEST(RngForIndexTest, PureFunctionOfSeedAndIndex) {
  Rng a = Rng::ForIndex(42, 7);
  Rng b = Rng::ForIndex(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngForIndexTest, AdjacentIndicesDecorrelated) {
  Rng a = Rng::ForIndex(42, 0);
  Rng b = Rng::ForIndex(42, 1);
  Rng c = Rng::ForIndex(43, 0);
  int equal_ab = 0, equal_ac = 0;
  for (int i = 0; i < 64; ++i) {
    uint64_t x = a.NextUint64();
    equal_ab += x == b.NextUint64();
    equal_ac += x == c.NextUint64();
  }
  EXPECT_EQ(equal_ab, 0);
  EXPECT_EQ(equal_ac, 0);
}

TEST(RngForIndexTest, StreamsIndependentOfConsumptionOrder) {
  // Drawing from stream 5 must not perturb stream 6 — unlike a shared
  // generator, which is the whole point for parallel loops.
  Rng five = Rng::ForIndex(9, 5);
  for (int i = 0; i < 100; ++i) five.NextUint64();
  Rng six_after = Rng::ForIndex(9, 6);
  Rng six_fresh = Rng::ForIndex(9, 6);
  EXPECT_EQ(six_after.NextUint64(), six_fresh.NextUint64());
}

}  // namespace
}  // namespace hsis::common
