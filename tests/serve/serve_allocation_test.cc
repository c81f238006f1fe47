// The serving tier's allocation guard: an `Explain` allocates at most
// two blocks on every branch of the proof (the shared text's control
// block and its bytes), and a cache hit, single or batched, allocates
// nothing. Enforced with a global operator-new counter, so this suite
// is its own binary.

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "game/kernel.h"
#include "serve/derivation.h"
#include "serve/query_service.h"

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

// GCC pairs inlined `new T` call sites against these malloc-backed
// replacements and warns about the free() inside; the pairing is
// correct by construction (new is replaced for the whole binary).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace hsis::serve {
namespace {

constexpr double kB = 10, kF = 25;

/// Heap allocations made by `fn()`.
template <typename Fn>
size_t AllocationsOf(const Fn& fn) {
  const size_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

// One request per branch of the proof: the regime (step 2 and the
// verdict) and the step-3 conclusion.
TEST(ServeAllocationTest, ExplainAllocatesAtMostTwoBlocksOnEveryBranch) {
  QueryService service = std::move(QueryService::Create({}).value());
  const struct {
    QueryRequest request;
    game::DeviceEffectiveness regime;
  } cases[] = {
      {{kB, kF, 0.3, 40, 5}, game::DeviceEffectiveness::kTransformative},
      {{kB, kF, 0.5, 5, 2}, game::DeviceEffectiveness::kEffective},
      // f = 0: never audited, an infinite penalty bound.
      {{kB, kF, 0.0, 40, 2}, game::DeviceEffectiveness::kIneffective},
      // min_penalty == 0: the frequency alone deters.
      {{kB, kF, 0.8, 0, 3}, game::DeviceEffectiveness::kTransformative},
  };
  for (const auto& c : cases) {
    ASSERT_EQ(service.Answer(c.request).value().effectiveness, c.regime);
    bool ok = false;
    EXPECT_LE(AllocationsOf([&] {
                Result<Derivation> derivation = service.Explain(c.request);
                ok = derivation.ok() && !derivation->conclusion.empty();
              }),
              2u)
        << c.request.frequency << ", " << c.request.penalty;
    EXPECT_TRUE(ok);
  }
  QueryAnswer highly_effective;
  highly_effective.effectiveness = game::DeviceEffectiveness::kHighlyEffective;
  highly_effective.min_frequency = 0.123456789;
  highly_effective.min_penalty = -std::numeric_limits<double>::infinity();
  highly_effective.zero_penalty_frequency = 0.6;
  EXPECT_LE(AllocationsOf([&] {
              Derivation derivation = BuildDerivation(
                  {kB, kF, 0.3, 40, 2}, highly_effective, 2.5e-7);
              EXPECT_FALSE(derivation.conclusion.empty());
            }),
            2u);
}

TEST(ServeAllocationTest, CacheHitsAllocateNothing) {
  QueryService service = std::move(QueryService::Create({}).value());
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 64; ++i) {
    requests.push_back({kB, kF, i / 64.0, 2.5 * i, 2 + i % 5});
  }
  const QueryRequest& request = requests[7];
  ASSERT_TRUE(service.AnswerCached(request).ok());  // the miss inserts
  bool ok = false;
  EXPECT_EQ(AllocationsOf([&] { ok = service.AnswerCached(request).ok(); }),
            0u);
  EXPECT_TRUE(ok);

  game::kernel::DeviceAnswersSoA out;
  ASSERT_TRUE(
      service.AnswerBatchCached(requests.data(), requests.size(), out).ok());
  const CacheStats warmed = service.Stats();
  EXPECT_EQ(AllocationsOf([&] {
              ok = service
                       .AnswerBatchCached(requests.data(), requests.size(), out)
                       .ok();
            }),
            0u);
  EXPECT_TRUE(ok);
  EXPECT_EQ(service.Stats().misses, warmed.misses);
  EXPECT_EQ(service.Stats().hits, warmed.hits + requests.size());
}

}  // namespace
}  // namespace hsis::serve
