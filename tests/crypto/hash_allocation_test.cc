// The commitment path's allocation guard: hashing a tuple to the group
// and folding an element into any multiset hash touch the heap zero
// times, and a kMu commitment at threads = 1 allocates per tile, never
// per tuple. Enforced with a global operator-new counter, so this suite
// is its own binary.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/group.h"
#include "crypto/hmac_sha256.h"
#include "crypto/multiset_hash.h"
#include "crypto/sha256.h"
#include "sovereign/dataset.h"
#include "sovereign/session_core.h"

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

namespace hsis {
namespace {

/// Heap allocations made by `fn()`.
template <typename Fn>
size_t AllocationsOf(const Fn& fn) {
  const size_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

std::vector<sovereign::Tuple> MakeTuples(size_t n) {
  std::vector<sovereign::Tuple> tuples;
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(sovereign::Tuple::FromString("cust-" + std::to_string(i)));
  }
  return tuples;
}

TEST(HashAllocationTest, HashToElementAllocatesNothing) {
  const Bytes tuple = ToBytes("cust-0123456789abcdef");
  const crypto::PrimeGroup* groups[] = {&crypto::PrimeGroup::Default(),
                                        &crypto::PrimeGroup::SmallTestGroup()};
  for (const crypto::PrimeGroup* group : groups) {
    U256 sink;
    EXPECT_EQ(AllocationsOf([&] {
                for (int i = 0; i < 64; ++i) sink = group->HashToElement(tuple);
              }),
              0u);
    EXPECT_FALSE(sink.IsZero());
  }
  crypto::Sha256::Digest digest;
  EXPECT_EQ(AllocationsOf([&] { crypto::Sha256::Hash(tuple, digest); }), 0u);
}

TEST(HashAllocationTest, HashToElementsAllocatesNothing) {
  const std::vector<sovereign::Tuple> tuples = MakeTuples(257);
  std::vector<U256> out(tuples.size());
  const crypto::PrimeGroup& group = crypto::PrimeGroup::Default();
  EXPECT_EQ(AllocationsOf([&] {
              group.HashToElements(
                  [&](size_t i) -> const Bytes& { return tuples[i].value; },
                  out);
            }),
            0u);
}

// Every scheme's per-element fold: the keyed schemes copy their keyed
// HMAC stream, the unkeyed ones digest into the stack.
TEST(HashAllocationTest, MultisetHashAddAllocatesNothing) {
  const std::vector<sovereign::Tuple> tuples = MakeTuples(64);
  const Bytes key = ToBytes("commitment key");
  for (crypto::MultisetHashScheme scheme :
       {crypto::MultisetHashScheme::kXor, crypto::MultisetHashScheme::kAdd,
        crypto::MultisetHashScheme::kMu, crypto::MultisetHashScheme::kVAdd}) {
    const bool keyed = scheme == crypto::MultisetHashScheme::kXor ||
                       scheme == crypto::MultisetHashScheme::kAdd;
    Result<crypto::MultisetHashFamily> family =
        crypto::MultisetHashFamily::Create(scheme, keyed ? key : Bytes{});
    ASSERT_TRUE(family.ok());
    std::unique_ptr<crypto::MultisetHash> hash = family->NewHash();
    EXPECT_EQ(AllocationsOf([&] {
                for (const sovereign::Tuple& t : tuples) hash->Add(t.value);
              }),
              0u)
        << crypto::MultisetHashSchemeName(scheme);
  }
  crypto::HmacSha256Stream mac(key);
  crypto::Sha256::Digest out;
  EXPECT_EQ(AllocationsOf([&] {
              crypto::HmacSha256Stream copy = mac;
              copy.Update(tuples[0].value);
              copy.Finish(out);
            }),
            0u);
}

// A full tile and a one-tuple tile cost the same allocations, so the
// count follows the tiles alone.
TEST(HashAllocationTest, CommitmentAllocatesPerTileNotPerTuple) {
  Result<crypto::MultisetHashFamily> family =
      crypto::MultisetHashFamily::CreateMu(crypto::PrimeGroup::Default());
  ASSERT_TRUE(family.ok());
  const size_t tile = sovereign::kCommitmentTile;
  auto allocations = [&](size_t n) {
    const std::vector<sovereign::Tuple> tuples = MakeTuples(n);
    std::vector<U256> hashed(n);
    Bytes commitment;
    const size_t count = AllocationsOf([&] {
      commitment = sovereign::CommitAndHashTuples(*family, tuples, hashed, 1);
    });
    EXPECT_FALSE(commitment.empty());
    return count;
  };
  EXPECT_EQ(allocations(1), allocations(tile));
  EXPECT_EQ(allocations(tile + 1), allocations(2 * tile));
  EXPECT_EQ(allocations(3 * tile - 200), allocations(3 * tile));
  EXPECT_LT(allocations(tile), allocations(2 * tile));
}

}  // namespace
}  // namespace hsis
