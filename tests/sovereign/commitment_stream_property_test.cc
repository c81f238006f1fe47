// Property suite for the incrementality the protocol's commitments lean
// on: feeding a dataset chunk-by-chunk into a multiset
// hash — either sequentially into one accumulator, or into per-chunk
// accumulators folded with Union — serializes to exactly the bytes of
// the whole-set hash, for every scheme, over randomized datasets with
// duplicates, empty chunks, and degenerate sizes. This is the property
// that lets RunTwoPartyIntersection commit tile by tile on the pool
// while staying bit-identical to the whole-set commitment.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/multiset_hash.h"
#include "sovereign/dataset.h"
#include "sovereign/intersection_protocol.h"
#include "sovereign/session_core.h"

namespace hsis::sovereign {
namespace {

using crypto::MultisetHashFamily;
using crypto::MultisetHashScheme;

std::vector<MultisetHashFamily> AllFamilies() {
  std::vector<MultisetHashFamily> families;
  families.push_back(std::move(
      MultisetHashFamily::CreateMu(crypto::PrimeGroup::SmallTestGroup())
          .value()));
  families.push_back(
      std::move(MultisetHashFamily::Create(MultisetHashScheme::kVAdd).value()));
  families.push_back(std::move(
      MultisetHashFamily::Create(MultisetHashScheme::kXor, ToBytes("key-x"))
          .value()));
  families.push_back(std::move(
      MultisetHashFamily::Create(MultisetHashScheme::kAdd, ToBytes("key-a"))
          .value()));
  return families;
}

/// A randomized dataset: values drawn from a small pool so duplicates
/// are common. Trial 0 is forced empty and trial 1 a single tuple.
Dataset RandomDataset(Rng& rng, int trial) {
  if (trial == 0) return Dataset();
  size_t n = trial == 1 ? 1 : rng.UniformUint64(51);
  std::vector<std::string> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(
        std::string("v").append(std::to_string(rng.UniformUint64(20))));
  }
  return Dataset::FromStrings(values);
}

Bytes WholeSetHash(const MultisetHashFamily& family, const Dataset& data) {
  std::unique_ptr<crypto::MultisetHash> hash = family.NewHash();
  for (const Tuple& t : data.tuples()) hash->Add(t.value);
  return hash->Serialize();
}

TEST(CommitmentStreamPropertyTest, ChunkedAddEqualsWholeSetHash) {
  Rng rng(31);
  const std::vector<MultisetHashFamily> families = AllFamilies();
  for (int trial = 0; trial < 110; ++trial) {
    Dataset data = RandomDataset(rng, trial);
    const size_t chunk = 1 + rng.UniformUint64(data.size() + 3);
    DatasetSource source(data, chunk);
    for (const MultisetHashFamily& family : families) {
      const Bytes whole = WholeSetHash(family, data);

      // Sequential: one accumulator fed chunk by chunk.
      std::unique_ptr<crypto::MultisetHash> sequential = family.NewHash();
      for (size_t c = 0; c < source.chunk_count(); ++c) {
        for (const Tuple& t : source.Chunk(c)) sequential->Add(t.value);
      }
      EXPECT_EQ(sequential->Serialize(), whole)
          << "trial " << trial << " chunk " << chunk;

      // Parallel shape: independent per-chunk accumulators, folded in
      // order with Union (+H) — the reduction a sharded committer uses.
      std::unique_ptr<crypto::MultisetHash> folded = family.NewHash();
      for (size_t c = 0; c < source.chunk_count(); ++c) {
        std::unique_ptr<crypto::MultisetHash> part = family.NewHash();
        for (const Tuple& t : source.Chunk(c)) part->Add(t.value);
        ASSERT_TRUE(folded->Union(*part).ok());
      }
      EXPECT_EQ(folded->Serialize(), whole)
          << "trial " << trial << " chunk " << chunk;
    }
  }
}

TEST(CommitmentStreamPropertyTest, EmptyChunksAreNoOps) {
  const std::vector<MultisetHashFamily> families = AllFamilies();
  Dataset data = Dataset::FromStrings({"a", "a", "b"});
  for (const MultisetHashFamily& family : families) {
    const Bytes whole = WholeSetHash(family, data);
    std::unique_ptr<crypto::MultisetHash> hash = family.NewHash();
    // Interleave Union with empty accumulators (an empty frame's
    // contribution) between real elements.
    for (const Tuple& t : data.tuples()) {
      std::unique_ptr<crypto::MultisetHash> empty = family.NewHash();
      ASSERT_TRUE(hash->Union(*empty).ok());
      hash->Add(t.value);
    }
    EXPECT_EQ(hash->Serialize(), whole);
  }
}

TEST(CommitmentStreamPropertyTest, ChunkCursorCoversEveryTupleOnce) {
  // The DatasetSource cursor itself: chunks partition the canonical
  // order — no tuple lost, duplicated, or reordered, for ragged and
  // oversized chunk sizes alike.
  Rng rng(32);
  for (int trial = 0; trial < 40; ++trial) {
    Dataset data = RandomDataset(rng, trial);
    const size_t chunk = 1 + rng.UniformUint64(data.size() + 3);
    DatasetSource source(data, chunk);
    EXPECT_EQ(source.total(), data.size());
    EXPECT_EQ(source.chunk_count(),
              (data.size() + chunk - 1) / chunk);
    std::vector<Tuple> seen;
    for (size_t c = 0; c < source.chunk_count(); ++c) {
      std::span<const Tuple> frame = source.Chunk(c);
      EXPECT_LE(frame.size(), chunk);
      if (c + 1 < source.chunk_count()) {
        EXPECT_EQ(frame.size(), chunk);
      }
      seen.insert(seen.end(), frame.begin(), frame.end());
    }
    EXPECT_EQ(seen, data.tuples()) << "trial " << trial;
  }
}

/// `n` tuples over about n/2 distinct values, so tiles hold duplicates
/// and a value's copies straddle tile edges.
Dataset DatasetOfSize(size_t n) {
  std::vector<std::string> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    values.push_back(
        std::string("t").append(std::to_string((i * 7919) % (n / 2 + 1))));
  }
  return Dataset::FromStrings(values);
}

constexpr size_t kPoolSizes[] = {0,
                                 1,
                                 kCommitmentTile - 1,
                                 kCommitmentTile,
                                 kCommitmentTile + 1,
                                 4099};
constexpr int kPoolThreads[] = {1, 2, 4, 7};

// The pool commitment (tile hashes united in tile order) serializes to
// the bytes of the one-by-one whole-set hash for every scheme, size and
// thread count.
TEST(CommitmentStreamPropertyTest, PoolCommitmentIsThreadInvariant) {
  const std::vector<MultisetHashFamily> families = AllFamilies();
  for (size_t n : kPoolSizes) {
    const Dataset data = DatasetOfSize(n);
    for (const MultisetHashFamily& family : families) {
      const Bytes whole = WholeSetHash(family, data);
      for (int threads : kPoolThreads) {
        EXPECT_EQ(CommitTuples(family, data.tuples(), threads), whole)
            << crypto::MultisetHashSchemeName(family.scheme()) << " |D|="
            << n << " threads=" << threads;
      }
    }
  }
}

// The same through a protocol session: both parties' commitments are
// the whole-set bytes at every thread count.
TEST(CommitmentStreamPropertyTest,
     StreamedSessionCommitmentsAreThreadInvariant) {
  const std::vector<MultisetHashFamily> families = AllFamilies();
  const Dataset a = DatasetOfSize(4099);
  const Dataset b = DatasetOfSize(kCommitmentTile + 1);
  for (const MultisetHashFamily& family : families) {
    const Bytes whole_a = WholeSetHash(family, a);
    const Bytes whole_b = WholeSetHash(family, b);
    for (int threads : kPoolThreads) {
      Rng rng(77);
      IntersectionOptions options;
      options.threads = threads;
      options.size_only = true;
      auto outcomes = RunTwoPartyIntersection(
          a, b, crypto::PrimeGroup::SmallTestGroup(), family, rng, options);
      ASSERT_TRUE(outcomes.ok()) << outcomes.status().message();
      const std::string label =
          std::string(crypto::MultisetHashSchemeName(family.scheme())) +
          " threads=" + std::to_string(threads);
      EXPECT_EQ(outcomes->first.own_commitment, whole_a) << label;
      EXPECT_EQ(outcomes->first.peer_commitment, whole_b) << label;
      EXPECT_EQ(outcomes->second.own_commitment, whole_b) << label;
    }
  }
}

}  // namespace
}  // namespace hsis::sovereign
