// Differential suite for the keyed-hash resolve of the two-party
// protocol (sovereign/session_core.h), against a model of the std::map
// rule the protocol used before it: a map from each reply pair's
// first value to its second (operator[], so a repeated first value keeps
// the last pair), and a map of remaining counts that each own tuple
// decrements on a match. Hostile replies — repeated first values,
// omitted values, mass duplicates — must resolve exactly as the model
// does, and a 4096-fold duplicate must keep its multiplicity through
// the protocol. Structured values that agree in most limbs, and the hash
// key itself, must not change an answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sovereign/intersection_protocol.h"
#include "sovereign/session_core.h"

namespace hsis::sovereign {
namespace {

/// The std::map rule, verbatim in behaviour.
Result<Dataset> MapModelResolve(const std::vector<U256>& pairs,
                                const std::vector<U256>& self_encrypted,
                                const std::vector<Tuple>& tuples,
                                const std::vector<U256>& peer_values) {
  std::map<U256, U256> mapping;
  for (size_t i = 0; i + 1 < pairs.size(); i += 2) {
    mapping[pairs[i]] = pairs[i + 1];
  }
  std::vector<U256> own_double_encrypted;
  for (const U256& v : self_encrypted) {
    auto it = mapping.find(v);
    if (it == mapping.end()) {
      return Status::ProtocolViolation(
          "peer reply omits one of our encrypted values");
    }
    own_double_encrypted.push_back(it->second);
  }
  std::map<U256, size_t> remaining;
  for (const U256& v : peer_values) remaining[v]++;
  Dataset kept;
  for (size_t i = 0; i < tuples.size(); ++i) {
    auto it = remaining.find(own_double_encrypted[i]);
    if (it != remaining.end() && it->second > 0) {
      --it->second;
      kept.Add(tuples[i]);
    }
  }
  return kept;
}

size_t MapModelCount(const std::vector<U256>& values,
                     const std::vector<U256>& peer_values) {
  std::map<U256, size_t> remaining;
  for (const U256& v : peer_values) remaining[v]++;
  size_t matches = 0;
  for (const U256& v : values) {
    auto it = remaining.find(v);
    if (it != remaining.end() && it->second > 0) {
      --it->second;
      ++matches;
    }
  }
  return matches;
}

Result<Dataset> SortedResolve(const std::vector<U256>& pairs,
                              const std::vector<U256>& self_encrypted,
                              const std::vector<Tuple>& tuples,
                              const std::vector<U256>& peer_values) {
  ElementMultiset peer(peer_values);
  return ResolvePairs(pairs, self_encrypted, tuples, peer);
}

void ExpectSameResolve(const std::vector<U256>& pairs,
                       const std::vector<U256>& self_encrypted,
                       const std::vector<Tuple>& tuples,
                       const std::vector<U256>& peer_values,
                       const std::string& label) {
  Result<Dataset> want =
      MapModelResolve(pairs, self_encrypted, tuples, peer_values);
  Result<Dataset> got = SortedResolve(pairs, self_encrypted, tuples,
                                      peer_values);
  ASSERT_EQ(got.ok(), want.ok()) << label;
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << label;
    EXPECT_EQ(got.status().message(), want.status().message()) << label;
    return;
  }
  EXPECT_EQ(*got, *want) << label;
}

/// Own tuples t0..t{n-1} in canonical order, with self-encrypted values
/// drawn from a small pool (equal tuples share one value, as under a
/// real cipher).
struct OwnSide {
  std::vector<Tuple> tuples;
  std::vector<U256> self_encrypted;
};

OwnSide MakeOwnSide(Rng& rng, size_t n, uint64_t pool) {
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) {
    names.push_back(
        std::string("t").append(std::to_string(rng.UniformUint64(pool))));
  }
  Dataset data = Dataset::FromStrings(names);
  OwnSide side;
  side.tuples = data.tuples();
  for (const Tuple& t : side.tuples) {
    // Stand-in for E_self(h(t)): injective in the tuple.
    side.self_encrypted.push_back(
        U256(1000 + std::stoull(t.ToString().substr(1)), 0, 0, 7));
  }
  return side;
}

U256 DoubleOf(const U256& v) { return U256(v.limb[0] * 3 + 1, 5, 0, 0); }

// A hostile full-mode reply: first values repeat with different second
// values, in every order relative to the honest pair. The last pair on
// the wire wins, as with std::map::operator[].
TEST(SessionCoreTest, HostileRepeatedFirstValuesLastPairWins) {
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    OwnSide own = MakeOwnSide(rng, 1 + rng.UniformUint64(40),
                              1 + rng.UniformUint64(25));
    std::vector<U256> pairs;
    for (const U256& v : own.self_encrypted) {
      pairs.push_back(v);
      pairs.push_back(DoubleOf(v));
      // Hostile extras: the same first value, a forged second value,
      // sometimes before and sometimes after the honest pair.
      if (rng.Bernoulli(0.4)) {
        const U256 forged(rng.UniformUint64(6), 5, 0, 0);
        if (rng.Bernoulli(0.5)) {
          pairs.push_back(v);
          pairs.push_back(forged);
        } else {
          pairs.insert(pairs.end() - 2, {v, forged});
        }
      }
    }
    // Shuffle whole pairs, keeping each pair intact.
    std::vector<std::pair<U256, U256>> as_pairs;
    for (size_t i = 0; i < pairs.size(); i += 2) {
      as_pairs.emplace_back(pairs[i], pairs[i + 1]);
    }
    rng.Shuffle(as_pairs);
    pairs.clear();
    for (const auto& [first, second] : as_pairs) {
      pairs.push_back(first);
      pairs.push_back(second);
    }
    std::vector<U256> peer_values;
    const size_t peer_n = rng.UniformUint64(40);
    for (size_t i = 0; i < peer_n; ++i) {
      peer_values.push_back(rng.Bernoulli(0.7)
                                ? DoubleOf(own.self_encrypted[rng.UniformUint64(
                                      own.self_encrypted.size())])
                                : U256(rng.UniformUint64(6), 5, 0, 0));
    }
    ExpectSameResolve(pairs, own.self_encrypted, own.tuples, peer_values,
                      "trial " + std::to_string(trial));
  }
}

TEST(SessionCoreTest, OmittedValueIsTheSameProtocolViolation) {
  Rng rng(7);
  OwnSide own = MakeOwnSide(rng, 30, 12);
  std::vector<U256> pairs;
  for (const U256& v : own.self_encrypted) {
    if (v == own.self_encrypted.back()) continue;  // omit one value
    pairs.push_back(v);
    pairs.push_back(DoubleOf(v));
  }
  ExpectSameResolve(pairs, own.self_encrypted, own.tuples, {}, "omitted");
  Result<Dataset> got = SortedResolve(pairs, own.self_encrypted, own.tuples,
                                      {});
  EXPECT_EQ(got.status().code(), StatusCode::kProtocolViolation);
}

// Size-only matching: each value consumes one remaining copy.
TEST(SessionCoreTest, TakeMatchesTheMapCountRule) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<U256> peer_values, values;
    const size_t np = rng.UniformUint64(60), nv = rng.UniformUint64(60);
    for (size_t i = 0; i < np; ++i) {
      peer_values.push_back(U256(rng.UniformUint64(10), 0, 0,
                                 rng.UniformUint64(2)));
    }
    for (size_t i = 0; i < nv; ++i) {
      values.push_back(U256(rng.UniformUint64(12), 0, 0, rng.UniformUint64(2)));
    }
    ElementMultiset peer(peer_values);
    size_t matches = 0;
    for (const U256& v : values) matches += peer.Take(v) ? 1 : 0;
    EXPECT_EQ(matches, MapModelCount(values, peer_values)) << trial;
  }
}

TEST(SessionCoreTest, ValueRepeated4096TimesKeepsItsMultiplicity) {
  const U256 x(12345, 6, 7, 8);
  ElementMultiset peer(std::vector<U256>(4096, x));
  for (int i = 0; i < 4096; ++i) ASSERT_TRUE(peer.Take(x)) << i;
  EXPECT_FALSE(peer.Take(x));
  EXPECT_FALSE(peer.Take(U256(1)));
}

// Through the protocol: one tuple 4096 times on one side and 3000 times
// on the other resolves to 3000 copies, as the legacy multiset semantics
// and Dataset::Intersect say — in full mode on both sides, and in
// size-only mode.
TEST(SessionCoreTest, MassDuplicateResolvesWithLegacyMultiplicity) {
  std::vector<std::string> va(4096, "dup"), vb(3000, "dup");
  va.push_back("a-only");
  vb.push_back("b-only");
  const Dataset a = Dataset::FromStrings(va);
  const Dataset b = Dataset::FromStrings(vb);
  const Dataset want = a.Intersect(b);
  ASSERT_EQ(want.Count(Tuple::FromString("dup")), 3000u);
  auto family = crypto::MultisetHashFamily::CreateMu(
      crypto::PrimeGroup::SmallTestGroup());
  ASSERT_TRUE(family.ok());
  for (bool size_only : {false, true}) {
    IntersectionOptions options;
    options.size_only = size_only;
    options.threads = 2;
    Rng rng(5);
    auto run = RunTwoPartyIntersection(
        a, b, crypto::PrimeGroup::SmallTestGroup(), *family, rng, options);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run->first.intersection_size, want.size());
    EXPECT_EQ(run->second.intersection_size, want.size());
    if (!size_only) {
      EXPECT_EQ(run->first.intersection, want);
      EXPECT_EQ(run->second.intersection, b.Intersect(a));
    }
  }
}


// ---------------------------------------------------------------------------
// The keyed hash tables at protocol scale: 2^14 own tuples whose stand-in
// encryptions (and the doubles, forgeries and strangers of the reply and
// the peer multiset) come from one structured family of values.
// ---------------------------------------------------------------------------

using ValueFamily = std::function<U256(uint64_t)>;

struct StructuredCase {
  std::vector<U256> pairs;
  std::vector<U256> self_encrypted;
  std::vector<Tuple> tuples;
  std::vector<U256> peer_values;
};

StructuredCase MakeStructuredCase(const ValueFamily& family, uint64_t seed) {
  constexpr size_t kN = size_t{1} << 14;
  constexpr uint64_t kDoubles = uint64_t{1} << 20;
  constexpr uint64_t kStrangers = uint64_t{1} << 21;
  Rng rng(seed);
  std::vector<std::string> names;
  for (size_t i = 0; i < kN; ++i) {
    names.push_back(
        std::string("t").append(std::to_string(rng.UniformUint64(kN * 2))));
  }
  StructuredCase c;
  c.tuples = Dataset::FromStrings(names).tuples();
  std::vector<uint64_t> ids;
  for (const Tuple& t : c.tuples) {
    ids.push_back(std::stoull(t.ToString().substr(1)));
    c.self_encrypted.push_back(family(ids.back()));
  }
  // One honest pair per own tuple, plus hostile repeats before or after
  // it, then whole pairs shuffled.
  std::vector<std::pair<U256, U256>> as_pairs;
  for (uint64_t id : ids) {
    as_pairs.emplace_back(family(id), family(kDoubles + id));
    if (rng.Bernoulli(0.1)) {
      as_pairs.emplace_back(family(id),
                            family(kStrangers + rng.UniformUint64(64)));
    }
  }
  rng.Shuffle(as_pairs);
  for (const auto& [first, second] : as_pairs) {
    c.pairs.push_back(first);
    c.pairs.push_back(second);
  }
  for (size_t i = 0; i < kN; ++i) {
    c.peer_values.push_back(
        rng.Bernoulli(0.7)
            ? family(kDoubles + ids[rng.UniformUint64(ids.size())])
            : family(kStrangers + rng.UniformUint64(64)));
  }
  return c;
}

std::vector<std::pair<std::string, ValueFamily>> StructuredFamilies() {
  return {
      {"equal in limbs 0-2",
       [](uint64_t k) { return U256(0x5eed, 0x5eed, 0x5eed, k); }},
      {"equal in limb 0 only",
       [](uint64_t k) { return U256(0x5eed, k, k * 3, k * 5); }},
      {"one value",
       [](uint64_t k) {
         // Own values, doubles and strangers: one value each.
         return U256(k >> 20, 0x5eed, 0x5eed, 0x5eed);
       }},
  };
}

TEST(SessionCoreTest, StructuredValuesAt2To14MatchTheMapModel) {
  for (const auto& [label, family] : StructuredFamilies()) {
    const StructuredCase c = MakeStructuredCase(family, 14);
    ExpectSameResolve(c.pairs, c.self_encrypted, c.tuples, c.peer_values,
                      label);
    Result<Dataset> want =
        MapModelResolve(c.pairs, c.self_encrypted, c.tuples, c.peer_values);
    ASSERT_TRUE(want.ok()) << label;
    ElementMultiset keyed(c.peer_values, DeriveResolveKey(U256(0x5eed)));
    Result<Dataset> got =
        ResolvePairs(c.pairs, c.self_encrypted, c.tuples, keyed);
    ASSERT_TRUE(got.ok()) << label;
    EXPECT_EQ(*got, *want) << label << ", derived key";
  }
}

// The key moves only the table layout: resolves and size-only counts
// under different keys are identical, on hostile small replies and on
// the structured families.
TEST(SessionCoreTest, HashKeyMovesOnlyTheTableLayout) {
  const std::vector<ResolveKey> keys = {
      ElementMultiset::kPublicResolveKey, DeriveResolveKey(U256(1)),
      DeriveResolveKey(U256(2)), ResolveKey{}};
  EXPECT_NE(keys[1], keys[2]);
  EXPECT_EQ(keys[1], DeriveResolveKey(U256(1)));

  std::vector<StructuredCase> cases;
  for (const auto& entry : StructuredFamilies()) {
    cases.push_back(MakeStructuredCase(entry.second, 21));
  }
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    OwnSide own = MakeOwnSide(rng, 1 + rng.UniformUint64(60),
                              1 + rng.UniformUint64(30));
    StructuredCase c;
    c.tuples = own.tuples;
    c.self_encrypted = own.self_encrypted;
    for (const U256& v : own.self_encrypted) {
      c.pairs.push_back(v);
      c.pairs.push_back(rng.Bernoulli(0.8) ? DoubleOf(v)
                                           : U256(rng.UniformUint64(6), 5, 0,
                                                  0));
      c.peer_values.push_back(DoubleOf(own.self_encrypted[rng.UniformUint64(
          own.self_encrypted.size())]));
    }
    cases.push_back(std::move(c));
  }

  for (size_t i = 0; i < cases.size(); ++i) {
    const StructuredCase& c = cases[i];
    std::vector<Result<Dataset>> resolved;
    std::vector<size_t> counts;
    for (const ResolveKey& key : keys) {
      ElementMultiset peer(c.peer_values, key);
      resolved.push_back(
          ResolvePairs(c.pairs, c.self_encrypted, c.tuples, peer));
      ElementMultiset counter(c.peer_values, key);
      size_t matches = 0;
      for (size_t p = 1; p < c.pairs.size(); p += 2) {
        matches += counter.Take(c.pairs[p]) ? 1 : 0;
      }
      counts.push_back(matches);
    }
    for (size_t k = 1; k < keys.size(); ++k) {
      ASSERT_EQ(resolved[k].ok(), resolved[0].ok()) << "case " << i;
      if (resolved[0].ok()) {
        EXPECT_EQ(*resolved[k], *resolved[0]) << "case " << i << ", key " << k;
      }
      EXPECT_EQ(counts[k], counts[0]) << "case " << i << ", key " << k;
    }
  }
}


// ---------------------------------------------------------------------------
// The partitioned resolve: at every thread count the pool resolve keeps
// exactly the tuples, and reports exactly the status and counts, of a
// serial one-table reference kept here. Own tuples are distinct, so the
// kept dataset spells out the keep flag of every tuple.
// ---------------------------------------------------------------------------

constexpr int kResolveThreads[] = {1, 2, 3, 4, 7};

/// The serial rule, one tuple at a time: pairs walked in wire order
/// (the last pair of a first value wins), then each tuple in order takes
/// a remaining copy of its double encryption.
Result<std::vector<bool>> SerialKeepFlags(
    const std::vector<U256>& pairs, const std::vector<U256>& self_encrypted,
    const std::vector<U256>& peer_values) {
  std::map<U256, U256> mapping;
  for (size_t i = 0; i + 1 < pairs.size(); i += 2) {
    mapping[pairs[i]] = pairs[i + 1];
  }
  std::map<U256, size_t> remaining;
  for (const U256& v : peer_values) remaining[v]++;
  std::vector<bool> keep;
  for (const U256& v : self_encrypted) {
    auto pair = mapping.find(v);
    if (pair == mapping.end()) {
      return Status::ProtocolViolation(
          "peer reply omits one of our encrypted values");
    }
    auto copies = remaining.find(pair->second);
    const bool take = copies != remaining.end() && copies->second > 0;
    if (take) --copies->second;
    keep.push_back(take);
  }
  return keep;
}

struct PartitionCase {
  std::vector<Tuple> tuples;  // distinct, in canonical order
  std::vector<U256> self_encrypted;
  std::vector<U256> pairs;
  std::vector<U256> peer_values;
};

/// Distinct tuples whose own values come from a pool of `own_pool`
/// values, and a reply drawn from a pool of `double_pool` doubles, so
/// many tuples compete for each double. Some first values repeat with
/// different second values; with `omit`, one own value has no pair.
PartitionCase MakePartitionCase(Rng& rng, size_t n, uint64_t own_pool,
                                uint64_t double_pool, bool omit) {
  PartitionCase c;
  std::vector<std::string> names;
  for (size_t i = 0; i < n; ++i) {
    names.push_back(std::string("t").append(std::to_string(i)));
  }
  c.tuples = Dataset::FromStrings(names).tuples();
  std::vector<U256> distinct;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t id = rng.UniformUint64(own_pool);
    c.self_encrypted.push_back(U256(id, 0x5eed, id * 3, 1));
    distinct.push_back(c.self_encrypted.back());
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  auto random_double = [&] {
    return U256(rng.UniformUint64(double_pool), 0xd0, 0, 2);
  };
  std::vector<std::pair<U256, U256>> as_pairs;
  for (size_t k = 0; k < distinct.size(); ++k) {
    if (omit && k == distinct.size() / 2) continue;
    const size_t repeats = 1 + (rng.Bernoulli(0.3) ? rng.UniformUint64(3) : 0);
    for (size_t r = 0; r < repeats; ++r) {
      as_pairs.emplace_back(distinct[k], random_double());
    }
  }
  rng.Shuffle(as_pairs);
  for (const auto& [first, second] : as_pairs) {
    c.pairs.push_back(first);
    c.pairs.push_back(second);
  }
  const size_t peer_n = rng.UniformUint64(n + 1);
  for (size_t i = 0; i < peer_n; ++i) c.peer_values.push_back(random_double());
  return c;
}

TEST(SessionCoreTest, PartitionedResolveMatchesTheSerialReference) {
  Rng rng(2024);
  int checked = 0;
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{300},
                   size_t{2500}}) {
    for (int trial = 0; trial < 6; ++trial) {
      const bool omit = n > 0 && trial % 3 == 2;
      const uint64_t own_pool = 1 + rng.UniformUint64(2 * n + 1);
      const uint64_t double_pool = 1 + rng.UniformUint64(n / 2 + 2);
      const PartitionCase c =
          MakePartitionCase(rng, n, own_pool, double_pool, omit);
      Result<std::vector<bool>> want =
          SerialKeepFlags(c.pairs, c.self_encrypted, c.peer_values);
      const std::string label =
          "n=" + std::to_string(n) + " trial " + std::to_string(trial);
      if (omit) {
        ASSERT_FALSE(want.ok()) << label;
      }
      Dataset want_kept;
      if (want.ok()) {
        std::vector<Tuple> kept;
        for (size_t i = 0; i < n; ++i) {
          if ((*want)[i]) kept.push_back(c.tuples[i]);
        }
        want_kept = Dataset(std::move(kept));
      }
      for (int threads : kResolveThreads) {
        ElementMultiset peer(c.peer_values, DeriveResolveKey(U256(99)),
                             threads);
        Result<Dataset> got = ResolvePairs(c.pairs, c.self_encrypted,
                                           c.tuples, peer, threads);
        ASSERT_EQ(got.ok(), want.ok()) << label << " threads=" << threads;
        if (!want.ok()) {
          EXPECT_EQ(got.status().code(), want.status().code()) << label;
          EXPECT_EQ(got.status().message(), want.status().message())
              << label;
          continue;
        }
        EXPECT_EQ(*got, want_kept) << label << " threads=" << threads;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 50);
}

// Size-only: TakeAll counts the copies of the serial Take loop, and
// leaves the same copies behind, at every thread count.
TEST(SessionCoreTest, PartitionedTakeAllMatchesTheSerialTakeLoop) {
  Rng rng(31);
  for (size_t n : {size_t{0}, size_t{3}, size_t{500}, size_t{3000}}) {
    std::vector<U256> peer_values, first, second;
    const uint64_t pool = 1 + n / 3;
    for (size_t i = 0; i < n; ++i) {
      peer_values.push_back(U256(rng.UniformUint64(pool), 1, 2, 3));
      first.push_back(U256(rng.UniformUint64(pool + 5), 1, 2, 3));
      second.push_back(U256(rng.UniformUint64(pool + 5), 1, 2, 3));
    }
    ElementMultiset serial(peer_values);
    size_t want_first = 0, want_second = 0;
    for (const U256& v : first) want_first += serial.Take(v) ? 1 : 0;
    for (const U256& v : second) want_second += serial.Take(v) ? 1 : 0;
    EXPECT_EQ(want_first, MapModelCount(first, peer_values));
    for (int threads : kResolveThreads) {
      ElementMultiset pooled(peer_values, DeriveResolveKey(U256(5)), threads);
      EXPECT_EQ(pooled.TakeAll(first, threads), want_first)
          << "n=" << n << " threads=" << threads;
      EXPECT_EQ(pooled.TakeAll(second, threads), want_second)
          << "n=" << n << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace hsis::sovereign
