// The session's pool stages against their one-thread definitions:
//
//  - the word codec: StoreElement/LoadElement (8-byte loads and stores)
//    against the byte-by-byte big-endian layout;
//  - the two-pass parse: every header checked in wire order
//    (ElementStreamReader::CheckFrame), then every payload decoded on
//    the pool (LoadFrameElements), gives the status and elements of
//    frame-by-frame Consume on every malformed stream of the fuzz corpus,
//    and the protocol's fault-injection runs report the same status at
//    one and four threads;
//  - the shared hash: with a kMu family over the session group each
//    tuple is hashed once, for the commitment and for phase 2; every
//    other family, and a kMu family over another group, hashes the
//    bytes. All of them commit to the one-by-one family hash.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "crypto/multiset_hash.h"
#include "sovereign/intersection_protocol.h"
#include "sovereign/session_core.h"
#include "sovereign/stream_frame.h"

namespace hsis::sovereign {
namespace {

// ---------------------------------------------------------------------------
// The word codec.
// ---------------------------------------------------------------------------

/// The wire layout, byte by byte: most significant limb first, each limb
/// most significant byte first.
void StoreBytewise(const U256& e, uint8_t* out) {
  for (size_t l = 0; l < 4; ++l) {
    for (size_t b = 0; b < 8; ++b) {
      *out++ = static_cast<uint8_t>(e.limb[3 - l] >> (56 - 8 * b));
    }
  }
}

U256 LoadBytewise(const uint8_t* in) {
  U256 out;
  for (size_t l = 0; l < 4; ++l) {
    uint64_t limb = 0;
    for (size_t b = 0; b < 8; ++b) limb = (limb << 8) | in[8 * l + b];
    out.limb[3 - l] = limb;
  }
  return out;
}

TEST(WordCodecTest, MatchesTheBytewiseLayout) {
  std::vector<U256> values = {
      U256(),
      U256(~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}, ~uint64_t{0}),
      crypto::PrimeGroup::Default().modulus() - U256(1),
      U256(0x0102030405060708, 0x1112131415161718, 0x2122232425262728,
           0x3132333435363738)};
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    values.push_back(U256(rng.NextUint64(), rng.NextUint64(),
                          rng.NextUint64(), rng.NextUint64()));
  }
  // Unaligned offsets too: frame payloads start 5 or 10 bytes in.
  for (size_t offset : {size_t{0}, size_t{5}, size_t{10}}) {
    for (const U256& v : values) {
      uint8_t word[kElementBytes + 16] = {};
      uint8_t byte[kElementBytes + 16] = {};
      StoreElement(v, word + offset);
      StoreBytewise(v, byte + offset);
      ASSERT_TRUE(std::equal(word, word + sizeof(word), byte))
          << v.ToHex() << " offset " << offset;
      EXPECT_EQ(LoadElement(byte + offset), v) << v.ToHex();
      EXPECT_EQ(LoadElement(byte + offset), LoadBytewise(byte + offset));
    }
  }
}

// ---------------------------------------------------------------------------
// The two-pass parse.
// ---------------------------------------------------------------------------

std::vector<U256> MakeElements(size_t n, uint64_t salt) {
  std::vector<U256> elements;
  for (size_t i = 0; i < n; ++i) elements.push_back(U256(salt, i, i * i, 7));
  return elements;
}

std::vector<Bytes> BuildFrames(uint8_t kind, const std::vector<U256>& elements,
                               size_t chunk) {
  std::vector<Bytes> frames;
  const size_t n = elements.size();
  const auto at = [&](size_t i) {
    return elements.begin() + static_cast<ptrdiff_t>(std::min(i, n));
  };
  frames.push_back(SerializeFirstFrame(kind, static_cast<uint32_t>(n),
                                       std::vector<U256>(at(0), at(chunk))));
  for (size_t begin = chunk, index = 1; begin < n; begin += chunk, ++index) {
    frames.push_back(SerializeContinuationFrame(
        kind, static_cast<uint32_t>(index),
        std::vector<U256>(at(begin), at(begin + chunk))));
  }
  return frames;
}

/// What a reader makes of a frame list.
struct Parsed {
  Status status;
  bool complete = false;
  std::vector<U256> elements;
};

Parsed ConsumeFrames(uint8_t kind, const std::vector<Bytes>& frames) {
  ElementStreamReader reader(kind);
  Parsed parsed;
  for (const Bytes& frame : frames) {
    parsed.status = reader.Consume(frame);
    if (!parsed.status.ok()) return parsed;
  }
  parsed.complete = reader.complete();
  parsed.elements = reader.TakeElements();
  return parsed;
}

/// The session's parse: headers in wire order, payloads on the pool.
Parsed CheckThenDecode(uint8_t kind, const std::vector<Bytes>& frames,
                       int threads) {
  ElementStreamReader reader(kind);
  Parsed parsed;
  std::vector<size_t> ends;
  for (const Bytes& frame : frames) {
    Result<size_t> count = reader.CheckFrame(frame);
    if (!count.ok()) {
      parsed.status = count.status();
      return parsed;
    }
    ends.push_back((ends.empty() ? 0 : ends.back()) + *count);
  }
  parsed.complete = reader.complete();
  parsed.elements.resize(ends.empty() ? 0 : ends.back());
  common::ParallelFor(threads, frames.size(), [&](size_t f) {
    const size_t begin = f == 0 ? 0 : ends[f - 1];
    LoadFrameElements(frames[f], std::span(parsed.elements)
                                     .subspan(begin, ends[f] - begin));
  });
  return parsed;
}

/// Every frame list of the fuzz corpus's structural mutations.
std::vector<std::vector<Bytes>> MalformedStreams() {
  std::vector<std::vector<Bytes>> out;
  const uint8_t kind = kMsgEncryptedSet;
  // Truncations of the last frame, and the last frame dropped.
  for (size_t chunk : {size_t{1}, size_t{5}, size_t{17}}) {
    const std::vector<Bytes> frames = BuildFrames(kind, MakeElements(17, 1),
                                                  chunk);
    for (size_t cut : {size_t{0}, size_t{1}, size_t{4}, size_t{9},
                       size_t{31}, size_t{33}}) {
      if (cut >= frames.back().size()) continue;
      out.push_back(frames);
      out.back().back().resize(cut);
    }
    out.emplace_back(frames.begin(), frames.end() - 1);
  }
  // Reordered, duplicated, headless and overrun chunk sequences.
  const std::vector<Bytes> five = BuildFrames(kind, MakeElements(20, 2), 4);
  out.push_back(five);
  std::swap(out.back()[2], out.back()[3]);
  out.push_back(five);
  out.back().insert(out.back().begin() + 2, five[1]);
  out.emplace_back(five.begin() + 1, five.end());
  out.push_back(five);
  out.back().push_back(five.back());
  // Wrong kinds: a whole stream, and one rogue continuation.
  out.push_back(BuildFrames(kMsgDoubleEncryptedSet, MakeElements(9, 3), 4));
  out.push_back(BuildFrames(kind, MakeElements(9, 3), 4));
  out.back()[1] = SerializeContinuationFrame(kMsgDoubleEncryptedPairs, 1,
                                             MakeElements(4, 4));
  // Patched count fields, patched totals, trailing garbage, an empty
  // continuation.
  const std::vector<Bytes> three = BuildFrames(kind, MakeElements(12, 5), 5);
  for (uint32_t wrong : {0u, 1u, 4u, 6u, 200u}) {
    out.push_back(three);
    for (int b = 0; b < 4; ++b) {
      out.back()[1][6 + b] = static_cast<uint8_t>(wrong >> (24 - 8 * b));
    }
  }
  for (uint32_t wrong : {0u, 3u, 11u, 13u, 1000u}) {
    out.push_back(three);
    for (int b = 0; b < 4; ++b) {
      out.back()[0][1 + b] = static_cast<uint8_t>(wrong >> (24 - 8 * b));
    }
  }
  out.push_back(three);
  AppendUint32BE(out.back()[0], 0xdeadbeef);
  out.push_back(three);
  out.back()[1] = SerializeContinuationFrame(kind, 1, {});
  // Random single-byte mutations.
  Rng rng(77);
  const std::vector<U256> elements = MakeElements(23, 6);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<Bytes> frames =
        BuildFrames(kind, elements, 1 + rng.UniformUint64(25));
    Bytes& frame = frames[rng.UniformUint64(frames.size())];
    frame[rng.UniformUint64(frame.size())] ^=
        static_cast<uint8_t>(1 + rng.UniformUint64(255));
    out.push_back(std::move(frames));
  }
  return out;
}

TEST(ParallelParseTest, HeadersThenPooledPayloadsMatchConsume) {
  std::vector<std::vector<Bytes>> streams = MalformedStreams();
  for (size_t n : {size_t{0}, size_t{1}, size_t{41}}) {
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{41}}) {
      streams.push_back(
          BuildFrames(kMsgEncryptedSet, MakeElements(n, 0xabc), chunk));
    }
  }
  size_t rejected = 0;
  for (size_t s = 0; s < streams.size(); ++s) {
    const Parsed want = ConsumeFrames(kMsgEncryptedSet, streams[s]);
    rejected += want.status.ok() ? 0 : 1;
    for (int threads : {1, 4}) {
      const Parsed got = CheckThenDecode(kMsgEncryptedSet, streams[s], threads);
      ASSERT_EQ(got.status.code(), want.status.code())
          << "stream " << s << " threads=" << threads;
      EXPECT_EQ(got.status.message(), want.status.message()) << "stream " << s;
      EXPECT_EQ(got.complete, want.complete) << "stream " << s;
      EXPECT_EQ(got.elements, want.elements) << "stream " << s;
    }
  }
  EXPECT_GT(rejected, 30u);
}

TEST(ParallelParseTest, CheckedFramesCountAsReceived) {
  const std::vector<Bytes> frames =
      BuildFrames(kMsgEncryptedSet, MakeElements(10, 9), 4);
  ElementStreamReader reader(kMsgEncryptedSet);
  EXPECT_FALSE(reader.complete());
  EXPECT_EQ(reader.CheckFrame(frames[0]).value(), 4u);
  EXPECT_EQ(reader.total(), 10u);
  EXPECT_EQ(reader.CheckFrame(frames[1]).value(), 4u);
  EXPECT_EQ(reader.CheckFrame(frames[2]).value(), 2u);
  EXPECT_TRUE(reader.complete());
  EXPECT_TRUE(reader.elements().empty());  // payloads left to the caller
  EXPECT_EQ(reader.CheckFrame(frames[2]).status().code(),
            StatusCode::kProtocolViolation);
  // Poisoned, as after a failed Consume.
  EXPECT_EQ(reader.CheckFrame(frames[0]).status().message(),
            "element stream already failed");
}

/// The protocol's fault-injection deviations, each framed in several
/// ways, report the same status at one and four threads.
TEST(ParallelParseTest, FaultInjectionStatusesAreThreadInvariant) {
  const crypto::PrimeGroup& group = crypto::PrimeGroup::SmallTestGroup();
  const auto family = crypto::MultisetHashFamily::CreateMu(group).value();
  std::vector<std::string> va, vb;
  for (int i = 0; i < 40; ++i) {
    va.push_back(std::string("t").append(std::to_string(i)));
    vb.push_back(std::string("t").append(std::to_string(i + 25)));
  }
  const Dataset a = Dataset::FromStrings(va), b = Dataset::FromStrings(vb);
  std::vector<FaultInjection> faults(6);
  faults[1].omit_one_reply_pair = true;
  faults[2].swap_reply_pairs = true;
  faults[3].corrupt_reply_count = true;
  faults[4].wrong_message_type = true;
  faults[5].corrupt_reply_frame_bit = true;
  for (size_t f = 0; f < faults.size(); ++f) {
    for (size_t chunk : {size_t{1}, size_t{3}, size_t{64}}) {
      std::vector<Status> statuses;
      std::vector<Dataset> results;
      for (int threads : {1, 4}) {
        IntersectionOptions options;
        options.chunk_size = chunk;
        options.threads = threads;
        options.fault_injection = faults[f];
        Rng rng(40 + f);
        auto run = RunTwoPartyIntersection(a, b, group, family, rng, options);
        statuses.push_back(run.status());
        results.push_back(run.ok() ? run->first.intersection : Dataset());
      }
      const std::string label =
          "fault " + std::to_string(f) + " chunk " + std::to_string(chunk);
      EXPECT_EQ(statuses[0].code(), statuses[1].code()) << label;
      EXPECT_EQ(statuses[0].message(), statuses[1].message()) << label;
      EXPECT_EQ(results[0], results[1]) << label;
      EXPECT_EQ(statuses[0].ok(), f == 0 || f == 2) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// The shared hash.
// ---------------------------------------------------------------------------

Bytes OneByOne(const crypto::MultisetHashFamily& family, const Dataset& d) {
  std::unique_ptr<crypto::MultisetHash> hash = family.NewHash();
  for (const Tuple& t : d.tuples()) hash->Add(t.value);
  return hash->Serialize();
}

TEST(SharedHashTest, CommitAndHashTuplesIsCommitTuplesPlusTheHashes) {
  const crypto::PrimeGroup& group = crypto::PrimeGroup::Default();
  const auto family = crypto::MultisetHashFamily::CreateMu(group).value();
  for (size_t n : {size_t{0}, size_t{1}, kCommitmentTile + 3, size_t{1100}}) {
    std::vector<std::string> values;
    for (size_t i = 0; i < n; ++i) {
      values.push_back(std::string("v").append(std::to_string(i % 97)));
    }
    const Dataset data = Dataset::FromStrings(values);
    for (int threads : {1, 4}) {
      std::vector<U256> hashed(n);
      EXPECT_EQ(CommitAndHashTuples(family, data.tuples(), hashed, threads),
                OneByOne(family, data))
          << "n=" << n << " threads=" << threads;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hashed[i], group.HashToElement(data.tuples()[i].value)) << i;
      }
    }
  }
}

// A kMu CommitTuples hashes each tile on the batch lane into a scratch
// and multiplies on the Product lane: the bytes are the one-by-one Add
// chain's at every tile remainder, on both groups, at threads 1, 2 and
// hardware concurrency.
TEST(SharedHashTest, MuCommitTuplesIsTheAddChain) {
  for (const crypto::PrimeGroup* group :
       {&crypto::PrimeGroup::Default(),
        &crypto::PrimeGroup::SmallTestGroup()}) {
    const auto family = crypto::MultisetHashFamily::CreateMu(*group).value();
    for (size_t n : {size_t{0}, size_t{1}, size_t{17}, kCommitmentTile - 1,
                     kCommitmentTile, kCommitmentTile + 1,
                     2 * kCommitmentTile + 15, size_t{1000}}) {
      std::vector<std::string> values;
      for (size_t i = 0; i < n; ++i) {
        values.push_back(std::string("m").append(std::to_string(i % 89)));
      }
      const Dataset data = Dataset::FromStrings(values);
      const Bytes chain = OneByOne(family, data);
      for (int threads : {1, 2, 0}) {
        EXPECT_EQ(CommitTuples(family, data.tuples(), threads), chain)
            << "modulus " << group->modulus().ToHex() << ", n=" << n
            << " threads=" << threads;
      }
    }
  }
}

TEST(SharedHashTest, OnlyAMuFamilyOverTheSessionGroupSharesTheHash) {
  const crypto::PrimeGroup& small = crypto::PrimeGroup::SmallTestGroup();
  const crypto::PrimeGroup& big = crypto::PrimeGroup::Default();
  const auto mu_small = crypto::MultisetHashFamily::CreateMu(small).value();
  const auto mu_big = crypto::MultisetHashFamily::CreateMu(big).value();
  EXPECT_TRUE(SharesTupleHash(mu_small, small));
  EXPECT_TRUE(SharesTupleHash(mu_big, big));
  EXPECT_FALSE(SharesTupleHash(mu_small, big));
  EXPECT_FALSE(SharesTupleHash(mu_big, small));
  for (auto scheme : {crypto::MultisetHashScheme::kVAdd,
                      crypto::MultisetHashScheme::kXor,
                      crypto::MultisetHashScheme::kAdd}) {
    const Bytes key =
        scheme == crypto::MultisetHashScheme::kVAdd ? Bytes{} : ToBytes("k");
    const auto family = crypto::MultisetHashFamily::Create(scheme, key).value();
    EXPECT_FALSE(SharesTupleHash(family, big))
        << crypto::MultisetHashSchemeName(scheme);
    EXPECT_FALSE(SharesTupleHash(family, small))
        << crypto::MultisetHashSchemeName(scheme);
  }
}

TEST(SharedHashTest, SessionCommitmentsEqualTheOneByOneHashForEveryFamily) {
  const crypto::PrimeGroup& group = crypto::PrimeGroup::SmallTestGroup();
  const crypto::PrimeGroup other = crypto::PrimeGroup::Default();
  std::vector<std::pair<std::string, crypto::MultisetHashFamily>> families;
  families.emplace_back("Mu over the session group (shared hash)",
                        crypto::MultisetHashFamily::CreateMu(group).value());
  families.emplace_back("Mu over another group",
                        crypto::MultisetHashFamily::CreateMu(other).value());
  families.emplace_back(
      "VAdd",
      crypto::MultisetHashFamily::Create(crypto::MultisetHashScheme::kVAdd)
          .value());
  families.emplace_back(
      "XOR", crypto::MultisetHashFamily::Create(crypto::MultisetHashScheme::kXor,
                                                ToBytes("key-x"))
                 .value());
  families.emplace_back(
      "Add", crypto::MultisetHashFamily::Create(crypto::MultisetHashScheme::kAdd,
                                                ToBytes("key-a"))
                 .value());
  ASSERT_NE(families[0].second.mu_group(), nullptr);
  ASSERT_NE(families[1].second.mu_group()->modulus(), group.modulus());
  for (size_t f = 2; f < families.size(); ++f) {
    ASSERT_EQ(families[f].second.mu_group(), nullptr);
  }

  std::vector<std::string> va, vb;
  for (int i = 0; i < 700; ++i) {
    va.push_back(std::string("r").append(std::to_string(i % 450)));
    vb.push_back(std::string("r").append(std::to_string(300 + i % 500)));
  }
  const Dataset a = Dataset::FromStrings(va), b = Dataset::FromStrings(vb);
  for (const auto& [name, family] : families) {
    const Bytes want_a = OneByOne(family, a), want_b = OneByOne(family, b);
    std::vector<size_t> bytes_a;
    for (int threads : {1, 4}) {
      for (bool size_only : {false, true}) {
        IntersectionOptions options;
        options.threads = threads;
        options.size_only = size_only;
        options.chunk_size = 128;
        Rng rng(17);
        auto run = RunTwoPartyIntersection(a, b, group, family, rng, options);
        ASSERT_TRUE(run.ok()) << name << ": " << run.status();
        EXPECT_EQ(run->first.own_commitment, want_a) << name;
        EXPECT_EQ(run->second.peer_commitment, want_a) << name;
        EXPECT_EQ(run->second.own_commitment, want_b) << name;
        EXPECT_EQ(run->first.peer_commitment, want_b) << name;
        EXPECT_EQ(run->first.intersection_size, a.Intersect(b).size()) << name;
        if (!size_only) {
          EXPECT_EQ(run->first.intersection, a.Intersect(b)) << name;
          EXPECT_EQ(run->second.intersection, b.Intersect(a)) << name;
        }
        bytes_a.push_back(run->first.bytes_sent);
      }
    }
    EXPECT_EQ(bytes_a[0], bytes_a[2]) << name;
    EXPECT_EQ(bytes_a[1], bytes_a[3]) << name;
  }
}

}  // namespace
}  // namespace hsis::sovereign
