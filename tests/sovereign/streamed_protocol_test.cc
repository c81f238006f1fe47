// Differential suite pinning the chunk-framed, multi-threaded
// intersection protocol (RunTwoPartyIntersection) against independent
// oracles: for every tested chunk size and thread count, the
// intersection, its size, and both commitment byte strings match the
// plaintext multiset operations and the family's one-by-one hash; the
// caller's Rng ends where a replay of the documented draw order ends;
// and bytes_sent is invariant across thread counts. A single-frame
// stream (chunk_size >= both set sizes) sends exactly one whole-list
// message per element list, so bytes_sent matches those messages sealed
// on a fresh channel; smaller chunks pay exactly the documented
// continuation framing overhead and nothing else. The fault-injection
// matrix and the sim-layer traffic campaign ride along under the same
// binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "crypto/commutative_cipher.h"
#include "sim/protocol_traffic.h"
#include "sovereign/channel.h"
#include "sovereign/intersection_protocol.h"
#include "sovereign/stream_frame.h"

namespace hsis::sovereign {
namespace {

constexpr size_t kChunkSizes[] = {1, 7, 64, 41, 42};
constexpr int kThreadCounts[] = {1, 2, 8};

crypto::MultisetHashFamily MuFamily() {
  return std::move(
      crypto::MultisetHashFamily::CreateMu(crypto::PrimeGroup::SmallTestGroup())
          .value());
}

const crypto::PrimeGroup& Group() {
  return crypto::PrimeGroup::SmallTestGroup();
}

/// The matrix datasets: |A| = 41, |B| = 40, overlap 20 — sized so the
/// tested chunk sizes cover sub-tuple (1), ragged (7), larger-than-set
/// (64), exactly-|A| (41), and |A|+1 (42) framings.
Dataset MatrixSetA() {
  std::vector<std::string> v;
  for (int i = 0; i < 20; ++i) v.push_back("common" + std::to_string(i));
  for (int i = 0; i < 21; ++i) v.push_back("a-only" + std::to_string(i));
  return Dataset::FromStrings(v);
}

Dataset MatrixSetB() {
  std::vector<std::string> v;
  for (int i = 0; i < 20; ++i) v.push_back("common" + std::to_string(i));
  for (int i = 0; i < 20; ++i) v.push_back("b-only" + std::to_string(i));
  return Dataset::FromStrings(v);
}

using Outcomes = std::pair<IntersectionOutcome, IntersectionOutcome>;

/// One session's outcomes and the caller's Rng after it.
struct Session {
  Outcomes outcomes;
  Rng rng;
};

Session RunMatrix(uint64_t seed, bool size_only, size_t chunk_size,
                  int threads) {
  Rng rng(seed);
  IntersectionOptions options;
  options.size_only = size_only;
  options.chunk_size = chunk_size;
  options.threads = threads;
  Result<Outcomes> run = RunTwoPartyIntersection(
      MatrixSetA(), MatrixSetB(), Group(), MuFamily(), rng, options);
  EXPECT_TRUE(run.ok()) << run.status().message();
  return {std::move(*run), rng};
}

Outcomes RunChunked(uint64_t seed, bool size_only, size_t chunk_size,
                    int threads) {
  return RunMatrix(seed, size_only, chunk_size, threads).outcomes;
}

Bytes FamilyHash(const Dataset& d) {
  std::unique_ptr<crypto::MultisetHash> hash = MuFamily().NewHash();
  for (const Tuple& t : d.tuples()) hash->Add(t.value);
  return hash->Serialize();
}

/// The plaintext oracle's outcome for one party.
IntersectionOutcome Oracle(const Dataset& own, const Dataset& peer,
                           bool size_only) {
  IntersectionOutcome want;
  if (!size_only) want.intersection = own.Intersect(peer);
  want.intersection_size = own.Intersect(peer).size();
  want.own_commitment = FamilyHash(own);
  want.peer_commitment = FamilyHash(peer);
  return want;
}

/// The caller's Rng after a session, replayed from the documented draw
/// order: channel key and fork, two keys, A's then B's send order, and
/// in size-only mode the reply shuffles of |B| then |A|.
Rng ReplaySessionDraws(uint64_t seed, size_t n_a, size_t n_b,
                       bool size_only) {
  Rng rng(seed);
  rng.RandomBytes(32);
  rng.Fork();
  EXPECT_TRUE(crypto::CommutativeCipher::Create(Group(), rng).ok());
  EXPECT_TRUE(crypto::CommutativeCipher::Create(Group(), rng).ok());
  auto shuffle = [&rng](size_t n) {
    std::vector<size_t> v(n);
    rng.Shuffle(v);
  };
  shuffle(n_a);
  shuffle(n_b);
  if (size_only) {
    shuffle(n_b);
    shuffle(n_a);
  }
  return rng;
}

/// Sealed bytes a party sends when every element list is one whole-list
/// message: its commitment, its set of `n_own`, and its reply about the
/// peer's `n_peer` tuples, sealed on a fresh channel.
size_t SingleFrameBytes(size_t commitment_size, size_t n_own, size_t n_peer,
                        bool size_only) {
  Rng rng(1);
  auto channel = SecureChannel::CreatePair(rng.RandomBytes(32), rng);
  EXPECT_TRUE(channel.ok());
  ChannelEndpoint& end = channel->first;
  const size_t reply = size_only ? n_peer : 2 * n_peer;
  EXPECT_TRUE(end.Send(Bytes(1 + commitment_size, kMsgCommitment)).ok());
  EXPECT_TRUE(end.Send(SerializeFirstFrame(kMsgEncryptedSet,
                                           static_cast<uint32_t>(n_own),
                                           std::vector<U256>(n_own)))
                  .ok());
  EXPECT_TRUE(end.Send(SerializeFirstFrame(
                           size_only ? kMsgDoubleEncryptedSet
                                     : kMsgDoubleEncryptedPairs,
                           static_cast<uint32_t>(reply),
                           std::vector<U256>(reply)))
                  .ok());
  return end.bytes_sent();
}

void ExpectOutcomeEqual(const IntersectionOutcome& got,
                        const IntersectionOutcome& want,
                        const std::string& label) {
  EXPECT_EQ(got.intersection, want.intersection) << label;
  EXPECT_EQ(got.intersection_size, want.intersection_size) << label;
  EXPECT_EQ(got.own_commitment, want.own_commitment) << label;
  EXPECT_EQ(got.peer_commitment, want.peer_commitment) << label;
}

void ExpectRngEqual(Rng got, Rng want, const std::string& label) {
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got.NextUint64(), want.NextUint64()) << label << " draw " << i;
  }
}

/// The matrix body shared by both modes.
void CheckDifferentialMatrix(uint64_t seed, bool size_only) {
  const Dataset a = MatrixSetA();
  const Dataset b = MatrixSetB();
  const IntersectionOutcome want_a = Oracle(a, b, size_only);
  const IntersectionOutcome want_b = Oracle(b, a, size_only);
  ASSERT_EQ(want_a.intersection_size, 20u);
  const Rng want_rng = ReplaySessionDraws(seed, a.size(), b.size(), size_only);
  const size_t commitment_size = want_a.own_commitment.size();
  for (size_t chunk : kChunkSizes) {
    // bytes_sent must not depend on the thread count; pin against the
    // single-threaded run of the same chunk size.
    const Outcomes baseline = RunChunked(seed, size_only, chunk, 1);
    if (chunk >= std::max(a.size(), b.size())) {
      EXPECT_EQ(baseline.first.bytes_sent,
                SingleFrameBytes(commitment_size, a.size(), b.size(),
                                 size_only))
          << "chunk=" << chunk;
      EXPECT_EQ(baseline.second.bytes_sent,
                SingleFrameBytes(commitment_size, b.size(), a.size(),
                                 size_only))
          << "chunk=" << chunk;
    }
    for (int threads : kThreadCounts) {
      const std::string label = "chunk=" + std::to_string(chunk) +
                                " threads=" + std::to_string(threads);
      const Session run = RunMatrix(seed, size_only, chunk, threads);
      ExpectOutcomeEqual(run.outcomes.first, want_a, "A " + label);
      ExpectOutcomeEqual(run.outcomes.second, want_b, "B " + label);
      ExpectRngEqual(run.rng, want_rng, label);
      EXPECT_EQ(run.outcomes.first.bytes_sent, baseline.first.bytes_sent)
          << label;
      EXPECT_EQ(run.outcomes.second.bytes_sent, baseline.second.bytes_sent)
          << label;
    }
  }
}

TEST(StreamedProtocolTest, DifferentialMatrixFullMode) {
  CheckDifferentialMatrix(101, /*size_only=*/false);
}

TEST(StreamedProtocolTest, DifferentialMatrixSizeOnly) {
  // The size-only reply is one whole-set shuffle drawn from the session
  // Rng, so the replayed draw order pins that no reply frame follows
  // the sender's frames.
  CheckDifferentialMatrix(202, /*size_only=*/true);
}

TEST(StreamedProtocolTest, SingleFrameStreamMatchesLegacyWireBytes) {
  // chunk_size >= both set sizes means every element list is a single
  // opening frame with the whole-list layout: the sealed byte count
  // must match those messages exactly. 41 covers |A| exactly (and > |B|).
  const size_t commitment_size = FamilyHash(MatrixSetA()).size();
  const size_t whole_a = SingleFrameBytes(commitment_size, 41, 40, false);
  const size_t whole_b = SingleFrameBytes(commitment_size, 40, 41, false);
  for (size_t chunk : {size_t{41}, size_t{42}, size_t{64}, size_t{4096}}) {
    const Outcomes streamed =
        RunChunked(303, /*size_only=*/false, chunk, /*threads=*/2);
    EXPECT_EQ(streamed.first.bytes_sent, whole_a) << "chunk=" << chunk;
    EXPECT_EQ(streamed.second.bytes_sent, whole_b) << "chunk=" << chunk;
  }
  // Multi-frame streams pay framing overhead — strictly more bytes,
  // never fewer, and strictly decreasing as frames get larger.
  const Outcomes tiny = RunChunked(303, false, 1, 1);
  const Outcomes mid = RunChunked(303, false, 7, 1);
  EXPECT_GT(tiny.first.bytes_sent, mid.first.bytes_sent);
  EXPECT_GT(mid.first.bytes_sent, whole_a);
}

TEST(StreamedProtocolTest, ContinuationOverheadIsExactlyFraming) {
  // Each continuation frame costs the 10-byte chunk header plus one AEAD
  // seal. Both are fixed, so the overhead of a chunked run over the
  // single-frame run is linear in the number of extra frames — measure
  // the per-frame cost at chunk=7 and check chunk=1 against it.
  auto frames = [](size_t n, size_t chunk) {
    return (n + chunk - 1) / chunk;
  };
  const size_t n_a = MatrixSetA().size();  // 41
  const size_t n_b = MatrixSetB().size();  // 40
  const Outcomes whole = RunChunked(404, false, 64, 1);
  const Outcomes by7 = RunChunked(404, false, 7, 1);
  const Outcomes by1 = RunChunked(404, false, 1, 1);
  // Party A ships its own set (frames(n_a)) and the reply about B's
  // stream (frames(n_b)); each beyond the first is a continuation.
  const size_t extra7 = (frames(n_a, 7) - 1) + (frames(n_b, 7) - 1);
  const size_t extra1 = (frames(n_a, 1) - 1) + (frames(n_b, 1) - 1);
  const size_t overhead7 = by7.first.bytes_sent - whole.first.bytes_sent;
  const size_t overhead1 = by1.first.bytes_sent - whole.first.bytes_sent;
  ASSERT_EQ(overhead7 % extra7, 0u);
  const size_t per_frame = overhead7 / extra7;
  EXPECT_EQ(overhead1, per_frame * extra1);
  EXPECT_GE(per_frame, 10u);  // at least the continuation header itself
}

TEST(StreamedProtocolTest, PaperSection1Example) {
  Rng rng(1);
  Dataset vr = Dataset::FromStrings({"b", "u", "v", "y"});
  Dataset vs = Dataset::FromStrings({"a", "u", "v", "x"});
  IntersectionOptions options;
  options.chunk_size = 2;
  options.threads = 2;
  auto outcomes =
      RunTwoPartyIntersection(vr, vs, Group(), MuFamily(), rng, options);
  ASSERT_TRUE(outcomes.ok());
  Dataset expected = Dataset::FromStrings({"u", "v"});
  EXPECT_EQ(outcomes->first.intersection, expected);
  EXPECT_EQ(outcomes->second.intersection, expected);
}

TEST(StreamedProtocolTest, EmptyDatasets) {
  for (size_t chunk : {size_t{1}, size_t{3}}) {
    Rng rng(7);
    Dataset empty;
    Dataset b = Dataset::FromStrings({"x", "y"});
    IntersectionOptions options;
    options.chunk_size = chunk;
    auto one_sided =
        RunTwoPartyIntersection(empty, b, Group(), MuFamily(), rng, options);
    ASSERT_TRUE(one_sided.ok()) << one_sided.status().message();
    EXPECT_TRUE(one_sided->first.intersection.empty());
    EXPECT_TRUE(one_sided->second.intersection.empty());

    auto both = RunTwoPartyIntersection(empty, empty, Group(), MuFamily(),
                                        rng, options);
    ASSERT_TRUE(both.ok()) << both.status().message();
    EXPECT_EQ(both->first.intersection_size, 0u);
  }
}

TEST(StreamedProtocolTest, MultisetMultiplicity) {
  for (size_t chunk : {size_t{1}, size_t{3}}) {
    Rng rng(8);
    Dataset a = Dataset::FromStrings({"x", "x", "x", "y"});
    Dataset b = Dataset::FromStrings({"x", "x", "z"});
    IntersectionOptions options;
    options.chunk_size = chunk;
    auto outcomes =
        RunTwoPartyIntersection(a, b, Group(), MuFamily(), rng, options);
    ASSERT_TRUE(outcomes.ok());
    EXPECT_EQ(outcomes->first.intersection, Dataset::FromStrings({"x", "x"}))
        << "chunk=" << chunk;
    EXPECT_EQ(outcomes->second.intersection, Dataset::FromStrings({"x", "x"}))
        << "chunk=" << chunk;
  }
}

TEST(StreamedProtocolTest, OptionValidation) {
  IntersectionOptions zero_chunk;
  zero_chunk.chunk_size = 0;
  EXPECT_EQ(ValidateIntersectionOptions(zero_chunk).code(),
            StatusCode::kInvalidArgument);
  IntersectionOptions negative_threads;
  negative_threads.threads = -1;
  EXPECT_EQ(ValidateIntersectionOptions(negative_threads).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(ValidateIntersectionOptions(IntersectionOptions{}).ok());
  // Hardware-concurrency selection (threads == 0) is valid, per the
  // ParseThreadsValue contract.
  IntersectionOptions hw;
  hw.threads = 0;
  EXPECT_TRUE(ValidateIntersectionOptions(hw).ok());

  // The entry point rejects bad options before any traffic.
  Rng rng(9);
  Dataset a = Dataset::FromStrings({"p"});
  auto run =
      RunTwoPartyIntersection(a, a, Group(), MuFamily(), rng, zero_chunk);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  run = RunTwoPartyIntersection(a, a, Group(), MuFamily(), rng,
                                negative_threads);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

// --- Fault-injection matrix over the chunk sizes -------------------------

Dataset FaultSetA() { return Dataset::FromStrings({"a", "b", "c", "d"}); }
Dataset FaultSetB() { return Dataset::FromStrings({"c", "d", "e", "f"}); }

Result<Outcomes> RunFault(const FaultInjection& faults,
                                  size_t chunk_size) {
  Rng rng(11);
  IntersectionOptions options;
  options.chunk_size = chunk_size;
  options.fault_injection = faults;
  return RunTwoPartyIntersection(FaultSetA(), FaultSetB(), Group(),
                                 MuFamily(), rng, options);
}

TEST(StreamedFaultInjectionTest, StructuralDeviationsDetected) {
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{64}}) {
    FaultInjection omit;
    omit.omit_one_reply_pair = true;
    auto run = RunFault(omit, chunk);
    ASSERT_FALSE(run.ok()) << "omit, chunk=" << chunk;
    EXPECT_EQ(run.status().code(), StatusCode::kProtocolViolation);

    FaultInjection count;
    count.corrupt_reply_count = true;
    run = RunFault(count, chunk);
    ASSERT_FALSE(run.ok()) << "count, chunk=" << chunk;
    EXPECT_EQ(run.status().code(), StatusCode::kProtocolViolation);

    FaultInjection wrong;
    wrong.wrong_message_type = true;
    run = RunFault(wrong, chunk);
    ASSERT_FALSE(run.ok()) << "type, chunk=" << chunk;
    EXPECT_EQ(run.status().code(), StatusCode::kProtocolViolation);
  }
}

TEST(StreamedFaultInjectionTest, CovertSwapIsTheSemiHonestBoundary) {
  // Well-formed pairs with swapped double-encryptions complete the
  // protocol at every chunk size; B's own view stays honest.
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{64}}) {
    FaultInjection swap;
    swap.swap_reply_pairs = true;
    auto run = RunFault(swap, chunk);
    ASSERT_TRUE(run.ok()) << "covert deviation must not be detectable";
    EXPECT_EQ(run->second.intersection, Dataset::FromStrings({"c", "d"}));
  }
}

TEST(StreamedFaultInjectionTest, WireTamperRejectedByChannel) {
  // A bit flip on the sealed frame is the channel AEAD's job, below the
  // stream reader: IntegrityViolation, not a parse error.
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{64}}) {
    FaultInjection flip;
    flip.corrupt_reply_frame_bit = true;
    auto run = RunFault(flip, chunk);
    ASSERT_FALSE(run.ok()) << "chunk=" << chunk;
    EXPECT_EQ(run.status().code(), StatusCode::kIntegrityViolation)
        << run.status().message();
  }
}

TEST(StreamedFaultInjectionTest, WireTamperRejectedOnLegacyPathToo) {
  // Default options: each list fits one frame, the shape of the old
  // whole-set message. The channel still rejects the flipped bit.
  Rng rng(12);
  IntersectionOptions options;
  options.fault_injection.corrupt_reply_frame_bit = true;
  auto run = RunTwoPartyIntersection(FaultSetA(), FaultSetB(), Group(),
                                     MuFamily(), rng, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kIntegrityViolation);
}

// --- Heavy-traffic campaigns -------------------------------------------

TEST(ProtocolTrafficTest, CampaignStatsAreSessionThreadInvariant) {
  sim::ProtocolTrafficOptions options;
  options.sessions = 12;
  options.tuples_per_party = 24;
  options.common_tuples = 8;
  options.chunk_size = 5;
  options.seed = 99;
  options.session_threads = 1;
  auto serial = sim::RunProtocolTrafficCampaign(options, Group(), MuFamily());
  ASSERT_TRUE(serial.ok()) << serial.status().message();
  options.session_threads = 4;
  auto threaded =
      sim::RunProtocolTrafficCampaign(options, Group(), MuFamily());
  ASSERT_TRUE(threaded.ok()) << threaded.status().message();

  EXPECT_EQ(serial->sessions, 12u);
  EXPECT_EQ(serial->protocol_failures, 0u);
  // withhold and probe draw independently, so a session can be both;
  // the union of the three categories still covers every session.
  EXPECT_GE(serial->honest + serial->withheld + serial->probed,
            serial->sessions);
  EXPECT_LE(serial->honest, serial->sessions);
  EXPECT_GT(serial->tuples_processed, 0u);
  EXPECT_GT(serial->bytes_on_wire, 0u);
  EXPECT_LE(serial->audit_flags, serial->audited);

  EXPECT_EQ(serial->sessions, threaded->sessions);
  EXPECT_EQ(serial->honest, threaded->honest);
  EXPECT_EQ(serial->withheld, threaded->withheld);
  EXPECT_EQ(serial->probed, threaded->probed);
  EXPECT_EQ(serial->audited, threaded->audited);
  EXPECT_EQ(serial->audit_flags, threaded->audit_flags);
  EXPECT_EQ(serial->tuples_processed, threaded->tuples_processed);
  EXPECT_EQ(serial->intersections_total, threaded->intersections_total);
  EXPECT_EQ(serial->bytes_on_wire, threaded->bytes_on_wire);
  EXPECT_EQ(serial->protocol_failures, threaded->protocol_failures);
}

TEST(ProtocolTrafficTest, AuditsFlagEveryCheater) {
  // All-cheat, all-audit: every audited session's commitment must
  // mismatch the hash of the true dataset.
  sim::ProtocolTrafficOptions options;
  options.sessions = 6;
  options.tuples_per_party = 16;
  options.common_tuples = 4;
  options.withhold_fraction = 1.0;
  options.probe_fraction = 0.0;
  options.audit_fraction = 1.0;
  options.chunk_size = 4;
  auto stats = sim::RunProtocolTrafficCampaign(options, Group(), MuFamily());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->withheld, stats->sessions);
  EXPECT_EQ(stats->audited, stats->sessions);
  EXPECT_EQ(stats->audit_flags, stats->sessions);
  EXPECT_EQ(stats->honest, 0u);
}

TEST(ProtocolTrafficTest, HonestCampaignNeverFlags) {
  sim::ProtocolTrafficOptions options;
  options.sessions = 6;
  options.tuples_per_party = 16;
  options.common_tuples = 4;
  options.withhold_fraction = 0.0;
  options.probe_fraction = 0.0;
  options.audit_fraction = 1.0;
  options.size_only = true;
  auto stats = sim::RunProtocolTrafficCampaign(options, Group(), MuFamily());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->honest, stats->sessions);
  EXPECT_EQ(stats->audit_flags, 0u);
  // Honest sessions: every intersection is exactly the common pool.
  EXPECT_EQ(stats->intersections_total, 6u * 4u);
}

TEST(ProtocolTrafficTest, RejectsInvalidOptions) {
  // Before these checks a bad probability was clamped by Rng::Bernoulli,
  // an oversized overlap was clamped to the party size, and the frame
  // size and thread errors named IntersectionOptions.
  using Opts = sim::ProtocolTrafficOptions;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct Case {
    void (*mutate)(Opts&);
    const char* field;
  };
  const Case kCases[] = {
      {[](Opts& o) { o.common_tuples = o.tuples_per_party + 1; },
       "ProtocolTrafficOptions.common_tuples"},
      {[](Opts& o) { o.withhold_fraction = -0.1; },
       "ProtocolTrafficOptions.withhold_fraction"},
      {[](Opts& o) { o.withhold_fraction = 1.5; },
       "ProtocolTrafficOptions.withhold_fraction"},
      {[](Opts& o) { o.withhold_fraction = kNaN; },
       "ProtocolTrafficOptions.withhold_fraction"},
      {[](Opts& o) { o.probe_fraction = kNaN; },
       "ProtocolTrafficOptions.probe_fraction"},
      {[](Opts& o) { o.probe_fraction = 2.0; },
       "ProtocolTrafficOptions.probe_fraction"},
      {[](Opts& o) { o.audit_fraction = kInf; },
       "ProtocolTrafficOptions.audit_fraction"},
      {[](Opts& o) { o.audit_fraction = -1e-9; },
       "ProtocolTrafficOptions.audit_fraction"},
      {[](Opts& o) { o.chunk_size = 0; }, "ProtocolTrafficOptions.chunk_size"},
      {[](Opts& o) { o.threads = -3; }, "ProtocolTrafficOptions.threads"},
      {[](Opts& o) { o.session_threads = -2; },
       "ProtocolTrafficOptions.session_threads"},
  };
  for (const Case& c : kCases) {
    Opts options;
    options.sessions = 2;
    options.tuples_per_party = 8;
    options.common_tuples = 4;
    c.mutate(options);
    auto stats = sim::RunProtocolTrafficCampaign(options, Group(), MuFamily());
    ASSERT_FALSE(stats.ok()) << c.field;
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument) << c.field;
    EXPECT_NE(stats.status().message().find(c.field), std::string::npos)
        << stats.status().ToString();
  }

  // The boundary values stay legal.
  Opts edge;
  edge.sessions = 2;
  edge.tuples_per_party = 8;
  edge.common_tuples = 8;
  edge.withhold_fraction = 0.0;
  edge.probe_fraction = 1.0;
  edge.audit_fraction = 1.0;
  edge.threads = 0;
  edge.session_threads = 0;
  auto stats = sim::RunProtocolTrafficCampaign(edge, Group(), MuFamily());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->probed, 2u);
  EXPECT_EQ(stats->audited, 2u);
  EXPECT_EQ(stats->withheld, 0u);
}

}  // namespace
}  // namespace hsis::sovereign
