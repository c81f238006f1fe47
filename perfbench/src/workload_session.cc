// session_bulk: a repeated two-party streamed intersection session on
// the production 256-bit group, 2^14 tuples per party, 50% overlap,
// library-default options except threads = 4.
//
// A traced run also replays one session stage by stage through the
// library's public functions (the session itself has no public seams)
// and reports each stage's share of the untraced session wall.

#include <cstdio>
#include <map>
#include <optional>

#include "bench.h"
#include "common/parallel.h"
#include "crypto/commutative_cipher.h"
#include "crypto/multiset_hash.h"
#include "crypto/parallel_modexp.h"
#include "sovereign/channel.h"
#include "sovereign/dataset.h"
#include "sovereign/intersection_protocol.h"
#include "sovereign/stream_frame.h"

namespace perfbench {

namespace {

using hsis::Bytes;
using hsis::Rng;
using hsis::U256;
using hsis::sovereign::Dataset;
using hsis::sovereign::Tuple;

constexpr size_t kTuplesPerParty = size_t{1} << 14;
constexpr int kThreads = 4;
constexpr int kSetupRepeats = 8;

std::string RandomValue(Rng& rng) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "cust-%016llx",
                static_cast<unsigned long long>(rng.NextUint64()));
  return buf;
}

/// Both parties' tuples: half shared, half private, seeded.
std::pair<std::vector<Tuple>, std::vector<Tuple>> MakeInputs(uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> a, b;
  for (size_t i = 0; i < kTuplesPerParty / 2; ++i) {
    Tuple shared = Tuple::FromString(RandomValue(rng));
    a.push_back(shared);
    b.push_back(shared);
  }
  for (size_t i = 0; i < kTuplesPerParty / 2; ++i) {
    a.push_back(Tuple::FromString(RandomValue(rng)));
    b.push_back(Tuple::FromString(RandomValue(rng)));
  }
  return {std::move(a), std::move(b)};
}

Bytes FamilyHash(const hsis::crypto::MultisetHashFamily& family,
                 const Dataset& data) {
  std::unique_ptr<hsis::crypto::MultisetHash> h = family.NewHash();
  for (const Tuple& t : data.tuples()) h->Add(t.value);
  return h->Serialize();
}

/// The program set-up a session deployment performs.
struct Setup {
  hsis::crypto::PrimeGroup group;
  hsis::crypto::MultisetHashFamily family;
  Dataset a;
  Dataset b;
};

Setup MakeSetup(std::vector<Tuple> a, std::vector<Tuple> b) {
  hsis::crypto::PrimeGroup group =
      hsis::crypto::PrimeGroup::Create(
          hsis::crypto::PrimeGroup::Default().modulus())
          .value();
  hsis::crypto::MultisetHashFamily family =
      hsis::crypto::MultisetHashFamily::CreateMu(group).value();
  return Setup{std::move(group), std::move(family), Dataset(std::move(a)),
               Dataset(std::move(b))};
}

/// One party of the replayed streamed session.
struct ReplayParty {
  const Dataset* data;
  hsis::sovereign::DatasetSource source;
  hsis::sovereign::ChannelEndpoint channel;
  hsis::crypto::CommutativeCipher cipher;
  std::vector<U256> self_encrypted;
  std::map<U256, size_t> peer_counts;
  Dataset intersection;
};

/// Counters of the replay's layer boundaries.
struct ReplayCounts {
  double modexps = 0;
  double commitment_adds = 0;
  double sends = 0;
  double keygens = 0;
};

hsis::Status ReplaySend(Tracer& tracer, ReplayParty& p, const Bytes& wire,
                        ReplayCounts& counts) {
  auto span = tracer.Busy("sovereign.channel_send");
  counts.sends += 1;
  return p.channel.Send(wire);
}

hsis::Result<Bytes> ReplayReceive(Tracer& tracer, ReplayParty& p) {
  auto span = tracer.Busy("sovereign.channel_receive");
  if (!p.channel.HasPending()) {
    return hsis::Status::ProtocolViolation("replay stream ended early");
  }
  return p.channel.Receive();
}

/// Replays `RunTwoPartyIntersectionStreamed` (default options, full
/// mode, `kThreads` workers) stage by stage on the same inputs and the
/// same session Rng. Returns both parties' intersections.
hsis::Status ReplayStreamedSession(Tracer& tracer, const Setup& setup,
                                   uint64_t session_seed, ReplayCounts& counts,
                                   Dataset* out_a, Dataset* out_b,
                                   size_t* bytes_a, size_t* bytes_b) {
  using namespace hsis::sovereign;
  const size_t chunk = kDefaultIntersectionChunkSize;
  Rng rng(session_seed);
  Bytes session_key = rng.RandomBytes(32);
  std::optional<std::pair<ChannelEndpoint, ChannelEndpoint>> channel;
  {
    auto span = tracer.Busy("sovereign.channel_create");
    auto created = SecureChannel::CreatePair(session_key, rng);
    HSIS_RETURN_IF_ERROR(created.status());
    channel.emplace(std::move(*created));
  }
  std::optional<hsis::crypto::CommutativeCipher> cipher_a, cipher_b;
  {
    auto span = tracer.Busy("crypto.keygen");
    auto ca = hsis::crypto::CommutativeCipher::Create(setup.group, rng);
    HSIS_RETURN_IF_ERROR(ca.status());
    auto cb = hsis::crypto::CommutativeCipher::Create(setup.group, rng);
    HSIS_RETURN_IF_ERROR(cb.status());
    cipher_a.emplace(std::move(*ca));
    cipher_b.emplace(std::move(*cb));
    counts.keygens += 2;
  }
  const uint64_t shuffle_seed = rng.NextUint64();
  ReplayParty a{&setup.a, DatasetSource(setup.a, chunk),
                std::move(channel->first), std::move(*cipher_a), {}, {}, {}};
  ReplayParty b{&setup.b, DatasetSource(setup.b, chunk),
                std::move(channel->second), std::move(*cipher_b), {}, {}, {}};
  ReplayParty* parties[2] = {&a, &b};

  // Phase 1: commitments.
  for (ReplayParty* p : parties) {
    Bytes commitment;
    {
      auto span = tracer.Busy("crypto.commitment");
      std::unique_ptr<hsis::crypto::MultisetHash> hash = setup.family.NewHash();
      for (size_t c = 0; c < p->source.chunk_count(); ++c) {
        for (const Tuple& t : p->source.Chunk(c)) hash->Add(t.value);
      }
      commitment = hash->Serialize();
      counts.commitment_adds += static_cast<double>(p->data->size());
    }
    Bytes msg;
    msg.push_back(kMsgCommitment);
    hsis::Append(msg, commitment);
    HSIS_RETURN_IF_ERROR(ReplaySend(tracer, *p, msg, counts));
  }
  for (ReplayParty* p : parties) {
    HSIS_ASSIGN_OR_RETURN(Bytes msg, ReplayReceive(tracer, *p));
    if (msg.empty() || msg[0] != kMsgCommitment) {
      return hsis::Status::ProtocolViolation("replay: expected commitment");
    }
  }

  // Phase 2: hash, encrypt, shuffle, frame and send each chunk.
  for (int side = 0; side < 2; ++side) {
    ReplayParty& p = *parties[side];
    p.self_encrypted.resize(p.source.total());
    std::vector<U256> hashed;
    for (size_t c = 0; c < p.source.chunk_count(); ++c) {
      std::span<const Tuple> tuples = p.source.Chunk(c);
      hashed.resize(tuples.size());
      {
        auto span = tracer.Busy("crypto.hash_to_group");
        const hsis::crypto::PrimeGroup& group = p.cipher.group();
        hsis::common::ParallelForTiles(
            kThreads, tuples.size(), hsis::crypto::kModexpBatchTile,
            [&](size_t lo, size_t hi) {
              for (size_t i = lo; i < hi; ++i) {
                hashed[i] = group.HashToElement(tuples[i].value);
              }
            });
      }
      std::span<U256> slots(p.self_encrypted.data() + c * chunk,
                            tuples.size());
      {
        auto span = tracer.Busy("crypto.modexp");
        hsis::crypto::EncryptBatch(p.cipher, hashed, slots, kThreads);
        counts.modexps += static_cast<double>(tuples.size());
      }
      std::vector<U256> frame(slots.begin(), slots.end());
      {
        auto span = tracer.Busy("common.shuffle");
        Rng shuffle_rng = Rng::ForIndex(
            shuffle_seed, (static_cast<uint64_t>(side) << 32) | c);
        shuffle_rng.Shuffle(frame);
      }
      Bytes wire;
      {
        auto span = tracer.Busy("sovereign.frame_encode");
        wire = c == 0 ? SerializeFirstFrame(
                            kMsgEncryptedSet,
                            static_cast<uint32_t>(p.source.total()), frame)
                      : SerializeContinuationFrame(
                            kMsgEncryptedSet, static_cast<uint32_t>(c), frame);
      }
      HSIS_RETURN_IF_ERROR(ReplaySend(tracer, p, wire, counts));
    }
  }

  // Phase 3: double-encrypt the peer's stream and reply with pairs.
  for (ReplayParty* p : parties) {
    ElementStreamReader reader(kMsgEncryptedSet);
    uint32_t frame_no = 0;
    do {
      HSIS_ASSIGN_OR_RETURN(Bytes frame, ReplayReceive(tracer, *p));
      {
        auto span = tracer.Busy("sovereign.frame_parse");
        HSIS_RETURN_IF_ERROR(reader.Consume(frame));
      }
      const size_t begin = reader.last_frame_begin();
      const size_t count = reader.elements().size() - begin;
      std::span<const U256> window(reader.elements().data() + begin, count);
      std::vector<U256> dd(count);
      {
        auto span = tracer.Busy("crypto.modexp");
        hsis::crypto::EncryptBatch(p->cipher, window, dd, kThreads);
        counts.modexps += static_cast<double>(count);
      }
      for (const U256& v : dd) p->peer_counts[v]++;
      std::vector<U256> reply;
      reply.reserve(count * 2);
      for (size_t i = 0; i < count; ++i) {
        reply.push_back(window[i]);
        reply.push_back(dd[i]);
      }
      Bytes wire;
      {
        auto span = tracer.Busy("sovereign.frame_encode");
        wire = frame_no == 0
                   ? SerializeFirstFrame(kMsgDoubleEncryptedPairs,
                                         reader.total() * 2, reply)
                   : SerializeContinuationFrame(kMsgDoubleEncryptedPairs,
                                                frame_no, reply);
      }
      HSIS_RETURN_IF_ERROR(ReplaySend(tracer, *p, wire, counts));
      ++frame_no;
    } while (!reader.complete());
  }

  // Phase 4: resolve the intersection from the peer's reply pairs.
  for (ReplayParty* p : parties) {
    ElementStreamReader reader(kMsgDoubleEncryptedPairs);
    std::map<U256, U256> mapping;
    size_t paired = 0;
    do {
      HSIS_ASSIGN_OR_RETURN(Bytes frame, ReplayReceive(tracer, *p));
      {
        auto span = tracer.Busy("sovereign.frame_parse");
        HSIS_RETURN_IF_ERROR(reader.Consume(frame));
      }
      const std::vector<U256>& flat = reader.elements();
      for (; paired + 2 <= flat.size(); paired += 2) {
        mapping[flat[paired]] = flat[paired + 1];
      }
    } while (!reader.complete());
    const std::vector<Tuple>& tuples = p->data->tuples();
    for (size_t i = 0; i < tuples.size(); ++i) {
      auto m = mapping.find(p->self_encrypted[i]);
      if (m == mapping.end()) {
        return hsis::Status::ProtocolViolation("replay: reply omits a value");
      }
      auto it = p->peer_counts.find(m->second);
      if (it != p->peer_counts.end() && it->second > 0) {
        --it->second;
        p->intersection.Add(tuples[i]);
      }
    }
  }
  *out_a = std::move(a.intersection);
  *out_b = std::move(b.intersection);
  *bytes_a = a.channel.bytes_sent();
  *bytes_b = b.channel.bytes_sent();
  return hsis::Status::OK();
}

}  // namespace

WorkloadResult RunSessionBulk(const RunOptions& options, Tracer& tracer) {
  WorkloadResult r;
  // Inputs are generated from the seed; generation is not set-up.
  auto [tuples_a, tuples_b] = MakeInputs(options.seed);
  (void)hsis::crypto::PrimeGroup::Default();

  std::vector<double> setup_s;
  std::optional<Setup> setup;
  {
    CpuRotation rotation;
    for (int i = 0; i < kSetupRepeats; ++i) {
      rotation.Pin(i);
      std::vector<Tuple> a = tuples_a, b = tuples_b;
      const int64_t t0 = NowNs();
      Setup s = MakeSetup(std::move(a), std::move(b));
      setup_s.push_back(MsSince(t0) / 1e3);
      setup.emplace(std::move(s));
    }
  }
  r.setup_s = QuietSetupSeconds(setup_s);

  // Oracles, never timed.
  const Dataset expected_ab = setup->a.Intersect(setup->b);
  const Dataset expected_ba = setup->b.Intersect(setup->a);
  const Bytes commit_a = FamilyHash(setup->family, setup->a);
  const Bytes commit_b = FamilyHash(setup->family, setup->b);

  // Every third timed session runs the intersection-size variant (the
  // paper's footnote 3) through the same streamed API; it is reported on
  // its own. The warm-up session is not timed.
  const int sessions = std::max(3, options.seconds);
  std::vector<double> full_ms, size_only_ms;
  size_t bytes_a = 0;
  for (int i = 0; i <= sessions; ++i) {
    hsis::sovereign::IntersectionOptions session_options;
    session_options.threads = kThreads;
    session_options.size_only = i % 3 == 0 && i > 0;
    Rng rng(options.seed * 1000 + i);
    const int64_t t0 = NowNs();
    auto outcome = [&] {
      auto span = tracer.Busy(i == 0 ? "sovereign.warmup_session"
                                     : "sovereign.streamed_session",
                              i);
      return hsis::sovereign::RunTwoPartyIntersectionStreamed(
          setup->a, setup->b, setup->group, setup->family, rng,
          session_options);
    }();
    const double ms = MsSince(t0);
    if (i > 0) {
      ++r.attempted;
      (session_options.size_only ? size_only_ms : full_ms).push_back(ms);
    }
    if (!outcome.ok()) {
      if (i > 0) ++r.failed;
      r.notes.push_back("session failed: " + outcome.status().ToString());
      continue;
    }
    const auto& [out_a, out_b] = *outcome;
    if (session_options.size_only) {
      r.Gate(out_a.intersection_size == expected_ab.size() &&
                 out_b.intersection_size == expected_ab.size(),
             "size-only session reports |A n B|");
    } else {
      r.Gate(out_a.intersection == expected_ab, "session A intersection");
      r.Gate(out_b.intersection == expected_ba, "session B intersection");
    }
    r.Gate(out_a.own_commitment == commit_a &&
               out_b.peer_commitment == commit_a,
           "commitment of A equals the family hash of A");
    r.Gate(out_b.own_commitment == commit_b &&
               out_a.peer_commitment == commit_b,
           "commitment of B equals the family hash of B");
    if (i == 1) bytes_a = out_a.bytes_sent;
  }

  const double tuples = 2.0 * static_cast<double>(kTuplesPerParty);
  const double median_ms = Median(full_ms);
  double total_ms = 0;
  for (double ms : full_ms) total_ms += ms;
  for (double ms : size_only_ms) total_ms += ms;
  const size_t timed = full_ms.size() + size_only_ms.size();
  r.throughput = {"session_tuples_per_s",
                  tuples * static_cast<double>(timed) / (total_ms / 1e3),
                  "1/s", timed,
                  "both parties' tuples over the summed wall of every timed "
                  "session, full and size-only"};
  r.p50 = MedianTiming("session_p50_ms", full_ms, "ms");
  r.tail = TailTiming("session_tail_ms", full_ms, 95, "ms");
  r.secondary = MedianTiming("size_only_session_p50_ms", size_only_ms, "ms");

  if (!tracer.enabled()) return r;

  // Replay one session stage by stage (session index 1's seed, so the
  // replay walks exactly the first timed session's keys and shuffles).
  const uint64_t replay_seed = options.seed * 1000 + 1;
  ReplayCounts counts;
  size_t replay_bytes_a = 0, replay_bytes_b = 0;
  const ReplayTimes times = TimeReplay(tracer, r, [&](Tracer& t) -> hsis::Status {
    counts = ReplayCounts();
    Dataset replay_a, replay_b;
    HSIS_RETURN_IF_ERROR(ReplayStreamedSession(t, *setup, replay_seed, counts,
                                               &replay_a, &replay_b,
                                               &replay_bytes_a,
                                               &replay_bytes_b));
    if (!(replay_a == expected_ab) || !(replay_b == expected_ba)) {
      return hsis::Status::Internal(
          "replayed intersection differs from the session's");
    }
    if (replay_bytes_a != bytes_a) {
      return hsis::Status::Internal(
          "replayed wire bytes differ from the session's bytes_sent");
    }
    return hsis::Status::OK();
  });

  const auto by_name = tracer.TotalsByName();
  auto busy = [&](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.busy_ms;
  };
  const char* stages[] = {
      "sovereign.channel_create", "crypto.keygen",
      "crypto.commitment",        "crypto.hash_to_group",
      "crypto.modexp",            "common.shuffle",
      "sovereign.frame_encode",   "sovereign.channel_send",
      "sovereign.channel_receive", "sovereign.frame_parse"};
  double attributed = 0;
  char line[320];
  r.notes.push_back("replayed stages of one session, as shares of the "
                    "untraced session wall (median " +
                    std::to_string(median_ms) + " ms):");
  for (const char* stage : stages) {
    attributed += busy(stage);
    std::snprintf(line, sizeof(line), "  %-28s %10.3f ms  %6.2f%%", stage,
                  busy(stage), 100.0 * busy(stage) / median_ms);
    r.notes.push_back(line);
  }
  const double unattributed = median_ms - attributed;
  std::snprintf(line, sizeof(line),
                "  %-28s %10.3f ms  %6.2f%%  (intersect maps and copies)",
                "sovereign.unattributed_ms", unattributed,
                100.0 * unattributed / median_ms);
  r.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "  replayed stages cover %.2f%% of the untraced session wall; "
                "the replay took %.3f ms untraced (it hashes and encrypts in "
                "two passes where the session fuses them) and %.3f ms traced: "
                "tracing overhead %.3f ms",
                100.0 * attributed / median_ms, times.untraced_ms,
                times.traced_ms, times.traced_ms - times.untraced_ms);
  r.notes.push_back(line);

  r.layer = {
      {"crypto.modexp.calls", counts.modexps},
      {"crypto.commitment.adds", counts.commitment_adds},
      {"crypto.keygen.calls", counts.keygens},
      {"sovereign.channel.sends", counts.sends},
      {"sovereign.channel.bytes",
       static_cast<double>(replay_bytes_a + replay_bytes_b)},
      {"sovereign.unattributed_ms", unattributed},
      {"trace.replay_share", attributed / median_ms},
      {"trace.overhead_ms", times.traced_ms - times.untraced_ms},
  };
  return r;
}

}  // namespace perfbench
