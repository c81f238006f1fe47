// exchange_mix: four clients, each owning one audited
// `core::HonestSharingSession` (default 256-bit group, f = 0.5, P > 0)
// with six parties of log-uniform size in [32, 1024]. Each operation
// first issues 8 new legal tuples to a random party, then runs a
// pairwise `RunExchange` (25% withhold, 25% fabricate) or, one time in
// eight, a 3-4 party `RunMultiPartyExchange`. Closed loop: each client
// runs a fixed list of operations back to back.
//
// Outputs are checked after the timed loop against a model of every
// party's true data rebuilt from the issuance schedule.

#include <cmath>
#include <cstdio>
#include <optional>
#include <thread>

#include "audit/auditing_device.h"
#include "audit/tuple_generator.h"
#include "bench.h"
#include "core/honest_sharing_session.h"
#include "crypto/commutative_cipher.h"
#include "crypto/parallel_modexp.h"
#include "crypto/sha256.h"
#include "sovereign/channel.h"
#include "sovereign/intersection_protocol.h"
#include "sovereign/multiparty.h"
#include "sovereign/stream_frame.h"

namespace perfbench {

namespace {

using hsis::Bytes;
using hsis::Rng;
using hsis::U256;
using hsis::sovereign::Dataset;
using hsis::sovereign::Tuple;

constexpr int kClients = 4;
constexpr int kParties = 6;
constexpr double kFrequency = 0.5;
constexpr double kPenalty = 100;
constexpr size_t kMinParty = 32;
constexpr size_t kMaxParty = 1024;
constexpr size_t kUniverse = 4096;   // tuple values parties draw from
constexpr size_t kIssuePerOp = 8;
constexpr size_t kWithhold = 4;
constexpr size_t kFabricate = 4;
constexpr int kSetupRepeats = 8;
constexpr double kOpsPerClientPerSecond = 12;

enum class OpKind { kHonest, kWithhold, kFabricate, kRing };

struct Op {
  int issue_party = 0;
  std::vector<std::string> issue;
  OpKind kind = OpKind::kHonest;
  std::vector<int> parties;           // 2 for pairwise, 3-4 for a ring
  std::vector<std::string> fabricate; // kFabricate probes
};

/// One client's seeded inputs: initial party data and its op list.
struct ClientPlan {
  std::vector<std::vector<std::string>> initial;  // per party
  std::vector<Op> ops;
};

/// What the timed loop keeps for the post-loop gates.
struct OpRecord {
  bool ok = false;
  double ms = 0;
  Bytes digest;  // of every party's intersection, in party order
  std::vector<hsis::core::ExchangeStats> stats;  // intersections dropped
};

std::string PartyName(int p) { return "party" + std::to_string(p); }

std::string UniverseValue(size_t k) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "rec-%05zu", k);
  return buf;
}

std::vector<ClientPlan> MakePlans(uint64_t seed, int ops_per_client) {
  Rng rng(seed);
  // Log-uniform sizes, quantized: party k of every client has the size at
  // the log-space midpoint of the k-th sixth of [32, 1024] (42 ... 759),
  // so every client and every seed sees the same size spectrum; the seed
  // deals the sizes to parties and draws the values and operations.
  const double span = std::log(static_cast<double>(kMaxParty) / kMinParty);
  std::vector<std::vector<size_t>> sizes(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int k = 0; k < kParties; ++k) {
      const double u = (k + 0.5) / kParties;
      sizes[c].push_back(static_cast<size_t>(
          std::lround(static_cast<double>(kMinParty) * std::exp(u * span))));
    }
    rng.Shuffle(sizes[c]);
  }

  std::vector<ClientPlan> plans(kClients);
  for (int c = 0; c < kClients; ++c) {
    ClientPlan& plan = plans[c];
    for (int p = 0; p < kParties; ++p) {
      std::vector<std::string> values;
      for (size_t i = 0; i < sizes[c][p]; ++i) {
        values.push_back(UniverseValue(rng.UniformUint64(kUniverse)));
      }
      plan.initial.push_back(std::move(values));
    }
    // Issuance targets, party pairs and cheat kinds are dealt from
    // shuffled decks (every party, every pair, and 1 withhold + 1
    // fabricate + 2 honest per deck), so each seed runs the same mix in
    // its own order.
    std::vector<int> issue_deck, kind_deck;
    std::vector<std::pair<int, int>> pair_deck;
    auto deal = [&rng](auto& deck, const auto& full) {
      if (deck.empty()) {
        deck = full;
        rng.Shuffle(deck);
      }
      auto top = deck.back();
      deck.pop_back();
      return top;
    };
    std::vector<int> all_parties(kParties);
    for (int p = 0; p < kParties; ++p) all_parties[p] = p;
    std::vector<std::pair<int, int>> all_pairs;
    for (int a = 0; a < kParties; ++a) {
      for (int b = a + 1; b < kParties; ++b) all_pairs.emplace_back(a, b);
    }
    const std::vector<int> all_kinds = {
        static_cast<int>(OpKind::kWithhold), static_cast<int>(OpKind::kFabricate),
        static_cast<int>(OpKind::kHonest), static_cast<int>(OpKind::kHonest)};
    for (int i = 0; i < ops_per_client; ++i) {
      Op op;
      op.issue_party = deal(issue_deck, all_parties);
      for (size_t k = 0; k < kIssuePerOp; ++k) {
        op.issue.push_back(UniverseValue(rng.UniformUint64(kUniverse)));
      }
      if (i % 8 == 7) {
        op.kind = OpKind::kRing;  // alternately 3 and 4 parties
        std::vector<int> order = all_parties;
        rng.Shuffle(order);
        op.parties.assign(order.begin(), order.begin() + 3 + (i / 8) % 2);
      } else {
        op.kind = static_cast<OpKind>(deal(kind_deck, all_kinds));
        auto [a, b] = deal(pair_deck, all_pairs);
        // The first party is the one that may cheat; pick it at random.
        if (rng.UniformUint64(2) == 0) std::swap(a, b);
        op.parties = {a, b};
        if (op.kind == OpKind::kFabricate) {
          for (size_t k = 0; k < kFabricate; ++k) {
            op.fabricate.push_back(
                UniverseValue(rng.UniformUint64(kUniverse)));
          }
        }
      }
      plan.ops.push_back(std::move(op));
    }
  }
  return plans;
}

hsis::Result<hsis::core::HonestSharingSession> MakeSession(
    const ClientPlan& plan, uint64_t seed) {
  hsis::core::SessionConfig config;
  config.audit_frequency = kFrequency;
  config.penalty = kPenalty;
  config.seed = seed;
  HSIS_ASSIGN_OR_RETURN(auto session,
                        hsis::core::HonestSharingSession::Create(config));
  for (int p = 0; p < kParties; ++p) {
    HSIS_RETURN_IF_ERROR(session.AddParty(PartyName(p)));
    HSIS_RETURN_IF_ERROR(session.IssueTuples(PartyName(p), plan.initial[p]));
  }
  return session;
}

Bytes DigestOf(const std::vector<const Dataset*>& sets) {
  hsis::crypto::Sha256 h;
  for (const Dataset* d : sets) {
    Bytes count;
    hsis::AppendUint32BE(count, static_cast<uint32_t>(d->size()));
    h.Update(count);
    for (const Tuple& t : d->tuples()) {
      Bytes len;
      hsis::AppendUint32BE(len, static_cast<uint32_t>(t.value.size()));
      h.Update(len);
      h.Update(t.value);
    }
  }
  return h.Finish();
}

/// Runs one client's closed loop. Timings exclude nothing but the
/// digest of the results, which the gates need.
void RunClient(const ClientPlan& plan, hsis::core::HonestSharingSession& session,
               Tracer& tracer, int client, std::vector<OpRecord>& records) {
  records.resize(plan.ops.size());
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    OpRecord& rec = records[i];
    const uint64_t op_id = (static_cast<uint64_t>(client) << 32) | i;
    hsis::Status issued = [&] {
      auto span = tracer.Busy("audit.issue", op_id);
      return session.IssueTuples(PartyName(op.issue_party), op.issue);
    }();
    if (!issued.ok()) continue;
    std::vector<const Dataset*> sets;
    const int64_t t0 = NowNs();
    if (op.kind == OpKind::kRing) {
      std::vector<std::string> names;
      for (int p : op.parties) names.push_back(PartyName(p));
      auto result = [&] {
        auto span = tracer.Busy("core.ring_exchange", op_id);
        return session.RunMultiPartyExchange(names);
      }();
      rec.ms = MsSince(t0);
      if (!result.ok()) continue;
      for (const auto& s : result->parties) sets.push_back(&s.intersection);
      rec.digest = DigestOf(sets);
      rec.stats = std::move(result->parties);
    } else {
      hsis::core::CheatPlan cheat;
      if (op.kind == OpKind::kWithhold) cheat.withhold = kWithhold;
      if (op.kind == OpKind::kFabricate) cheat.fabricate = op.fabricate;
      auto result = [&] {
        auto span = tracer.Busy("core.exchange", op_id);
        return session.RunExchange(PartyName(op.parties[0]),
                                   PartyName(op.parties[1]), cheat);
      }();
      rec.ms = MsSince(t0);
      if (!result.ok()) continue;
      sets = {&result->a.intersection, &result->b.intersection};
      rec.digest = DigestOf(sets);
      rec.stats = {std::move(result->a), std::move(result->b)};
    }
    for (auto& s : rec.stats) s.intersection = Dataset();
    rec.ok = true;
  }
}

/// Counters of the replay's layer boundaries.
struct ReplayCounts {
  double modexps = 0;
  double commitment_adds = 0;
  double keygens = 0;
  double sends = 0;
  double bytes = 0;
};

/// Replays the whole-set `RunTwoPartyIntersection` that `RunExchange`
/// runs, stage by stage, through the library's public functions.
hsis::Status ReplayLegacyIntersection(
    Tracer& tracer, const Dataset& da, const Dataset& db,
    const hsis::crypto::PrimeGroup& group,
    const hsis::crypto::MultisetHashFamily& family, Rng& rng,
    ReplayCounts& counts, Dataset* out_a) {
  using namespace hsis::sovereign;
  struct Party {
    const Dataset* data;
    ChannelEndpoint channel;
    hsis::crypto::CommutativeCipher cipher;
    std::vector<U256> self_encrypted;
    std::vector<U256> peer_dd;
    Dataset intersection;
  };
  Bytes key = rng.RandomBytes(32);
  std::optional<std::pair<ChannelEndpoint, ChannelEndpoint>> channel;
  {
    auto span = tracer.Busy("sovereign.channel_create");
    auto created = SecureChannel::CreatePair(key, rng);
    HSIS_RETURN_IF_ERROR(created.status());
    channel.emplace(std::move(*created));
  }
  std::optional<hsis::crypto::CommutativeCipher> ca, cb;
  {
    auto span = tracer.Busy("crypto.keygen");
    auto a = hsis::crypto::CommutativeCipher::Create(group, rng);
    HSIS_RETURN_IF_ERROR(a.status());
    auto b = hsis::crypto::CommutativeCipher::Create(group, rng);
    HSIS_RETURN_IF_ERROR(b.status());
    ca.emplace(std::move(*a));
    cb.emplace(std::move(*b));
    counts.keygens += 2;
  }
  Party a{&da, std::move(channel->first), std::move(*ca), {}, {}, {}};
  Party b{&db, std::move(channel->second), std::move(*cb), {}, {}, {}};
  Party* parties[2] = {&a, &b};
  auto send = [&](Party& p, const Bytes& wire) {
    auto span = tracer.Busy("sovereign.channel_send");
    counts.sends += 1;
    return p.channel.Send(wire);
  };
  auto receive = [&](Party& p) {
    auto span = tracer.Busy("sovereign.channel_receive");
    return p.channel.Receive();
  };
  auto parse = [&](uint8_t kind, const Bytes& msg) -> hsis::Result<std::vector<U256>> {
    auto span = tracer.Busy("sovereign.frame_parse");
    ElementStreamReader reader(kind);
    HSIS_RETURN_IF_ERROR(reader.Consume(msg));
    if (!reader.complete()) {
      return hsis::Status::ProtocolViolation("replay: malformed list");
    }
    return reader.TakeElements();
  };
  auto encode = [&](uint8_t kind, const std::vector<U256>& v) {
    auto span = tracer.Busy("sovereign.frame_encode");
    return SerializeFirstFrame(kind, static_cast<uint32_t>(v.size()), v);
  };

  for (Party* p : parties) {
    Bytes commitment;
    {
      auto span = tracer.Busy("crypto.commitment");
      auto hash = family.NewHash();
      for (const Tuple& t : p->data->tuples()) hash->Add(t.value);
      commitment = hash->Serialize();
      counts.commitment_adds += static_cast<double>(p->data->size());
    }
    Bytes msg;
    msg.push_back(kMsgCommitment);
    hsis::Append(msg, commitment);
    HSIS_RETURN_IF_ERROR(send(*p, msg));
  }
  for (Party* p : parties) HSIS_RETURN_IF_ERROR(receive(*p).status());

  for (Party* p : parties) {
    std::vector<U256> hashed;
    {
      auto span = tracer.Busy("crypto.hash_to_group");
      for (const Tuple& t : p->data->tuples()) {
        hashed.push_back(group.HashToElement(t.value));
      }
    }
    p->self_encrypted.resize(hashed.size());
    {
      auto span = tracer.Busy("crypto.modexp");
      hsis::crypto::EncryptBatch(p->cipher, hashed, p->self_encrypted, 1);
      counts.modexps += static_cast<double>(hashed.size());
    }
    std::vector<U256> shuffled = p->self_encrypted;
    {
      auto span = tracer.Busy("common.shuffle");
      rng.Shuffle(shuffled);
    }
    HSIS_RETURN_IF_ERROR(send(*p, encode(kMsgEncryptedSet, shuffled)));
  }

  for (Party* p : parties) {
    HSIS_ASSIGN_OR_RETURN(Bytes msg, receive(*p));
    HSIS_ASSIGN_OR_RETURN(std::vector<U256> peer, parse(kMsgEncryptedSet, msg));
    p->peer_dd.resize(peer.size());
    {
      auto span = tracer.Busy("crypto.modexp");
      hsis::crypto::EncryptBatch(p->cipher, peer, p->peer_dd, 1);
      counts.modexps += static_cast<double>(peer.size());
    }
    std::vector<U256> reply;
    reply.reserve(peer.size() * 2);
    for (size_t i = 0; i < peer.size(); ++i) {
      reply.push_back(peer[i]);
      reply.push_back(p->peer_dd[i]);
    }
    HSIS_RETURN_IF_ERROR(send(*p, encode(kMsgDoubleEncryptedPairs, reply)));
  }

  for (Party* p : parties) {
    HSIS_ASSIGN_OR_RETURN(Bytes msg, receive(*p));
    HSIS_ASSIGN_OR_RETURN(std::vector<U256> pairs,
                          parse(kMsgDoubleEncryptedPairs, msg));
    std::map<U256, size_t> peer_counts;
    for (const U256& v : p->peer_dd) peer_counts[v]++;
    std::map<U256, U256> mapping;
    for (size_t i = 0; i + 1 < pairs.size(); i += 2) {
      mapping[pairs[i]] = pairs[i + 1];
    }
    const std::vector<Tuple>& tuples = p->data->tuples();
    for (size_t i = 0; i < tuples.size(); ++i) {
      auto m = mapping.find(p->self_encrypted[i]);
      if (m == mapping.end()) {
        return hsis::Status::ProtocolViolation("replay: reply omits a value");
      }
      auto it = peer_counts.find(m->second);
      if (it != peer_counts.end() && it->second > 0) {
        --it->second;
        p->intersection.Add(tuples[i]);
      }
    }
  }
  counts.bytes += static_cast<double>(a.channel.bytes_sent() +
                                      b.channel.bytes_sent());
  *out_a = std::move(a.intersection);
  return hsis::Status::OK();
}

}  // namespace

WorkloadResult RunExchangeMix(const RunOptions& options, Tracer& tracer) {
  WorkloadResult r;
  const int ops_per_client = std::max(
      8, static_cast<int>(std::lround(kOpsPerClientPerSecond * options.seconds)));
  const std::vector<ClientPlan> plans = MakePlans(options.seed, ops_per_client);
  (void)hsis::crypto::PrimeGroup::Default();

  // Set-up: sessions, parties and their initial issuance, repeated.
  std::vector<double> setup_s;
  std::vector<std::optional<hsis::core::HonestSharingSession>> sessions;
  {
    CpuRotation rotation;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      rotation.Pin(rep);
      std::vector<std::optional<hsis::core::HonestSharingSession>> built(
          kClients);
      const int64_t t0 = NowNs();
      for (int c = 0; c < kClients; ++c) {
        auto session = MakeSession(plans[c], options.seed * 16 + c);
        if (!session.ok()) {
          r.Gate(false, "session set-up: " + session.status().ToString());
          return r;
        }
        built[c].emplace(std::move(*session));
      }
      setup_s.push_back(MsSince(t0) / 1e3);
      sessions = std::move(built);
    }
  }
  r.setup_s = QuietSetupSeconds(setup_s);

  // Warm-up: one untimed exchange per client session, on a party pair
  // the plan's first operation uses.
  for (int c = 0; c < kClients; ++c) {
    const Op& first = plans[c].ops.front();
    auto warm = sessions[c]->RunExchange(PartyName(first.parties[0]),
                                         PartyName(first.parties[1]));
    r.Gate(warm.ok(), "warm-up exchange");
  }

  std::vector<std::vector<OpRecord>> records(kClients);
  std::vector<double> client_ms(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const int64_t t0 = NowNs();
        RunClient(plans[c], *sessions[c], tracer, c, records[c]);
        client_ms[c] = MsSince(t0);
      });
    }
    for (std::thread& t : clients) t.join();
  }

  // Gates: rebuild each party's true data from the issuance schedule.
  std::vector<double> pair_ms, ring_ms;
  double audited_cheaters = 0, detected_cheaters = 0, audits = 0;
  for (int c = 0; c < kClients; ++c) {
    const ClientPlan& plan = plans[c];
    std::vector<Dataset> truth;
    for (int p = 0; p < kParties; ++p) {
      truth.push_back(Dataset::FromStrings(plan.initial[p]));
    }
    for (size_t i = 0; i < plan.ops.size(); ++i) {
      const Op& op = plan.ops[i];
      const OpRecord& rec = records[c][i];
      ++r.attempted;
      for (const std::string& v : op.issue) {
        truth[op.issue_party].Add(Tuple::FromString(v));
      }
      if (!rec.ok) {
        ++r.failed;
        continue;
      }
      (op.kind == OpKind::kRing ? ring_ms : pair_ms).push_back(rec.ms);
      std::vector<bool> cheater(op.parties.size(), false);
      if (op.kind == OpKind::kWithhold || op.kind == OpKind::kFabricate) {
        cheater[0] = true;
      }
      for (size_t k = 0; k < rec.stats.size(); ++k) {
        const auto& s = rec.stats[k];
        if (s.audited) audits += 1;
        if (cheater[k] && s.audited) {
          audited_cheaters += 1;
          if (s.detected) detected_cheaters += 1;
          r.Gate(s.detected && s.penalty_paid == kPenalty,
                 "audited cheater detected and fined");
        }
        if (!cheater[k]) {
          r.Gate(!s.detected && s.penalty_paid == 0, "honest party not fined");
        }
      }
      if (op.kind == OpKind::kHonest || op.kind == OpKind::kRing) {
        Dataset expected = truth[op.parties[0]];
        for (size_t k = 1; k < op.parties.size(); ++k) {
          expected = expected.Intersect(truth[op.parties[k]]);
        }
        std::vector<Dataset> views;
        for (int p : op.parties) views.push_back(truth[p].Intersect(expected));
        std::vector<const Dataset*> sets;
        for (const Dataset& v : views) sets.push_back(&v);
        r.Gate(rec.digest == DigestOf(sets),
               "honest intersection equals the true data's intersection");
      }
    }
    for (int p = 0; p < kParties; ++p) {
      auto data = sessions[c]->TrueData(PartyName(p));
      r.Gate(data.ok() && *data == truth[p],
             "session true data equals the issuance model");
    }
  }

  // Each client is a closed loop; the offered load is their sum.
  double rate = 0;
  for (int c = 0; c < kClients; ++c) {
    size_t ok = 0;
    for (const OpRecord& rec : records[c]) ok += rec.ok ? 1 : 0;
    rate += static_cast<double>(ok) / (client_ms[c] / 1e3);
  }
  r.throughput = {"exchanges_per_s", rate, "1/s",
                  static_cast<size_t>(r.attempted - r.failed),
                  "sum over the 4 closed-loop clients of ops / client wall"};
  r.p50 = MedianTiming("exchange_p50_ms", pair_ms, "ms");
  r.tail = TailTiming("exchange_p95_ms", pair_ms, 95, "ms");
  r.secondary = MedianTiming("ring_exchange_p50_ms", ring_ms, "ms");
  r.extra.push_back({"audited_cheaters", audited_cheaters, "count",
                     static_cast<size_t>(audited_cheaters),
                     "all detected and fined"});

  if (!tracer.enabled()) return r;

  // Replay one exchange uncontended, after the loop: the first honest
  // pairwise operation of client 0, on its parties' final data.
  const ClientPlan& plan = plans[0];
  const Op* pick = nullptr;
  const Op* ring = nullptr;
  for (const Op& op : plan.ops) {
    if (pick == nullptr && op.kind == OpKind::kHonest) pick = &op;
    if (ring == nullptr && op.kind == OpKind::kRing) ring = &op;
  }
  hsis::core::HonestSharingSession& session = *sessions[0];
  const std::string name_a = PartyName(pick->parties[0]);
  const std::string name_b = PartyName(pick->parties[1]);
  int64_t t0 = NowNs();
  auto real = session.RunExchange(name_a, name_b);
  const double exchange_ms = MsSince(t0);
  r.Gate(real.ok(), "replay reference exchange");

  // The replay's inputs, built before any timing: the parties' final
  // data, an auditing device fed the same issuance, and the commitments
  // the parties report to it.
  const hsis::crypto::PrimeGroup& group = hsis::crypto::PrimeGroup::Default();
  auto family = hsis::crypto::MultisetHashFamily::CreateMu(group).value();
  const Dataset da = session.TrueData(name_a).value();
  const Dataset db = session.TrueData(name_b).value();
  auto device =
      hsis::audit::AuditingDevice::Create(kFrequency, kPenalty).value();
  std::vector<std::pair<std::string, Bytes>> commitments;
  for (const auto& [name, data] :
       {std::pair{name_a, &da}, std::pair{name_b, &db}}) {
    auto generator = hsis::audit::TupleGenerator::Create(name, family, &device);
    r.Gate(generator.ok(), "replay tuple generator");
    if (!generator.ok()) return r;
    for (const Tuple& t : data->tuples()) (void)generator->Issue(t.value);
    auto hash = family.NewHash();
    for (const Tuple& t : data->tuples()) hash->Add(t.value);
    commitments.emplace_back(name, hash->Serialize());
  }

  // The replayed stages: the whole-set intersection RunExchange runs,
  // then its two audits.
  const Dataset expected = da.Intersect(db);
  ReplayCounts counts;
  const ReplayTimes times = TimeReplay(tracer, r, [&](Tracer& t) -> hsis::Status {
    counts = ReplayCounts();
    Rng rng(options.seed);
    Dataset replay_a;
    HSIS_RETURN_IF_ERROR(ReplayLegacyIntersection(t, da, db, group, family,
                                                  rng, counts, &replay_a));
    if (!(replay_a == expected)) {
      return hsis::Status::Internal("replayed intersection differs");
    }
    for (const auto& commitment : commitments) {
      auto audited = [&] {
        auto span = t.Busy("audit.audit");
        return device.Audit(commitment.first, commitment.second);
      }();
      HSIS_RETURN_IF_ERROR(audited.status());
      if (audited->cheating_detected) {
        return hsis::Status::Internal("replayed audit flags honest data");
      }
    }
    return hsis::Status::OK();
  });

  {
    auto span = tracer.Busy("sovereign.legacy_session");
    Rng legacy_rng(options.seed + 1);
    auto legacy = hsis::sovereign::RunTwoPartyIntersection(da, db, group,
                                                           family, legacy_rng);
    r.Gate(legacy.ok(), "legacy intersection");
  }
  if (ring != nullptr) {
    std::vector<Dataset> reported;
    for (int p : ring->parties) {
      reported.push_back(session.TrueData(PartyName(p)).value());
    }
    auto span = tracer.Busy("sovereign.ring");
    Rng ring_rng(options.seed + 2);
    auto outcome = hsis::sovereign::RunMultiPartyIntersection(
        reported, group, family, ring_rng);
    r.Gate(outcome.ok(), "ring intersection");
  }

  const auto by_name = tracer.TotalsByName();
  double replayed_parts = 0;
  for (const char* stage :
       {"sovereign.channel_create", "crypto.keygen", "crypto.commitment",
        "crypto.hash_to_group", "crypto.modexp", "common.shuffle",
        "sovereign.frame_encode", "sovereign.channel_send",
        "sovereign.channel_receive", "sovereign.frame_parse", "audit.audit"}) {
    auto it = by_name.find(stage);
    const double ms = it == by_name.end() ? 0 : it->second.busy_ms;
    replayed_parts += ms;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %10.3f ms  %6.2f%%", stage, ms,
                  100.0 * ms / exchange_ms);
    r.notes.push_back(line);
  }
  r.notes.insert(r.notes.begin(),
                 "replayed stages of one exchange (" + name_a + " x " + name_b +
                     "), as shares of its untraced RunExchange wall " +
                     std::to_string(exchange_ms) + " ms:");
  char line[200];
  std::snprintf(line, sizeof(line),
                "  core.exchange.self_ms %.3f ms (%.2f%%); replay %.3f ms "
                "untraced, %.3f ms traced: tracing overhead %.3f ms",
                exchange_ms - replayed_parts,
                100.0 * (exchange_ms - replayed_parts) / exchange_ms,
                times.untraced_ms, times.traced_ms,
                times.traced_ms - times.untraced_ms);
  r.notes.push_back(line);

  r.layer = {
      {"crypto.modexp.calls", counts.modexps},
      {"crypto.commitment.adds", counts.commitment_adds},
      {"crypto.keygen.calls", counts.keygens},
      {"sovereign.channel.sends", counts.sends},
      {"sovereign.channel.bytes", counts.bytes},
      {"audit.issue.calls",
       static_cast<double>(kIssuePerOp) * kClients * ops_per_client},
      {"audit.audit.calls", audits},
      {"audit.detection_ratio",
       audited_cheaters > 0 ? detected_cheaters / audited_cheaters : 1.0},
      {"core.exchange.self_ms", exchange_ms - replayed_parts},
      {"trace.replay_share", replayed_parts / exchange_ms},
      {"trace.overhead_ms", times.traced_ms - times.untraced_ms},
  };
  return r;
}

}  // namespace perfbench
