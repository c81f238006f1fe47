#include "sovereign/relational_ops.h"

#include <algorithm>
#include <map>

#include "common/wire.h"
#include "sovereign/channel.h"
#include "sovereign/intersection_protocol.h"

namespace hsis::sovereign {

namespace {

Result<Dataset> KeyColumn(const Relation& relation) {
  std::vector<Tuple> keys;
  keys.reserve(relation.size());
  for (const Record& r : relation) keys.push_back(Tuple::FromString(r.key));
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    return Status::InvalidArgument("join input has duplicate keys");
  }
  return Dataset(std::move(keys));
}

Bytes SerializePayloads(const std::vector<Record>& records) {
  Bytes out;
  AppendUint32BE(out, static_cast<uint32_t>(records.size()));
  for (const Record& r : records) {
    AppendLengthPrefixed(out, ToBytes(r.key));
    AppendLengthPrefixed(out, ToBytes(r.payload));
  }
  return out;
}

Result<std::map<std::string, std::string>> ParsePayloads(const Bytes& msg) {
  WireReader wire(msg, StatusCode::kProtocolViolation, "join payloads");
  HSIS_ASSIGN_OR_RETURN(uint32_t count, wire.U32());
  std::map<std::string, std::string> out;
  for (uint32_t i = 0; i < count; ++i) {
    HSIS_ASSIGN_OR_RETURN(auto key, wire.LengthPrefixed());
    HSIS_ASSIGN_OR_RETURN(auto payload, wire.LengthPrefixed());
    out[std::string(key.begin(), key.end())] =
        std::string(payload.begin(), payload.end());
  }
  HSIS_RETURN_IF_ERROR(wire.Finish());
  return out;
}

}  // namespace

Result<std::vector<JoinedRow>> RunSovereignJoin(
    const Relation& relation_a, const Relation& relation_b,
    const crypto::PrimeGroup& group,
    const crypto::MultisetHashFamily& commitment_family, Rng& rng) {
  HSIS_ASSIGN_OR_RETURN(Dataset keys_a, KeyColumn(relation_a));
  HSIS_ASSIGN_OR_RETURN(Dataset keys_b, KeyColumn(relation_b));

  HSIS_ASSIGN_OR_RETURN(
      auto outcomes,
      RunTwoPartyIntersection(keys_a, keys_b, group, commitment_family, rng));

  // Both parties now know the common keys; exchange the matching
  // payloads over a fresh secure channel.
  Bytes session_key = rng.RandomBytes(32);
  HSIS_ASSIGN_OR_RETURN(auto channel,
                        SecureChannel::CreatePair(session_key, rng));

  auto matching = [](const Relation& relation, const Dataset& common) {
    std::vector<Record> out;
    for (const Record& r : relation) {
      if (common.Contains(Tuple::FromString(r.key))) out.push_back(r);
    }
    return out;
  };
  std::vector<Record> match_a = matching(relation_a, outcomes.first.intersection);
  std::vector<Record> match_b = matching(relation_b, outcomes.second.intersection);

  HSIS_RETURN_IF_ERROR(channel.first.Send(SerializePayloads(match_a)));
  HSIS_RETURN_IF_ERROR(channel.second.Send(SerializePayloads(match_b)));
  HSIS_ASSIGN_OR_RETURN(Bytes from_b, channel.first.Receive());
  HSIS_ASSIGN_OR_RETURN(auto payloads_b, ParsePayloads(from_b));

  std::vector<JoinedRow> rows;
  for (const Record& r : match_a) {
    auto it = payloads_b.find(r.key);
    if (it == payloads_b.end()) {
      return Status::ProtocolViolation("peer omitted payload for common key");
    }
    rows.push_back({r.key, r.payload, it->second});
  }
  std::sort(rows.begin(), rows.end(),
            [](const JoinedRow& x, const JoinedRow& y) { return x.key < y.key; });
  return rows;
}

Result<Dataset> RunSovereignDifference(
    const Dataset& reported_a, const Dataset& reported_b,
    const crypto::PrimeGroup& group,
    const crypto::MultisetHashFamily& commitment_family, Rng& rng) {
  HSIS_ASSIGN_OR_RETURN(
      auto outcomes,
      RunTwoPartyIntersection(reported_a, reported_b, group,
                              commitment_family, rng));
  return reported_a.Difference(outcomes.first.intersection);
}

}  // namespace hsis::sovereign
