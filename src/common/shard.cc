#include "common/shard.h"

#include <climits>
#include <cstring>
#include <map>

#include "common/file.h"
#include "common/flags.h"
#include "common/parallel.h"
#include "common/wire.h"
#include "crypto/sha256.h"

namespace hsis::common {

namespace {

constexpr char kPlanMagic[] = "hsis-shard-plan v1";
constexpr char kShardMagic[] = "hsis-shard v1";
constexpr uint8_t kPayloadMagic[8] = {'H', 'S', 'I', 'S',
                                      'S', 'H', 'R', 'D'};
constexpr uint32_t kPayloadVersion = 1;

std::string Sha256Hex(const Bytes& data) {
  return HexEncode(crypto::Sha256::Hash(data));
}

/// Splits strict `key=value` manifest text (after the magic line) into
/// a map; every key may appear at most once.
Result<std::map<std::string, std::string>> ParseFields(
    std::string_view text, const char* magic, const char* what) {
  auto corrupt = [&](const std::string& why) {
    return Status::IntegrityViolation(std::string("corrupt ") + what + ": " +
                                      why);
  };
  size_t pos = 0;
  auto next_line = [&]() -> std::string_view {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol < text.size() ? eol + 1 : text.size();
    return line;
  };
  if (pos >= text.size() || next_line() != magic) {
    return corrupt("bad or missing version line");
  }
  std::map<std::string, std::string> fields;
  while (pos < text.size()) {
    std::string_view line = next_line();
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return corrupt("line without '=': " + std::string(line));
    }
    std::string key(line.substr(0, eq));
    if (!fields.emplace(key, std::string(line.substr(eq + 1))).second) {
      return corrupt("duplicate field: " + key);
    }
  }
  return fields;
}

/// Pulls one field out of `fields`, erasing it so the caller can detect
/// unknown leftovers.
Result<std::string> TakeField(std::map<std::string, std::string>& fields,
                              const char* key, const char* what) {
  auto it = fields.find(key);
  if (it == fields.end()) {
    return Status::IntegrityViolation(std::string("corrupt ") + what +
                                      ": missing field: " + key);
  }
  std::string value = std::move(it->second);
  fields.erase(it);
  return value;
}

template <typename T>
Status TakeNumber(std::map<std::string, std::string>& fields, const char* key,
                  const char* what, T* out) {
  HSIS_ASSIGN_OR_RETURN(std::string value, TakeField(fields, key, what));
  if (!ParseDecimal(value, out)) {
    return Status::IntegrityViolation(std::string("corrupt ") + what +
                                      ": bad number for " + key + ": " + value);
  }
  return Status::OK();
}

Status CheckNoLeftovers(const std::map<std::string, std::string>& fields,
                        const char* what) {
  if (fields.empty()) return Status::OK();
  return Status::IntegrityViolation(std::string("corrupt ") + what +
                                    ": unknown field: " +
                                    fields.begin()->first);
}

}  // namespace

Result<ShardPlan> ShardPlan::Create(size_t total, int shards) {
  if (shards < 1) {
    return Status::InvalidArgument("shard count must be >= 1, got " +
                                   std::to_string(shards));
  }
  return ShardPlan(total, shards);
}

ShardRange ShardPlan::Range(int shard) const {
  // 128-bit intermediates: total * shards can exceed 64 bits for huge
  // ranges, and the partition must stay exact.
  using U128 = unsigned __int128;
  U128 n = total_;
  U128 k = static_cast<U128>(shards_);
  U128 w = static_cast<U128>(shard);
  return ShardRange{static_cast<size_t>(n * w / k),
                    static_cast<size_t>(n * (w + 1) / k)};
}

Result<int> ParseShardsValue(std::string_view value) {
  HSIS_ASSIGN_OR_RETURN(int64_t shards,
                        ParseIntFlag("--shards", value, 0, INT_MAX));
  return shards == 0 ? 1 : static_cast<int>(shards);
}

Flag ShardsFlag(int* shards) {
  return ParsedFlag("--shards", shards, ParseShardsValue);
}

std::string ShardPlanPath(const std::string& dir) {
  return dir + "/plan.manifest";
}

std::string ShardManifestPath(const std::string& dir, int shard) {
  return dir + "/shard-" + std::to_string(shard) + ".manifest";
}

std::string ShardPayloadPath(const std::string& dir, int shard) {
  return dir + "/shard-" + std::to_string(shard) + ".bin";
}

std::string SerializeShardPlanInfo(const ShardPlanInfo& info) {
  std::string out(kPlanMagic);
  out += '\n';
  out += "sweep=" + info.sweep + '\n';
  out += "total=" + std::to_string(info.total) + '\n';
  out += "shards=" + std::to_string(info.shards) + '\n';
  out += "seed=" + std::to_string(info.seed) + '\n';
  return out;
}

Result<ShardPlanInfo> ParseShardPlanInfo(std::string_view text) {
  const char* what = "shard plan";
  HSIS_ASSIGN_OR_RETURN(auto fields, ParseFields(text, kPlanMagic, what));
  ShardPlanInfo info;
  HSIS_ASSIGN_OR_RETURN(info.sweep, TakeField(fields, "sweep", what));
  HSIS_RETURN_IF_ERROR(TakeNumber(fields, "total", what, &info.total));
  HSIS_RETURN_IF_ERROR(TakeNumber(fields, "shards", what, &info.shards));
  HSIS_RETURN_IF_ERROR(TakeNumber(fields, "seed", what, &info.seed));
  HSIS_RETURN_IF_ERROR(CheckNoLeftovers(fields, what));
  if (info.shards < 1) {
    return Status::IntegrityViolation("corrupt shard plan: shards must be "
                                      ">= 1");
  }
  return info;
}

std::string SerializeShardManifest(const ShardManifest& manifest) {
  std::string out(kShardMagic);
  out += '\n';
  out += "sweep=" + manifest.sweep + '\n';
  out += "shard=" + std::to_string(manifest.shard) + '\n';
  out += "shards=" + std::to_string(manifest.shards) + '\n';
  out += "total=" + std::to_string(manifest.total) + '\n';
  out += "begin=" + std::to_string(manifest.begin) + '\n';
  out += "end=" + std::to_string(manifest.end) + '\n';
  out += "seed=" + std::to_string(manifest.seed) + '\n';
  out += "records=" + std::to_string(manifest.records) + '\n';
  out += "payload_sha256=" + manifest.payload_sha256 + '\n';
  return out;
}

Result<ShardManifest> ParseShardManifest(std::string_view text) {
  const char* what = "shard manifest";
  HSIS_ASSIGN_OR_RETURN(auto fields, ParseFields(text, kShardMagic, what));
  ShardManifest m;
  HSIS_ASSIGN_OR_RETURN(m.sweep, TakeField(fields, "sweep", what));
  HSIS_RETURN_IF_ERROR(TakeNumber(fields, "shard", what, &m.shard));
  HSIS_RETURN_IF_ERROR(TakeNumber(fields, "shards", what, &m.shards));
  HSIS_RETURN_IF_ERROR(TakeNumber(fields, "total", what, &m.total));
  HSIS_RETURN_IF_ERROR(TakeNumber(fields, "begin", what, &m.begin));
  HSIS_RETURN_IF_ERROR(TakeNumber(fields, "end", what, &m.end));
  HSIS_RETURN_IF_ERROR(TakeNumber(fields, "seed", what, &m.seed));
  HSIS_RETURN_IF_ERROR(TakeNumber(fields, "records", what, &m.records));
  HSIS_ASSIGN_OR_RETURN(m.payload_sha256,
                        TakeField(fields, "payload_sha256", what));
  HSIS_RETURN_IF_ERROR(CheckNoLeftovers(fields, what));
  if (m.begin > m.end || m.end > m.total || m.records != m.end - m.begin ||
      m.shard < 0 || m.shards < 1 || m.shard >= m.shards ||
      m.payload_sha256.size() != 2 * crypto::Sha256::kDigestSize) {
    return Status::IntegrityViolation(
        "corrupt shard manifest: internally inconsistent fields");
  }
  return m;
}

Bytes SerializeShardPayload(const std::vector<Bytes>& records) {
  Bytes out(kPayloadMagic, kPayloadMagic + sizeof(kPayloadMagic));
  AppendUint32BE(out, kPayloadVersion);
  AppendUint64BE(out, static_cast<uint64_t>(records.size()));
  for (const Bytes& record : records) AppendLengthPrefixed(out, record);
  return out;
}

Result<std::vector<Bytes>> ParseShardPayload(const Bytes& payload) {
  WireReader wire(payload, StatusCode::kIntegrityViolation,
                  "corrupt shard payload");
  HSIS_ASSIGN_OR_RETURN(auto magic, wire.Raw(sizeof(kPayloadMagic)));
  if (std::memcmp(magic.data(), kPayloadMagic, sizeof(kPayloadMagic)) != 0) {
    return wire.Fail("bad magic");
  }
  HSIS_ASSIGN_OR_RETURN(uint32_t version, wire.U32());
  if (version != kPayloadVersion) return wire.Fail("unsupported version");
  HSIS_ASSIGN_OR_RETURN(uint64_t count, wire.U64());
  // Each record costs at least its 4-byte length prefix; anything
  // larger than that bound is a forged count, not a real payload.
  if (count > wire.remaining() / 4) {
    return wire.Fail("record count exceeds payload size");
  }
  std::vector<Bytes> records;
  records.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    HSIS_ASSIGN_OR_RETURN(auto record, wire.LengthPrefixed());
    records.emplace_back(record.begin(), record.end());
  }
  HSIS_RETURN_IF_ERROR(wire.Finish());
  return records;
}

Status WriteShardPlan(const ShardSweepSpec& spec, const ShardPlan& plan,
                      const std::string& dir) {
  if (spec.total != plan.total()) {
    return Status::InvalidArgument(
        "sweep has " + std::to_string(spec.total) + " indices but the plan "
        "partitions " + std::to_string(plan.total()));
  }
  ShardPlanInfo info;
  info.sweep = spec.name;
  info.total = spec.total;
  info.shards = plan.shards();
  info.seed = spec.seed;
  return WriteFile(ShardPlanPath(dir), SerializeShardPlanInfo(info));
}

Result<ShardPlanInfo> ReadShardPlan(const std::string& dir) {
  auto text = ReadFile(ShardPlanPath(dir));
  if (!text.ok()) {
    return Status::NotFound("no shard plan in " + dir +
                            " (expected plan.manifest)");
  }
  return ParseShardPlanInfo(*text);
}

ShardRunner::ShardRunner(ShardSweepSpec spec, ShardPlan plan)
    : spec_(std::move(spec)), plan_(plan) {}

Result<std::vector<Bytes>> ComputeShardRecords(const ShardSweepSpec& spec,
                                               ShardRange range,
                                               int threads) {
  std::vector<Bytes> records(range.size());
  HSIS_RETURN_IF_ERROR(ParallelForWithStatus(
      threads, range.size(), [&](size_t i) -> Status {
        HSIS_ASSIGN_OR_RETURN(records[i], spec.record(range.begin + i));
        return Status::OK();
      }));
  return records;
}

Status ShardRunner::Run(int shard, const std::string& dir, int threads,
                        ShardManifest* written) const {
  if (!spec_.record) {
    return Status::InvalidArgument("sweep spec has no record function");
  }
  if (spec_.total != plan_.total()) {
    return Status::InvalidArgument("sweep/plan index-range mismatch");
  }
  if (shard < 0 || shard >= plan_.shards()) {
    return Status::InvalidArgument(
        "shard " + std::to_string(shard) + " out of range for a " +
        std::to_string(plan_.shards()) + "-shard plan");
  }
  ShardRange range = plan_.Range(shard);
  HSIS_ASSIGN_OR_RETURN(std::vector<Bytes> records,
                        ComputeShardRecords(spec_, range, threads));

  Bytes payload = SerializeShardPayload(records);
  ShardManifest manifest;
  manifest.sweep = spec_.name;
  manifest.shard = shard;
  manifest.shards = plan_.shards();
  manifest.total = plan_.total();
  manifest.begin = range.begin;
  manifest.end = range.end;
  manifest.seed = spec_.seed;
  manifest.records = range.size();
  manifest.payload_sha256 = Sha256Hex(payload);

  // Payload first, manifest second: the manifest is the commit marker,
  // so a crash mid-write never leaves a shard that passes validation.
  HSIS_RETURN_IF_ERROR(
      WriteFile(ShardPayloadPath(dir, shard),
                std::string_view(reinterpret_cast<const char*>(payload.data()),
                                 payload.size())));
  HSIS_RETURN_IF_ERROR(WriteFile(ShardManifestPath(dir, shard),
                                 SerializeShardManifest(manifest)));
  if (written != nullptr) *written = std::move(manifest);
  return Status::OK();
}

Result<std::vector<Bytes>> ReadShardRecords(const ShardPlanInfo& info,
                                            const std::string& dir, int shard,
                                            ShardManifest* manifest) {
  HSIS_ASSIGN_OR_RETURN(ShardPlan plan,
                        ShardPlan::Create(info.total, info.shards));
  if (shard < 0 || shard >= plan.shards()) {
    return Status::InvalidArgument(
        "shard " + std::to_string(shard) + " out of range for a " +
        std::to_string(plan.shards()) + "-shard plan");
  }
  const std::string tag = "shard " + std::to_string(shard);
  auto manifest_text = ReadFile(ShardManifestPath(dir, shard));
  if (!manifest_text.ok()) {
    return Status::NotFound(tag + " has no manifest — run (or re-run) " + tag +
                            " and merge again");
  }
  HSIS_ASSIGN_OR_RETURN(ShardManifest m, ParseShardManifest(*manifest_text));
  if (m.sweep != info.sweep || m.shards != info.shards ||
      m.total != info.total || m.seed != info.seed) {
    return Status::InvalidArgument(tag + " manifest belongs to a different "
                                   "plan (sweep/shards/total/seed mismatch)");
  }
  if (m.shard != shard) {
    return Status::InvalidArgument(
        tag + " manifest claims to be shard " + std::to_string(m.shard) +
        " — duplicated or misplaced shard files");
  }
  ShardRange expected = plan.Range(shard);
  if (m.begin != expected.begin || m.end != expected.end) {
    const char* how = m.begin < expected.begin ? "overlaps the previous shard"
                                               : "leaves a gap in the range";
    return Status::InvalidArgument(
        tag + " covers [" + std::to_string(m.begin) + ", " +
        std::to_string(m.end) + ") but the plan assigns [" +
        std::to_string(expected.begin) + ", " + std::to_string(expected.end) +
        ") — " + how);
  }

  auto payload_text = ReadFile(ShardPayloadPath(dir, shard));
  if (!payload_text.ok()) {
    return Status::NotFound(tag + " has no payload file — re-run " + tag +
                            " and merge again");
  }
  Bytes payload = ToBytes(*payload_text);
  if (Sha256Hex(payload) != m.payload_sha256) {
    return Status::IntegrityViolation(tag + " payload does not match its "
                                      "manifest SHA-256 — re-run " + tag);
  }
  HSIS_ASSIGN_OR_RETURN(std::vector<Bytes> records, ParseShardPayload(payload));
  if (records.size() != m.records) {
    return Status::IntegrityViolation(
        tag + " holds " + std::to_string(records.size()) +
        " records, manifest promises " + std::to_string(m.records));
  }
  if (manifest != nullptr) *manifest = std::move(m);
  return records;
}

Result<ShardManifest> ValidateShard(const ShardPlanInfo& info,
                                    const std::string& dir, int shard) {
  ShardManifest m;
  HSIS_RETURN_IF_ERROR(ReadShardRecords(info, dir, shard, &m).status());
  return m;
}

Result<Bytes> MergeShards(const std::string& dir,
                          const std::string& expected_sweep) {
  HSIS_ASSIGN_OR_RETURN(ShardPlanInfo info, ReadShardPlan(dir));
  if (!expected_sweep.empty() && info.sweep != expected_sweep) {
    return Status::InvalidArgument("results directory holds sweep '" +
                                   info.sweep + "', expected '" +
                                   expected_sweep + "'");
  }
  HSIS_ASSIGN_OR_RETURN(ShardPlan plan,
                        ShardPlan::Create(info.total, info.shards));

  Bytes merged;
  for (int k = 0; k < plan.shards(); ++k) {
    HSIS_ASSIGN_OR_RETURN(std::vector<Bytes> records,
                          ReadShardRecords(info, dir, k));
    for (const Bytes& record : records) Append(merged, record);
  }
  return merged;
}

}  // namespace hsis::common
