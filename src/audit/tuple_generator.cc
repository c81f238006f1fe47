#include "audit/tuple_generator.h"

#include "sovereign/session_core.h"

namespace hsis::audit {

Result<TupleGenerator> TupleGenerator::Create(
    std::string player, crypto::MultisetHashFamily family,
    AuditingDevice* device) {
  if (device == nullptr) {
    return Status::InvalidArgument("tuple generator needs an auditing device");
  }
  HSIS_RETURN_IF_ERROR(device->RegisterPlayer(player, family));
  return TupleGenerator(std::move(player), std::move(family), device);
}

Status TupleGenerator::IssueAll(std::span<const sovereign::Tuple> tuples) {
  if (tuples.empty()) return Status::OK();
  // H_i(batch): the (H_i(t), i) messages of the paper folded by +H into
  // one, carrying no information about the tuples beyond their hash.
  HSIS_RETURN_IF_ERROR(device_->RecordTupleHash(
      player_, sovereign::CommitTuples(family_, tuples, /*threads=*/1)));
  issued_ += tuples.size();
  return Status::OK();
}

Result<sovereign::Tuple> TupleGenerator::Issue(Bytes value) {
  sovereign::Tuple tuple(std::move(value));
  HSIS_RETURN_IF_ERROR(IssueAll(std::span(&tuple, 1)));
  return tuple;
}

Result<sovereign::Tuple> TupleGenerator::IssueString(std::string_view value) {
  return Issue(ToBytes(value));
}

}  // namespace hsis::audit
