#include "audit/audit_baseline.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace hsis::audit {

Bytes MerkleTupleHash(const Bytes& tuple_value) {
  return crypto::Sha256::Hash(tuple_value);
}

void MerkleAuditAccumulator::Record(const Bytes& tuple_hash) {
  auto it = std::lower_bound(leaves_.begin(), leaves_.end(), tuple_hash);
  leaves_.insert(it, tuple_hash);
}

Bytes MerkleAuditAccumulator::Commitment() const {
  return crypto::MerkleTree::Build(leaves_).root();
}

bool MerkleAuditAccumulator::Matches(const Bytes& reported_root) const {
  return ConstantTimeEqual(Commitment(), reported_root);
}

size_t MerkleAuditAccumulator::StateBytes() const {
  size_t total = 0;
  for (const Bytes& leaf : leaves_) total += leaf.size();
  return total;
}

Bytes MerkleDatasetCommitment(const sovereign::Dataset& data) {
  std::vector<Bytes> leaves;
  leaves.reserve(data.size());
  for (const sovereign::Tuple& t : data.tuples()) {
    leaves.push_back(MerkleTupleHash(t.value));
  }
  std::sort(leaves.begin(), leaves.end(), [](const Bytes& a, const Bytes& b) {
    return CompareBytes(a, b) < 0;
  });
  return crypto::MerkleTree::Build(leaves).root();
}

}  // namespace hsis::audit
