#include "crypto/multiset_hash.h"

#include "common/logging.h"
#include "common/wire.h"
#include "crypto/hmac_sha256.h"
#include "crypto/sha256.h"

namespace hsis::crypto {

namespace {

constexpr size_t kNonceSize = 16;

// ---------------------------------------------------------------------------
// MSet-XOR-Hash / MSet-Add-Hash (keyed, randomized)
//
// State: (h, count, r) with
//   kXor: h = H_K(0, r) XOR XOR_{b in M} H_K(1, b)
//   kAdd: h = H_K(0, r) + SUM_{b in M} H_K(1, b)   (mod 2^256)
// where H_K(tag, x) = HMAC-SHA256(K, tag || x) read as a U256. The key
// schedule runs once per accumulator: each H_K copies the keyed stream.
// ---------------------------------------------------------------------------

class KeyedMultisetHash final : public MultisetHash {
 public:
  KeyedMultisetHash(MultisetHashScheme scheme, const Bytes& key, Bytes nonce)
      : scheme_(scheme), prf_(key), nonce_(std::move(nonce)) {
    h_ = NonceMask();
  }

  KeyedMultisetHash(MultisetHashScheme scheme, const Bytes& key, Bytes nonce,
                    U256 h, uint64_t count)
      : scheme_(scheme),
        prf_(key),
        nonce_(std::move(nonce)),
        h_(h),
        count_(count) {}

  MultisetHashScheme scheme() const override { return scheme_; }

  void Add(const Bytes& element) override {
    U256 e = ElementHash(element);
    h_ = (scheme_ == MultisetHashScheme::kXor) ? (h_ ^ e) : (h_ + e);
    ++count_;
  }

  Status Remove(const Bytes& element) override {
    U256 e = ElementHash(element);
    h_ = (scheme_ == MultisetHashScheme::kXor) ? (h_ ^ e) : (h_ - e);
    --count_;
    return Status::OK();
  }

  Status Union(const MultisetHash& other) override {
    if (other.scheme() != scheme_) {
      return Status::InvalidArgument("multiset hash scheme mismatch in Union");
    }
    const auto& rhs = static_cast<const KeyedMultisetHash&>(other);
    // Strip the other accumulator's nonce mask so that exactly one mask
    // (ours) remains — this is the +H operator for the randomized schemes.
    U256 other_core = rhs.Derandomized();
    if (scheme_ == MultisetHashScheme::kXor) {
      h_ = h_ ^ other_core;
    } else {
      h_ = h_ + other_core;
    }
    count_ += rhs.count_;
    return Status::OK();
  }

  bool Equivalent(const MultisetHash& other) const override {
    if (other.scheme() != scheme_) return false;
    const auto& rhs = static_cast<const KeyedMultisetHash&>(other);
    return count_ == rhs.count_ && Derandomized() == rhs.Derandomized();
  }

  uint64_t count() const override { return count_; }

  Bytes Serialize() const override {
    Bytes out;
    out.push_back(static_cast<uint8_t>(scheme_));
    AppendUint64BE(out, count_);
    Append(out, h_.ToBytesBE());
    AppendLengthPrefixed(out, nonce_);
    return out;
  }

  std::unique_ptr<MultisetHash> Clone() const override {
    return std::make_unique<KeyedMultisetHash>(*this);
  }

 private:
  // H_K(tag, message), equal to HmacPrf(key, tag, message).
  U256 Prf(uint8_t tag, const Bytes& message) const {
    HmacSha256Stream mac = prf_;
    mac.Update(&tag, 1);
    mac.Update(message);
    Sha256::Digest out;
    mac.Finish(out);
    return U256::FromBytesBE(out);
  }

  U256 ElementHash(const Bytes& element) const { return Prf(0x01, element); }

  U256 NonceMask() const {
    if (nonce_.empty()) return U256();  // zero nonce => zero mask
    return Prf(0x00, nonce_);
  }

  U256 Derandomized() const {
    U256 mask = NonceMask();
    return (scheme_ == MultisetHashScheme::kXor) ? (h_ ^ mask) : (h_ - mask);
  }

  MultisetHashScheme scheme_;
  HmacSha256Stream prf_;  // has absorbed the key's pads
  Bytes nonce_;
  U256 h_;
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// MSet-Mu-Hash (unkeyed, multiplicative in the QR subgroup mod p)
// ---------------------------------------------------------------------------

class MuMultisetHash final : public MultisetHash {
 public:
  explicit MuMultisetHash(std::shared_ptr<const PrimeGroup> group)
      : group_(std::move(group)), h_(PrimeGroup::One()) {}

  MuMultisetHash(std::shared_ptr<const PrimeGroup> group, U256 h,
                 uint64_t count)
      : group_(std::move(group)), h_(h), count_(count) {}

  MultisetHashScheme scheme() const override {
    return MultisetHashScheme::kMu;
  }

  void Add(const Bytes& element) override {
    h_ = group_->Mul(h_, group_->HashToElement(element));
    ++count_;
  }

  Status Remove(const Bytes& element) override {
    Result<U256> inv = group_->Inverse(group_->HashToElement(element));
    HSIS_RETURN_IF_ERROR(inv.status());
    h_ = group_->Mul(h_, *inv);
    --count_;
    return Status::OK();
  }

  Status Union(const MultisetHash& other) override {
    if (other.scheme() != MultisetHashScheme::kMu) {
      return Status::InvalidArgument("multiset hash scheme mismatch in Union");
    }
    const auto& rhs = static_cast<const MuMultisetHash&>(other);
    if (rhs.group_->modulus() != group_->modulus()) {
      return Status::InvalidArgument("Mu-hash group mismatch in Union");
    }
    h_ = group_->Mul(h_, rhs.h_);
    count_ += rhs.count_;
    return Status::OK();
  }

  bool Equivalent(const MultisetHash& other) const override {
    if (other.scheme() != MultisetHashScheme::kMu) return false;
    const auto& rhs = static_cast<const MuMultisetHash&>(other);
    return count_ == rhs.count_ && h_ == rhs.h_ &&
           group_->modulus() == rhs.group_->modulus();
  }

  uint64_t count() const override { return count_; }

  Bytes Serialize() const override {
    Bytes out;
    out.push_back(static_cast<uint8_t>(MultisetHashScheme::kMu));
    AppendUint64BE(out, count_);
    Append(out, h_.ToBytesBE());
    AppendLengthPrefixed(out, Bytes{});  // no nonce
    return out;
  }

  std::unique_ptr<MultisetHash> Clone() const override {
    return std::make_unique<MuMultisetHash>(group_, h_, count_);
  }

 private:
  std::shared_ptr<const PrimeGroup> group_;
  U256 h_;
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// MSet-VAdd-Hash (unkeyed, per-word vector addition)
// ---------------------------------------------------------------------------

class VAddMultisetHash final : public MultisetHash {
 public:
  VAddMultisetHash() = default;
  VAddMultisetHash(std::array<uint64_t, 4> words, uint64_t count)
      : words_(words), count_(count) {}

  MultisetHashScheme scheme() const override {
    return MultisetHashScheme::kVAdd;
  }

  void Add(const Bytes& element) override {
    std::array<uint64_t, 4> e = ElementWords(element);
    for (size_t i = 0; i < 4; ++i) words_[i] += e[i];
    ++count_;
  }

  Status Remove(const Bytes& element) override {
    std::array<uint64_t, 4> e = ElementWords(element);
    for (size_t i = 0; i < 4; ++i) words_[i] -= e[i];
    --count_;
    return Status::OK();
  }

  Status Union(const MultisetHash& other) override {
    if (other.scheme() != MultisetHashScheme::kVAdd) {
      return Status::InvalidArgument("multiset hash scheme mismatch in Union");
    }
    const auto& rhs = static_cast<const VAddMultisetHash&>(other);
    for (size_t i = 0; i < 4; ++i) words_[i] += rhs.words_[i];
    count_ += rhs.count_;
    return Status::OK();
  }

  bool Equivalent(const MultisetHash& other) const override {
    if (other.scheme() != MultisetHashScheme::kVAdd) return false;
    const auto& rhs = static_cast<const VAddMultisetHash&>(other);
    return count_ == rhs.count_ && words_ == rhs.words_;
  }

  uint64_t count() const override { return count_; }

  Bytes Serialize() const override {
    Bytes out;
    out.push_back(static_cast<uint8_t>(MultisetHashScheme::kVAdd));
    AppendUint64BE(out, count_);
    for (uint64_t w : words_) AppendUint64BE(out, w);
    AppendLengthPrefixed(out, Bytes{});
    return out;
  }

  std::unique_ptr<MultisetHash> Clone() const override {
    return std::make_unique<VAddMultisetHash>(words_, count_);
  }

 private:
  static std::array<uint64_t, 4> ElementWords(const Bytes& element) {
    Sha256::Digest digest;
    Sha256::Hash(element, digest);
    const U256 v = U256::FromBytesBE(digest);
    return {v.limb[3], v.limb[2], v.limb[1], v.limb[0]};
  }

  std::array<uint64_t, 4> words_{0, 0, 0, 0};
  uint64_t count_ = 0;
};

}  // namespace

const char* MultisetHashSchemeName(MultisetHashScheme scheme) {
  switch (scheme) {
    case MultisetHashScheme::kXor:
      return "MSet-XOR-Hash";
    case MultisetHashScheme::kAdd:
      return "MSet-Add-Hash";
    case MultisetHashScheme::kMu:
      return "MSet-Mu-Hash";
    case MultisetHashScheme::kVAdd:
      return "MSet-VAdd-Hash";
  }
  return "?";
}

Result<MultisetHashFamily> MultisetHashFamily::Create(
    MultisetHashScheme scheme, Bytes key) {
  bool keyed = scheme == MultisetHashScheme::kXor ||
               scheme == MultisetHashScheme::kAdd;
  if (keyed && key.empty()) {
    return Status::InvalidArgument(
        "keyed multiset hash scheme requires a non-empty key");
  }
  if (!keyed && !key.empty()) {
    return Status::InvalidArgument(
        "unkeyed multiset hash scheme takes no key");
  }
  std::shared_ptr<const PrimeGroup> group;
  if (scheme == MultisetHashScheme::kMu) {
    // The default group is a process-lifetime static: alias it, unowned.
    group = std::shared_ptr<const PrimeGroup>(
        std::shared_ptr<const PrimeGroup>(), &PrimeGroup::Default());
  }
  return MultisetHashFamily(scheme, std::move(key), std::move(group));
}

Result<MultisetHashFamily> MultisetHashFamily::CreateMu(
    const PrimeGroup& group) {
  return MultisetHashFamily(MultisetHashScheme::kMu, Bytes{},
                            std::make_shared<const PrimeGroup>(group));
}

std::unique_ptr<MultisetHash> MultisetHashFamily::NewHash() const {
  switch (scheme_) {
    case MultisetHashScheme::kXor:
    case MultisetHashScheme::kAdd:
      return std::make_unique<KeyedMultisetHash>(scheme_, key_, Bytes{});
    case MultisetHashScheme::kMu:
      return std::make_unique<MuMultisetHash>(group_);
    case MultisetHashScheme::kVAdd:
      return std::make_unique<VAddMultisetHash>();
  }
  HSIS_LOG_FATAL << "unknown multiset hash scheme";
  return nullptr;
}

std::unique_ptr<MultisetHash> MultisetHashFamily::NewHashRandomized(
    Rng& rng) const {
  switch (scheme_) {
    case MultisetHashScheme::kXor:
    case MultisetHashScheme::kAdd:
      return std::make_unique<KeyedMultisetHash>(scheme_, key_,
                                                 rng.RandomBytes(kNonceSize));
    default:
      return NewHash();
  }
}

Result<std::unique_ptr<MultisetHash>> MultisetHashFamily::Deserialize(
    const Bytes& data) const {
  // Every scheme writes [scheme:1][count:u64][state:32][nonce], and only
  // the keyed schemes carry a non-empty nonce.
  WireReader wire(data, StatusCode::kInvalidArgument, "multiset hash");
  HSIS_ASSIGN_OR_RETURN(uint8_t scheme, wire.U8());
  if (scheme != static_cast<uint8_t>(scheme_)) {
    return wire.Fail("serialized scheme does not match family");
  }
  HSIS_ASSIGN_OR_RETURN(uint64_t count, wire.U64());
  HSIS_ASSIGN_OR_RETURN(auto state_bytes, wire.Raw(32));
  HSIS_ASSIGN_OR_RETURN(auto nonce, wire.LengthPrefixed());
  HSIS_RETURN_IF_ERROR(wire.Finish());
  const U256 state =
      U256::FromBytesBE(Bytes(state_bytes.begin(), state_bytes.end()));

  switch (scheme_) {
    case MultisetHashScheme::kXor:
    case MultisetHashScheme::kAdd:
      return std::unique_ptr<MultisetHash>(new KeyedMultisetHash(
          scheme_, key_, Bytes(nonce.begin(), nonce.end()), state, count));
    case MultisetHashScheme::kMu:
      if (!nonce.empty()) return wire.Fail("Mu hash carries a nonce");
      if (!state.IsZero() && state >= group_->modulus()) {
        return wire.Fail("Mu hash state out of range");
      }
      return std::unique_ptr<MultisetHash>(
          new MuMultisetHash(group_, state, count));
    case MultisetHashScheme::kVAdd:
      if (!nonce.empty()) return wire.Fail("VAdd hash carries a nonce");
      // The four words are the state's big-endian 64-bit chunks.
      return std::unique_ptr<MultisetHash>(new VAddMultisetHash(
          {state.limb[3], state.limb[2], state.limb[1], state.limb[0]},
          count));
  }
  return wire.Fail("unknown multiset hash scheme");
}

std::unique_ptr<MultisetHash> MultisetHashFamily::HashMultiset(
    const std::vector<Bytes>& elements) const {
  std::unique_ptr<MultisetHash> h = NewHash();
  for (const Bytes& e : elements) h->Add(e);
  return h;
}

std::unique_ptr<MultisetHash> MultisetHashFamily::MuHashOfFactors(
    std::span<const U256> factors) const {
  HSIS_CHECK(scheme_ == MultisetHashScheme::kMu)
      << "MuHashOfFactors on a " << MultisetHashSchemeName(scheme_)
      << " family";
  return std::make_unique<MuMultisetHash>(group_, group_->Product(factors),
                                          factors.size());
}

}  // namespace hsis::crypto
