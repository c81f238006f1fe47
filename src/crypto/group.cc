#include "crypto/group.h"

#include "common/logging.h"
#include "crypto/prime.h"

namespace hsis::crypto {

Result<PrimeGroup> PrimeGroup::Create(const U256& safe_prime,
                                      bool check_primality) {
  if (!safe_prime.IsOdd() || safe_prime < U256(7)) {
    return Status::InvalidArgument("safe prime must be odd and >= 7");
  }
  U256 q = (safe_prime - U256(1)) >> 1;
  if (!q.IsOdd()) {
    return Status::InvalidArgument("(p-1)/2 must be odd (p = 2q+1, q prime)");
  }
  if (check_primality) {
    Rng rng(0xC0FFEE);
    if (!IsProbablePrime(safe_prime, 32, rng) || !IsProbablePrime(q, 32, rng)) {
      return Status::InvalidArgument("modulus is not a safe prime");
    }
  }
  HSIS_ASSIGN_OR_RETURN(MontgomeryContext ctx,
                        MontgomeryContext::Create(safe_prime));
  HSIS_ASSIGN_OR_RETURN(MontgomeryContext order_ctx,
                        MontgomeryContext::Create(q));
  HSIS_ASSIGN_OR_RETURN(FixedExponentContext square,
                        FixedExponentContext::Create(ctx, U256(2)));
  return PrimeGroup(std::move(ctx), std::move(order_ctx), q,
                    std::move(square));
}

const PrimeGroup& PrimeGroup::Default() {
  static Result<PrimeGroup>* group =
      new Result<PrimeGroup>(Create(DefaultSafePrime()));
  HSIS_CHECK(group->ok());
  return group->value();
}

const PrimeGroup& PrimeGroup::SmallTestGroup() {
  static Result<PrimeGroup>* group =
      new Result<PrimeGroup>(Create(SmallSafePrime()));
  HSIS_CHECK(group->ok());
  return group->value();
}

U256 PrimeGroup::HashToElement(const Bytes& data) const {
  Bytes retry;  // data || 0x01..., built only on the improbable re-derive
  for (int attempt = 0; attempt < 16; ++attempt) {
    Sha256::Digest digest;
    Sha256::Hash(attempt == 0 ? data : retry, digest);
    const U256 x = U256::FromBytesBE(digest);
    // m = x R mod p is zero exactly when x == 0 mod p, and x * m / R is
    // x^2 mod p: the square into the QR subgroup, with no long division.
    const U256 m = ctx_.ToMont(x);
    if (!m.IsZero()) return ctx_.MontMul(x, m);
    if (attempt == 0) retry = data;
    retry.push_back(0x01);
  }
  HSIS_LOG_FATAL << "HashToElement failed to find a nonzero residue";
  return U256(1);
}

void PrimeGroup::SquareBatch(std::span<U256> x,
                             FixedExponentContext::Lane lane) const {
  const bool scalar =
      lane == &FixedExponentContext::ModExpBatchScalar ||
      (lane == &FixedExponentContext::ModExpBatch &&
       !FixedExponentContext::IfmaSupported());
  if (!scalar) {
    (square_.*lane)(x, x);
    return;
  }
  // The exponent-2 ModExp would run three products (ToMont, square,
  // FromMont); x * (x R mod p) / R is x^2 mod p in two.
  for (U256& v : x) v = ctx_.MontMul(v, ctx_.ToMont(v));
}

bool PrimeGroup::IsElement(const U256& a) const {
  if (a.IsZero() || a >= modulus()) return false;
  return ctx_.ModExp(a, order_) == U256(1);
}

U256 PrimeGroup::RandomExponent(Rng& rng) const {
  for (;;) {
    U256 e = U256::FromBytesBE(rng.RandomBytes(32));
    e = order_ctx_.FromMont(order_ctx_.ToMont(e));  // e mod q
    if (!e.IsZero()) return e;
  }
}

Result<U256> PrimeGroup::InverseExponent(const U256& e) const {
  return order_ctx_.ModInversePrime(e);
}

}  // namespace hsis::crypto
