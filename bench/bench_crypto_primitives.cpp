// Experiment E10b — crypto substrate microbenchmarks: every primitive
// the protocol and device stand on, all implemented in this repository.

#include "bench_util.h"
#include "crypto/authenticated_cipher.h"
#include "crypto/chacha20.h"
#include "crypto/commutative_cipher.h"
#include "crypto/hmac_sha256.h"
#include "crypto/prime.h"
#include "crypto/sha256.h"

namespace {

using namespace hsis;
using namespace hsis::crypto;

void PrintReproduction() {
  bench::PrintRule("E10b / crypto substrate microbenchmarks");
  std::printf(
      "All primitives below are implemented from scratch in src/crypto\n"
      "and validated against published test vectors (see tests/crypto).\n"
      "  SHA-256 / HMAC-SHA-256 / ChaCha20 — hashing, PRF, channel cipher\n"
      "  AEAD (encrypt-then-MAC)           — authenticated channels\n"
      "  256-bit Montgomery modexp         — commutative encryption\n"
      "  MSet hashes                       — see bench_multiset_hash\n");
  std::printf("SHA-256 kernel: %s\n", Sha256::KernelName());
  std::printf("ChaCha20 kernel: %s\n", ChaCha20::KernelName());
}

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    Bytes digest = Sha256::Hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = ToBytes("prf-key");
  Bytes data(static_cast<size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    Bytes mac = HmacSha256(key, data);
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

void BM_ChaCha20(benchmark::State& state) {
  Bytes key(32, 0x42), nonce(12, 0x01);
  Bytes data(static_cast<size_t>(state.range(0)), 0xef);
  for (auto _ : state) {
    auto ct = ChaCha20::Apply(key, nonce, data);
    benchmark::DoNotOptimize(ct);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(1024)->Arg(65536);

void BM_AeadSealOpen(benchmark::State& state) {
  AuthenticatedCipher cipher =
      std::move(AuthenticatedCipher::Create(Bytes(32, 0x11)).value());
  Bytes nonce(12, 0x02);
  Bytes msg(static_cast<size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    Bytes sealed = std::move(cipher.Seal(nonce, msg, {}).value());
    auto opened = cipher.Open(sealed, {});
    benchmark::DoNotOptimize(opened);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 256 KiB is one full-mode reply frame at the default chunk size: 4096
// (v, E(v)) pairs of 32-byte values.
BENCHMARK(BM_AeadSealOpen)->Arg(256)->Arg(16384)->Arg(262144);

void BM_MontgomeryModMul(benchmark::State& state) {
  MontgomeryContext ctx =
      std::move(MontgomeryContext::Create(DefaultSafePrime()).value());
  Rng rng(1);
  U256 a = DivMod(U256::FromBytesBE(rng.RandomBytes(32)), ctx.modulus()).remainder;
  U256 b = DivMod(U256::FromBytesBE(rng.RandomBytes(32)), ctx.modulus()).remainder;
  U256 am = ctx.ToMont(a), bm = ctx.ToMont(b);
  for (auto _ : state) {
    am = ctx.MontMul(am, bm);
    benchmark::DoNotOptimize(am);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MontgomeryModMul);

void BM_SlowModMul(benchmark::State& state) {
  Rng rng(2);
  U256 m = DefaultSafePrime();
  U256 a = DivMod(U256::FromBytesBE(rng.RandomBytes(32)), m).remainder;
  U256 b = DivMod(U256::FromBytesBE(rng.RandomBytes(32)), m).remainder;
  for (auto _ : state) {
    a = ModMulSlow(a, b, m);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("long-division baseline for the Montgomery ablation");
}
BENCHMARK(BM_SlowModMul);

void BM_ModExp256(benchmark::State& state) {
  MontgomeryContext ctx =
      std::move(MontgomeryContext::Create(DefaultSafePrime()).value());
  Rng rng(3);
  U256 base = DivMod(U256::FromBytesBE(rng.RandomBytes(32)), ctx.modulus()).remainder;
  U256 exp = U256::FromBytesBE(rng.RandomBytes(32));
  for (auto _ : state) {
    U256 r = ctx.ModExp(base, exp);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModExp256);

void BM_CommutativeEncrypt(benchmark::State& state) {
  Rng rng(4);
  const PrimeGroup& group = PrimeGroup::Default();
  CommutativeCipher cipher =
      std::move(CommutativeCipher::Create(group, rng).value());
  U256 element = group.HashToElement(ToBytes("tuple"));
  for (auto _ : state) {
    U256 ct = cipher.Encrypt(element);
    benchmark::DoNotOptimize(ct);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CommutativeEncrypt);

void BM_MillerRabin128(benchmark::State& state) {
  Rng rng(5);
  // A fixed 128-bit prime: 2^127 - 1.
  U256 p = (U256(1) << 127) - U256(1);
  for (auto _ : state) {
    bool is_prime = IsProbablePrime(p, 8, rng);
    benchmark::DoNotOptimize(is_prime);
  }
}
BENCHMARK(BM_MillerRabin128);

}  // namespace

HSIS_BENCH_MAIN(PrintReproduction)
