// Golden bit-identity for the kernel-path figure CSVs: every serial
// SHA-256 pin predates the kernel layer, so a match proves the
// allocation-free rewrite preserved each IEEE-754 bit pattern and every
// formatted byte — at every thread count, since the kernel batch
// evaluators honor the common/parallel.h determinism contract.

#include <gtest/gtest.h>

#include <string>

#include "crypto/sha256.h"
#include "game/landscape_shards.h"

namespace hsis::game {
namespace {

struct GoldenSweep {
  const char* name;
  const char* csv_sha256;
};

/// Frozen pre-kernel serial digests (tests/game/shard_golden_test.cc
/// pins the first four; figure4 was captured from the same pre-kernel
/// build). A change here must be a deliberate, reviewed act.
constexpr GoldenSweep kGoldenSweeps[] = {
    {"figure1",
     "69360b788a2b2c3aee9d8b819cfdb1401715f4df741d8106fadf4c50ff55cbe1"},
    {"figure2_f02",
     "ec2995c0cd9fc0d5525c9353299c1647bc50fcb3c82988f4eabfef0537e55f6b"},
    {"figure2_f07",
     "2e3e33061b80a4303f64638dd6751828342a4967e174a6ff8acd327149fd1d39"},
    {"figure3",
     "19f1b300c56be061b38d843d3e7e9b376e810e984a90f8ee128bb59286eeeac2"},
    {"figure4",
     "b5445df15e50679b369b5d2a85bb1c46554291a704ee90be3d09917fdda82753"},
};

TEST(KernelGoldenTest, KernelCsvsMatchPreKernelPinsAtEveryThreadCount) {
  for (const GoldenSweep& golden : kGoldenSweeps) {
    for (int threads : {1, 2, 3, 7}) {
      Result<std::string> csv = LandscapeCsv(golden.name, threads);
      ASSERT_TRUE(csv.ok())
          << golden.name << " x" << threads << ": " << csv.status().ToString();
      EXPECT_EQ(HexEncode(crypto::Sha256::Hash(*csv)), golden.csv_sha256)
          << golden.name << " with " << threads
          << " threads drifted from the pre-kernel golden CSV";
    }
  }
}

TEST(KernelGoldenTest, KernelCsvsMatchPreKernelPinsOnEveryLane) {
  // The same frozen serial digests on the one scalar kernel lane at
  // several thread counts: the digests predate the kernel layer, so a
  // match proves its arithmetic is bit-for-bit the pre-kernel
  // arithmetic (DESIGN.md §6.7).
  for (const GoldenSweep& golden : kGoldenSweeps) {
    for (int threads : {1, 2, 8}) {
      Result<std::string> csv = LandscapeCsv(golden.name, threads);
      ASSERT_TRUE(csv.ok())
          << golden.name << " x" << threads << ": " << csv.status().ToString();
      EXPECT_EQ(HexEncode(crypto::Sha256::Hash(*csv)), golden.csv_sha256)
          << golden.name << " with " << threads
          << " threads drifted from the pre-kernel golden CSV";
    }
  }
}

}  // namespace
}  // namespace hsis::game
