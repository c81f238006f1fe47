#include "sovereign/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

namespace hsis::sovereign {
namespace {

std::pair<ChannelEndpoint, ChannelEndpoint> MakePair(uint64_t seed = 1) {
  Rng rng(seed);
  Result<std::pair<ChannelEndpoint, ChannelEndpoint>> pair =
      SecureChannel::CreatePair(Bytes(32, 0x33), rng);
  EXPECT_TRUE(pair.ok());
  return std::move(*pair);
}

TEST(SecureChannelTest, SendReceiveBothDirections) {
  auto [a, b] = MakePair();
  ASSERT_TRUE(a.Send(ToBytes("from a")).ok());
  ASSERT_TRUE(b.Send(ToBytes("from b")).ok());

  Result<Bytes> at_b = b.Receive();
  ASSERT_TRUE(at_b.ok());
  EXPECT_EQ(BytesToString(*at_b), "from a");

  Result<Bytes> at_a = a.Receive();
  ASSERT_TRUE(at_a.ok());
  EXPECT_EQ(BytesToString(*at_a), "from b");
}

TEST(SecureChannelTest, PreservesMessageOrder) {
  auto [a, b] = MakePair();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(a.Send(ToBytes("msg" + std::to_string(i))).ok());
  }
  for (int i = 0; i < 10; ++i) {
    Result<Bytes> m = b.Receive();
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(BytesToString(*m), "msg" + std::to_string(i));
  }
}

TEST(SecureChannelTest, ReceiveOnEmptyFails) {
  auto [a, b] = MakePair();
  EXPECT_EQ(b.Receive().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(b.HasPending());
  ASSERT_TRUE(a.Send(ToBytes("x")).ok());
  EXPECT_TRUE(b.HasPending());
}

TEST(SecureChannelTest, DetectsTamper) {
  auto [a, b] = MakePair();
  ASSERT_TRUE(a.Send(ToBytes("sensitive")).ok());
  b.CorruptNextInboundForTest();
  Result<Bytes> m = b.Receive();
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kIntegrityViolation);
}

TEST(SecureChannelTest, MessagesAreEncryptedOnWire) {
  Rng rng(7);
  Result<std::pair<ChannelEndpoint, ChannelEndpoint>> pair =
      SecureChannel::CreatePair(Bytes(32, 0x44), rng);
  ASSERT_TRUE(pair.ok());
  size_t before = pair->first.bytes_sent();
  ASSERT_TRUE(pair->first.Send(ToBytes("plaintext-marker")).ok());
  EXPECT_GT(pair->first.bytes_sent(), before);
  // Wire cost = nonce + ciphertext + tag > plaintext size.
  EXPECT_GE(pair->first.bytes_sent() - before,
            std::string("plaintext-marker").size() + 44);
}

TEST(SecureChannelTest, RequiresValidKey) {
  Rng rng(9);
  EXPECT_FALSE(SecureChannel::CreatePair(Bytes(16, 0x01), rng).ok());
}

TEST(SecureChannelTest, EmptyMessageSupported) {
  auto [a, b] = MakePair();
  ASSERT_TRUE(a.Send(Bytes{}).ok());
  Result<Bytes> m = b.Receive();
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->empty());
}

// Plaintext of message `i` in the fan-out tests: a size that straddles
// ChaCha20 blocks and a pattern that differs per message.
Bytes Payload(size_t i) {
  const size_t sizes[] = {0, 5, 64, 100, 4096 + 7, 33};
  Bytes out(sizes[i % 6] + i / 6);
  for (size_t j = 0; j < out.size(); ++j) {
    out[j] = static_cast<uint8_t>(i * 31 + j);
  }
  return out;
}

TEST(SecureChannelTest, SendManyMatchesSingleSends) {
  for (int threads : {1, 2, 4, 0}) {
    for (size_t n : {size_t{1}, size_t{3}, size_t{13}}) {
      auto [a, a_peer] = MakePair(5);
      auto [b, b_peer] = MakePair(5);  // the twin: same key and Rng
      std::vector<size_t> sizes(n);
      for (size_t i = 0; i < n; ++i) sizes[i] = Payload(i).size();
      ASSERT_TRUE(a.SendMany(
                       sizes,
                       [](size_t i, std::span<uint8_t> out) {
                         const Bytes p = Payload(i);
                         std::copy(p.begin(), p.end(), out.begin());
                       },
                       threads)
                      .ok());
      for (size_t i = 0; i < n; ++i) ASSERT_TRUE(b.Send(Payload(i)).ok());
      EXPECT_EQ(a.bytes_sent(), b.bytes_sent());
      // One more single Send each: equal bytes mean the next nonce, and
      // so the channel Rng's state, is equal too.
      ASSERT_TRUE(a.Send(ToBytes("next")).ok());
      ASSERT_TRUE(b.Send(ToBytes("next")).ok());
      EXPECT_EQ(a_peer.InboundWireForTest(), b_peer.InboundWireForTest())
          << "threads=" << threads << " n=" << n;
      for (size_t i = 0; i < n; ++i) {
        Result<Bytes> m = a_peer.Receive();
        ASSERT_TRUE(m.ok()) << m.status().ToString();
        EXPECT_EQ(*m, Payload(i));
      }
    }
  }
}

// Captures `count` sealed messages from a to b, for replaying them into
// a twin receiver in any order.
std::vector<Bytes> CaptureWire(size_t count) {
  auto [a, b] = MakePair(11);
  for (size_t i = 0; i < count; ++i) EXPECT_TRUE(a.Send(Payload(i)).ok());
  return b.InboundWireForTest();
}

// Delivers `wire` into a fresh receiver of the captured key and receives
// everything, opening ahead first when `open_ahead`. Each entry is the
// Receive's status, plus the plaintext when it succeeded.
std::vector<std::pair<Status, Bytes>> ReceiveAll(const std::vector<Bytes>& wire,
                                                 bool open_ahead) {
  auto [a, b] = MakePair(11);
  for (const Bytes& w : wire) b.InjectInboundForTest(w);
  if (open_ahead) {
    b.OpenAhead(4);
    // Every message that verifies under its position's sequence number
    // (the captured message of that position) was opened on the pool,
    // not left for Receive.
    const std::vector<Bytes> original = CaptureWire(wire.size());
    size_t verifiable = 0;
    for (size_t i = 0; i < wire.size(); ++i) {
      verifiable += wire[i] == original[i] ? 1 : 0;
    }
    EXPECT_EQ(b.OpenedInboundForTest(), verifiable);
  }
  std::vector<std::pair<Status, Bytes>> out;
  while (b.HasPending()) {
    Result<Bytes> m = b.Receive();
    out.emplace_back(m.status(), m.ok() ? *m : Bytes{});
  }
  return out;
}

TEST(SecureChannelTest, OpenAheadKeepsEveryReceiveStatus) {
  const std::vector<Bytes> wire = CaptureWire(6);
  auto tampered = wire;
  tampered[2][20] ^= 0x01;
  auto replayed = wire;
  replayed.insert(replayed.begin() + 2, wire[1]);
  auto reordered = wire;
  std::swap(reordered[1], reordered[3]);
  auto truncated = wire;
  truncated[3].resize(10);
  struct Case {
    const char* name;
    std::vector<Bytes> wire;
    size_t first_failure;  // index of the first failing Receive
  };
  const Case cases[] = {{"clean", wire, 6},
                        {"tampered", tampered, 2},
                        {"replayed", replayed, 2},
                        {"reordered", reordered, 1},
                        {"truncated", truncated, 3}};
  for (const Case& c : cases) {
    const auto one_by_one = ReceiveAll(c.wire, /*open_ahead=*/false);
    const auto ahead = ReceiveAll(c.wire, /*open_ahead=*/true);
    ASSERT_EQ(ahead.size(), one_by_one.size()) << c.name;
    for (size_t i = 0; i < ahead.size(); ++i) {
      EXPECT_EQ(ahead[i].first.ToString(), one_by_one[i].first.ToString())
          << c.name << " message " << i;
      EXPECT_EQ(ahead[i].second, one_by_one[i].second) << c.name << " " << i;
      // Everything before the first failure arrives intact, and the
      // failure is an IntegrityViolation. (A later message can pass
      // again: a replayed or reordered one whose sequence number
      // matches the receiver's, which has not advanced.)
      if (i < c.first_failure) {
        EXPECT_TRUE(ahead[i].first.ok()) << c.name << " " << i;
        EXPECT_EQ(ahead[i].second, Payload(i)) << c.name << " " << i;
      } else if (i == c.first_failure) {
        EXPECT_EQ(ahead[i].first.code(), StatusCode::kIntegrityViolation)
            << c.name;
      }
    }
  }
}

TEST(SecureChannelTest, TamperBeforeOrAfterOpenAheadFailsTheRightMessage) {
  for (bool tamper_first : {true, false}) {
    auto [a, b] = MakePair();
    for (size_t i = 0; i < 5; ++i) ASSERT_TRUE(a.Send(Payload(i)).ok());
    ASSERT_TRUE(b.Receive().ok());
    ASSERT_TRUE(b.Receive().ok());
    const std::vector<Bytes> before = b.InboundWireForTest();
    if (tamper_first) b.CorruptNextInboundForTest();
    b.OpenAhead(4);
    if (!tamper_first) {
      // Opening ahead leaves the wire view unchanged.
      EXPECT_EQ(b.InboundWireForTest(), before);
      b.CorruptNextInboundForTest();  // message 2 was already opened
    }
    Result<Bytes> m = b.Receive();
    ASSERT_FALSE(m.ok()) << "tamper_first=" << tamper_first;
    EXPECT_EQ(m.status().code(), StatusCode::kIntegrityViolation);
    // The failed message is consumed and the receive sequence stays
    // put, so every later message fails too, as one by one.
    while (b.HasPending()) {
      EXPECT_EQ(b.Receive().status().code(), StatusCode::kIntegrityViolation);
    }
  }
}

}  // namespace
}  // namespace hsis::sovereign
