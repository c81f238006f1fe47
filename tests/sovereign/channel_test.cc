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

// Delivers `wire` into a fresh receiver of the captured key.
ChannelEndpoint Deliver(const std::vector<Bytes>& wire) {
  auto [a, b] = MakePair(11);
  for (const Bytes& w : wire) b.InjectInboundForTest(w);
  return std::move(b);
}

TEST(SecureChannelTest, ReceivePendingMatchesOneByOne) {
  const std::vector<Bytes> captured = CaptureWire(7);
  const std::vector<Bytes> wire(captured.begin(), captured.begin() + 6);
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
  for (int threads : {1, 4}) {
    for (const Case& c : cases) {
      // One by one: Receive until one fails.
      ChannelEndpoint one = Deliver(c.wire);
      std::vector<Bytes> want;
      Status want_status;
      while (one.HasPending()) {
        Result<Bytes> m = one.Receive();
        if (!m.ok()) {
          want_status = m.status();
          break;
        }
        want.push_back(*m);
      }
      // Everything before the first failure arrives intact, and the
      // failure is an IntegrityViolation.
      ASSERT_EQ(want.size(), c.first_failure) << c.name;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i], Payload(i)) << c.name << " " << i;
      }
      if (c.first_failure < c.wire.size()) {
        EXPECT_EQ(want_status.code(), StatusCode::kIntegrityViolation)
            << c.name;
      }

      ChannelEndpoint pending = Deliver(c.wire);
      std::vector<Bytes> got{ToBytes("kept")};  // appended to, not cleared
      const Status status = pending.ReceivePending(threads, got);
      const std::string label =
          std::string(c.name) + " threads=" + std::to_string(threads);
      EXPECT_EQ(status.ToString(), want_status.ToString()) << label;
      ASSERT_EQ(got.size(), want.size() + 1) << label;
      EXPECT_EQ(got[0], ToBytes("kept")) << label;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i + 1], want[i]) << label << " " << i;
      }
      // The inbox is drained and the receive sequence advanced by the
      // messages delivered: the captured message of the next position
      // opens next.
      EXPECT_FALSE(pending.HasPending()) << label;
      pending.InjectInboundForTest(captured[c.first_failure]);
      Result<Bytes> next = pending.Receive();
      ASSERT_TRUE(next.ok()) << label << ": " << next.status().ToString();
      EXPECT_EQ(*next, Payload(c.first_failure)) << label;
    }
  }
  // An empty inbox appends nothing and is not an error.
  auto [a, b] = MakePair();
  std::vector<Bytes> none;
  EXPECT_TRUE(b.ReceivePending(4, none).ok());
  EXPECT_TRUE(none.empty());
}

TEST(SecureChannelTest, TamperFailsThatMessageAndEveryLaterOne) {
  auto [a, b] = MakePair();
  for (size_t i = 0; i < 5; ++i) ASSERT_TRUE(a.Send(Payload(i)).ok());
  ASSERT_TRUE(b.Receive().ok());
  ASSERT_TRUE(b.Receive().ok());
  b.CorruptNextInboundForTest();
  Result<Bytes> m = b.Receive();
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kIntegrityViolation);
  // The failed message is consumed and the receive sequence stays put,
  // so every later message fails too.
  while (b.HasPending()) {
    EXPECT_EQ(b.Receive().status().code(), StatusCode::kIntegrityViolation);
  }
}

}  // namespace
}  // namespace hsis::sovereign
