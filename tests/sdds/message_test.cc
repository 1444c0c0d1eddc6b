#include "sdds/message.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/util/fuzz_util.h"
#include "util/random.h"

namespace essdds::sdds {
namespace {

Message SampleScanReply() {
  Message m;
  m.type = MsgType::kScanReply;
  m.from = 7;
  m.to = 3;
  m.request_id = 0x1122334455667788ull;
  m.reply_to = 3;
  m.hops = 2;
  m.filter_id = 99;
  m.filter_arg = ToBytes("encrypted query bytes");
  m.assumed_level = 5;
  m.records.push_back({42, ToBytes("alpha")});
  m.records.push_back({43, {}});
  m.records.push_back({44, ToBytes("gamma")});
  m.trace_id = 0xA5A5A5A5ull;
  return m;
}

TEST(MessageWireTest, RoundTripsEveryField) {
  Message m = SampleScanReply();
  m.key = 0xABCDEF;
  m.value = ToBytes("value bytes");
  m.found = true;
  m.has_iam = true;
  m.iam_level = 9;
  m.iam_address = 123456;
  m.bucket_to_split = 17;
  m.new_level = 4;

  auto decoded = Message::Decode(m.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, m);
}

TEST(MessageWireTest, RoundTripsEveryMessageType) {
  for (uint8_t t = 0; t <= static_cast<uint8_t>(MsgType::kRecoveryTick); ++t) {
    Message m;
    m.type = static_cast<MsgType>(t);
    m.request_id = t;
    auto decoded = Message::Decode(m.Encode());
    ASSERT_TRUE(decoded.ok()) << MsgTypeToString(m.type);
    EXPECT_EQ(*decoded, m) << MsgTypeToString(m.type);
  }
}

TEST(MessageWireTest, RejectsUnknownMessageType) {
  Bytes wire = SampleScanReply().Encode();
  wire[0] = 0xEE;
  auto decoded = Message::Decode(wire);
  EXPECT_TRUE(decoded.status().IsCorruption());
}

TEST(MessageWireTest, RejectsTrailingGarbage) {
  Bytes wire = SampleScanReply().Encode();
  wire.push_back(0);
  EXPECT_TRUE(Message::Decode(wire).status().IsCorruption());
}

TEST(MessageWireTest, DefaultMessageIsTheFixedHeader) {
  // u8 type + u16 presence mask + u32 from + u32 to + u64 trace_id.
  Message m;
  EXPECT_EQ(m.Encode().size(), 19u);
  EXPECT_EQ(m.EncodedSize(), 19u);
  // The trace id is always in the header: a traced message costs what an
  // untraced one does, so metrics-ON and -OFF builds count the same bytes.
  m.trace_id = 0xFEEDull;
  EXPECT_EQ(m.EncodedSize(), 19u);
}

TEST(MessageWireTest, RejectsImplausibleRecordCountWithoutAllocating) {
  // A message whose only optional field is one record, then force the
  // record count to 0xFFFFFFFF: decode must fail closed instead of
  // reserving 4 billion records. The count directly follows the header.
  Message m;
  m.records.push_back({1, {}});
  Bytes wire = m.Encode();
  const size_t count_at = Message().Encode().size();
  ASSERT_EQ(wire.size(), count_at + 4 + 8 + 4);
  wire[count_at] = wire[count_at + 1] = wire[count_at + 2] =
      wire[count_at + 3] = 0xFF;
  EXPECT_TRUE(Message::Decode(wire).status().IsCorruption());
}

TEST(MessageWireTest, RejectsUnknownPresenceBits) {
  Bytes wire = Message().Encode();
  wire[1] = 0x80;  // high byte of the mask; bit 15 names no field
  EXPECT_TRUE(Message::Decode(wire).status().IsCorruption());
}

TEST(MessageWireTest, RejectsPresentFieldHoldingItsDefault) {
  // hops is the only optional field present; zeroing its value leaves a
  // second encoding of the default message, which Decode refuses.
  Message m;
  m.hops = 1;
  Bytes wire = m.Encode();
  ASSERT_EQ(wire.size(), Message().Encode().size() + 4);
  wire.back() = 0;
  EXPECT_TRUE(Message::Decode(wire).status().IsCorruption());
}

Bytes RandomBytes(Rng& rng) {
  Bytes b(rng.Uniform(40));
  for (auto& x : b) x = static_cast<uint8_t>(rng.Next());
  return b;
}

// A message of type `type` with a random subset of its fields set to
// random values (a set field may still land on its default).
Message RandomMessage(Rng& rng, MsgType type) {
  Message m;
  m.type = type;
  auto maybe = [&] { return rng.Bernoulli(0.5); };
  if (maybe()) m.from = static_cast<SiteId>(rng.Next());
  if (maybe()) m.to = static_cast<SiteId>(rng.Next());
  if (maybe()) m.trace_id = rng.Next();
  if (maybe()) m.request_id = rng.Next();
  if (maybe()) m.reply_to = static_cast<SiteId>(rng.Uniform(4));
  if (maybe()) m.hops = static_cast<uint32_t>(rng.Uniform(3));
  if (maybe()) m.key = rng.Next();
  if (maybe()) m.value = RandomBytes(rng);
  if (maybe()) m.found = maybe();
  if (maybe()) m.has_iam = maybe();
  if (maybe()) m.iam_level = static_cast<uint32_t>(rng.Next());
  if (maybe()) m.iam_address = rng.Next();
  if (maybe()) m.filter_id = rng.Uniform(3);
  if (maybe()) m.filter_arg = RandomBytes(rng);
  if (maybe()) m.assumed_level = static_cast<uint32_t>(rng.Uniform(40));
  if (maybe()) {
    const size_t n = rng.Uniform(4);
    for (size_t i = 0; i < n; ++i) {
      m.records.push_back({rng.Next(), RandomBytes(rng)});
    }
  }
  if (maybe()) m.bucket_to_split = rng.Uniform(1000);
  if (maybe()) m.new_level = static_cast<uint32_t>(rng.Uniform(40));
  return m;
}

TEST(MessageWireTest, RandomFieldSubsetsRoundTripAtTheirEncodedSize) {
  Rng rng(23);
  for (uint8_t t = 0; t <= static_cast<uint8_t>(MsgType::kRecoveryTick); ++t) {
    for (int trial = 0; trial < 40; ++trial) {
      const Message m = RandomMessage(rng, static_cast<MsgType>(t));
      const Bytes wire = m.Encode();
      ASSERT_EQ(m.EncodedSize(), wire.size())
          << MsgTypeToString(m.type) << " trial " << trial;
      auto decoded = Message::Decode(wire);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      EXPECT_EQ(*decoded, m) << MsgTypeToString(m.type) << " trial " << trial;
      test::TruncationSweep(wire, [&](ByteSpan prefix, size_t len) {
        EXPECT_FALSE(Message::Decode(prefix).ok())
            << MsgTypeToString(m.type) << " prefix " << len << " parsed";
      });
    }
  }
}

// Anything Decode accepts is a canonical encoding: re-encoding the message
// gives back the very bytes, and the type is in range.
void ExpectCanonical(ByteSpan wire) {
  auto m = Message::Decode(wire);  // must not crash or over-allocate
  if (!m.ok()) return;
  EXPECT_LE(m->type, MsgType::kRecoveryTick);
  EXPECT_EQ(m->Encode(), Bytes(wire.begin(), wire.end()));
}

TEST(MessageFuzzTest, SurvivesRandomBytes) {
  test::RandomBytesTrials(21, 2000, 200,
                          [](ByteSpan junk) { ExpectCanonical(junk); });
}

TEST(MessageFuzzTest, SurvivesTruncation) {
  test::TruncationSweep(SampleScanReply().Encode(),
                        [](ByteSpan prefix, size_t len) {
                          EXPECT_FALSE(Message::Decode(prefix).ok())
                              << "truncation at " << len << " parsed";
                        });
}

TEST(MessageFuzzTest, SurvivesSingleByteMutations) {
  const Bytes wire = SampleScanReply().Encode();
  test::SingleByteMutations(
      22, wire, [](ByteSpan mutated, size_t) { ExpectCanonical(mutated); });
}

}  // namespace
}  // namespace essdds::sdds
