#include "sdds/message.h"

#include <gtest/gtest.h>

#include <vector>

#include "tests/util/fuzz_util.h"

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

TEST(MessageWireTest, LegacyEncodingWithoutTraceIdDecodes) {
  // The trace id was appended to the wire layout as a compatible
  // extension: an encoding that stops after new_level (the
  // pre-observability format) must still decode, with trace_id = 0.
  Message m = SampleScanReply();
  Bytes wire = m.Encode();
  wire.resize(wire.size() - 8);  // strip the trailing trace id
  auto decoded = Message::Decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  Message expect = m;
  expect.trace_id = 0;
  EXPECT_EQ(*decoded, expect);
}

TEST(MessageWireTest, RejectsImplausibleRecordCountWithoutAllocating) {
  // A minimal valid message, then force the record count to 0xFFFFFFFF:
  // decode must fail closed instead of reserving 4 billion records.
  Message m;
  Bytes wire = m.Encode();
  // Record count sits 24 bytes before the end (count + bucket_to_split +
  // new_level + trace_id trailer).
  const size_t count_at = wire.size() - 24;
  wire[count_at] = wire[count_at + 1] = wire[count_at + 2] =
      wire[count_at + 3] = 0xFF;
  EXPECT_TRUE(Message::Decode(wire).status().IsCorruption());
}

TEST(MessageFuzzTest, SurvivesRandomBytes) {
  test::RandomBytesTrials(21, 2000, 200, [](ByteSpan junk) {
    auto m = Message::Decode(junk);  // must not crash
    if (m.ok()) {
      EXPECT_LE(m->type, MsgType::kMergeDone);
    }
  });
}

TEST(MessageFuzzTest, SurvivesTruncation) {
  const Message sample = SampleScanReply();
  const Bytes wire = sample.Encode();
  // Exactly one proper prefix is a valid message: cutting the trailing
  // 8-byte trace id leaves the legacy layout, which decodes with
  // trace_id = 0. Every other truncation must fail closed.
  const size_t legacy_len = wire.size() - 8;
  test::TruncationSweep(wire, [&](ByteSpan prefix, size_t len) {
    auto m = Message::Decode(prefix);
    if (len == legacy_len) {
      ASSERT_TRUE(m.ok()) << "legacy layout stopped decoding";
      Message expect = sample;
      expect.trace_id = 0;
      EXPECT_EQ(*m, expect);
    } else {
      EXPECT_FALSE(m.ok()) << "truncation at " << len << " parsed";
    }
  });
}

TEST(MessageFuzzTest, SurvivesSingleByteMutations) {
  const Bytes wire = SampleScanReply().Encode();
  test::SingleByteMutations(22, wire, [](ByteSpan mutated, size_t) {
    auto m = Message::Decode(mutated);  // must not crash or over-allocate
    if (m.ok()) {
      EXPECT_LE(m->type, MsgType::kMergeDone);
    }
  });
}

}  // namespace
}  // namespace essdds::sdds
