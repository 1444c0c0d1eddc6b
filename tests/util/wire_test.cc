#include "util/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "tests/util/fuzz_util.h"

namespace essdds {
namespace {

TEST(WireWriterTest, RoundTripsEveryPrimitive) {
  WireWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0xC0DE);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteBool(true);
  w.WriteBool(false);
  w.WriteLengthPrefixed(ToBytes("payload"));
  w.WriteBytes(ToBytes("raw"));
  const Bytes wire = w.buffer();
  EXPECT_EQ(wire.size(), 1u + 2 + 4 + 8 + 1 + 1 + 4 + 7 + 3);

  WireReader r(wire);
  EXPECT_EQ(*r.ReadU8(), 0xAB);
  EXPECT_EQ(*r.ReadU16(), 0xC0DE);
  EXPECT_EQ(*r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*r.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(*r.ReadBool());
  EXPECT_FALSE(*r.ReadBool());
  auto lp = r.ReadLengthPrefixed();
  ASSERT_TRUE(lp.ok());
  EXPECT_EQ(ToString(*lp), "payload");
  auto raw = r.ReadBytes(3);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(ToString(*raw), "raw");
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WireWriterTest, TakeBufferResetsWriter) {
  WireWriter w;
  w.WriteU32(7);
  Bytes first = w.TakeBuffer();
  EXPECT_EQ(first.size(), 4u);
  EXPECT_EQ(w.size(), 0u);
  w.WriteU8(1);
  EXPECT_EQ(w.size(), 1u);
}

TEST(WireReaderTest, EveryReadPastTheEndIsCorruption) {
  const Bytes three = {1, 2, 3};
  {
    const Bytes one = {1};
    WireReader r(one);
    EXPECT_TRUE(r.ReadU16().status().IsCorruption());
  }
  {
    WireReader r(three);
    EXPECT_TRUE(r.ReadU32().status().IsCorruption());
  }
  {
    WireReader r(three);
    EXPECT_TRUE(r.ReadU64().status().IsCorruption());
  }
  {
    WireReader r(three);
    EXPECT_TRUE(r.ReadBytes(4).status().IsCorruption());
  }
  {
    WireReader r(ByteSpan{});
    EXPECT_TRUE(r.ReadU8().status().IsCorruption());
    EXPECT_TRUE(r.ReadLengthPrefixed().status().IsCorruption());
  }
}

TEST(WireReaderTest, ReadsDoNotAdvancePastFailure) {
  const Bytes wire = {0x00, 0x00, 0x00, 0x05};  // u32 = 5
  WireReader r(wire);
  EXPECT_TRUE(r.ReadU64().status().IsCorruption());
  EXPECT_EQ(r.position(), 0u);  // failed read consumed nothing
  EXPECT_EQ(*r.ReadU32(), 5u);
}

TEST(WireReaderTest, BoolByteMustBeZeroOrOne) {
  const Bytes wire = {2};
  WireReader r(wire);
  EXPECT_TRUE(r.ReadBool().status().IsCorruption());
}

TEST(WireReaderTest, LengthPrefixBeyondPayloadIsCorruption) {
  WireWriter w;
  w.WriteU32(10);  // claims 10 bytes follow
  w.WriteBytes(ToBytes("short"));
  WireReader r(w.buffer());
  EXPECT_TRUE(r.ReadLengthPrefixed().status().IsCorruption());
}

TEST(WireReaderTest, ExpectEndRejectsTrailingBytes) {
  const Bytes wire = {0, 0, 0, 1, 0xFF};
  WireReader r(wire);
  ASSERT_TRUE(r.ReadU32().ok());
  EXPECT_TRUE(r.ExpectEnd().IsCorruption());
}

TEST(WireReaderTest, ReadCountRejectsImplausibleCounts) {
  // count = 0xFFFFFFFF with 8 payload bytes: 12 bytes/element cannot fit.
  Bytes wire = {0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8};
  WireReader r(wire);
  EXPECT_TRUE(r.ReadCount(12).status().IsCorruption());
}

TEST(WireReaderTest, ReadCountAcceptsExactlyFittingCounts) {
  WireWriter w;
  w.WriteU32(3);
  for (int i = 0; i < 3; ++i) w.WriteU32(static_cast<uint32_t>(i));
  WireReader r(w.buffer());
  auto count = r.ReadCount(4);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
  WireReader r2(w.buffer());
  EXPECT_TRUE(r2.ReadCount(5).status().IsCorruption());
}

TEST(WireReaderFuzzTest, RandomBytesNeverCrashPrimitiveReads) {
  test::RandomBytesTrials(11, 2000, 64, [](ByteSpan junk) {
    WireReader r(junk);
    (void)r.ReadU8();
    (void)r.ReadU32();
    (void)r.ReadLengthPrefixed();
    (void)r.ReadCount(12);
    (void)r.ReadU64();
    (void)r.ExpectEnd();
  });
}

}  // namespace
}  // namespace essdds
