#include "net/frame_codec.h"

#include <gtest/gtest.h>

#include "sdds/message.h"
#include "tests/util/fuzz_util.h"
#include "util/random.h"

namespace essdds::net {
namespace {

Frame MustNext(FrameDecoder& dec) {
  Frame frame;
  Result<bool> r = dec.Next(&frame);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(*r);
  return frame;
}

TEST(FrameCodec, RoundTripsAllKinds) {
  const Bytes payload = {1, 2, 3, 4, 5};
  for (FrameKind kind :
       {FrameKind::kMessage, FrameKind::kHello, FrameKind::kExtent}) {
    FrameDecoder dec;
    dec.Append(ByteSpan(EncodeFrame(kind, ByteSpan(payload))));
    Frame frame = MustNext(dec);
    EXPECT_EQ(frame.kind, kind);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

TEST(FrameCodec, MessageFrameIsByteIdenticalToFramingTheEncoding) {
  // EncodeMessageFrame builds the frame in one buffer; the bytes must be
  // exactly the two-step EncodeFrame(kMessage, Encode()).
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    sdds::Message msg;
    msg.type = static_cast<sdds::MsgType>(
        rng.Uniform(static_cast<uint64_t>(sdds::MsgType::kRecoveryTick) + 1));
    if (rng.Bernoulli(0.5)) msg.from = static_cast<uint32_t>(rng.Next());
    if (rng.Bernoulli(0.5)) msg.trace_id = rng.Next();
    if (rng.Bernoulli(0.5)) msg.key = rng.Next();
    if (rng.Bernoulli(0.5)) msg.value = Bytes(rng.Uniform(300), 0x5A);
    if (rng.Bernoulli(0.3)) {
      for (uint64_t k = 0; k < rng.Uniform(5); ++k) {
        msg.records.push_back(sdds::WireRecord{k, Bytes(rng.Uniform(20), 7)});
      }
    }
    const Bytes frame = EncodeMessageFrame(msg);
    EXPECT_EQ(frame, EncodeFrame(FrameKind::kMessage, msg.Encode()))
        << "trial " << trial;
    EXPECT_EQ(frame.size(), kFrameHeaderSize + msg.EncodedSize());
    FrameDecoder dec;
    dec.Append(frame);
    const Frame back = MustNext(dec);
    auto decoded = sdds::Message::Decode(back.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, msg);
  }
}

TEST(FrameCodec, EmptyPayloadRoundTrips) {
  FrameDecoder dec;
  dec.Append(ByteSpan(EncodeFrame(FrameKind::kMessage, {})));
  Frame frame = MustNext(dec);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameCodec, ReassemblesAcrossArbitraryChunks) {
  // A real socket delivers bytes in arbitrary chunks; the decoder must
  // reassemble identically for every chunking.
  Bytes stream;
  std::vector<Bytes> payloads;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    Bytes p(rng.Uniform(300));
    for (auto& b : p) b = static_cast<uint8_t>(rng.Next());
    Bytes frame = EncodeFrame(FrameKind::kMessage, ByteSpan(p));
    stream.insert(stream.end(), frame.begin(), frame.end());
    payloads.push_back(std::move(p));
  }
  for (const size_t chunk : {size_t{1}, size_t{3}, size_t{16}, size_t{4096}}) {
    FrameDecoder dec;
    size_t delivered = 0;
    size_t off = 0;
    while (off < stream.size()) {
      const size_t n = std::min(chunk, stream.size() - off);
      dec.Append(ByteSpan(stream.data() + off, n));
      off += n;
      for (;;) {
        Frame frame;
        Result<bool> r = dec.Next(&frame);
        ASSERT_TRUE(r.ok());
        if (!*r) break;
        ASSERT_LT(delivered, payloads.size());
        EXPECT_EQ(frame.payload, payloads[delivered]);
        ++delivered;
      }
    }
    EXPECT_EQ(delivered, payloads.size()) << "chunk size " << chunk;
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

TEST(FrameCodec, PartialHeaderAsksForMore) {
  const Bytes wire = EncodeFrame(FrameKind::kHello, EncodeHello(42));
  FrameDecoder dec;
  dec.Append(ByteSpan(wire.data(), kFrameHeaderSize - 1));
  Frame frame;
  Result<bool> r = dec.Next(&frame);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  EXPECT_FALSE(dec.corrupt());
}

TEST(FrameCodec, BadMagicIsCorruptionForever) {
  Bytes wire = EncodeFrame(FrameKind::kMessage, {{1, 2, 3}});
  wire[0] ^= 0xFF;
  FrameDecoder dec;
  dec.Append(ByteSpan(wire));
  Frame frame;
  EXPECT_FALSE(dec.Next(&frame).ok());
  EXPECT_TRUE(dec.corrupt());
  // A TCP stream has no resync point: appending a pristine frame afterwards
  // must not revive the stream.
  dec.Append(ByteSpan(EncodeFrame(FrameKind::kMessage, {{9}})));
  EXPECT_FALSE(dec.Next(&frame).ok());
}

TEST(FrameCodec, UnknownKindRejected) {
  Bytes wire = EncodeFrame(FrameKind::kMessage, {{1}});
  wire[4] = 0x77;  // kind byte
  FrameDecoder dec;
  dec.Append(ByteSpan(wire));
  Frame frame;
  EXPECT_FALSE(dec.Next(&frame).ok());
}

TEST(FrameCodec, OversizedLengthRejectedWithoutBuffering) {
  // Length field above the cap must fail immediately, not wait for 4 GiB.
  Bytes wire = EncodeFrame(FrameKind::kMessage, {{1}});
  wire[5] = 0xFF;
  wire[6] = 0xFF;
  wire[7] = 0xFF;
  wire[8] = 0xFF;
  FrameDecoder dec;
  dec.Append(ByteSpan(wire));
  Frame frame;
  EXPECT_FALSE(dec.Next(&frame).ok());
}

TEST(FrameCodec, PayloadBitflipFailsCrc) {
  Bytes wire = EncodeFrame(FrameKind::kMessage, {{10, 20, 30, 40}});
  wire[kFrameHeaderSize + 2] ^= 0x01;
  FrameDecoder dec;
  dec.Append(ByteSpan(wire));
  Frame frame;
  EXPECT_FALSE(dec.Next(&frame).ok());
}

TEST(FrameCodec, CompactsConsumedPrefix) {
  // Many small frames through one decoder: buffered() returns to zero, so
  // the consumed prefix cannot grow without bound.
  FrameDecoder dec;
  for (int i = 0; i < 5000; ++i) {
    dec.Append(ByteSpan(EncodeFrame(FrameKind::kExtent, EncodeExtent(i))));
    Frame frame = MustNext(dec);
    EXPECT_EQ(frame.kind, FrameKind::kExtent);
  }
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameCodec, HelloAndExtentRoundTrip) {
  auto hello = DecodeHello(ByteSpan(EncodeHello(0x40000007u)));
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(*hello, 0x40000007u);
  auto extent = DecodeExtent(ByteSpan(EncodeExtent(uint64_t{1} << 40)));
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(*extent, uint64_t{1} << 40);
  EXPECT_FALSE(DecodeHello(ByteSpan(EncodeExtent(1))).ok());
  EXPECT_FALSE(DecodeExtent({}).ok());
}

// --- the fuzz battery (tests/util/fuzz_util.h) ---------------------------
// The decoder contract: any byte sequence produces frames, asks for more,
// or fails with Corruption — never a crash, never an oversized allocation.

void DrainAll(FrameDecoder& dec) {
  for (;;) {
    Frame frame;
    Result<bool> r = dec.Next(&frame);
    if (!r.ok() || !*r) break;
  }
}

TEST(FrameCodecFuzz, RandomBytesNeverCrash) {
  test::RandomBytesTrials(0xF4A3E, 300, 4096, [](ByteSpan junk) {
    FrameDecoder dec;
    dec.Append(junk);
    DrainAll(dec);
  });
}

TEST(FrameCodecFuzz, RandomBytesChunkedNeverCrash) {
  // Same junk split into tiny appends: exercises every partial-header and
  // partial-payload resume path.
  test::RandomBytesTrials(0xB0B0, 100, 2048, [](ByteSpan junk) {
    FrameDecoder dec;
    size_t off = 0;
    while (off < junk.size()) {
      const size_t n = std::min<size_t>(7, junk.size() - off);
      dec.Append(junk.subspan(off, n));
      off += n;
      DrainAll(dec);
    }
  });
}

TEST(FrameCodecFuzz, TruncationSweepNeverYieldsFrame) {
  sdds::Message msg;
  msg.type = sdds::MsgType::kInsert;
  msg.key = 77;
  msg.value = {1, 2, 3, 4};
  const Bytes wire = EncodeFrame(FrameKind::kMessage, ByteSpan(msg.Encode()));
  test::TruncationSweep(ByteSpan(wire), [](ByteSpan prefix, size_t len) {
    FrameDecoder dec;
    dec.Append(prefix);
    Frame frame;
    Result<bool> r = dec.Next(&frame);
    // A strict prefix of one frame never completes: either "need more"
    // (valid header prefix) or Corruption (never a frame).
    if (r.ok()) {
      EXPECT_FALSE(*r) << "frame completed from a " << len << "-byte prefix";
    }
  });
}

TEST(FrameCodecFuzz, SingleByteMutationsNeverCrash) {
  sdds::Message msg;
  msg.type = sdds::MsgType::kTransfer;
  for (uint64_t k = 0; k < 16; ++k) {
    msg.records.push_back(sdds::WireRecord{k, Bytes(32, uint8_t(k))});
  }
  const Bytes payload_wire = msg.Encode();
  const Bytes wire = EncodeFrame(FrameKind::kMessage, ByteSpan(payload_wire));
  test::SingleByteMutations(0xC0DE, ByteSpan(wire), [&](ByteSpan mutated,
                                                        size_t pos) {
    FrameDecoder dec;
    dec.Append(mutated);
    Frame frame;
    Result<bool> r = dec.Next(&frame);
    if (r.ok() && *r && pos >= kFrameHeaderSize) {
      // The harness sometimes produces no-op "mutations" (a random or
      // forced byte equal to the original); any REAL payload change must be
      // caught by the CRC, so a decoded payload is always the original.
      EXPECT_EQ(frame.payload, payload_wire)
          << "mutated payload at " << pos << " passed the CRC";
    }
  });
}

}  // namespace
}  // namespace essdds::net
