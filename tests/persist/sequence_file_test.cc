#include "persist/sequence_file.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

namespace essdds::persist {
namespace {

#if ESSDDS_PERSIST

class SequenceFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            ("seq-" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()->name())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(SequenceFileTest, FreshDirectoryStartsAtFloor) {
  auto sf = SequenceFile::Open(dir_, 0);
  ASSERT_TRUE(sf.ok()) << sf.status().ToString();
  EXPECT_EQ(sf->Next(), 0u);
  EXPECT_EQ(sf->Next(), 1u);
  EXPECT_EQ(sf->Next(), 2u);
}

TEST_F(SequenceFileTest, ReopenNeverRepeatsAValue) {
  std::set<uint64_t> seen;
  // Five "process lifetimes" over the same directory, each handing out a
  // few values and then dying without any clean shutdown step (the class
  // has none — durability must not depend on one).
  for (int run = 0; run < 5; ++run) {
    auto sf = SequenceFile::Open(dir_, 0);
    ASSERT_TRUE(sf.ok());
    for (int i = 0; i < 7; ++i) {
      const uint64_t v = sf->Next();
      EXPECT_TRUE(seen.insert(v).second) << "value " << v << " repeated";
    }
  }
}

TEST_F(SequenceFileTest, FsyncModePersistsAndExtends) {
  // fsync=true routes every ceiling rewrite through fsync (tmp file before
  // the rename, directory after). Power loss itself cannot be simulated in
  // a unit test; this covers the synced code path end to end: initial
  // reservation, crossing a batch boundary, and restart monotonicity.
  auto sf = SequenceFile::Open(dir_, 0, /*fsync=*/true);
  ASSERT_TRUE(sf.ok()) << sf.status().ToString();
  uint64_t last = 0;
  for (uint64_t i = 0; i < SequenceFile::kBatch + 5; ++i) last = sf->Next();
  EXPECT_GE(sf->ceiling(), last);
  auto again = SequenceFile::Open(dir_, 0, /*fsync=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_GT(again->Next(), last);
}

TEST_F(SequenceFileTest, BatchExhaustionExtendsReservation) {
  auto sf = SequenceFile::Open(dir_, 0);
  ASSERT_TRUE(sf.ok());
  uint64_t last = 0;
  // Cross the first reservation boundary; values stay strictly increasing.
  for (uint64_t i = 0; i < SequenceFile::kBatch + 10; ++i) {
    const uint64_t v = sf->Next();
    if (i > 0) {
      EXPECT_GT(v, last);
    }
    last = v;
  }
  EXPECT_GE(sf->ceiling(), last);

  // A restart after crossing the boundary still lands above everything.
  auto again = SequenceFile::Open(dir_, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_GT(again->Next(), last);
}

TEST_F(SequenceFileTest, LegacyFloorAppliesOnlyWithoutFile) {
  // A directory with pre-counter data: the caller passes kLegacyFloor and
  // the first run starts there.
  auto sf = SequenceFile::Open(dir_, SequenceFile::kLegacyFloor);
  ASSERT_TRUE(sf.ok());
  EXPECT_EQ(sf->Next(), SequenceFile::kLegacyFloor);

  // Once the file exists it is authoritative; a later floor is ignored.
  auto again = SequenceFile::Open(dir_, SequenceFile::kLegacyFloor * 2);
  ASSERT_TRUE(again.ok());
  const uint64_t v = again->Next();
  EXPECT_GT(v, SequenceFile::kLegacyFloor);
  EXPECT_LT(v, SequenceFile::kLegacyFloor * 2);
}

TEST_F(SequenceFileTest, CorruptFileIsAnErrorNotARestart) {
  {
    auto sf = SequenceFile::Open(dir_, 0);
    ASSERT_TRUE(sf.ok());
    sf->Next();
  }
  const std::string path =
      (std::filesystem::path(dir_) / "insert-sequence").string();

  // Flip one byte of the ceiling: checksum mismatch.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    char b;
    f.seekg(8);
    f.get(b);
    f.seekp(8);
    f.put(static_cast<char>(b ^ 0x01));
  }
  EXPECT_FALSE(SequenceFile::Open(dir_, 0).ok());

  // Truncate: wrong size.
  std::filesystem::resize_file(path, 5);
  EXPECT_FALSE(SequenceFile::Open(dir_, 0).ok());

  // Empty: wrong size too (never silently restart from 0).
  std::filesystem::resize_file(path, 0);
  EXPECT_FALSE(SequenceFile::Open(dir_, 0).ok());
}

TEST_F(SequenceFileTest, NoStrayTmpAfterOpen) {
  auto sf = SequenceFile::Open(dir_, 0);
  ASSERT_TRUE(sf.ok());
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(dir_) / "insert-sequence.tmp"));
}

#else  // !ESSDDS_PERSIST

TEST(SequenceFileTest, PersistOffIsRamOnly) {
  auto sf = SequenceFile::Open("/nonexistent/never-touched", 5);
  ASSERT_TRUE(sf.ok());
  EXPECT_EQ(sf->Next(), 5u);
  EXPECT_EQ(sf->Next(), 6u);
}

#endif  // ESSDDS_PERSIST

}  // namespace
}  // namespace essdds::persist
