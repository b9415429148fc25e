// Tests for CounterStore save/load persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "analytics/counter_store.h"

namespace countlib {
namespace {

class PersistenceTest : public testing::Test {
 protected:
  // ctest runs every case as its own process, in parallel under -j, so
  // each case saves to a file named after itself: a shared path would let
  // one case load (or delete) another's file.
  void SetUp() override {
    path_ = testing::TempDir() + "countlib_store_test_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

analytics::CounterStore MakeStore(uint64_t seed = 1) {
  return analytics::CounterStore::MakeWithBitBudget(CounterKind::kSampling, 18,
                                                    1u << 24, seed)
      .ValueOrDie();
}

TEST_F(PersistenceTest, RoundTripPreservesEveryEstimate) {
  auto store = MakeStore();
  for (uint64_t key = 0; key < 500; ++key) {
    ASSERT_TRUE(store.Increment(key * 17, 1 + key * 13).ok());
  }
  ASSERT_TRUE(store.SaveToFile(path_).ok());

  auto restored = MakeStore(999);
  ASSERT_TRUE(restored.LoadFromFile(path_).ok());
  EXPECT_EQ(restored.num_keys(), store.num_keys());
  EXPECT_EQ(restored.TotalStateBits(), store.TotalStateBits());
  for (uint64_t key = 0; key < 500; ++key) {
    ASSERT_DOUBLE_EQ(restored.Estimate(key * 17).ValueOrDie(),
                     store.Estimate(key * 17).ValueOrDie())
        << "key " << key * 17;
  }
}

TEST_F(PersistenceTest, RestoredStoreKeepsCounting) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Increment(42, 1000).ok());
  ASSERT_TRUE(store.SaveToFile(path_).ok());
  auto restored = MakeStore(7);
  ASSERT_TRUE(restored.LoadFromFile(path_).ok());
  ASSERT_TRUE(restored.Increment(42, 1000).ok());
  const double est = restored.Estimate(42).ValueOrDie();
  EXPECT_NEAR(est, 2000.0, 600.0);
}

TEST_F(PersistenceTest, EmptyStoreRoundTrips) {
  auto store = MakeStore();
  ASSERT_TRUE(store.SaveToFile(path_).ok());
  auto restored = MakeStore(2);
  ASSERT_TRUE(restored.LoadFromFile(path_).ok());
  EXPECT_EQ(restored.num_keys(), 0u);
}

TEST_F(PersistenceTest, StrideMismatchRejected) {
  auto store = MakeStore();
  ASSERT_TRUE(store.Increment(1, 5).ok());
  ASSERT_TRUE(store.SaveToFile(path_).ok());
  auto other = analytics::CounterStore::MakeWithBitBudget(CounterKind::kSampling,
                                                          20, 1u << 24, 1)
                   .ValueOrDie();
  EXPECT_TRUE(other.LoadFromFile(path_).IsFailedPrecondition());
}

TEST_F(PersistenceTest, GarbageFileRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  std::fputs("definitely not a store", f);
  std::fclose(f);
  auto store = MakeStore();
  EXPECT_TRUE(store.LoadFromFile(path_).IsIOError());
  EXPECT_TRUE(store.LoadFromFile("/nonexistent/store.bin").IsIOError());
}

TEST_F(PersistenceTest, TruncatedFileRejectedAndStateUnharmed) {
  auto store = MakeStore();
  for (uint64_t key = 0; key < 50; ++key) {
    ASSERT_TRUE(store.Increment(key, 100).ok());
  }
  ASSERT_TRUE(store.SaveToFile(path_).ok());
  // Truncate the file to half.
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path_.c_str(), size / 2), 0);

  auto victim = MakeStore(3);
  ASSERT_TRUE(victim.Increment(7, 123).ok());
  const double before = victim.Estimate(7).ValueOrDie();
  EXPECT_FALSE(victim.LoadFromFile(path_).ok());
  // The failed load must not have corrupted the existing contents.
  EXPECT_DOUBLE_EQ(victim.Estimate(7).ValueOrDie(), before);
}

// Sizes in a header are checked against the file before anything is
// allocated for them: a short file claiming billions of keys or slots is
// rejected, not trusted.
TEST_F(PersistenceTest, HeaderSizesBeyondTheFileRejected) {
  auto store = MakeStore();
  auto write_header = [&](uint64_t slots, uint64_t keys, bool pool_header) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("clstore1", 1, 8, f);
    const uint64_t fields[3] = {static_cast<uint64_t>(store.bits_per_key()),
                                slots, keys};
    std::fwrite(fields, sizeof(uint64_t), 3, f);
    if (pool_header) {
      const uint64_t pool_bytes =
          (slots * static_cast<uint64_t>(store.bits_per_key()) + 7) / 8;
      std::fwrite(&pool_bytes, sizeof(pool_bytes), 1, f);
    }
    std::fclose(f);
  };
  write_header(uint64_t{1} << 31, uint64_t{1} << 31, false);
  EXPECT_TRUE(store.LoadFromFile(path_).IsIOError());
  write_header(uint64_t{1} << 31, 0, true);
  EXPECT_TRUE(store.LoadFromFile(path_).IsIOError());
  write_header(uint64_t{1} << 33, 0, true);  // past the 2^32-1 slot ids
  EXPECT_TRUE(store.LoadFromFile(path_).IsCapacityExceeded());
  EXPECT_EQ(store.num_keys(), 0u);
}

TEST_F(PersistenceTest, ExactKindRoundTripsExactly) {
  auto store = analytics::CounterStore::MakeWithBitBudget(CounterKind::kExact, 20,
                                                          (1u << 20) - 1, 1)
                   .ValueOrDie();
  ASSERT_TRUE(store.Increment(11, 54321).ok());
  ASSERT_TRUE(store.SaveToFile(path_).ok());
  auto restored = analytics::CounterStore::MakeWithBitBudget(
                      CounterKind::kExact, 20, (1u << 20) - 1, 2)
                      .ValueOrDie();
  ASSERT_TRUE(restored.LoadFromFile(path_).ok());
  EXPECT_DOUBLE_EQ(restored.Estimate(11).ValueOrDie(), 54321.0);
}

}  // namespace
}  // namespace countlib
