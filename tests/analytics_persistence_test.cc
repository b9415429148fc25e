// Tests for CounterStore save/load persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

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

// Every key owns exactly one slot. A file that puts two keys on one slot
// would load them as one aliased counter, and a slot that no key names is
// state nothing can reach; both are rejected, and the store keeps what it
// held.
TEST_F(PersistenceTest, SharedOrOrphanSlotsRejectedAndStateUnharmed) {
  auto make = [] {
    return analytics::CounterStore::MakeWithBitBudget(
               CounterKind::kExact, 32, (uint64_t{1} << 32) - 1, 1)
        .ValueOrDie();
  };
  const uint64_t bits = static_cast<uint64_t>(make().bits_per_key());
  auto write_file = [&](uint64_t slots,
                        const std::vector<std::pair<uint64_t, uint64_t>>& pairs) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("clstore1", 1, 8, f);
    const uint64_t header[3] = {bits, slots, pairs.size()};
    std::fwrite(header, sizeof(uint64_t), 3, f);
    for (const auto& [key, slot] : pairs) {
      const uint64_t pair[2] = {key, slot};
      std::fwrite(pair, sizeof(uint64_t), 2, f);
    }
    const uint64_t pool_bytes = (slots * bits + 7) / 8;
    std::fwrite(&pool_bytes, sizeof(pool_bytes), 1, f);
    std::vector<uint8_t> pool(pool_bytes, 0);
    pool[0] = 5;  // slot 0 counts 5, every other slot 0
    std::fwrite(pool.data(), 1, pool.size(), f);
    std::fclose(f);
  };
  auto estimate = [](const analytics::CounterStore& store, uint64_t key) {
    auto est = store.Estimate(key);
    return est.ok() ? est.ValueOrDie() : -1.0;
  };
  auto expect_rejected = [&](const char* what) {
    SCOPED_TRACE(what);
    auto store = make();
    ASSERT_TRUE(store.Increment(3, 30).ok());
    ASSERT_TRUE(store.Increment(4, 40).ok());
    EXPECT_TRUE(store.LoadFromFile(path_).IsIOError());
    EXPECT_EQ(store.num_keys(), 2u);
    EXPECT_EQ(estimate(store, 3), 30.0);
    EXPECT_EQ(estimate(store, 4), 40.0);
    EXPECT_EQ(estimate(store, 7), -1.0);  // not found
  };
  write_file(2, {{7, 0}, {9, 0}});
  expect_rejected("two keys on slot 0, keys = slots = 2");
  write_file(1, {{7, 0}, {9, 0}});
  expect_rejected("two keys on slot 0, keys 2, slots 1");
  write_file(2, {{7, 0}});
  expect_rejected("slot 1 named by no key, keys 1, slots 2");

  // The same writer with one slot per key loads.
  write_file(2, {{7, 0}, {9, 1}});
  auto store = make();
  ASSERT_TRUE(store.LoadFromFile(path_).ok());
  ASSERT_TRUE(store.Increment(7, 100).ok());
  EXPECT_EQ(estimate(store, 7), 105.0);
  EXPECT_EQ(estimate(store, 9), 0.0);
}

}  // namespace
}  // namespace countlib
