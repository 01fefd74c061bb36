// Tests for the utility layer: deterministic RNG, contract macros, the
// crash-safe file helpers and the checksum hex codec.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/checksum.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/rng.hpp"

namespace ldlb {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng{7};
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_THROW(rng.next_below(0), ContractViolation);
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng{8};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng{9};
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  EXPECT_EQ(rng.next_in(5, 5), 5);
  EXPECT_THROW(rng.next_in(2, 1), ContractViolation);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng{10};
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng{11};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent{12};
  Rng child = parent.split();
  // The child stream should not replay the parent's outputs.
  Rng parent2{12};
  parent2.split();
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.next_u64() == parent.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Contracts, RequireThrowsWithLocation) {
  try {
    LDLB_REQUIRE_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Contracts, EnsurePassesSilently) {
  LDLB_ENSURE(2 + 2 == 4);
  LDLB_REQUIRE(true);
  SUCCEED();
}

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

TEST(AtomicFile, WriteToUnwritableDirectoryThrowsIoError) {
  EXPECT_THROW(write_file_atomic("/nonexistent-dir/x/y.log", "content"),
               IoError);
  EXPECT_THROW((void)read_file(temp_path("does_not_exist.bin")), IoError);
}

TEST(AtomicFile, ReplaceLeavesNoTempFilesBehind) {
  const std::string path = temp_path("atomic_dir/no_leftovers.txt");
  fs::create_directories(fs::path(path).parent_path());
  write_file_atomic(path, "first content");
  write_file_atomic(path, "second");  // overwrite

  int entries = 0;
  for (const auto& entry : fs::directory_iterator(fs::path(path).parent_path())) {
    ++entries;
    EXPECT_EQ(entry.path().string(), path) << "leftover: " << entry.path();
  }
  EXPECT_EQ(entries, 1);
  // And the overwrite really replaced the content.
  EXPECT_EQ(read_file(path), "second");
  fs::remove_all(fs::path(path).parent_path());
}

TEST(Checksum, HexHelpersRoundTrip) {
  const std::uint64_t h = fnv1a_64("ldlb-cert-log");
  std::uint64_t back = 0;
  ASSERT_TRUE(checksum_from_hex(checksum_to_hex(h), back));
  EXPECT_EQ(back, h);
  EXPECT_FALSE(checksum_from_hex("short", back));
  EXPECT_FALSE(checksum_from_hex("00000000DEADBEEF", back));  // upper case
  EXPECT_EQ(checksum_to_hex(0), "0000000000000000");
}

}  // namespace
}  // namespace ldlb
