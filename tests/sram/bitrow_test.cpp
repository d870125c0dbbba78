#include "sram/bitrow.h"

#include <gtest/gtest.h>

#include <vector>

namespace bpntt::sram {
namespace {

TEST(Bitrow, GetSetClear) {
  bitrow r(256);
  EXPECT_FALSE(r.any());
  r.set(0, true);
  r.set(255, true);
  r.set(128, true);
  EXPECT_TRUE(r.get(0));
  EXPECT_TRUE(r.get(255));
  EXPECT_TRUE(r.get(128));
  EXPECT_FALSE(r.get(127));
  EXPECT_EQ(r.popcount(), 3u);
  r.clear();
  EXPECT_FALSE(r.any());
}

TEST(Bitrow, ExtractDeposit) {
  bitrow r(256);
  r.deposit(100, 16, 0xBEEF);
  EXPECT_EQ(r.extract(100, 16), 0xBEEFu);
  EXPECT_EQ(r.extract(96, 4), 0u);
  r.deposit(100, 16, 0x1);
  EXPECT_EQ(r.extract(100, 16), 0x1u);
  // A field straddling a word boundary, and a full 64-bit field.
  r.deposit(120, 16, 0xA5C3);
  EXPECT_EQ(r.extract(120, 16), 0xA5C3u);
  EXPECT_EQ(r.extract(116, 4), 0u);
  EXPECT_EQ(r.extract(136, 4), 0u);
  r.deposit(130, 64, ~0ULL);
  EXPECT_EQ(r.extract(130, 64), ~0ULL);
  EXPECT_EQ(r.extract(120, 10), 0x1C3u);
  EXPECT_EQ(r.popcount(), 1u + 64u + 5u);
}

TEST(Bitrow, FromWordsDropsBitsPastWidth) {
  const std::vector<std::uint64_t> words{~0ULL, ~0ULL};
  const bitrow r(70, words);
  EXPECT_EQ(r.popcount(), 70u);
  EXPECT_EQ(r.words()[1], 0x3Fu);
}

TEST(Bitrow, ToStringMsbFirst) {
  bitrow r(4);
  r.set(0, true);
  r.set(3, true);
  EXPECT_EQ(r.to_string(), "1001");
}

TEST(Bitrow, RejectsZeroWidth) { EXPECT_THROW(bitrow(0), std::invalid_argument); }

TEST(Bitrow, WidthMismatchThrows) {
  const std::vector<std::uint64_t> two_words(2, 0);
  EXPECT_THROW(bitrow(8, two_words), std::invalid_argument);
}

}  // namespace
}  // namespace bpntt::sram
