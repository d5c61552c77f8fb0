#include <gtest/gtest.h>

#include "src/util/bits.h"
#include "src/util/prime.h"
#include "src/util/rng.h"

namespace dcolor {
namespace {

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
}

TEST(Bits, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(4), 2);
  EXPECT_EQ(floor_log2(1023), 9);
}

TEST(Bits, BitWidth) {
  EXPECT_EQ(bit_width_of(0), 1);
  EXPECT_EQ(bit_width_of(1), 1);
  EXPECT_EQ(bit_width_of(2), 2);
  EXPECT_EQ(bit_width_of(255), 8);
  EXPECT_EQ(bit_width_of(256), 9);
}

TEST(Bits, MsbBitRoundTrip) {
  const int width = 7;
  for (std::uint64_t x = 0; x < (1u << width); ++x) {
    std::uint64_t rebuilt = 0;
    for (int p = 0; p < width; ++p) {
      rebuilt = (rebuilt << 1) | static_cast<std::uint64_t>(msb_bit(x, p, width));
    }
    EXPECT_EQ(rebuilt, x);
  }
}

TEST(Bits, WithMsbBit) {
  EXPECT_EQ(with_msb_bit(0b0000, 0, 4, 1), 0b1000u);
  EXPECT_EQ(with_msb_bit(0b1111, 3, 4, 0), 0b1110u);
}

TEST(Bits, MsbPrefix) {
  EXPECT_EQ(msb_prefix(0b10110, 3, 5), 0b101u);
  EXPECT_EQ(msb_prefix(0b10110, 0, 5), 0u);
  EXPECT_EQ(msb_prefix(0b10110, 5, 5), 0b10110u);
}

TEST(Prime, Small) {
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(4));
  EXPECT_TRUE(is_prime(97));
  EXPECT_FALSE(is_prime(1));
  EXPECT_FALSE(is_prime(91));  // 7*13
  EXPECT_EQ(next_prime(90), 97u);
  EXPECT_EQ(next_prime(97), 97u);
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(42), b(42), c(43);
  bool all_equal = true;
  bool any_diff_seed_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next_u64();
    all_equal &= (x == b.next_u64());
    any_diff_seed_diff |= (x != c.next_u64());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_diff);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(a.next_below(17), 17u);
    const double d = a.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, SplitIndependence) {
  Rng parent(7);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (c1.next_bool() == c2.next_bool());
  EXPECT_GT(same, 10);
  EXPECT_LT(same, 54);
}

}  // namespace
}  // namespace dcolor
