// In-SRAM modular add/sub: the butterfly's non-multiplicative half, built
// from ripple-carry addition with two's-complement conditional correction.
#include <gtest/gtest.h>

#include "bpntt/compiler.h"
#include "common/xoshiro.h"
#include "isa/executor.h"
#include "nttmath/modarith.h"

namespace bpntt::core {
namespace {

struct Fixture {
  u64 q;
  unsigned k;
  row_layout L{16};
  microcode_compiler comp;
  sram::subarray array;
  isa::executor exec;

  Fixture(u64 q_, unsigned k_)
      : q(q_),
        k(k_),
        comp(make_params(k_), L),
        array(L.total_rows(), sram::tile_geometry{64, k_}, sram::tech_45nm()) {
    for (unsigned t = 0; t < array.geometry().num_tiles(); ++t) {
      array.host_write_word(t, L.m_row(), q);
      array.host_write_word(t, L.mneg_row(), (1ULL << k) - q);
      array.host_write_word(t, L.one_row(), 1);
    }
  }

  static ntt_params make_params(unsigned k) {
    ntt_params p;
    p.n = 4;
    p.q = 0;
    p.k = k;
    return p;
  }

  unsigned lanes() const { return array.geometry().num_tiles(); }
};

struct AddSubCase {
  // No padding: gtest prints a parameter's raw bytes into its test ID, and
  // padding bytes would make that ID differ from run to run.
  u64 q;
  u64 k;
};

class SramAddSub : public testing::TestWithParam<AddSubCase> {};

TEST_P(SramAddSub, AdditionMatchesGolden) {
  const auto [q, k] = GetParam();
  Fixture f(q, k);
  common::xoshiro256ss rng(q + k);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<u64> a(f.lanes()), b(f.lanes());
    for (unsigned t = 0; t < f.lanes(); ++t) {
      a[t] = rng.below(q);
      b[t] = rng.below(q);
      f.array.host_write_word(t, 0, a[t]);
      f.array.host_write_word(t, 1, b[t]);
    }
    f.exec.run(f.comp.compile_mod_add(2, 0, 1), f.array);
    for (unsigned t = 0; t < f.lanes(); ++t) {
      EXPECT_EQ(f.array.peek_word(t, 2), math::add_mod(a[t], b[t], q)) << "lane " << t;
    }
  }
}

TEST_P(SramAddSub, SubtractionMatchesGolden) {
  const auto [q, k] = GetParam();
  Fixture f(q, k);
  common::xoshiro256ss rng(q * 3 + k);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<u64> a(f.lanes()), b(f.lanes());
    for (unsigned t = 0; t < f.lanes(); ++t) {
      a[t] = rng.below(q);
      b[t] = rng.below(q);
      f.array.host_write_word(t, 0, a[t]);
      f.array.host_write_word(t, 1, b[t]);
    }
    f.exec.run(f.comp.compile_mod_sub(2, 0, 1), f.array);
    for (unsigned t = 0; t < f.lanes(); ++t) {
      EXPECT_EQ(f.array.peek_word(t, 2), math::sub_mod(a[t], b[t], q))
          << "lane " << t << " a=" << a[t] << " b=" << b[t];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SramAddSub,
                         testing::Values(AddSubCase{5, 4}, AddSubCase{23, 6},
                                         AddSubCase{3329, 13}, AddSubCase{7681, 14},
                                         AddSubCase{12289, 16}, AddSubCase{8380417, 24}),
                         [](const auto& info) {
                           return "q" + std::to_string(info.param.q) + "_k" +
                                  std::to_string(info.param.k);
                         });

TEST(SramAddSub, ExhaustiveTinyModulusAllPairs) {
  const u64 q = 7;
  const unsigned k = 5;  // 2q = 14 < 32
  Fixture f(q, k);
  for (u64 a = 0; a < q; ++a) {
    for (u64 b = 0; b < q; ++b) {
      for (unsigned t = 0; t < f.lanes(); ++t) f.array.host_write_word(t, 0, a);
      for (unsigned t = 0; t < f.lanes(); ++t) f.array.host_write_word(t, 1, b);
      f.exec.run(f.comp.compile_mod_add(2, 0, 1), f.array);
      f.exec.run(f.comp.compile_mod_sub(3, 0, 1), f.array);
      ASSERT_EQ(f.array.peek_word(0, 2), math::add_mod(a, b, q)) << a << "+" << b;
      ASSERT_EQ(f.array.peek_word(0, 3), math::sub_mod(a, b, q)) << a << "-" << b;
    }
  }
}

TEST(SramAddSub, BoundaryOperands) {
  const u64 q = 12289;
  const unsigned k = 16;
  Fixture f(q, k);
  const u64 cases[][2] = {{0, 0}, {0, q - 1}, {q - 1, 0}, {q - 1, q - 1}, {1, q - 1},
                          {q / 2, q / 2}, {q / 2 + 1, q / 2}};
  for (const auto& c : cases) {
    for (unsigned t = 0; t < f.lanes(); ++t) {
      f.array.host_write_word(t, 0, c[0]);
      f.array.host_write_word(t, 1, c[1]);
    }
    f.exec.run(f.comp.compile_mod_add(2, 0, 1), f.array);
    f.exec.run(f.comp.compile_mod_sub(3, 0, 1), f.array);
    EXPECT_EQ(f.array.peek_word(0, 2), math::add_mod(c[0], c[1], q));
    EXPECT_EQ(f.array.peek_word(0, 3), math::sub_mod(c[0], c[1], q));
  }
}

TEST(SramAddSub, SourceOperandsSurviveWhenDistinct) {
  const u64 q = 3329;
  Fixture f(q, 13);
  f.array.host_write_word(0, 0, 1000);
  f.array.host_write_word(0, 1, 2000);
  f.exec.run(f.comp.compile_mod_add(2, 0, 1), f.array);
  EXPECT_EQ(f.array.peek_word(0, 0), 1000u);
  EXPECT_EQ(f.array.peek_word(0, 1), 2000u);
}

TEST(SramAddSub, InPlaceDestinationAliasA) {
  // The butterfly writes a[j] = a[j] + t with dst == a; verify aliasing.
  const u64 q = 3329;
  Fixture f(q, 13);
  f.array.host_write_word(0, 0, 3000);
  f.array.host_write_word(0, 1, 2000);
  f.exec.run(f.comp.compile_mod_add(0, 0, 1), f.array);
  EXPECT_EQ(f.array.peek_word(0, 0), math::add_mod(3000, 2000, q));
  f.array.host_write_word(0, 0, 100);
  f.exec.run(f.comp.compile_mod_sub(1, 0, 1), f.array);  // dst aliases b
  EXPECT_EQ(f.array.peek_word(0, 1), math::sub_mod(100, 2000, q));
}

}  // namespace
}  // namespace bpntt::core
