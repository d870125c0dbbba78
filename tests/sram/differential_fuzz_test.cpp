// Differential fuzzing of the subarray: random micro-op sequences execute
// on the hardware model and on an independent software mirror; every
// state must match after every op.  The mirror keeps one byte per column
// and does per-column logic and per-tile word arithmetic (shifts, the
// predicate broadcast), so it shares nothing with the simulator's packed
// word-parallel rows.  Compared after each op: every row including the
// columns outside any tile, the predicate latch, the zero flag and the
// lossless-shift violation count.  Covered: all four logic functions and
// the fused pair under every write mask, copies with inversion, segmented
// and unsegmented shifts in both directions, stuck-at columns, and tile
// width reconfiguration.  This catches cross-tile and cross-word leaks,
// predicate/mask bugs and aliasing hazards that directed tests might miss.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "common/xoshiro.h"
#include "sram/subarray.h"

namespace bpntt::sram {
namespace {

constexpr unsigned kRows = 12;

using column_bits = std::vector<std::uint8_t>;

struct mirror {
  explicit mirror(tile_geometry geom)
      : g(geom), rows(kRows, column_bits(geom.cols, 0)), pred(geom.cols, 0) {}

  tile_geometry g;
  std::vector<column_bits> rows;
  column_bits pred;
  std::vector<std::pair<unsigned, bool>> stuck;
  std::uint64_t violations = 0;
  bool zero = false;

  [[nodiscard]] std::uint64_t mask() const {
    return g.tile_bits == 64 ? ~0ULL : (1ULL << g.tile_bits) - 1;
  }
  [[nodiscard]] std::uint64_t tile(const column_bits& r, unsigned t) const {
    std::uint64_t v = 0;
    for (unsigned b = 0; b < g.tile_bits; ++b) v |= std::uint64_t{r[t * g.tile_bits + b]} << b;
    return v;
  }
  void set_tile(column_bits& r, unsigned t, std::uint64_t v) const {
    for (unsigned b = 0; b < g.tile_bits; ++b) r[t * g.tile_bits + b] = (v >> b) & 1U;
  }

  // Faults force the result, then the write mask picks the columns.
  void write(unsigned dst, column_bits v, write_mask wm) {
    for (const auto& [col, value] : stuck) v[col] = value ? 1 : 0;
    for (unsigned c = 0; c < g.cols; ++c) {
      const bool on = wm == write_mask::none || (wm == write_mask::pred && pred[c] != 0) ||
                      (wm == write_mask::pred_inv && pred[c] == 0);
      if (on) rows[dst][c] = v[c];
    }
  }
  [[nodiscard]] column_bits logic(unsigned s0, unsigned s1, logic_fn fn) const {
    column_bits v(g.cols);
    for (unsigned c = 0; c < g.cols; ++c) {
      const unsigned a = rows[s0][c], b = rows[s1][c];
      switch (fn) {
        case logic_fn::op_and: v[c] = a & b; break;
        case logic_fn::op_or: v[c] = a | b; break;
        case logic_fn::op_xor: v[c] = a ^ b; break;
        case logic_fn::op_nor: v[c] = (a | b) ^ 1U; break;
      }
    }
    return v;
  }
  void binary(unsigned dst, unsigned s0, unsigned s1, logic_fn fn, write_mask wm) {
    write(dst, logic(s0, s1, fn), wm);
  }
  void pair(unsigned c, unsigned s, unsigned s0, unsigned s1, write_mask wm) {
    column_bits carry = logic(s0, s1, logic_fn::op_and);
    column_bits sum = logic(s0, s1, logic_fn::op_xor);
    write(c, std::move(carry), wm);
    write(s, std::move(sum), wm);
  }
  void copy(unsigned dst, unsigned src, bool invert, write_mask wm) {
    column_bits v = rows[src];
    if (invert) {
      for (auto& b : v) b ^= 1U;
    }
    write(dst, std::move(v), wm);
  }
  void shift(unsigned dst, unsigned src, shift_dir dir, bool segmented, bool lossless) {
    const bool left = dir == shift_dir::left;
    const column_bits& in = rows[src];
    column_bits v(g.cols, 0);
    if (segmented) {
      for (unsigned t = 0; t < g.num_tiles(); ++t) {
        const std::uint64_t w = tile(in, t);
        const std::uint64_t lost = left ? (w >> (g.tile_bits - 1)) & 1U : w & 1U;
        if (lossless) violations += lost;
        set_tile(v, t, left ? (w << 1) & mask() : w >> 1);
      }
    } else {
      for (unsigned c = 0; c < g.cols; ++c) {
        if (left) {
          v[c] = c > 0 ? in[c - 1] : 0;
        } else {
          v[c] = c + 1 < g.cols ? in[c + 1] : 0;
        }
      }
      if (lossless) violations += left ? in[g.cols - 1] : in[0];
    }
    write(dst, std::move(v), write_mask::none);
  }
  void check_pred(unsigned src, unsigned bit) {
    for (unsigned t = 0; t < g.num_tiles(); ++t) {
      const std::uint8_t p = (tile(rows[src], t) >> bit) & 1U;
      for (unsigned b = 0; b < g.tile_bits; ++b) pred[t * g.tile_bits + b] = p;
    }
  }
  void check_zero(unsigned src) {
    zero = true;
    for (const auto b : rows[src]) zero = zero && b == 0;
  }
};

bool matches(const bitrow& hw, const column_bits& sw) {
  for (unsigned c = 0; c < hw.width(); ++c) {
    if (hw.get(c) != (sw[c] != 0)) return false;
  }
  return true;
}

bitrow random_row(common::xoshiro256ss& rng, unsigned cols) {
  bitrow r(cols);
  for (unsigned c = 0; c < cols; ++c) r.set(c, rng.coin());
  return r;
}

// Tile widths a reconfiguration step may pick (those that fit the array).
constexpr unsigned kWidths[] = {2, 3, 5, 7, 8, 11, 13, 14, 16, 17, 31, 32, 33, 63, 64};

void fuzz_against_mirror(const tile_geometry& geom, std::uint64_t seed) {
  common::xoshiro256ss rng(seed);
  for (int trial = 0; trial < 30; ++trial) {
    subarray hw(kRows, geom, tech_45nm());
    mirror sw(geom);
    for (unsigned r = 0; r < kRows; ++r) {
      const bitrow v = random_row(rng, geom.cols);
      hw.host_write_row(r, v);
      for (unsigned c = 0; c < geom.cols; ++c) sw.rows[r][c] = v.get(c) ? 1 : 0;
    }
    for (int step = 0; step < 300; ++step) {
      const auto dst = static_cast<unsigned>(rng.below(kRows));
      const auto s0 = static_cast<unsigned>(rng.below(kRows));
      const auto s1 = static_cast<unsigned>(rng.below(kRows));
      const auto wm = static_cast<write_mask>(rng.below(3));
      const auto dir = rng.coin() ? shift_dir::left : shift_dir::right;
      switch (rng.below(20)) {
        case 0:
        case 1:
        case 2: {
          const auto fn = static_cast<logic_fn>(rng.below(4));
          hw.op_binary(dst, s0, s1, fn, wm);
          sw.binary(dst, s0, s1, fn, wm);
          break;
        }
        case 3:
        case 4:
        case 5: {
          // pair destinations must differ; derive a second one.
          const unsigned s_dst = (dst + 1) % kRows;
          hw.op_pair(dst, s_dst, s0, s1, wm);
          sw.pair(dst, s_dst, s0, s1, wm);
          break;
        }
        case 6:
        case 7:
        case 8: {
          const bool invert = rng.coin();
          hw.op_copy(dst, s0, invert, wm);
          sw.copy(dst, s0, invert, wm);
          break;
        }
        case 9:
        case 10:
        case 11:
        case 12: {
          const bool segmented = rng.below(4) != 0;
          const bool lossless = rng.coin();
          hw.op_shift(dst, s0, dir, segmented, lossless);
          sw.shift(dst, s0, dir, segmented, lossless);
          break;
        }
        case 13:
        case 14:
        case 15: {
          const auto bit = static_cast<unsigned>(rng.below(sw.g.tile_bits));
          hw.op_check_pred(s0, bit);
          sw.check_pred(s0, bit);
          break;
        }
        case 16:
        case 17: {
          sw.check_zero(s0);
          ASSERT_EQ(hw.op_check_zero(s0), sw.zero) << "trial " << trial << " step " << step;
          ASSERT_EQ(hw.zero_flag(), sw.zero);
          break;
        }
        case 18: {
          // Faults are rare and usually cleared again, so most steps run on
          // healthy columns.
          if (sw.stuck.size() < 3 && rng.below(3) == 0) {
            const auto col = static_cast<unsigned>(rng.below(geom.cols));
            const bool value = rng.coin();
            hw.inject_stuck_column(col, value);
            sw.stuck.emplace_back(col, value);
          } else if (!sw.stuck.empty() && rng.coin()) {
            hw.clear_faults();
            sw.stuck.clear();
          } else {
            const auto row = static_cast<unsigned>(rng.below(kRows));
            const bitrow v = random_row(rng, geom.cols);
            hw.host_write_row(row, v);
            for (unsigned c = 0; c < geom.cols; ++c) sw.rows[row][c] = v.get(c) ? 1 : 0;
          }
          break;
        }
        case 19: {
          if (rng.below(8) != 0) break;
          const unsigned bits = kWidths[rng.below(std::size(kWidths))];
          if (bits > geom.cols) break;
          hw.set_tile_bits(bits);
          sw.g.tile_bits = bits;
          break;
        }
      }
      const std::string where = "trial " + std::to_string(trial) + " step " +
                                std::to_string(step) + " tile_bits " +
                                std::to_string(sw.g.tile_bits);
      for (unsigned r = 0; r < kRows; ++r) {
        ASSERT_TRUE(matches(hw.peek(r), sw.rows[r])) << where << " row " << r;
      }
      ASSERT_TRUE(matches(hw.predicate_mask(), sw.pred)) << where << " predicate latch";
      ASSERT_EQ(hw.stats().lossless_shift_violations, sw.violations) << where;
    }
  }
}

TEST(DifferentialFuzz, RandomOpSequencesMatchSoftwareMirror) {
  // 4 tiles of a deliberately odd width, not a power of two, in one word.
  fuzz_against_mirror(tile_geometry{44, 11}, 0xF00D);
}

struct fuzz_geometry {
  const char* name;
  tile_geometry geom;
};

// Names the parameter in test output (the default would print raw bytes,
// including the name pointer).
void PrintTo(const fuzz_geometry& g, std::ostream* os) { *os << g.name; }

class DifferentialFuzzGeometry : public ::testing::TestWithParam<fuzz_geometry> {};

TEST_P(DifferentialFuzzGeometry, RandomOpSequencesMatchSoftwareMirror) {
  const tile_geometry g = GetParam().geom;
  fuzz_against_mirror(g, 0xF00D + 64 * g.cols + g.tile_bits);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DifferentialFuzzGeometry,
    ::testing::Values(
        // The Table I array: 16 lanes of 16 bits, four full words.
        fuzz_geometry{"cols256_k16", {256, 16}},
        // 18 tiles of 14 bits: tiles straddle word boundaries, 4 spare columns.
        fuzz_geometry{"cols256_k14", {256, 14}},
        // cols % 64 != 0: a partial last word and 8 columns outside any tile.
        fuzz_geometry{"cols200_k16", {200, 16}},
        // 35 two-bit tiles: every other column is a tile boundary.
        fuzz_geometry{"cols70_k2", {70, 2}}),
    [](const ::testing::TestParamInfo<fuzz_geometry>& info) { return info.param.name; });

TEST(DifferentialFuzz, SegmentedShiftNeverLeaksAcrossTiles) {
  // Adversarial pattern: alternate all-ones / all-zeros tiles, shift both
  // directions repeatedly; the zero tiles must stay zero forever.
  for (const tile_geometry geom : {tile_geometry{44, 11}, tile_geometry{256, 16},
                                   tile_geometry{256, 14}, tile_geometry{200, 16},
                                   tile_geometry{70, 2}}) {
    subarray hw(4, geom, tech_45nm());
    const std::uint64_t ones = (1ULL << geom.tile_bits) - 1;
    for (unsigned t = 0; t < geom.num_tiles(); ++t) {
      hw.host_write_word(t, 0, (t % 2 == 0) ? ones : 0);
    }
    for (int i = 0; i < 2 * static_cast<int>(geom.tile_bits); ++i) {
      hw.op_shift(0, 0, i % 2 ? shift_dir::left : shift_dir::right, true);
      for (unsigned t = 1; t < geom.num_tiles(); t += 2) {
        ASSERT_EQ(hw.peek_word(t, 0), 0u) << geom.cols << "/" << geom.tile_bits << " iteration "
                                          << i;
      }
    }
  }
}

}  // namespace
}  // namespace bpntt::sram
