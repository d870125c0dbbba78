// Cycle-level model of one compute-enabled 6T SRAM subarray.
//
// Operations model what the modified sense amplifiers of Fig. 5(b) can do in
// a single array cycle:
//
// * `op_binary`    — activate two wordlines; the SA senses AND (bitline) and
//                    NOR (complement bitline) simultaneously and derives
//                    XOR/OR; one result row is written back.
// * `op_pair`      — same activation, but both half-adder outputs
//                    {AND -> c_dst, XOR -> s_dst} are written (dual write
//                    drivers; see docs/DESIGN.md §3 "Fused AND/XOR").
// * `op_copy`      — single-row activation, optional output inversion.
// * `op_shift`     — read a row, rotate the SA latch one column left/right,
//                    write back.  In tile-segmented mode bits never cross
//                    tile boundaries (zero fill), modelling the configurable
//                    shifter segmentation that the reconfigurable tile width
//                    requires.
// * `op_check_*`   — the Fig. 4(d) `Check` instruction: latch a per-tile
//                    predicate bit (broadcast across the tile as a
//                    per-column write mask) or perform a wired-OR zero test
//                    whose flag the controller can branch on.
//
// Predicated writes (masked / masked-inverted) implement the data-dependent
// `m = M or 0` selection of Algorithm 2 line 11 and the conditional
// corrections of modular add/sub.
//
// The model also enforces the paper's two structural observations: shifts
// flagged `expect_lossless` count any dropped 1-bit as a violation
// (Observation 1 for `Carry << 1`, Observation 2 for `s1 >> 1`).
//
// Storage and mask model.  All rows live in one contiguous buffer of 64-bit
// words with a fixed stride of ceil(cols / 64) words per row; column c of a
// row is bit c % 64 of its word c / 64, and bits past `cols` stay 0.  A
// micro-op is a handful of in-place word operations:
//
// * the word semantics of every op live in the inline kernels of
//   row_kernels.h, which the micro-op executor runs as well;
// * a result is staged in a fixed-size stack buffer before it is stored, so
//   a destination aliasing a source sees latched operands (as the SA
//   latches do) and `op_pair` stores c before s; a plain copy is stored
//   straight from its source row, as the store reads each word before
//   writing it;
// * the store applies stuck-column faults to the result, then merges it
//   under the predicate latch for masked writes;
// * tile structure is three column masks precomputed for the current tile
//   width — every tile's LSB column, every tile's MSB column, and the
//   columns inside some tile.  A segmented shift is a whole-row word shift
//   ANDed with them, and a lossless-shift violation count is
//   popcount(src & boundary column);
// * the predicate broadcast gathers bit `bit_index` of every tile onto the
//   tile LSB columns (x) and spreads it over the tile as (x << k) - x, a
//   multiword subtraction; the zero test is an OR-reduce.
//
// Energy per op class is computed once from the tech_model expressions and
// added once per op, so `energy_pj` is the same sum a per-op evaluation
// would give.
#pragma once

#include <cstdint>
#include <vector>

#include "sram/bitrow.h"
#include "sram/row_kernels.h"
#include "sram/stats.h"
#include "sram/tech_model.h"
#include "sram/tile.h"

namespace bpntt::sram {

class subarray {
 public:
  subarray(unsigned rows, tile_geometry geom, tech_params tech);

  [[nodiscard]] unsigned rows() const noexcept { return rows_; }
  [[nodiscard]] unsigned cols() const noexcept { return geom_.cols; }
  [[nodiscard]] const tile_geometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] const tech_params& tech() const noexcept { return tech_; }
  [[nodiscard]] const op_stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  // Reconfigure the tile width (the paper's bitwidth flexibility).  Data and
  // the predicate latch are left in place; callers reload their layout
  // afterwards.
  void set_tile_bits(unsigned tile_bits);

  // --- Host (non-compute) access: ordinary cache reads/writes. ---
  void host_write_row(unsigned row, const bitrow& value);
  [[nodiscard]] bitrow host_read_row(unsigned row);
  void host_write_word(unsigned tile, unsigned row, std::uint64_t value);
  [[nodiscard]] std::uint64_t host_read_word(unsigned tile, unsigned row);
  // Debug peek that does not touch statistics (used by tests/traces).
  [[nodiscard]] bitrow peek(unsigned row) const;
  [[nodiscard]] std::uint64_t peek_word(unsigned tile, unsigned row) const;

  // --- Compute micro-ops (1 array cycle each). ---
  void op_binary(unsigned dst, unsigned src0, unsigned src1, logic_fn fn,
                 write_mask mask = write_mask::none);
  void op_pair(unsigned c_dst, unsigned s_dst, unsigned src0, unsigned src1,
               write_mask mask = write_mask::none);
  void op_copy(unsigned dst, unsigned src, bool invert = false,
               write_mask mask = write_mask::none);
  void op_shift(unsigned dst, unsigned src, shift_dir dir, bool segmented = true,
                bool expect_lossless = false);
  void op_check_pred(unsigned src, unsigned bit_index);
  bool op_check_zero(unsigned src);

  [[nodiscard]] bool zero_flag() const noexcept { return zero_flag_; }
  [[nodiscard]] bitrow predicate_mask() const { return bitrow(geom_.cols, pred_); }

  // Energy charged per op, in pJ.
  struct op_energy {
    double binary = 0;      // dual-row activation, one result row
    double pair = 0;        // dual-row activation, two result rows
    double copy = 0;        // single-row activation with write back
    double shift = 0;
    double check = 0;
    double word_write = 0;  // host tile write (tile-width dependent)
    double word_read = 0;   // host tile read (tile-width dependent)
  };
  [[nodiscard]] const op_energy& energy() const noexcept { return energy_; }

  // --- Unchecked access for a micro-op executor that validates row and
  // bit indices once per program and keeps its counters in locals.  It runs
  // the row kernels on raw() and hands back its totals (which must count
  // and charge each op exactly as op_* would) and the zero flag on every
  // exit through set_counters().
  [[nodiscard]] row_view raw() noexcept;
  void set_counters(const op_stats& stats, bool zero_flag) noexcept {
    stats_ = stats;
    zero_flag_ = zero_flag;
  }

  // --- Fault injection (test harness): a stuck-at fault on one sense
  // amplifier forces that column of every *written* result to `value`.
  // Models a manufacturing defect; used to prove end-to-end verification
  // detects silent data corruption.
  void inject_stuck_column(unsigned col, bool value);
  void clear_faults() noexcept;

 private:
  static constexpr unsigned max_rows = 4096;
  static constexpr unsigned max_cols = kernels::max_words * 64;

  [[nodiscard]] std::uint64_t* row(unsigned r) noexcept {
    return data_.data() + std::size_t{r} * words_;
  }
  [[nodiscard]] const std::uint64_t* row(unsigned r) const noexcept {
    return data_.data() + std::size_t{r} * words_;
  }
  void bounds(unsigned row) const;
  // Recompute the tile masks and the tile-width-dependent energies.
  void configure_tiles();

  tile_geometry geom_;
  tech_params tech_;
  unsigned rows_ = 0;
  unsigned words_ = 0;               // words per row
  std::uint64_t top_mask_ = 0;       // valid columns of a row's last word
  std::vector<std::uint64_t> data_;  // rows_ x words_, row-major
  // Per-column masks, words_ each.
  std::vector<std::uint64_t> pred_;  // predicate latch
  std::vector<std::uint64_t> tile_lsb_;
  std::vector<std::uint64_t> tile_msb_;
  std::vector<std::uint64_t> used_;  // columns inside some tile
  // Stuck-at faults: stored results become (v & ~stuck_low_) | stuck_high_.
  std::vector<std::uint64_t> stuck_low_;
  std::vector<std::uint64_t> stuck_high_;
  bool zero_flag_ = false;
  op_stats stats_;
  op_energy energy_;
};

}  // namespace bpntt::sram
