// Word semantics of the subarray's compute micro-ops, as inline kernels.
//
// Each kernel is the whole effect of one micro-op on the packed rows, the
// predicate latch and the stuck-at fault masks of one subarray (see
// subarray.h for the storage and mask model).  Kernels check no index and
// count nothing: `subarray::op_*` bounds-checks its operands, runs the
// kernel and charges the op, while the micro-op executor validates a whole
// program once and keeps its counters in locals.  Both call the same
// kernels, so every op's word semantics exist in this file only.
//
// The template parameter W is the number of 64-bit words per row when it
// is known at compile time (4 for the paper's 256-column array), or 0 for
// the run-time `row_view::words`.  The generic and the fixed-width
// instantiations run identical code; a fixed W only lets the compiler
// unroll the word loops.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace bpntt::sram {

enum class logic_fn : std::uint8_t { op_and, op_or, op_xor, op_nor };
enum class shift_dir : std::uint8_t { left, right };  // left = toward tile MSB

// Write-predication mode for ops that store a result row.
enum class write_mask : std::uint8_t {
  none,      // write all columns
  pred,      // write only columns whose predicate latch is 1
  pred_inv,  // write only columns whose predicate latch is 0
};

// Raw word state of one subarray: rows and per-column masks, `words`
// 64-bit words each.  The pointers stay owned by the subarray.
struct row_view {
  std::uint64_t* data = nullptr;  // rows x words, row-major
  unsigned words = 0;             // words per row
  unsigned cols = 0;
  unsigned tile_bits = 0;
  std::uint64_t top_mask = 0;     // valid columns of a row's last word
  std::uint64_t* pred = nullptr;  // predicate latch
  const std::uint64_t* tile_lsb = nullptr;
  const std::uint64_t* tile_msb = nullptr;
  const std::uint64_t* used = nullptr;  // columns inside some tile
  // Stuck-at faults: stored results become (v & ~stuck_low) | stuck_high.
  const std::uint64_t* stuck_low = nullptr;
  const std::uint64_t* stuck_high = nullptr;
};

namespace kernels {

inline constexpr unsigned max_words = 64;  // 4096 columns

template <unsigned W>
[[nodiscard]] inline unsigned words(const row_view& v) noexcept {
  if constexpr (W != 0) {
    return W;
  } else {
    return v.words;
  }
}

// Stack staging buffer for one result row.
template <unsigned W>
using row_words = std::array<std::uint64_t, W != 0 ? W : max_words>;

template <unsigned W>
[[nodiscard]] inline std::uint64_t* row(const row_view& v, unsigned r) noexcept {
  return v.data + std::size_t{r} * words<W>(v);
}

// out = in shifted toward higher columns by s over n words; bits shifted
// past the last word are dropped.  out may alias in.
inline void shift_up(std::uint64_t* out, const std::uint64_t* in, unsigned n, unsigned s) {
  const unsigned ws = s / 64;
  const unsigned bs = s % 64;
  for (unsigned i = n; i-- > 0;) {
    std::uint64_t x = 0;
    if (i >= ws) {
      x = in[i - ws] << bs;
      if (bs != 0 && i > ws) x |= in[i - ws - 1] >> (64 - bs);
    }
    out[i] = x;
  }
}

// out = in shifted toward lower columns by s over n words.  out may alias in.
inline void shift_down(std::uint64_t* out, const std::uint64_t* in, unsigned n, unsigned s) {
  const unsigned ws = s / 64;
  const unsigned bs = s % 64;
  for (unsigned i = 0; i < n; ++i) {
    std::uint64_t x = 0;
    if (i + ws < n) {
      x = in[i + ws] >> bs;
      if (bs != 0 && i + ws + 1 < n) x |= in[i + ws + 1] << (64 - bs);
    }
    out[i] = x;
  }
}

// Store a result row: stuck-column faults first, then the merge under the
// predicate latch.  Reads each word of `value` before writing that word of
// the destination, so `value` may be the destination row itself.
template <unsigned W>
inline void store(const row_view& v, unsigned dst, const std::uint64_t* value, write_mask mask) {
  std::uint64_t* out = row<W>(v, dst);
  for (unsigned w = 0; w < words<W>(v); ++w) {
    const std::uint64_t x = (value[w] & ~v.stuck_low[w]) | v.stuck_high[w];
    // Columns that keep their old value.
    const std::uint64_t keep = mask == write_mask::none ? 0
                               : mask == write_mask::pred ? ~v.pred[w]
                                                          : v.pred[w];
    out[w] = (x & ~keep) | (out[w] & keep);
  }
}

template <unsigned W>
inline void binary(const row_view& v, unsigned dst, unsigned src0, unsigned src1, logic_fn fn,
                   write_mask mask) {
  const unsigned n = words<W>(v);
  const std::uint64_t* a = row<W>(v, src0);
  const std::uint64_t* b = row<W>(v, src1);
  row_words<W> r;
  switch (fn) {
    case logic_fn::op_and:
      for (unsigned w = 0; w < n; ++w) r[w] = a[w] & b[w];
      break;
    case logic_fn::op_or:
      for (unsigned w = 0; w < n; ++w) r[w] = a[w] | b[w];
      break;
    case logic_fn::op_xor:
      for (unsigned w = 0; w < n; ++w) r[w] = a[w] ^ b[w];
      break;
    case logic_fn::op_nor:
      for (unsigned w = 0; w < n; ++w) r[w] = ~(a[w] | b[w]);
      r[n - 1] &= v.top_mask;
      break;
  }
  store<W>(v, dst, r.data(), mask);
}

// Both SA outputs of one dual-row activation are staged before either
// store, so a destination aliasing a source behaves like latched hardware;
// c is stored before s.  c_dst != s_dst.
template <unsigned W>
inline void pair(const row_view& v, unsigned c_dst, unsigned s_dst, unsigned src0, unsigned src1,
                 write_mask mask) {
  const std::uint64_t* a = row<W>(v, src0);
  const std::uint64_t* b = row<W>(v, src1);
  row_words<W> c;
  row_words<W> s;
  for (unsigned w = 0; w < words<W>(v); ++w) {
    c[w] = a[w] & b[w];
    s[w] = a[w] ^ b[w];
  }
  store<W>(v, c_dst, c.data(), mask);
  store<W>(v, s_dst, s.data(), mask);
}

template <unsigned W>
inline void copy(const row_view& v, unsigned dst, unsigned src, bool invert, write_mask mask) {
  const std::uint64_t* in = row<W>(v, src);
  if (invert) {
    const unsigned n = words<W>(v);
    row_words<W> r;
    for (unsigned w = 0; w < n; ++w) r[w] = ~in[w];
    r[n - 1] &= v.top_mask;
    store<W>(v, dst, r.data(), mask);
  } else {
    store<W>(v, dst, in, mask);
  }
}

// Shift a row one column; returns the lossless-shift violations (1-bits
// dropped by a shift declared lossless).
template <unsigned W>
[[nodiscard]] inline std::uint64_t shift(const row_view& v, unsigned dst, unsigned src,
                                         shift_dir dir, bool segmented, bool expect_lossless) {
  const unsigned n = words<W>(v);
  const std::uint64_t* in = row<W>(v, src);
  const bool left = dir == shift_dir::left;
  row_words<W> out;
  if (left) {
    shift_up(out.data(), in, n, 1);
  } else {
    shift_down(out.data(), in, n, 1);
  }
  std::uint64_t violations = 0;
  if (segmented) {
    // A bit leaving a tile through its boundary column is lost, the column
    // it would enter in the next tile is zero-filled, and columns outside
    // any tile are cleared so stale bits cannot drift back in.
    const std::uint64_t* leave = left ? v.tile_msb : v.tile_lsb;
    const std::uint64_t* enter = left ? v.tile_lsb : v.tile_msb;
    std::uint64_t any_lost = 0;
    for (unsigned w = 0; w < n; ++w) {
      if (expect_lossless) any_lost |= in[w] & leave[w];
      out[w] &= v.used[w] & ~enter[w];
    }
    // Violations are rare: count them only when some bit was lost.
    if (any_lost != 0) {
      for (unsigned w = 0; w < n; ++w) {
        violations += static_cast<unsigned>(std::popcount(in[w] & leave[w]));
      }
    }
  } else {
    out[n - 1] &= v.top_mask;
    if (expect_lossless) {
      violations = left ? (in[n - 1] >> ((v.cols - 1) % 64)) & 1ULL : in[0] & 1ULL;
    }
  }
  store<W>(v, dst, out.data(), write_mask::none);
  return violations;
}

// Latch the predicate: x = bit `bit_index` of every tile, moved onto the
// tile's LSB column; (x << k) - x then fills columns [base, base + k) of
// every tile whose bit is set.  Latch columns outside the tiles keep their
// value.  bit_index < tile_bits.
template <unsigned W>
inline void check_pred(const row_view& v, unsigned src, unsigned bit_index) {
  const unsigned n = words<W>(v);
  row_words<W> x;
  row_words<W> spread;
  shift_down(x.data(), row<W>(v, src), n, bit_index);
  for (unsigned w = 0; w < n; ++w) x[w] &= v.tile_lsb[w];
  shift_up(spread.data(), x.data(), n, v.tile_bits);
  std::uint64_t borrow = 0;
  for (unsigned w = 0; w < n; ++w) {
    const std::uint64_t diff = spread[w] - x[w];
    const std::uint64_t fill = diff - borrow;
    borrow = (spread[w] < x[w]) | (diff < borrow);
    v.pred[w] = (v.pred[w] & ~v.used[w]) | fill;
  }
}

// Wired-OR zero test: true when the row holds no 1-bit.
template <unsigned W>
[[nodiscard]] inline bool check_zero(const row_view& v, unsigned src) {
  const std::uint64_t* in = row<W>(v, src);
  std::uint64_t any = 0;
  for (unsigned w = 0; w < words<W>(v); ++w) any |= in[w];
  return any == 0;
}

}  // namespace kernels
}  // namespace bpntt::sram
