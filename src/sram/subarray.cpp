#include "sram/subarray.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace bpntt::sram {

namespace {

// out = in shifted toward higher columns by s over n words; bits shifted
// past the last word are dropped.  out may alias in.
void shift_up(std::uint64_t* out, const std::uint64_t* in, unsigned n, unsigned s) {
  const unsigned ws = s / 64;
  const unsigned bs = s % 64;
  for (unsigned i = n; i-- > 0;) {
    std::uint64_t v = 0;
    if (i >= ws) {
      v = in[i - ws] << bs;
      if (bs != 0 && i > ws) v |= in[i - ws - 1] >> (64 - bs);
    }
    out[i] = v;
  }
}

// out = in shifted toward lower columns by s over n words.  out may alias in.
void shift_down(std::uint64_t* out, const std::uint64_t* in, unsigned n, unsigned s) {
  const unsigned ws = s / 64;
  const unsigned bs = s % 64;
  for (unsigned i = 0; i < n; ++i) {
    std::uint64_t v = 0;
    if (i + ws < n) {
      v = in[i + ws] >> bs;
      if (bs != 0 && i + ws + 1 < n) v |= in[i + ws + 1] << (64 - bs);
    }
    out[i] = v;
  }
}

void set_col(std::vector<std::uint64_t>& words, unsigned col, bool v) {
  const std::uint64_t bit = 1ULL << (col % 64);
  if (v) {
    words[col / 64] |= bit;
  } else {
    words[col / 64] &= ~bit;
  }
}

}  // namespace

subarray::subarray(unsigned rows, tile_geometry geom, tech_params tech)
    : geom_(geom), tech_(std::move(tech)), rows_(rows) {
  geom_.validate();
  if (rows == 0 || rows > max_rows) throw std::invalid_argument("subarray: rows out of range");
  if (geom_.cols > max_cols) throw std::invalid_argument("subarray: cols out of range");
  words_ = (geom_.cols + 63) / 64;
  top_mask_ = geom_.cols % 64 == 0 ? ~0ULL : (1ULL << (geom_.cols % 64)) - 1;
  data_.assign(std::size_t{rows_} * words_, 0);
  pred_.assign(words_, 0);
  stuck_low_.assign(words_, 0);
  stuck_high_.assign(words_, 0);

  const unsigned cols = geom_.cols;
  energy_.binary = energy_compute_op_pj(tech_, cols, 2, true);
  // The fused pair op drives a second result row.
  energy_.pair = energy_.binary + cols * tech_.e_write_fj_per_col * 1e-3;
  energy_.copy = energy_compute_op_pj(tech_, cols, 1, true);
  energy_.shift = energy_shift_op_pj(tech_, cols);
  energy_.check = energy_check_op_pj(tech_, cols);
  configure_tiles();
}

void subarray::configure_tiles() {
  tile_lsb_.assign(words_, 0);
  tile_msb_.assign(words_, 0);
  used_.assign(words_, 0);
  for (unsigned t = 0; t < geom_.num_tiles(); ++t) {
    const unsigned base = geom_.tile_base(t);
    set_col(tile_lsb_, base, true);
    set_col(tile_msb_, base + geom_.tile_bits - 1, true);
  }
  for (unsigned c = 0; c < geom_.used_cols(); ++c) set_col(used_, c, true);
  energy_.word_write = energy_compute_op_pj(tech_, geom_.tile_bits, 1, true);
  energy_.word_read = energy_compute_op_pj(tech_, geom_.tile_bits, 1, false);
}

void subarray::set_tile_bits(unsigned tile_bits) {
  tile_geometry g = geom_;
  g.tile_bits = tile_bits;
  g.validate();
  geom_ = g;
  configure_tiles();
}

void subarray::bounds(unsigned row) const {
  if (row >= rows_) throw std::out_of_range("subarray: row index");
}

void subarray::host_write_row(unsigned r, const bitrow& value) {
  bounds(r);
  if (value.width() != geom_.cols) throw std::invalid_argument("subarray: row width mismatch");
  std::ranges::copy(value.words(), row(r));
  ++stats_.host_writes;
  ++stats_.cycles;
  stats_.energy_pj += energy_.copy;  // one row activated and written back
}

bitrow subarray::host_read_row(unsigned r) {
  bounds(r);
  ++stats_.host_reads;
  ++stats_.cycles;
  stats_.energy_pj += energy_.check;  // one row activated, no write back
  return bitrow(geom_.cols, {row(r), words_});
}

void subarray::host_write_word(unsigned tile, unsigned r, std::uint64_t value) {
  bounds(r);
  deposit_bits(row(r), geom_.tile_base(tile), geom_.tile_bits, value);
  ++stats_.host_writes;
  ++stats_.cycles;
  stats_.energy_pj += energy_.word_write;
}

std::uint64_t subarray::host_read_word(unsigned tile, unsigned r) {
  bounds(r);
  ++stats_.host_reads;
  ++stats_.cycles;
  stats_.energy_pj += energy_.word_read;
  return extract_bits(row(r), geom_.tile_base(tile), geom_.tile_bits);
}

bitrow subarray::peek(unsigned r) const {
  bounds(r);
  return bitrow(geom_.cols, {row(r), words_});
}

std::uint64_t subarray::peek_word(unsigned tile, unsigned r) const {
  bounds(r);
  return extract_bits(row(r), geom_.tile_base(tile), geom_.tile_bits);
}

void subarray::store(unsigned dst, const std::uint64_t* v, write_mask mask) {
  bounds(dst);
  std::uint64_t* out = row(dst);
  for (unsigned w = 0; w < words_; ++w) {
    const std::uint64_t x = (v[w] & ~stuck_low_[w]) | stuck_high_[w];
    // Columns that keep their old value.
    const std::uint64_t keep = mask == write_mask::none ? 0
                               : mask == write_mask::pred ? ~pred_[w]
                                                          : pred_[w];
    out[w] = (x & ~keep) | (out[w] & keep);
  }
}

void subarray::inject_stuck_column(unsigned col, bool value) {
  if (col >= geom_.cols) throw std::out_of_range("subarray: fault column");
  set_col(stuck_high_, col, value);
  set_col(stuck_low_, col, !value);
}

void subarray::clear_faults() noexcept {
  std::ranges::fill(stuck_low_, 0);
  std::ranges::fill(stuck_high_, 0);
}

void subarray::op_binary(unsigned dst, unsigned src0, unsigned src1, logic_fn fn,
                         write_mask mask) {
  bounds(src0);
  bounds(src1);
  const std::uint64_t* a = row(src0);
  const std::uint64_t* b = row(src1);
  row_words r;
  switch (fn) {
    case logic_fn::op_and:
      for (unsigned w = 0; w < words_; ++w) r[w] = a[w] & b[w];
      break;
    case logic_fn::op_or:
      for (unsigned w = 0; w < words_; ++w) r[w] = a[w] | b[w];
      break;
    case logic_fn::op_xor:
      for (unsigned w = 0; w < words_; ++w) r[w] = a[w] ^ b[w];
      break;
    case logic_fn::op_nor:
      for (unsigned w = 0; w < words_; ++w) r[w] = ~(a[w] | b[w]);
      r[words_ - 1] &= top_mask_;
      break;
  }
  store(dst, r.data(), mask);
  ++stats_.binary_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.binary;
}

void subarray::op_pair(unsigned c_dst, unsigned s_dst, unsigned src0, unsigned src1,
                       write_mask mask) {
  bounds(src0);
  bounds(src1);
  if (c_dst == s_dst) throw std::invalid_argument("subarray: pair destinations collide");
  // Both SA outputs of one dual-row activation are staged before either
  // store, so a destination aliasing a source behaves like latched hardware.
  const std::uint64_t* a = row(src0);
  const std::uint64_t* b = row(src1);
  row_words c;
  row_words s;
  for (unsigned w = 0; w < words_; ++w) {
    c[w] = a[w] & b[w];
    s[w] = a[w] ^ b[w];
  }
  store(c_dst, c.data(), mask);
  store(s_dst, s.data(), mask);
  ++stats_.pair_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.pair;
}

void subarray::op_copy(unsigned dst, unsigned src, bool invert, write_mask mask) {
  bounds(src);
  const std::uint64_t* in = row(src);
  if (invert) {
    row_words r;
    for (unsigned w = 0; w < words_; ++w) r[w] = ~in[w];
    r[words_ - 1] &= top_mask_;
    store(dst, r.data(), mask);
  } else {
    store(dst, in, mask);  // store reads each word before writing it
  }
  ++stats_.copy_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.copy;
}

void subarray::op_shift(unsigned dst, unsigned src, shift_dir dir, bool segmented,
                        bool expect_lossless) {
  bounds(src);
  const std::uint64_t* in = row(src);
  const bool left = dir == shift_dir::left;
  row_words out;
  if (left) {
    shift_up(out.data(), in, words_, 1);
  } else {
    shift_down(out.data(), in, words_, 1);
  }
  if (segmented) {
    // A bit leaving a tile through its boundary column is lost, the column
    // it would enter in the next tile is zero-filled, and columns outside
    // any tile are cleared so stale bits cannot drift back in.
    const std::uint64_t* leave = left ? tile_msb_.data() : tile_lsb_.data();
    const std::uint64_t* enter = left ? tile_lsb_.data() : tile_msb_.data();
    for (unsigned w = 0; w < words_; ++w) {
      const std::uint64_t lost = expect_lossless ? in[w] & leave[w] : 0;
      if (lost != 0) stats_.lossless_shift_violations += static_cast<unsigned>(std::popcount(lost));
      out[w] &= used_[w] & ~enter[w];
    }
  } else {
    out[words_ - 1] &= top_mask_;
    if (expect_lossless) {
      const bool lost = left ? (in[words_ - 1] >> ((geom_.cols - 1) % 64)) & 1ULL : in[0] & 1ULL;
      if (lost) ++stats_.lossless_shift_violations;
    }
  }
  store(dst, out.data(), write_mask::none);
  ++stats_.shift_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.shift;
}

void subarray::op_check_pred(unsigned src, unsigned bit_index) {
  bounds(src);
  if (bit_index >= geom_.tile_bits) throw std::out_of_range("subarray: predicate bit index");
  // x = bit `bit_index` of every tile, moved onto the tile's LSB column;
  // (x << k) - x then fills columns [base, base + k) of every tile whose
  // bit is set.  Latch columns outside the tiles keep their value.
  row_words x;
  row_words spread;
  shift_down(x.data(), row(src), words_, bit_index);
  for (unsigned w = 0; w < words_; ++w) x[w] &= tile_lsb_[w];
  shift_up(spread.data(), x.data(), words_, geom_.tile_bits);
  std::uint64_t borrow = 0;
  for (unsigned w = 0; w < words_; ++w) {
    const std::uint64_t diff = spread[w] - x[w];
    const std::uint64_t fill = diff - borrow;
    borrow = (spread[w] < x[w]) | (diff < borrow);
    pred_[w] = (pred_[w] & ~used_[w]) | fill;
  }
  ++stats_.check_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.check;
}

bool subarray::op_check_zero(unsigned src) {
  bounds(src);
  const std::uint64_t* in = row(src);
  std::uint64_t any = 0;
  for (unsigned w = 0; w < words_; ++w) any |= in[w];
  zero_flag_ = any == 0;
  ++stats_.check_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.check;
  return zero_flag_;
}

}  // namespace bpntt::sram
