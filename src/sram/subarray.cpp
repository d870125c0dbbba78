#include "sram/subarray.h"

#include <algorithm>
#include <stdexcept>

namespace bpntt::sram {

namespace {

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

row_view subarray::raw() noexcept {
  return {.data = data_.data(),
          .words = words_,
          .cols = geom_.cols,
          .tile_bits = geom_.tile_bits,
          .top_mask = top_mask_,
          .pred = pred_.data(),
          .tile_lsb = tile_lsb_.data(),
          .tile_msb = tile_msb_.data(),
          .used = used_.data(),
          .stuck_low = stuck_low_.data(),
          .stuck_high = stuck_high_.data()};
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
  bounds(dst);
  kernels::binary<0>(raw(), dst, src0, src1, fn, mask);
  ++stats_.binary_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.binary;
}

void subarray::op_pair(unsigned c_dst, unsigned s_dst, unsigned src0, unsigned src1,
                       write_mask mask) {
  bounds(src0);
  bounds(src1);
  bounds(c_dst);
  bounds(s_dst);
  if (c_dst == s_dst) throw std::invalid_argument("subarray: pair destinations collide");
  kernels::pair<0>(raw(), c_dst, s_dst, src0, src1, mask);
  ++stats_.pair_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.pair;
}

void subarray::op_copy(unsigned dst, unsigned src, bool invert, write_mask mask) {
  bounds(src);
  bounds(dst);
  kernels::copy<0>(raw(), dst, src, invert, mask);
  ++stats_.copy_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.copy;
}

void subarray::op_shift(unsigned dst, unsigned src, shift_dir dir, bool segmented,
                        bool expect_lossless) {
  bounds(src);
  bounds(dst);
  stats_.lossless_shift_violations +=
      kernels::shift<0>(raw(), dst, src, dir, segmented, expect_lossless);
  ++stats_.shift_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.shift;
}

void subarray::op_check_pred(unsigned src, unsigned bit_index) {
  bounds(src);
  if (bit_index >= geom_.tile_bits) throw std::out_of_range("subarray: predicate bit index");
  kernels::check_pred<0>(raw(), src, bit_index);
  ++stats_.check_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.check;
}

bool subarray::op_check_zero(unsigned src) {
  bounds(src);
  zero_flag_ = kernels::check_zero<0>(raw(), src);
  ++stats_.check_ops;
  ++stats_.cycles;
  stats_.energy_pj += energy_.check;
  return zero_flag_;
}

}  // namespace bpntt::sram
