// A single SRAM row as a dynamic-width bit vector, plus the packed-word
// field helpers it shares with the subarray's row buffer.
//
// Rows are packed LSB-first into 64-bit words: column c is bit c % 64 of
// word c / 64, and bits past the row width are always 0.  The subarray
// keeps all of its rows in that packed form in one contiguous buffer and
// computes on the words directly; bitrow is only the value type its host
// API uses to hand a whole row in or out (host_write_row, peek, the
// predicate latch).  extract_bits/deposit_bits move a <= 64-bit field
// (one tile's coefficient) in at most two word operations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace bpntt::sram {

// Bits [base, base + count) of a packed row, count <= 64.
[[nodiscard]] std::uint64_t extract_bits(const std::uint64_t* words, unsigned base,
                                         unsigned count) noexcept;
// Overwrite bits [base, base + count) with the low `count` bits of value.
void deposit_bits(std::uint64_t* words, unsigned base, unsigned count,
                  std::uint64_t value) noexcept;

class bitrow {
 public:
  bitrow() = default;
  explicit bitrow(unsigned width);
  // A row of `width` columns from its packed words (ceil(width / 64) of
  // them); bits past the width are dropped.
  bitrow(unsigned width, std::span<const std::uint64_t> words);

  [[nodiscard]] unsigned width() const noexcept { return width_; }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return limbs_; }
  [[nodiscard]] bool get(unsigned i) const noexcept;
  void set(unsigned i, bool v) noexcept;
  void clear() noexcept;
  [[nodiscard]] bool any() const noexcept;
  [[nodiscard]] unsigned popcount() const noexcept;

  // Word accessors used by tile packing (bit `base+i` for i in [0,count)).
  [[nodiscard]] std::uint64_t extract(unsigned base, unsigned count) const noexcept;
  void deposit(unsigned base, unsigned count, std::uint64_t value) noexcept;

  [[nodiscard]] std::string to_string() const;  // MSB-first, e.g. "0110"

  bool operator==(const bitrow& o) const noexcept = default;

 private:
  unsigned width_ = 0;
  std::vector<std::uint64_t> limbs_;
};

}  // namespace bpntt::sram
