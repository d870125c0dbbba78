#include "sram/bitrow.h"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace bpntt::sram {

namespace {
constexpr std::uint64_t low_bits(unsigned count) noexcept {
  return count >= 64 ? ~0ULL : (1ULL << count) - 1;
}
}  // namespace

std::uint64_t extract_bits(const std::uint64_t* words, unsigned base, unsigned count) noexcept {
  assert(count <= 64);
  if (count == 0) return 0;
  const unsigned i = base / 64;
  const unsigned off = base % 64;
  std::uint64_t v = words[i] >> off;
  if (off != 0 && off + count > 64) v |= words[i + 1] << (64 - off);
  return v & low_bits(count);
}

void deposit_bits(std::uint64_t* words, unsigned base, unsigned count,
                  std::uint64_t value) noexcept {
  assert(count <= 64);
  if (count == 0) return;
  const std::uint64_t m = low_bits(count);
  value &= m;
  const unsigned i = base / 64;
  const unsigned off = base % 64;
  words[i] = (words[i] & ~(m << off)) | (value << off);
  if (off != 0 && off + count > 64) {
    const unsigned spill = 64 - off;
    words[i + 1] = (words[i + 1] & ~(m >> spill)) | (value >> spill);
  }
}

bitrow::bitrow(unsigned width) : width_(width), limbs_((width + 63) / 64, 0) {
  if (width == 0) throw std::invalid_argument("bitrow: zero width");
}

bitrow::bitrow(unsigned width, std::span<const std::uint64_t> words) : bitrow(width) {
  if (words.size() != limbs_.size()) throw std::invalid_argument("bitrow: word count mismatch");
  limbs_.assign(words.begin(), words.end());
  if (width_ % 64 != 0) limbs_.back() &= low_bits(width_ % 64);
}

bool bitrow::get(unsigned i) const noexcept {
  assert(i < width_);
  return (limbs_[i / 64] >> (i % 64)) & 1ULL;
}

void bitrow::set(unsigned i, bool v) noexcept {
  assert(i < width_);
  const std::uint64_t mask = 1ULL << (i % 64);
  if (v) {
    limbs_[i / 64] |= mask;
  } else {
    limbs_[i / 64] &= ~mask;
  }
}

void bitrow::clear() noexcept {
  for (auto& l : limbs_) l = 0;
}

bool bitrow::any() const noexcept {
  for (auto l : limbs_) {
    if (l != 0) return true;
  }
  return false;
}

unsigned bitrow::popcount() const noexcept {
  unsigned n = 0;
  for (auto l : limbs_) n += static_cast<unsigned>(std::popcount(l));
  return n;
}

std::uint64_t bitrow::extract(unsigned base, unsigned count) const noexcept {
  assert(count <= 64 && base + count <= width_);
  return extract_bits(limbs_.data(), base, count);
}

void bitrow::deposit(unsigned base, unsigned count, std::uint64_t value) noexcept {
  assert(count <= 64 && base + count <= width_);
  deposit_bits(limbs_.data(), base, count, value);
}

std::string bitrow::to_string() const {
  std::string s;
  s.reserve(width_);
  for (unsigned i = width_; i-- > 0;) s += get(i) ? '1' : '0';
  return s;
}

}  // namespace bpntt::sram
