// Fig. 7 reproduction: memory footprint of in-memory NTT designs for a
// 32-bit, 128-point polynomial.
//
// BP-NTT's bit-parallel row-major layout needs n+6 rows x k columns
// (4288 cells); MeNTT's bit-serial layout needs ~(n+2) rows x n columns of
// per-column word storage; RM-NTT's vector-matrix formulation materialises
// an n x n twiddle matrix of k-bit entries.  The cell counts below follow
// each paper's own accounting as cited in Fig. 7.
#include <cstdio>

#include "bpntt/layout.h"
#include "common/table.h"

namespace {

struct footprint {
  const char* design;
  const char* layout;
  std::uint64_t rows;
  std::uint64_t cols;
  std::uint64_t cells() const { return rows * cols; }
};

}  // namespace

int main() {
  constexpr std::uint64_t n = 128;
  constexpr unsigned k = 32;

  std::printf("=== Fig. 7: in-memory data layout for NTT on a 32-bit, 128-point "
              "polynomial ===\n\n");

  const footprint designs[] = {
      // BP-NTT: coefficients down the rows of one k-bit tile + 6
      // intermediate rows (the paper's accounting).
      {"BP-NTT", "bit-parallel rows (SRAM)", n + bpntt::core::row_layout::scratch_rows, k},
      // MeNTT: bit-serial columns; 128 coefficient columns of 128 rows plus
      // two transposed scratch rows of words -> 130 x 128 (paper: 16,640).
      {"MeNTT", "bit-serial columns (SRAM)", 130, 128},
      // RM-NTT: vector-matrix product needs an n x n matrix of 32-bit
      // entries -> 128 x 4096 (paper: 524,288).
      {"RM-NTT", "vector-matrix (ReRAM)", 128, 4096},
  };

  bpntt::common::text_table t({"Design", "Layout", "Rows", "Cols", "Cells", "vs BP-NTT"});
  const double base = static_cast<double>(designs[0].cells());
  for (const auto& d : designs) {
    t.add_row({d.design, d.layout, std::to_string(d.rows), std::to_string(d.cols),
               std::to_string(d.cells()),
               bpntt::common::format_double(d.cells() / base, 1) + "x"});
  }
  std::printf("%s\n", t.to_string(2).c_str());

  std::printf("Paper reports: BP-NTT 4288 cells (134 x 32), MeNTT 16,640, RM-NTT 524,288.\n");
  std::printf("Ours (paper accounting): %llu cells.\n",
              static_cast<unsigned long long>(
                  bpntt::core::row_layout::footprint_cells_paper(n, k)));
  std::printf("Ours (incl. our 3 constant rows M, 2^k-M, 1): %llu cells — "
              "see docs/DESIGN.md §6.\n",
              static_cast<unsigned long long>(
                  bpntt::core::row_layout::footprint_cells_actual(n, k)));

  // Capacity claims from §I: one 256x256 subarray.
  std::printf("\nCapacity of one 256x256 subarray (+6 intermediate rows):\n");
  struct cap {
    unsigned k;
    std::uint64_t points;
  } caps[] = {{256, 250}, {14, 4500}, {16, 4000}, {32, 2000}};
  for (const auto& c : caps) {
    const unsigned tiles = 256 / c.k;
    const std::uint64_t pts = static_cast<std::uint64_t>(tiles) * 250;
    std::printf("  %3u-bit coefficients: %2u tiles x 250 rows = %llu-point capacity%s\n", c.k,
                tiles, static_cast<unsigned long long>(pts),
                pts >= c.points ? "" : "  (!)");
  }
  std::printf("(paper: up to a 250-point polynomial with 256-bit coefficients, or a\n"
              " 4500-point polynomial with 14-bit coefficients)\n");
  return 0;
}
