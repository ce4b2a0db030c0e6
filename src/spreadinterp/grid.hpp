// Fine-grid and bin geometry shared by the spreading/interpolation kernels.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <stdexcept>

#include "fft/fft.hpp"

namespace cf::spread {

/// The upsampled ("fine") grid. Layout is x-fastest: linear index
/// l = l1 + nf1*(l2 + nf2*l3). Unused trailing dims are 1.
struct GridSpec {
  int dim = 2;
  std::array<std::int64_t, 3> nf{1, 1, 1};

  std::int64_t total() const { return nf[0] * nf[1] * nf[2]; }
};

/// Index widths. Sort orders, bin offsets and chunk offsets hold uint32 point
/// indices, and TapTable::l0 holds int32 fine-grid indices: set_points
/// rejects more points than kMaxPoints, and a plan rejects a fine-grid axis
/// longer than kMaxFineGrid, instead of letting either wrap.
inline constexpr std::uint64_t kMaxPoints = UINT32_MAX;
inline constexpr std::int64_t kMaxFineGrid = INT32_MAX;

/// Fine-grid length for a band that must be resolved at `lower` points (at
/// least 2w): the next 2^a 3^b 5^c size. Throws std::invalid_argument beyond
/// kMaxFineGrid, before anything of that size is allocated.
inline std::int64_t fine_grid_size(double lower, int w) {
  lower = std::max(std::ceil(lower), double(2 * w));
  if (!(lower <= double(kMaxFineGrid)))
    throw std::invalid_argument("fine grid exceeds the 32-bit index range");
  const auto nf = static_cast<std::int64_t>(fft::next235(static_cast<std::size_t>(lower)));
  if (nf > kMaxFineGrid)
    throw std::invalid_argument("fine grid exceeds the 32-bit index range");
  return nf;
}

/// The upsampled fine grid of a type-1/2 plan: nf[d] = next235 of
/// ceil(sigma * N[d]) (a non-integral sigma * N, possible at sigma = 1.25,
/// rounds up so the grid never under-samples) and at least 2w. Throws
/// std::invalid_argument unless there are 1..3 axes of N >= 1 modes, or when
/// an axis exceeds kMaxFineGrid.
inline GridSpec make_fine_grid(std::span<const std::int64_t> nmodes, double upsampfac,
                               int w) {
  if (nmodes.empty() || nmodes.size() > 3)
    throw std::invalid_argument("plan: dim must be 1..3");
  GridSpec g;
  g.dim = static_cast<int>(nmodes.size());
  for (int d = 0; d < g.dim; ++d) {
    if (nmodes[d] < 1) throw std::invalid_argument("plan: modes must be >= 1");
    g.nf[d] = fine_grid_size(upsampfac * double(nmodes[d]), w);
  }
  return g;
}

/// Cartesian bins covering the fine grid (paper Sec. III-A). Bins are ordered
/// x-fastest, echoing the fine-grid ordering; edge bins may be smaller.
struct BinSpec {
  std::array<int, 3> m{1, 1, 1};               ///< bin dims in fine-grid points
  std::array<std::int64_t, 3> nbins{1, 1, 1};  ///< bin counts per axis

  std::int64_t total_bins() const { return nbins[0] * nbins[1] * nbins[2]; }

  static BinSpec make(const GridSpec& g, std::array<int, 3> m) {
    BinSpec b;
    for (int d = 0; d < 3; ++d) {
      b.m[d] = d < g.dim ? m[d] : 1;
      if (b.m[d] <= 0) throw std::invalid_argument("BinSpec: bin size must be positive");
      b.nbins[d] = (g.nf[d] + b.m[d] - 1) / b.m[d];
    }
    return b;
  }

  /// Hand-tuned defaults from the paper (Rmk. 1): 32x32 in 2D, 16x16x2 in 3D.
  /// 1D (our future-work extension) uses 1024.
  static std::array<int, 3> default_size(int dim) {
    if (dim == 1) return {1024, 1, 1};
    if (dim == 2) return {32, 32, 1};
    return {16, 16, 2};
  }
};

/// Tile edge for the tiled spread engine on one axis: about 4*pad cells (never
/// below the paper's bin edge, 32 in 2D and 16 in 3D), so the halo stays a
/// modest share of the padded tile, with the tile count rounded to an even
/// number so that, with m >= 2*pad, two colors per axis suffice. E.g. nf 162
/// at w = 13 (pad 7): 162 / 28 = 5.8 -> 6 tiles of 27.
inline int tile_edge(std::int64_t nf, int dim, int w) {
  const int pad = (w + 1) / 2;
  const double target = std::max(dim == 2 ? 32.0 : 16.0, 4.0 * pad);
  const std::int64_t n = 2 * std::max<std::int64_t>(1, std::llround(double(nf) / target / 2));
  return static_cast<int>((nf + n - 1) / n);
}

/// Sort bins (= spread tiles) of a type-1 plan whose bin size is unset: 2D/3D
/// grids get tile_edge tiles on every axis when each padded tile fits the fine
/// grid (the tiled engine's geometry gate); 1D grids, and grids too small for
/// the gate, keep the paper's default bins. The tiled engine's scratch lives
/// in global memory, so the 48 KiB budget that shapes the paper's bins does
/// not bind it, and the paper's 2-cell z extent would be mostly halo and need
/// 1 + pad colors.
inline BinSpec tile_bins(const GridSpec& g, int w) {
  std::array<int, 3> tsz = BinSpec::default_size(g.dim);
  if (g.dim >= 2) {
    std::array<int, 3> wide{1, 1, 1};
    bool fits = true;
    for (int d = 0; d < g.dim; ++d) {
      wide[d] = tile_edge(g.nf[d], g.dim, w);
      fits = fits && wide[d] + 2 * ((w + 1) / 2) <= g.nf[d];
    }
    if (fits) tsz = wide;
  }
  return BinSpec::make(g, tsz);
}

/// Maps a nonuniform coordinate (any real; typically [-pi, pi)) to its
/// fine-grid coordinate in [0, nf) with periodic folding (the FINUFFT
/// "fold-and-rescale"). Grid index l represents position x = l*h mod 2*pi,
/// so the FFT phase e^{2*pi*i*l*k/nf} equals e^{i*k*x} exactly.
template <typename T>
inline T fold_rescale(T x, std::int64_t nf) {
  constexpr T inv2pi = static_cast<T>(1.0 / (2.0 * std::numbers::pi));
  T z = x * inv2pi;
  z -= std::floor(z);
  T g = z * static_cast<T>(nf);
  if (g >= static_cast<T>(nf)) g = 0;  // guard the z==1-ulp rounding case
  return g;
}

/// Periodic wrap of a (possibly negative) fine-grid index into [0, nf).
inline std::int64_t wrap_index(std::int64_t l, std::int64_t nf) {
  l %= nf;
  return l < 0 ? l + nf : l;
}

/// Output index -> signed mode, honoring the mode-ordering option:
/// modeord 0 (CMCL): k = i - N/2; modeord 1 (FFT-style): k = i, wrapping
/// past the Nyquist to the negative half.
inline std::int64_t index_to_mode(std::int64_t i, std::int64_t N, int modeord) {
  if (modeord == 0) return i - N / 2;
  return i < (N + 1) / 2 ? i : i - N;
}

/// Inverse of index_to_mode composed with wrap_index: the output index whose
/// mode lands on fine-grid position g, or -1 when g lies in the zero-padded
/// band (no retained mode maps there). Requires nf > N - 1 so the positive
/// and negative mode ranges cannot overlap on the fine grid (always true for
/// the upsampled grid at any supported sigma: nf >= ceil(sigma * N) >= N for
/// sigma >= 1.25).
inline std::int64_t grid_to_index(std::int64_t g, std::int64_t N, std::int64_t nf,
                                  int modeord) {
  std::int64_t k;
  if (g <= N - 1 - N / 2)
    k = g;
  else if (g >= nf - N / 2)
    k = g - nf;
  else
    return -1;
  if (modeord == 0) return k + N / 2;
  return k >= 0 ? k : k + N;
}

}  // namespace cf::spread
