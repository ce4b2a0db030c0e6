// Shared machinery for the spread/interp translation units (spread_gm.cpp,
// spread_sm.cpp, spread_tiled.cpp, interp.cpp, point_cache.cpp): the
// width-dispatch switch, per-point tabulation, subproblem geometry, and the
// small loop helpers the kernels are built from. This header is the single
// home of the dispatch machinery — kernels in any TU get identical
// specialization behavior by construction.
//
// Internal to the library (everything lives in cf::spread::detail); the
// public entry points are declared in spread.hpp.
#pragma once

#include <algorithm>
#include <complex>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"
#include "spreadinterp/spread.hpp"
#include "vgpu/device.hpp"

#if defined(_MSC_VER)
#define CF_RESTRICT __restrict
#define CF_PREFETCH(addr, rw) ((void)0)
#define CF_SCALAR_LOOP() ((void)0)
#else
#define CF_RESTRICT __restrict__
#define CF_PREFETCH(addr, rw) __builtin_prefetch((addr), (rw))
/// Keeps the ENCLOSING loop scalar (an empty asm defeats the loop
/// vectorizer) without touching inner loops. Used on short per-plane loops
/// whose strided group accesses GCC 12 turns into unmasked gap loads that
/// read past the array (wrong-code class of GCC PR107451); the tap loops
/// inside keep their SIMD codegen. Gated to the affected compilers: GCC 13
/// fixed the gap-load masking, and clang never mis-vectorized these loops,
/// so newer toolchains keep full SIMD on the per-plane loops.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ <= 12
#define CF_SCALAR_LOOP() asm volatile("")
#else
#define CF_SCALAR_LOOP() ((void)0)
#endif
#endif

namespace cf::spread::detail {

template <int DIM, typename T>
inline void load_point(const NuPoints<T>& pts, std::size_t j, T* px) {
  px[0] = pts.xg[j];
  if constexpr (DIM > 1) px[1] = pts.yg[j];
  if constexpr (DIM > 2) px[2] = pts.zg[j];
}

/// Distance (in points) the per-point loops prefetch ahead. Bin-sorted
/// traversal reads the coordinate/strength arrays through a permutation —
/// random access that otherwise stalls on a cache miss per point.
inline constexpr std::size_t kPointPrefetch = 8;

template <int DIM, typename T>
inline void prefetch_point(const NuPoints<T>& pts, const std::complex<T>* c,
                           std::size_t j) {
  CF_PREFETCH(&pts.xg[j], 0);
  if constexpr (DIM > 1) CF_PREFETCH(&pts.yg[j], 0);
  if constexpr (DIM > 2) CF_PREFETCH(&pts.zg[j], 0);
  if (c) CF_PREFETCH(&c[j], 0);
}

/// Per-point kernel tabulation with runtime width: w values and global
/// indices per axis. `nowrap` (from the plan's interior classification)
/// skips the periodic wrap — bitwise-identical indices for interior points.
template <int DIM, typename T>
struct PointTab {
  T vals[DIM][kMaxWidth];
  std::int64_t idx[DIM][kMaxWidth];

  void compute(const GridSpec& grid, const KernelParams<T>& kp, const T* px,
               bool nowrap) {
    for (int d = 0; d < DIM; ++d) {
      const std::int64_t l0 = es_values(kp, px[d], vals[d]);
      if (nowrap) {
        for (int i = 0; i < kp.w; ++i) idx[d][i] = l0 + i;
      } else {
        for (int i = 0; i < kp.w; ++i) idx[d][i] = wrap_index(l0 + i, grid.nf[d]);
      }
    }
  }
};

/// Per-point tabulation with compile-time width (the fast path).
template <int DIM, int W, typename T>
struct PointTabF {
  T vals[DIM][W];
  std::int64_t idx[DIM][W];

  void compute(const GridSpec& grid, const KernelParams<T>& kp, const T* px,
               bool nowrap) {
    for (int d = 0; d < DIM; ++d) {
      const std::int64_t l0 = es_values_fixed<W>(kp, px[d], vals[d]);
      if (nowrap) {
        for (int i = 0; i < W; ++i) idx[d][i] = l0 + i;
      } else {
        for (int i = 0; i < W; ++i) idx[d][i] = wrap_index(l0 + i, grid.nf[d]);
      }
    }
  }
};

/// Contiguous [lo, hi) slice of n items for virtual thread t of nthreads.
/// The vgpu executes a block's threads sequentially, so chunked ranges (one
/// contiguous sweep per thread) beat the CUDA-style stride-by-nthreads loop
/// on real caches while keeping the same per-thread work split.
inline std::pair<std::size_t, std::size_t> thread_chunk(std::size_t n, unsigned t,
                                                        unsigned nthreads) {
  const std::size_t chunk = (n + nthreads - 1) / nthreads;
  const std::size_t lo = std::min(n, t * chunk);
  return {lo, std::min(n, lo + chunk)};
}

/// Decodes linear bin id `b` into per-axis bin coordinates.
inline void bin_coords(const BinSpec& bins, std::uint32_t b, std::int64_t bc[3]) {
  std::int64_t rem = b;
  for (int d = 0; d < 3; ++d) {
    bc[d] = rem % bins.nbins[d];
    rem /= bins.nbins[d];
  }
}

/// Decodes subproblem bin `b` into the padded-bin offset Delta (paper Fig. 1).
inline void subprob_delta(const BinSpec& bins, std::uint32_t b, int dim, int pad,
                          std::int64_t delta[3]) {
  std::int64_t bc[3];
  bin_coords(bins, b, bc);
  delta[0] = delta[1] = delta[2] = 0;
  for (int d = 0; d < dim; ++d) delta[d] = bc[d] * bins.m[d] - pad;
}

// ---- tile-ownership geometry (tiled spread writeback) -----------------------
//
// The bins partition the fine grid into disjoint CORE boxes (compute_bin_index
// assigns every cell to exactly one bin). A point of bin q only reaches cells
// within `pad` of q's in-range core, so on each axis a tile's REACH is its core
// dilated by pad, [c0 - pad, c0 + ce + pad) under the periodic wrap. The tiled
// writeback colors the tiles so that two tiles of one color never have
// overlapping reaches: the tiles of a color add their whole reach into fw with
// plain stores and no races, and the colors run in a fixed order, so every
// cell's summation order is a pure function of the coloring (the spread is
// bitwise-deterministic at any worker count).
//
// The helpers require p = m + 2*pad <= nf on the axis (the geometry gate): a
// reach then covers each fine-grid cell at most once. Axes violating this
// (e.g. a single bin spanning the axis) take the atomic fallback.

/// In-range core of bin `bc` on one axis: cells [c0, c0 + ce).
inline void tile_core(std::int64_t bc, std::int64_t m, std::int64_t nf,
                      std::int64_t& c0, std::int64_t& ce) {
  c0 = bc * m;
  ce = std::min<std::int64_t>((bc + 1) * m, nf) - c0;
}

/// Colors the `nbins` tiles of one axis (color[q] for tile q) and returns the
/// color count. Two reaches overlap iff the cores strictly between the two
/// tiles hold fewer than 2*pad cells along either direction of the periodic
/// axis. The tiles are cut into G runs of consecutive tiles with balanced
/// lengths, and each run is colored 0, 1, 2, ... in order, so two tiles of one
/// color are a whole run apart. With full tiles of m cells, runs of at least
/// k = 1 + ceil(2*pad / m) tiles suffice (the (k - 1) * m >= 2 * pad rule):
/// G = nbins / k runs give q mod k when nbins is a multiple of k, and tail
/// colors (runs one tile longer) otherwise. G shrinks until the coloring
/// passes the exact overlap test, which a short last tile can fail; G = 1
/// (every tile its own color) always passes.
inline std::uint32_t tile_axis_colors(std::int64_t nbins, std::int64_t m, std::int64_t nf,
                                      std::int64_t pad, std::uint32_t* color) {
  auto core = [&](std::int64_t q) { return std::min<std::int64_t>((q + 1) * m, nf) - q * m; };
  // True if no tile shares its color with a tile whose reach overlaps its own.
  auto valid = [&] {
    for (std::int64_t q = 0; q < nbins; ++q)
      for (const std::int64_t dir : {std::int64_t(1), nbins - 1}) {  // forward, backward
        std::int64_t between = 0;  // core cells strictly between q and r
        for (std::int64_t j = 1; j < nbins && between < 2 * pad; ++j) {
          const std::int64_t r = (q + j * dir) % nbins;
          if (color[r] == color[q]) return false;
          between += core(r);
        }
      }
    return true;
  };
  const std::int64_t k = 1 + (2 * pad + m - 1) / m;
  for (std::int64_t G = std::max<std::int64_t>(1, nbins / k);; --G) {
    for (std::int64_t g = 0; g < G; ++g)
      for (std::int64_t q = g * nbins / G; q < (g + 1) * nbins / G; ++q)
        color[q] = static_cast<std::uint32_t>(q - g * nbins / G);
    if (G == 1 || valid()) return static_cast<std::uint32_t>((nbins + G - 1) / G);
  }
}

/// Iterates the rows of a box of `ext` cells per axis held in a scratch of
/// `p` cells per axis (ext <= p), handing `f` maximal runs that are contiguous
/// in both the scratch (src index) and the periodic fine grid (global index):
/// f(scratch_offset, global_linear_index, run_length). Scratch cell s sits at
/// fine-grid cell wrap(delta + s). Rows are numbered x-fastest over ext[1] *
/// ext[2]. One division per row replaces the per-element div/mod + wrap of
/// the scalar path, and the runs give the caller vectorizable/streamed bodies.
template <int DIM, typename T, typename F>
inline void for_padded_rows(const GridSpec& grid, const std::int64_t* p,
                            const std::int64_t* ext, const std::int64_t* delta,
                            std::size_t row_lo, std::size_t row_hi, F&& f) {
  for (std::size_t rr = row_lo; rr < row_hi; ++rr) {
    std::int64_t s1 = 0, s2 = 0, g1 = 0, g2 = 0;
    if constexpr (DIM >= 2) {
      s1 = static_cast<std::int64_t>(rr) % ext[1];
      s2 = static_cast<std::int64_t>(rr) / ext[1];
      g1 = wrap_index(delta[1] + s1, grid.nf[1]);
      if constexpr (DIM >= 3) g2 = wrap_index(delta[2] + s2, grid.nf[2]);
    }
    const std::int64_t rowbase = grid.nf[0] * (g1 + grid.nf[1] * g2);
    const std::size_t src0 = static_cast<std::size_t>((s2 * p[1] + s1) * p[0]);
    std::int64_t g0 = wrap_index(delta[0], grid.nf[0]);
    for (std::int64_t i = 0; i < ext[0];) {
      const std::int64_t run = std::min<std::int64_t>(ext[0] - i, grid.nf[0] - g0);
      f(src0 + static_cast<std::size_t>(i), rowbase + g0, run);
      i += run;
      g0 = 0;
    }
  }
}

/// Grid-stride launch over the iteration positions [lo, hi): f(jj, blk).
/// The per-point kernels use this to run the interior-first partition as two
/// launches — one all-no-wrap, one all-wrap — so the hot loops never test a
/// per-point flag (see PointCache / classify_interior).
template <typename F>
inline void launch_point_range(vgpu::Device& dev, std::size_t lo, std::size_t hi,
                               unsigned block, F&& f) {
  if (hi <= lo) return;
  const std::size_t n = hi - lo;
  dev.launch((n + block - 1) / block, block, [&, lo, n, block](vgpu::BlockCtx& blk) {
    const std::size_t base = lo + static_cast<std::size_t>(blk.block_id) * block;
    blk.for_each_thread([&](unsigned t) {
      const std::size_t jj = base + t;
      if (jj < lo + n) f(jj, blk);
    });
  });
}

/// Invokes f(integral_constant<int, w>) for w in [2, kMaxWidth]; returns
/// false (leaving the runtime-w fallback to the caller) otherwise.
template <typename F>
bool dispatch_width(int w, F&& f) {
  switch (w) {
#define CF_WIDTH_CASE(W_)                        \
  case W_:                                       \
    f(std::integral_constant<int, W_>{});        \
    return true;
    CF_WIDTH_CASE(2)
    CF_WIDTH_CASE(3)
    CF_WIDTH_CASE(4)
    CF_WIDTH_CASE(5)
    CF_WIDTH_CASE(6)
    CF_WIDTH_CASE(7)
    CF_WIDTH_CASE(8)
    CF_WIDTH_CASE(9)
    CF_WIDTH_CASE(10)
    CF_WIDTH_CASE(11)
    CF_WIDTH_CASE(12)
    CF_WIDTH_CASE(13)
    CF_WIDTH_CASE(14)
    CF_WIDTH_CASE(15)
    CF_WIDTH_CASE(16)
    // sigma = 1.25 deep-tolerance widths (width_from_tol clamps [2, 24] at
    // sigma != 2); without these cases they'd fall to the runtime-w scalar
    // fallback precisely on the plans that need the most taps per point.
    CF_WIDTH_CASE(17)
    CF_WIDTH_CASE(18)
    CF_WIDTH_CASE(19)
    CF_WIDTH_CASE(20)
    CF_WIDTH_CASE(21)
    CF_WIDTH_CASE(22)
    CF_WIDTH_CASE(23)
    CF_WIDTH_CASE(24)
#undef CF_WIDTH_CASE
  }
  return false;
}

template <typename F1, typename F2, typename F3>
void dispatch_dim(int dim, F1&& f1, F2&& f2, F3&& f3) {
  switch (dim) {
    case 1: f1(); break;
    case 2: f2(); break;
    case 3: f3(); break;
    default: throw std::invalid_argument("spread: dim must be 1..3");
  }
}

/// True if the deinterleaved fast-path scratch — padded bin plus the tap-pad
/// slack its overhanging x-loops write — fits the per-block arena. Same byte
/// budget as sm_fits except for the few slack lanes, so this can only veto
/// the fast path in exact-fit corner cases (the scalar fallback still runs).
template <typename T>
inline bool sm_scratch_fits(const vgpu::Device& dev, const GridSpec& grid,
                            const BinSpec& bins, int w) {
  const int pad = (w + 1) / 2;
  std::size_t padded = 1;
  for (int d = 0; d < grid.dim; ++d)
    padded *= static_cast<std::size_t>(bins.m[d] + 2 * pad);
  const std::size_t slack = static_cast<std::size_t>(pad_width(w) - w);
  return 2 * (padded + slack) * sizeof(T) <= dev.props.shared_mem_per_block;
}

}  // namespace cf::spread::detail
