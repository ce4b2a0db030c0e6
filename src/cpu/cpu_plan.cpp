#include "cpu/cpu_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "common/timer.hpp"
#include "fft/fft.hpp"
#include "spreadinterp/kernel_ft.hpp"
#include "spreadinterp/spread_impl.hpp"

namespace cf::cpu {

namespace {

template <typename T>
spread::GridSpec make_grid(std::span<const std::int64_t> nmodes, double upsampfac, int w) {
  spread::GridSpec g;
  g.dim = static_cast<int>(nmodes.size());
  for (int d = 0; d < g.dim; ++d) {
    const auto lower =
        static_cast<std::int64_t>(std::ceil(upsampfac * double(nmodes[d])));
    g.nf[d] = static_cast<std::int64_t>(fft::next235(
        static_cast<std::size_t>(std::max<std::int64_t>(lower, 2 * w))));
  }
  return g;
}

template <typename T>
inline void atomic_add_cplx(std::complex<T>* p, std::complex<T> v) {
  T* f = reinterpret_cast<T*>(p);
  std::atomic_ref<T>(f[0]).fetch_add(v.real(), std::memory_order_relaxed);
  std::atomic_ref<T>(f[1]).fetch_add(v.imag(), std::memory_order_relaxed);
}

/// Byte cap on the comparator's per-tile arena; a spread whose active tiles
/// would need more falls back to the atomic writeback.
constexpr std::size_t kTileArenaMaxBytes = std::size_t(512) << 20;

// ---- halo-merge neighbor enumeration (the comparator's tile engine) --------
//
// The comparator keeps the whole padded tile of every active bin and merges
// each tile's halo into the neighboring cores in a second pass. These helpers
// enumerate, per axis, the tiles whose padded extent [q*m - pad, q*m + m + pad)
// overlaps an owner's core under the periodic wrap. They require
// p = m + 2*pad <= nf, so each (tile, cell) pair has a unique scratch
// coordinate s = wrap(g - (q*m - pad)).

/// One contiguous run where the owner's core cells g = g0 .. g0+len-1 read
/// tile-local scratch coordinates s = s0 .. s0+len-1 of a neighboring tile.
struct TileSeg {
  std::int64_t g0, s0, len;
};

/// Computes the (at most 2) segments of the core interval [c0, c0+ce) that
/// fall inside the padded extent [qbase - pad, qbase + p - pad) of the tile
/// based at `qbase`, under the periodic wrap. Requires p <= nf.
inline int tile_overlap_segs(std::int64_t c0, std::int64_t ce, std::int64_t qbase,
                             std::int64_t pad, std::int64_t p, std::int64_t nf,
                             TileSeg segs[2]) {
  int n = 0;
  const std::int64_t s0 = spread::wrap_index(c0 - qbase + pad, nf);
  const std::int64_t len1 = std::min(ce, nf - s0);  // before s wraps past nf
  if (s0 < p) segs[n++] = {c0, s0, std::min(len1, p - s0)};
  const std::int64_t len2 = ce - len1;
  if (len2 > 0) segs[n++] = {c0 + len1, 0, std::min(len2, p)};
  return n;
}

/// Per-axis neighbor entry: physical tile index q on this axis plus the
/// overlap segments of the owner's core against q's padded extent.
struct TileNbr {
  std::int64_t q;
  TileSeg segs[2];
  int nsegs;
};

/// Window bound: pad <= (kMaxWidth+1)/2 = 12 and m >= 1 give at most
/// 2*(1 + ceil(pad/m)) + 1 <= 27 candidate tiles per axis (fewer when nbins
/// is small, since the all-tiles branch caps at nbins <= 27).
inline constexpr int kMaxTileNbrs = 28;

/// Enumerates, in a FIXED canonical order, the tiles on one axis whose padded
/// extent overlaps the core of bin `bc`, with the overlap segments. The order
/// is what makes the comparator's halo merge deterministic: every owner sums
/// its neighbor contributions in exactly this sequence regardless of pool
/// scheduling.
inline int tile_axis_nbrs(std::int64_t bc, std::int64_t m, std::int64_t nbins,
                          std::int64_t nf, std::int64_t pad, TileNbr out[kMaxTileNbrs]) {
  const std::int64_t p = m + 2 * pad;
  std::int64_t c0, ce;
  spread::detail::tile_core(bc, m, nf, c0, ce);
  const std::int64_t K = 1 + (pad + m - 1) / m;  // K*m >= m + pad covers the reach
  int n = 0;
  auto push = [&](std::int64_t q) {
    TileNbr e;
    e.q = q;
    e.nsegs = tile_overlap_segs(c0, ce, q * m, pad, p, nf, e.segs);
    if (e.nsegs > 0) out[n++] = e;
  };
  if (2 * K + 1 >= nbins) {
    for (std::int64_t q = 0; q < nbins; ++q) push(q);
  } else {
    for (std::int64_t od = -K; od <= K; ++od) push(spread::wrap_index(bc + od, nbins));
  }
  return n;
}

}  // namespace

template <typename T>
CpuPlan<T>::CpuPlan(ThreadPool& pool, int type, std::span<const std::int64_t> nmodes,
                    int iflag, double tol, Options opts)
    : pool_(&pool),
      type_(type),
      iflag_(iflag >= 0 ? 1 : -1),
      opts_(opts),
      kp_(spread::KernelParams<T>::from_width(
          spread::width_from_tol(tol, opts.upsampfac), opts.upsampfac)) {
  if (type_ != 1 && type_ != 2) throw std::invalid_argument("CpuPlan: type must be 1 or 2");
  if (nmodes.empty() || nmodes.size() > 3)
    throw std::invalid_argument("CpuPlan: dim must be 1..3");
  if (opts_.upsampfac != 2.0 && opts_.upsampfac != 1.25)
    throw std::invalid_argument("CpuPlan: upsampfac must be 2.0 or 1.25");
  for (std::size_t d = 0; d < nmodes.size(); ++d) N_[d] = nmodes[d];
  grid_ = make_grid<T>(nmodes, opts_.upsampfac, kp_.w);
  if (opts_.kerevalmeth == 1)
    spread::horner_cache<T>(kp_.w, opts_.upsampfac).attach(kp_);
  auto bsz = opts_.binsize[0] > 0 ? opts_.binsize : spread::BinSpec::default_size(grid_.dim);
  bins_ = spread::BinSpec::make(grid_, bsz);

  std::vector<std::size_t> dims;
  for (int d = 0; d < grid_.dim; ++d) dims.push_back(static_cast<std::size_t>(grid_.nf[d]));
  fft_ = std::make_unique<fft::FftNd<T>>(*pool_, dims);
  fw_.resize(static_cast<std::size_t>(std::max(1, opts_.ntransf)) *
             static_cast<std::size_t>(grid_.total()));

  const T beta = kp_.beta;
  auto kernel = [beta](double z) { return double(spread::es_eval(T(z), beta)); };
  for (int d = 0; d < grid_.dim; ++d) {
    auto p = spread::correction_factors(static_cast<std::size_t>(N_[d]),
                                        static_cast<std::size_t>(grid_.nf[d]), kp_.w,
                                        kernel);
    fser_[d].assign(p.begin(), p.end());
  }
  for (int d = grid_.dim; d < 3; ++d) fser_[d].assign(1, T(1));
}

template <typename T>
void CpuPlan<T>::set_points(std::size_t M, const T* x, const T* y, const T* z) {
  if (grid_.dim >= 2 && !y) throw std::invalid_argument("set_points: y required");
  if (grid_.dim >= 3 && !z) throw std::invalid_argument("set_points: z required");
  std::lock_guard lk(mu_);  // a shared plan may be re-pointed while others wait
  Timer t;
  M_ = M;
  const int dim = grid_.dim;
  xg_.resize(M);
  if (dim >= 2) yg_.resize(M);
  if (dim >= 3) zg_.resize(M);
  std::atomic<bool> nonfinite{false};
  pool_->parallel_for(0, M, [&](std::size_t j, std::size_t) {
    bool ok = std::isfinite(x[j]);
    xg_[j] = spread::fold_rescale(x[j], grid_.nf[0]);
    if (dim >= 2) {
      ok = ok && std::isfinite(y[j]);
      yg_[j] = spread::fold_rescale(y[j], grid_.nf[1]);
    }
    if (dim >= 3) {
      ok = ok && std::isfinite(z[j]);
      zg_[j] = spread::fold_rescale(z[j], grid_.nf[2]);
    }
    if (!ok) nonfinite.store(true, std::memory_order_relaxed);
  }, 1024);
  if (nonfinite.load(std::memory_order_relaxed)) {
    // A NaN/Inf folds to NaN, whose bin index would be an undefined cast.
    M_ = 0;
    xg_.clear();
    yg_.clear();
    zg_.clear();
    order_.clear();
    bd_ = CpuBreakdown{};
    throw std::invalid_argument("set_points: non-finite coordinate");
  }

  // Counting sort by bin (parallel histogram with atomics, serial scan).
  const std::size_t nbins = static_cast<std::size_t>(bins_.total_bins());
  std::vector<std::uint32_t> binidx(M);
  std::vector<std::uint32_t> counts(nbins, 0);
  pool_->parallel_for(0, M, [&](std::size_t j, std::size_t) {
    std::int64_t b[3] = {0, 0, 0};
    const T* coords[3] = {xg_.data(), yg_.data(), zg_.data()};
    for (int d = 0; d < dim; ++d) {
      const std::int64_t l = static_cast<std::int64_t>(coords[d][j]);
      b[d] = std::min<std::int64_t>(l / bins_.m[d], bins_.nbins[d] - 1);
    }
    const auto bi = static_cast<std::uint32_t>(
        b[0] + bins_.nbins[0] * (b[1] + bins_.nbins[1] * b[2]));
    binidx[j] = bi;
    std::atomic_ref<std::uint32_t>(counts[bi]).fetch_add(1, std::memory_order_relaxed);
  }, 1024);
  bin_start_.assign(nbins + 1, 0);
  for (std::size_t i = 0; i < nbins; ++i) bin_start_[i + 1] = bin_start_[i] + counts[i];
  order_.resize(M);
  // Serial stable scatter: points within a bin keep their original index
  // order regardless of pool size, so the tiled spread merge (and any other
  // bin-ordered accumulation) is bitwise-deterministic. The comparator's
  // sort is not a hot path; determinism is worth the serial pass.
  std::vector<std::uint32_t> cursors(bin_start_.begin(), bin_start_.end() - 1);
  for (std::size_t j = 0; j < M; ++j)
    order_[cursors[binidx[j]]++] = static_cast<std::uint32_t>(j);
  build_tile_cache();
  bd_ = CpuBreakdown{};
  bd_.sort = t.seconds();
}

// Set_points-time half of the tile-owned merge (the setpts-amortization
// contract: nothing point-dependent is rebuilt per execute): the geometry
// gate — same as the device engine's (padded extent <= nf per axis, so every
// (tile, cell) contribution has a unique scratch coordinate) — plus the
// active-bin compaction and the arena, sized for ntransf stacked planes
// under the shared byte cap.
template <typename T>
void CpuPlan<T>::build_tile_cache() {
  tile_ok_ = false;
  tile_active_.clear();
  tile_slot_of_.clear();
  tile_arena_.clear();
  tile_chunk0_.clear();
  chunk_tile_.clear();
  chunk_off_.clear();
  chunk_cnt_.clear();
  chunk_plane_.clear();
  chunk_sched_.clear();
  split_tile_.clear();
  chunk_arena_.clear();
  if (type_ != 1) return;  // spread-only machinery
  const int pad = (kp_.w + 1) / 2;
  std::size_t padded = 1;
  for (int d = 0; d < grid_.dim; ++d) {
    const std::int64_t p = bins_.m[d] + 2 * pad;
    if (p > grid_.nf[d]) return;
    padded *= static_cast<std::size_t>(p);
  }
  const std::size_t nbins = static_cast<std::size_t>(bins_.total_bins());
  tile_slot_of_.assign(nbins, 0xffffffffu);
  for (std::size_t b = 0; b < nbins; ++b)
    if (bin_start_[b + 1] > bin_start_[b]) {
      tile_slot_of_[b] = static_cast<std::uint32_t>(tile_active_.size());
      tile_active_.push_back(static_cast<std::uint32_t>(b));
    }
  // Chunk the batch: hold as many planes per tile as the byte cap allows (at
  // least one, else atomic fallback).
  const std::size_t B = static_cast<std::size_t>(std::max(1, opts_.ntransf));
  const std::size_t per_plane = tile_active_.size() * padded * sizeof(cplx);
  if (per_plane > kTileArenaMaxBytes) {
    tile_active_.clear();
    tile_slot_of_.clear();
    return;  // bins too large for the arena: atomic fallback
  }
  tile_nb_ = static_cast<int>(
      std::min(B, std::max<std::size_t>(1, kTileArenaMaxBytes / per_plane)));
  tile_arena_.resize(tile_active_.size() * padded * tile_nb_);

  // Canonical chunk split (the same rule as the device's build_tile_set): cap
  // resolution, balanced per-bin cuts, and the largest-first schedule are all
  // pure functions of the points — never of the pool size — so the summation
  // split (and with it the output bits) is identical at every pool size.
  std::uint32_t cap;
  const int req = spread::tile_chunk_cap(opts_.tile_chunk_cap);
  if (req < 0) {
    cap = 0xffffffffu;
  } else if (req > 0) {
    cap = static_cast<std::uint32_t>(req);
  } else {
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    cap = static_cast<std::uint32_t>(std::max<std::size_t>(
        spread::kTileChunkMin, (M_ + 4 * hw - 1) / (4 * hw)));
  }
  // Split-chunk planes live in a separate budget; double the cap until the
  // split fits (terminates: cap = UINT32_MAX means no splits at all).
  std::size_t nsplitch = 0;
  for (;;) {
    nsplitch = 0;
    for (const std::uint32_t b : tile_active_) {
      const std::uint32_t cnt = bin_start_[b + 1] - bin_start_[b];
      if (cnt > cap) nsplitch += (cnt + cap - 1) / cap;
    }
    if (cap == 0xffffffffu ||
        nsplitch * padded * static_cast<std::size_t>(tile_nb_) * sizeof(cplx) <=
            spread::kTileChunkArenaMaxBytes)
      break;
    cap = cap > 0x7fffffffu ? 0xffffffffu : cap * 2;
  }
  chunk_cap_ = cap;
  tile_chunk0_.reserve(tile_active_.size() + 1);
  std::uint32_t plane_id = 0;
  for (const std::uint32_t b : tile_active_) {
    tile_chunk0_.push_back(static_cast<std::uint32_t>(chunk_tile_.size()));
    const std::uint32_t cnt = bin_start_[b + 1] - bin_start_[b];
    const std::uint32_t k = cnt > cap ? (cnt + cap - 1) / cap : 1;
    const std::uint32_t base = cnt / k, rem = cnt % k;
    std::uint32_t off = 0;
    for (std::uint32_t i = 0; i < k; ++i) {
      chunk_tile_.push_back(tile_chunk0_.size() - 1);
      chunk_off_.push_back(off);
      const std::uint32_t sz = base + (i < rem ? 1 : 0);
      chunk_cnt_.push_back(sz);
      chunk_plane_.push_back(k > 1 ? plane_id++ : 0xffffffffu);
      off += sz;
    }
    if (k > 1)
      split_tile_.push_back(static_cast<std::uint32_t>(tile_chunk0_.size() - 1));
  }
  tile_chunk0_.push_back(static_cast<std::uint32_t>(chunk_tile_.size()));
  chunk_sched_.resize(chunk_tile_.size());
  for (std::size_t i = 0; i < chunk_sched_.size(); ++i)
    chunk_sched_[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(chunk_sched_.begin(), chunk_sched_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return chunk_cnt_[a] > chunk_cnt_[b];
                   });
  chunk_arena_.resize(static_cast<std::size_t>(plane_id) * padded *
                      static_cast<std::size_t>(tile_nb_));
  tile_ok_ = true;
}

// Spread sorted points in subproblem chunks: each chunk targets one bin (or a
// slice of one), accumulates into a worker-local padded-bin buffer (B stacked
// planes), then merges into the fine grid with atomic adds (FINUFFT's
// parallel strategy). Kernel weights are evaluated once per point and applied
// to all B vectors; the point loops run through the same compile-time width
// dispatch as the device kernels (W = 0 is the runtime-width fallback).
template <typename T>
void CpuPlan<T>::spread_sorted(const cplx* c, int B) {
  const int dim = grid_.dim;
  const int w = kp_.w;
  const int pad = (w + 1) / 2;
  std::int64_t p[3] = {1, 1, 1};
  for (int d = 0; d < dim; ++d) p[d] = bins_.m[d] + 2 * pad;
  const std::size_t padded = static_cast<std::size_t>(p[0] * p[1] * p[2]);
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  const std::size_t nbins = static_cast<std::size_t>(bins_.total_bins());

  // Build the chunk list: (bin, offset) pairs capped at msub points.
  struct Chunk {
    std::uint32_t bin, off;
  };
  std::vector<Chunk> chunks;
  for (std::size_t b = 0; b < nbins; ++b) {
    const std::uint32_t cnt = bin_start_[b + 1] - bin_start_[b];
    for (std::uint32_t off = 0; off < cnt; off += opts_.msub)
      chunks.push_back({static_cast<std::uint32_t>(b), off});
  }

  std::vector<std::vector<cplx>> local(pool_->size());
  auto run = [&](auto WC) {
    // WC::value > 0: compile-time width (tap loops fully unroll); 0: runtime.
    constexpr int W = decltype(WC)::value;
    pool_->parallel_for(0, chunks.size(), [&](std::size_t ci, std::size_t wid) {
      const int wl = W > 0 ? W : kp_.w;
      auto& buf = local[wid];
      buf.assign(padded * B, cplx(0, 0));
      const auto [b, off] = chunks[ci];
      const std::uint32_t cnt =
          std::min(opts_.msub, bin_start_[b + 1] - bin_start_[b] - off);
      std::int64_t delta[3];
      spread::detail::subprob_delta(bins_, b, dim, pad, delta);

      for (std::uint32_t i = 0; i < cnt; ++i) {
        const std::size_t j = order_[bin_start_[b] + off + i];
        T px[3] = {xg_[j], dim >= 2 ? yg_[j] : T(0), dim >= 3 ? zg_[j] : T(0)};
        T vals[3][spread::kMaxWidth];
        std::int64_t li0[3] = {0, 0, 0};
        for (int d = 0; d < dim; ++d) {
          if constexpr (W > 0)
            li0[d] = spread::es_values_fixed<W>(kp_, px[d], vals[d]) - delta[d];
          else
            li0[d] = spread::es_values(kp_, px[d], vals[d]) - delta[d];
        }
        for (int bb = 0; bb < B; ++bb) {
          const cplx cj = c[bb * M_ + j];
          cplx* bufb = buf.data() + padded * bb;
          if (dim == 1) {
            for (int i0 = 0; i0 < wl; ++i0) bufb[li0[0] + i0] += cj * vals[0][i0];
          } else if (dim == 2) {
            for (int i1 = 0; i1 < wl; ++i1) {
              const cplx c1 = cj * vals[1][i1];
              const std::int64_t row = (li0[1] + i1) * p[0];
              for (int i0 = 0; i0 < wl; ++i0) bufb[row + li0[0] + i0] += c1 * vals[0][i0];
            }
          } else {
            for (int i2 = 0; i2 < wl; ++i2) {
              const cplx c2 = cj * vals[2][i2];
              for (int i1 = 0; i1 < wl; ++i1) {
                const cplx c1 = c2 * vals[1][i1];
                const std::int64_t row = ((li0[2] + i2) * p[1] + li0[1] + i1) * p[0];
                for (int i0 = 0; i0 < wl; ++i0)
                  bufb[row + li0[0] + i0] += c1 * vals[0][i0];
              }
            }
          }
        }
      }
      // Merge into the fine grid, wrap resolved once per contiguous row run
      // (the same for_padded_rows helper as the device SM writeback).
      const std::size_t nrows = padded / static_cast<std::size_t>(p[0]);
      auto merge_rows = [&](auto DC) {
        constexpr int DIM = decltype(DC)::value;
        spread::detail::for_padded_rows<DIM, T>(
            grid_, p, p, delta, 0, nrows,
            [&](std::size_t src, std::int64_t dst, std::int64_t run) {
              for (int bb = 0; bb < B; ++bb) {
                const cplx* bufb = buf.data() + padded * bb;
                cplx* fwb = fw_.data() + ftot * bb;
                for (std::int64_t i = 0; i < run; ++i) {
                  const cplx v = bufb[src + i];
                  if (v == cplx(0, 0)) continue;
                  atomic_add_cplx(&fwb[dst + i], v);
                }
              }
            });
      };
      spread::detail::dispatch_dim(
          dim, [&] { merge_rows(std::integral_constant<int, 1>{}); },
          [&] { merge_rows(std::integral_constant<int, 2>{}); },
          [&] { merge_rows(std::integral_constant<int, 3>{}); });
    });
  };
  if (!spread::detail::dispatch_width(kp_.w, run)) run(std::integral_constant<int, 0>{});
}

// Tile-owned spread (the device engine's design before its colored
// writeback): each active bin's points are accumulated into a per-tile
// padded buffer in sorted order, the disjoint in-range core is added to the
// fine grid with plain stores, and a second pass merges every tile's halo
// into the neighboring cores in the fixed canonical order of tile_axis_nbrs —
// no atomics, and the result is bitwise-identical at every pool size (the
// sort is stable and serial).
// All point-dependent setup (gate, active list, arena) comes from the
// set_points-time tile cache.
template <typename T>
void CpuPlan<T>::spread_tiled(const cplx* c, int B) {
  namespace sd = spread::detail;
  const int dim = grid_.dim;
  const int w = kp_.w;
  const int pad = (w + 1) / 2;
  std::int64_t p[3] = {1, 1, 1};
  for (int d = 0; d < dim; ++d) p[d] = bins_.m[d] + 2 * pad;
  const std::size_t padded = static_cast<std::size_t>(p[0] * p[1] * p[2]);
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  const std::size_t nbins = static_cast<std::size_t>(bins_.total_bins());
  const auto nf = grid_.nf;
  const auto& active = tile_active_;
  const auto& slot_of = tile_slot_of_;
  auto& arena = tile_arena_;

  // The batch runs in chunks of tile_nb_ planes (chunked by the arena cap),
  // phase 1 + phase 2 per chunk.
  for (int b0 = 0; b0 < B; b0 += tile_nb_) {
  const int nb = std::min(tile_nb_, B - b0);

  // Phase 1 helpers, shared by the chunk accumulation and the split-tile
  // reduce: accumulate a canonical slice [first, first+cnt) of bin b's sorted
  // run into `buf`, and add a tile's owned core to the fine grid.
  auto accum = [&](std::uint32_t b, std::uint32_t first, std::uint32_t cnt,
                   cplx* buf) {
    std::int64_t delta[3];
    sd::subprob_delta(bins_, b, dim, pad, delta);
    auto run = [&](auto WC) {
      constexpr int W = decltype(WC)::value;
      const int wl = W > 0 ? W : kp_.w;
      for (std::uint32_t i = 0; i < cnt; ++i) {
        const std::size_t j = order_[bin_start_[b] + first + i];
        T px[3] = {xg_[j], dim >= 2 ? yg_[j] : T(0), dim >= 3 ? zg_[j] : T(0)};
        T vals[3][spread::kMaxWidth];
        std::int64_t li0[3] = {0, 0, 0};
        for (int d = 0; d < dim; ++d) {
          if constexpr (W > 0)
            li0[d] = spread::es_values_fixed<W>(kp_, px[d], vals[d]) - delta[d];
          else
            li0[d] = spread::es_values(kp_, px[d], vals[d]) - delta[d];
        }
        for (int bb = 0; bb < nb; ++bb) {
          const cplx cj = c[(b0 + bb) * M_ + j];
          cplx* bufb = buf + padded * bb;
          if (dim == 1) {
            for (int i0 = 0; i0 < wl; ++i0) bufb[li0[0] + i0] += cj * vals[0][i0];
          } else if (dim == 2) {
            for (int i1 = 0; i1 < wl; ++i1) {
              const cplx c1 = cj * vals[1][i1];
              const std::int64_t row = (li0[1] + i1) * p[0];
              for (int i0 = 0; i0 < wl; ++i0) bufb[row + li0[0] + i0] += c1 * vals[0][i0];
            }
          } else {
            for (int i2 = 0; i2 < wl; ++i2) {
              const cplx c2 = cj * vals[2][i2];
              for (int i1 = 0; i1 < wl; ++i1) {
                const cplx c1 = c2 * vals[1][i1];
                const std::int64_t row = ((li0[2] + i2) * p[1] + li0[1] + i1) * p[0];
                for (int i0 = 0; i0 < wl; ++i0)
                  bufb[row + li0[0] + i0] += c1 * vals[0][i0];
              }
            }
          }
        }
      }
    };
    if (!sd::dispatch_width(kp_.w, run)) run(std::integral_constant<int, 0>{});
  };
  // Owned core writeback: plain accumulating stores, no wrap possible.
  auto core_writeback = [&](std::uint32_t b, const cplx* buf) {
    std::int64_t bc[3];
    sd::bin_coords(bins_, b, bc);
    std::int64_t c0[3] = {0, 0, 0}, ce[3] = {1, 1, 1};
    for (int d = 0; d < dim; ++d) sd::tile_core(bc[d], bins_.m[d], nf[d], c0[d], ce[d]);
    for (std::int64_t s2 = 0; s2 < ce[2]; ++s2) {
      for (std::int64_t s1 = 0; s1 < ce[1]; ++s1) {
        const std::int64_t s1p = dim > 1 ? pad + s1 : 0;
        const std::int64_t s2p = dim > 2 ? pad + s2 : 0;
        const std::size_t src =
            static_cast<std::size_t>((s2p * p[1] + s1p) * p[0] + pad);
        const std::int64_t dst = c0[0] + nf[0] * ((c0[1] + s1) + nf[1] * (c0[2] + s2));
        for (int bb = 0; bb < nb; ++bb) {
          const cplx* bufb = buf + padded * bb + src;
          cplx* fwb = fw_.data() + ftot * (b0 + bb) + dst;
          for (std::int64_t i = 0; i < ce[0]; ++i) fwb[i] += bufb[i];
        }
      }
    }
  };

  // Phase 1a: every (tile, chunk) work item, largest-first over the pool's
  // work-stealing path. An unsplit tile runs the whole per-tile pipeline; a
  // chunk of a split tile only accumulates its canonical point slice into its
  // dedicated plane (the reduce and writeback happen in phase 1b, in fixed
  // chunk order — the schedule never touches the summation order).
  pool_->parallel_steal(chunk_sched_.size(), [&](std::size_t si, std::size_t) {
    const std::uint32_t ck = chunk_sched_[si];
    const std::uint32_t ai = chunk_tile_[ck];
    const std::uint32_t b = active[ai];
    if (chunk_plane_[ck] == 0xffffffffu) {
      cplx* buf = arena.data() + ai * padded * static_cast<std::size_t>(tile_nb_);
      std::fill(buf, buf + padded * nb, cplx(0, 0));
      accum(b, 0, bin_start_[b + 1] - bin_start_[b], buf);
      core_writeback(b, buf);
    } else {
      cplx* buf = chunk_arena_.data() +
                  chunk_plane_[ck] * padded * static_cast<std::size_t>(tile_nb_);
      std::fill(buf, buf + padded * nb, cplx(0, 0));
      accum(b, chunk_off_[ck], chunk_cnt_[ck], buf);
    }
  });

  // Phase 1b: split tiles fold their chunk planes in ascending chunk order
  // into the tile's arena slot, then write the owned core.
  if (!split_tile_.empty())
    pool_->parallel_for(0, split_tile_.size(), [&](std::size_t si, std::size_t) {
      const std::uint32_t ai = split_tile_[si];
      const std::uint32_t b = active[ai];
      cplx* buf = arena.data() + ai * padded * static_cast<std::size_t>(tile_nb_);
      std::fill(buf, buf + padded * nb, cplx(0, 0));
      for (std::uint32_t ck = tile_chunk0_[ai]; ck < tile_chunk0_[ai + 1]; ++ck) {
        const cplx* src = chunk_arena_.data() +
                          chunk_plane_[ck] * padded * static_cast<std::size_t>(tile_nb_);
        for (std::size_t i = 0; i < padded * static_cast<std::size_t>(nb); ++i)
          buf[i] += src[i];
      }
      core_writeback(b, buf);
    });

  // Phase 2: each owner merges its neighbors' halos in the fixed order.
  pool_->parallel_for(0, nbins, [&](std::size_t bown, std::size_t) {
    std::int64_t bc[3];
    sd::bin_coords(bins_, static_cast<std::uint32_t>(bown), bc);
    TileNbr nbr[3][kMaxTileNbrs];
    int nn[3] = {1, 1, 1};
    for (int d = 0; d < dim; ++d)
      nn[d] = tile_axis_nbrs(bc[d], bins_.m[d], bins_.nbins[d], nf[d], pad, nbr[d]);
    for (int iz = 0; iz < nn[2]; ++iz) {
      for (int iy = 0; iy < nn[1]; ++iy) {
        for (int ix = 0; ix < nn[0]; ++ix) {
          const std::int64_t q0 = nbr[0][ix].q;
          const std::int64_t q1 = dim > 1 ? nbr[1][iy].q : 0;
          const std::int64_t q2 = dim > 2 ? nbr[2][iz].q : 0;
          if (q0 == bc[0] && q1 == bc[1] && q2 == bc[2]) continue;  // self core
          const std::uint32_t slot = slot_of[static_cast<std::size_t>(
              q0 + bins_.nbins[0] * (q1 + bins_.nbins[1] * q2))];
          if (slot == 0xffffffffu) continue;  // empty tile
          const cplx* sbuf =
              arena.data() + slot * padded * static_cast<std::size_t>(tile_nb_);
          const int nsz = dim > 2 ? nbr[2][iz].nsegs : 1;
          const int nsy = dim > 1 ? nbr[1][iy].nsegs : 1;
          for (int sz = 0; sz < nsz; ++sz) {
            const TileSeg zseg =
                dim > 2 ? nbr[2][iz].segs[sz] : TileSeg{0, 0, 1};
            for (int sy = 0; sy < nsy; ++sy) {
              const TileSeg yseg =
                  dim > 1 ? nbr[1][iy].segs[sy] : TileSeg{0, 0, 1};
              for (int sx = 0; sx < nbr[0][ix].nsegs; ++sx) {
                const TileSeg xseg = nbr[0][ix].segs[sx];
                for (std::int64_t gz = 0; gz < zseg.len; ++gz) {
                  for (std::int64_t gy = 0; gy < yseg.len; ++gy) {
                    const std::size_t src = static_cast<std::size_t>(
                        ((zseg.s0 + gz) * p[1] + (yseg.s0 + gy)) * p[0] + xseg.s0);
                    const std::int64_t dst =
                        xseg.g0 + nf[0] * ((yseg.g0 + gy) + nf[1] * (zseg.g0 + gz));
                    for (int bb = 0; bb < nb; ++bb) {
                      const cplx* sb = sbuf + padded * bb + src;
                      cplx* fwb = fw_.data() + ftot * (b0 + bb) + dst;
                      for (std::int64_t i = 0; i < xseg.len; ++i) fwb[i] += sb[i];
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  });
  }  // batch chunk
}

template <typename T>
void CpuPlan<T>::interp_sorted(cplx* c, int B) {
  const int dim = grid_.dim;
  const int w = kp_.w;
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  pool_->parallel_for(0, M_, [&](std::size_t jj, std::size_t) {
    const std::size_t j = order_.empty() ? jj : order_[jj];
    T px[3] = {xg_[j], dim >= 2 ? yg_[j] : T(0), dim >= 3 ? zg_[j] : T(0)};
    T vals[3][spread::kMaxWidth];
    std::int64_t idx[3][spread::kMaxWidth];
    for (int d = 0; d < dim; ++d) {
      const std::int64_t l0 = spread::es_values(kp_, px[d], vals[d]);
      for (int i = 0; i < w; ++i) idx[d][i] = spread::wrap_index(l0 + i, grid_.nf[d]);
    }
    for (int bb = 0; bb < B; ++bb) {
      const cplx* fwb = fw_.data() + ftot * bb;
      cplx acc(0, 0);
      if (dim == 1) {
        for (int i0 = 0; i0 < w; ++i0) acc += fwb[idx[0][i0]] * vals[0][i0];
      } else if (dim == 2) {
        for (int i1 = 0; i1 < w; ++i1) {
          const std::int64_t row = idx[1][i1] * grid_.nf[0];
          cplx rowacc(0, 0);
          for (int i0 = 0; i0 < w; ++i0) rowacc += fwb[row + idx[0][i0]] * vals[0][i0];
          acc += rowacc * vals[1][i1];
        }
      } else {
        for (int i2 = 0; i2 < w; ++i2) {
          cplx planeacc(0, 0);
          for (int i1 = 0; i1 < w; ++i1) {
            const std::int64_t row = (idx[2][i2] * grid_.nf[1] + idx[1][i1]) * grid_.nf[0];
            cplx rowacc(0, 0);
            for (int i0 = 0; i0 < w; ++i0) rowacc += fwb[row + idx[0][i0]] * vals[0][i0];
            planeacc += rowacc * vals[1][i1];
          }
          acc += planeacc * vals[2][i2];
        }
      }
      c[bb * M_ + j] = acc;
    }
  }, 64);
}

template <typename T>
void CpuPlan<T>::deconvolve_type1(cplx* f, int B) {
  const auto& N = N_;
  const auto& nf = grid_.nf;
  const int mo = opts_.modeord;
  const std::int64_t ntot = modes_total();
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  pool_->parallel_for(0, static_cast<std::size_t>(ntot), [&](std::size_t i, std::size_t) {
    const std::int64_t i0 = static_cast<std::int64_t>(i) % N[0];
    const std::int64_t i1 = (static_cast<std::int64_t>(i) / N[0]) % N[1];
    const std::int64_t i2 = static_cast<std::int64_t>(i) / (N[0] * N[1]);
    const std::int64_t k0 = spread::index_to_mode(i0, N[0], mo);
    const std::int64_t k1 = spread::index_to_mode(i1, N[1], mo);
    const std::int64_t k2 = spread::index_to_mode(i2, N[2], mo);
    const std::int64_t g0 = spread::wrap_index(k0, nf[0]);
    const std::int64_t g1 = spread::wrap_index(k1, nf[1]);
    const std::int64_t g2 = spread::wrap_index(k2, nf[2]);
    const T p =
        fser_[0][k0 + N[0] / 2] * fser_[1][k1 + N[1] / 2] * fser_[2][k2 + N[2] / 2];
    const std::size_t lin =
        static_cast<std::size_t>(g0 + nf[0] * (g1 + nf[1] * g2));
    for (int b = 0; b < B; ++b)
      f[b * static_cast<std::size_t>(ntot) + i] = fw_[ftot * b + lin] * p;
  }, 1024);
}

template <typename T>
CpuBreakdown CpuPlan<T>::execute(cplx* c, cplx* f, int B) {
  std::lock_guard lk(mu_);  // shared plans serialize; each caller snapshots
  if (B <= 0) B = std::max(1, opts_.ntransf);
  if (M_ == 0) {
    if (type_ == 1)
      for (std::int64_t i = 0; i < B * modes_total(); ++i) f[i] = cplx(0, 0);
    return bd_;
  }
  CpuBreakdown bd = bd_;  // per-execute snapshot over the set_points-era sort
  bd.spread = bd.fft = bd.deconvolve = bd.interp = 0;
  // One stage pipeline for every batch size, mirroring the device library; a
  // coalesced batch beyond the constructed ntransf grows the stack once.
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  if (static_cast<std::size_t>(B) * ftot > fw_.size())
    fw_.resize(static_cast<std::size_t>(B) * ftot);
  Timer t;
  if (type_ == 1) {
    std::fill(fw_.begin(), fw_.begin() + static_cast<std::ptrdiff_t>(B * ftot),
              cplx(0, 0));
    if (tile_ok_)
      spread_tiled(c, B);
    else
      spread_sorted(c, B);
    bd.spread = t.seconds();
    t.reset();
    fft_->exec_batch(fw_.data(), static_cast<std::size_t>(B), ftot, iflag_);
    bd.fft = t.seconds();
    t.reset();
    deconvolve_type1(f, B);
    bd.deconvolve = t.seconds();
  } else {
    // Fused amplify + FFT, sharing the row producer with the device library.
    fft_->exec_batch_fused(
        fw_.data(), static_cast<std::size_t>(B), ftot, iflag_,
        [&](cplx* row, std::size_t line, std::size_t b) {
          return spread::amplify_fine_row(
              row, line, f + b * static_cast<std::size_t>(modes_total()), grid_.dim,
              N_, grid_.nf, fser_, opts_.modeord);
        });
    bd.fft = t.seconds();
    t.reset();
    interp_sorted(c, B);
    bd.interp = t.seconds();
  }
  bd_ = bd;
  return bd;
}

template class CpuPlan<float>;
template class CpuPlan<double>;

}  // namespace cf::cpu
