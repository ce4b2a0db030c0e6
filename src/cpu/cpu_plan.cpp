#include "cpu/cpu_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "common/timer.hpp"
#include "spreadinterp/kernel_ft.hpp"
#include "spreadinterp/spread.hpp"

namespace cf::cpu {

template <typename T>
CpuPlan<T>::CpuPlan(ThreadPool& pool, int type, std::span<const std::int64_t> nmodes,
                    int iflag, double tol, Options opts)
    : dev_(pool),
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
  grid_ = spread::make_fine_grid(nmodes, opts_.upsampfac, kp_.w);
  if (opts_.kerevalmeth == 1)
    spread::horner_cache<T>(kp_.w, opts_.upsampfac).attach(kp_);
  // Type 1 spreads on core::Plan's tiles (see spread::tile_bins); type 2 bins
  // only order the interpolation gather.
  if (opts_.binsize[0] > 0)
    bins_ = spread::BinSpec::make(grid_, opts_.binsize);
  else if (type_ == 1)
    bins_ = spread::tile_bins(grid_, kp_.w);
  else
    bins_ = spread::BinSpec::make(grid_, spread::BinSpec::default_size(grid_.dim));

  std::vector<std::size_t> dims;
  for (int d = 0; d < grid_.dim; ++d) dims.push_back(static_cast<std::size_t>(grid_.nf[d]));
  fft_ = std::make_unique<fft::FftNd<T>>(dev_.pool(), dims);
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
  if (M > spread::kMaxPoints)
    throw std::invalid_argument("set_points: M exceeds the 32-bit point index");
  if (grid_.dim >= 2 && !y) throw std::invalid_argument("set_points: y required");
  if (grid_.dim >= 3 && !z) throw std::invalid_argument("set_points: z required");
  std::lock_guard lk(mu_);  // a shared plan may be re-pointed while others wait
  Timer t;
  M_ = M;
  tiles_ = spread::TileSet<T>{};  // the previous points' schedule is stale
  const int dim = grid_.dim;
  xg_.resize(M);
  if (dim >= 2) yg_.resize(M);
  if (dim >= 3) zg_.resize(M);
  std::atomic<bool> nonfinite{false};
  dev_.pool().parallel_for(0, M, [&](std::size_t j, std::size_t) {
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
    sort_ = spread::DeviceSort{};
    bd_ = core::Breakdown{};
    throw std::invalid_argument("set_points: non-finite coordinate");
  }
  spread::bin_sort(dev_, grid_, bins_, xg_.data(), dim >= 2 ? yg_.data() : nullptr,
                   dim >= 3 ? zg_.data() : nullptr, M, sort_);
  bd_ = core::Breakdown{};
  bd_.sort = t.seconds();

  // The tile coloring and schedule, built once per point set like core::Plan's
  // PointCache (same bins, chunk cap and plane count, so the same split).
  Timer tc;
  if (type_ == 1 && M_ > 0)
    spread::build_tile_set(dev_, grid_, bins_, kp_.w, sort_, std::max(1, opts_.ntransf),
                           tiles_, spread::tile_chunk_cap(opts_.tile_chunk_cap));
  bd_.cache_build = tc.seconds();
  bd_.tiles_active = tiles_.n_active;
  bd_.tile_colors = tiles_.n_colors;
  bd_.arena_bytes = tiles_.usable ? tiles_.arena_bytes : 0;
  bd_.tile_chunks = tiles_.usable ? tiles_.n_chunks : 0;
  bd_.max_tile_points = tiles_.usable ? tiles_.max_tile_points : 0;
}

// Type-1 spread through the device library's engine: the colored tile-owned
// writeback with inline taps, or — when the geometry gate failed — GM-sort's
// atomic writeback over the bin-sort order (every point on the wrap path).
template <typename T>
void CpuPlan<T>::spread_step(const cplx* c, int B, core::Breakdown& bd) {
  const spread::NuPoints<T> pts{xg_.data(), grid_.dim >= 2 ? yg_.data() : nullptr,
                                grid_.dim >= 3 ? zg_.data() : nullptr, M_};
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  bd.tiled = 0;
  bd.atomic_reason = core::AtomicReason::None;
  if (tiles_.usable) {
    bd.chunk_steals = spread::spread_tiled_batch<T>(dev_, grid_, bins_, kp_, pts, c,
                                                    fw_.data(), sort_, tiles_, nullptr, B,
                                                    M_, ftot);
    bd.tiled = 1;
    bd.arena_bytes = tiles_.arena_bytes;  // grown when B exceeds ntransf
  } else {
    spread::spread_gm_batch<T>(dev_, grid_, kp_, pts, c, fw_.data(), sort_.order.data(), B,
                               M_, ftot);
    bd.atomic_reason = core::AtomicReason::TileGate;
  }
}

template <typename T>
void CpuPlan<T>::interp_sorted(cplx* c, int B) {
  const int dim = grid_.dim;
  const int w = kp_.w;
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  dev_.pool().parallel_for(0, M_, [&](std::size_t jj, std::size_t) {
    const std::size_t j = sort_.order[jj];
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
core::Breakdown CpuPlan<T>::execute(cplx* c, cplx* f, int B) {
  std::lock_guard lk(mu_);  // shared plans serialize; each caller snapshots
  if (B <= 0) B = std::max(1, opts_.ntransf);
  if (M_ == 0) {
    if (type_ == 1)
      for (std::int64_t i = 0; i < B * modes_total(); ++i) f[i] = cplx(0, 0);
    return bd_;
  }
  core::Breakdown bd = bd_;  // per-execute snapshot over the set_points-era fields
  bd.spread = bd.fft = bd.interp = 0;
  bd.chunk_steals = 0;
  // One stage pipeline for every batch size, mirroring the device library; a
  // coalesced batch beyond the constructed ntransf grows the stack once.
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  if (static_cast<std::size_t>(B) * ftot > fw_.size())
    fw_.resize(static_cast<std::size_t>(B) * ftot);
  const std::size_t ntot = static_cast<std::size_t>(modes_total());
  const typename fft::FftNd<T>::Extents keep{static_cast<std::size_t>(N_[0]),
                                             static_cast<std::size_t>(N_[1]),
                                             static_cast<std::size_t>(N_[2])};
  Timer t;
  if (type_ == 1) {
    std::fill(fw_.begin(), fw_.begin() + static_cast<std::ptrdiff_t>(B * ftot),
              cplx(0, 0));
    spread_step(c, B, bd);
    bd.spread = t.seconds();
    t.reset();
    // Pruned FFT with the deconvolve in its last pass, sharing the line sink
    // with the device library.
    bd.fft_lines = fft_->exec_batch(
        fw_.data(), static_cast<std::size_t>(B), ftot, iflag_, keep,
        [&](const cplx* line, std::size_t pos, std::size_t b) {
          spread::deconvolve_line(line, pos, f + b * ntot, grid_.dim, N_, grid_.nf, fser_,
                                  opts_.modeord);
        });
    bd.fft = t.seconds();
  } else {
    // Fused amplify + pruned FFT, sharing the row producer with the device
    // library.
    bd.fft_lines = fft_->exec_batch_fused(
        fw_.data(), static_cast<std::size_t>(B), ftot, iflag_, keep,
        [&](cplx* row, std::size_t line, std::size_t b) {
          return spread::amplify_fine_row(row, line, f + b * ntot, grid_.dim, N_, grid_.nf,
                                          fser_, opts_.modeord);
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
