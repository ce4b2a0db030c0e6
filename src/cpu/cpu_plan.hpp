// FINUFFT-like multithreaded CPU NUFFT — the paper's CPU comparator.
//
// Same ES kernel, width rule, upsampled fine grid (sigma = 2 or 1.25), and
// deconvolution as the device library, run as a host library over the
// caller's thread pool. The type-1 spread is the device library's own engine,
// launched on a private vgpu::Device that borrows that pool: spread::bin_sort
// into the shared width-aware tiles (spread::tile_bins), then the colored
// tile-owned writeback (spread_tiled_batch, taps evaluated inline; zero
// atomics, bitwise-deterministic at any pool size). When the tile geometry
// gate fails, the spread falls back to spread_gm_batch's atomic writeback
// over the bin-sort order. A type-1 CpuPlan is therefore bitwise equal to a
// core::Plan with Method::GMSort. Interpolation is the comparator's own plain
// parallel gather over sorted points; the FFT (pruned to the lines that
// reach the retained modes) runs on the pool.
//
// Every stage is batch-strided (ntransf = B stacked vectors) with B = 1 as
// the plain single-vector case, and type-2's amplify and type-1's deconvolve
// are fused into the FFT's first and last axis pass.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/plan.hpp"
#include "fft/fftnd.hpp"
#include "spreadinterp/binsort.hpp"
#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"
#include "spreadinterp/point_cache.hpp"
#include "vgpu/device.hpp"

namespace cf::cpu {

/// CPU NUFFT plan; same plan/setpts/execute lifecycle and mode conventions as
/// core::Plan (k from -N/2 to N/2-1 per axis, x-fastest).
template <typename T>
class CpuPlan {
 public:
  using cplx = std::complex<T>;

  struct Options {
    std::array<int, 3> binsize{0, 0, 0};  ///< 0 = defaults (type 1: spread::tile_bins)
    double upsampfac = 2.0;               ///< fine-grid sigma: 2.0 or 1.25
    int ntransf = 1;                      ///< stacked vectors per execute
    int modeord = 0;                      ///< 0 = CMCL (-N/2..), 1 = FFT-style
    int kerevalmeth = 0;                  ///< 0 = exp/sqrt; 1 = Horner table
    int tile_chunk_cap = 0;  ///< tiled-spread chunk cap (points per work item),
                             ///< same encoding as the device library: 0 = auto
                             ///< (CF_TILE_CHUNK env override), > 0 = explicit,
                             ///< < 0 = never split a tile
  };

  CpuPlan(ThreadPool& pool, int type, std::span<const std::int64_t> nmodes, int iflag,
          double tol, Options opts = {});

  int type() const { return type_; }
  int dim() const { return grid_.dim; }
  int kernel_width() const { return kp_.w; }
  std::int64_t modes_total() const { return N_[0] * N_[1] * N_[2]; }
  const spread::GridSpec& fine_grid() const { return grid_; }

  /// Copy of the most recent set_points()/execute() snapshot. Filled like
  /// core::Plan's: stage timings, fft_lines, and for type 1 the tiled engine's
  /// fields (tiled, atomic_reason, tile_colors, tiles_active, arena_bytes,
  /// chunk_steals, ...). The tap-table and interior-partition fields stay 0.
  core::Breakdown last_breakdown() const {
    std::lock_guard lk(mu_);
    return bd_;
  }

  /// Registers M points (host pointers; y/z null below dim 2/3) and bin-sorts.
  /// Throws std::invalid_argument on a NaN or infinite coordinate (checked in
  /// the fold-rescale pass) and leaves the plan with no points.
  void set_points(std::size_t M, const T* x, const T* y, const T* z);

  /// Type 1: reads c (length M), writes f (modes). Type 2: reads f, writes c.
  /// With batch size B > 1, c/f hold B stacked vectors; every stage runs once
  /// over the whole stack. B = 0 (default) uses Options::ntransf; any
  /// positive B works (the service layer coalesces a variable number of
  /// requests), growing the fine-grid stack on first use. Thread-safe like
  /// core::Plan: concurrent executes on a shared plan serialize internally
  /// and each caller receives its own per-execute snapshot.
  core::Breakdown execute(cplx* c, cplx* f, int B = 0);

 private:
  // Batch-strided stages; B = 1 is the single-vector case. The FFT's fused
  // type-2 amplify row producer and type-1 deconvolve line sink are the
  // shared spread::amplify_fine_row and spread::deconvolve_line.
  void spread_step(const cplx* c, int B, core::Breakdown& bd);
  void interp_sorted(cplx* c, int B);

  vgpu::Device dev_;  ///< borrows the caller's pool; declared first so the
                      ///< device buffers below are released before it
  int type_;
  int iflag_;
  Options opts_;

  std::array<std::int64_t, 3> N_{1, 1, 1};
  spread::GridSpec grid_;
  spread::BinSpec bins_;
  spread::KernelParams<T> kp_;  ///< kerevalmeth=1 tables live in the
                                ///< process-wide per-(w, sigma) horner_cache
  std::unique_ptr<fft::FftNd<T>> fft_;

  std::vector<cplx> fw_;  ///< fine grid (ntransf stacked planes)
  std::array<std::vector<T>, 3> fser_;

  std::vector<T> xg_, yg_, zg_;
  std::size_t M_ = 0;
  spread::DeviceSort sort_;
  spread::TileSet<T> tiles_;  ///< type-1 tile coloring and schedule

  mutable std::mutex mu_;  ///< serializes set_points/execute; guards bd_
  core::Breakdown bd_;
};

extern template class CpuPlan<float>;
extern template class CpuPlan<double>;

}  // namespace cf::cpu
