// FINUFFT-like multithreaded CPU NUFFT — the paper's CPU comparator.
//
// Same ES kernel, width rule, upsampled fine grid (sigma = 2 or 1.25), and
// deconvolution as the device library, but organized the way the parallel
// CPU code is: bin-sorted
// points are spread in subproblems into thread-local padded-bin buffers that
// are merged into the fine grid with a tile-owned atomic-free core/halo
// scheme (the device library's engine before it switched to a colored direct
// writeback; deterministic at any pool size), falling back to FINUFFT's
// atomic padded-bin merge only when the tile geometry gate or arena cap
// fails; interpolation is a plain parallel gather
// over sorted points; the FFT (pruned to the lines that reach the retained
// modes) runs on the host pool.
//
// Mirrors the device library's stage-pipeline shape: every stage is
// batch-strided (ntransf = B stacked vectors, weights evaluated once per
// point) with B = 1 as the plain single-vector case, the spread point loops
// get the same compile-time width dispatch as the device kernels, and
// type-2's amplify and type-1's deconvolve are fused into the FFT's first and
// last axis pass.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "fft/fftnd.hpp"
#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"

namespace cf::cpu {

/// Stage timings (seconds) from the last set_points()/execute().
struct CpuBreakdown {
  double sort = 0;
  double spread = 0;
  double fft = 0;        ///< includes the type-1 deconvolve and the type-2
                         ///< amplify fused into its passes
  double interp = 0;
  std::size_t fft_lines = 0;  ///< 1D transforms the last execute ran (all axes
                              ///< and planes)
  double total() const { return spread + fft + interp; }
};

/// CPU NUFFT plan; same plan/setpts/execute lifecycle and mode conventions as
/// core::Plan (k from -N/2 to N/2-1 per axis, x-fastest).
template <typename T>
class CpuPlan {
 public:
  using cplx = std::complex<T>;

  struct Options {
    std::uint32_t msub = 16384;           ///< CPU subproblem cap (larger caches)
    std::array<int, 3> binsize{0, 0, 0};  ///< 0 = defaults
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

  /// Copy of the most recent set_points()/execute() snapshot.
  CpuBreakdown last_breakdown() const {
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
  CpuBreakdown execute(cplx* c, cplx* f, int B = 0);

 private:
  // Batch-strided stages; B = 1 is the single-vector case. The FFT's fused
  // type-2 amplify row producer and type-1 deconvolve line sink are the
  // shared spread::amplify_fine_row and spread::deconvolve_line.
  void spread_sorted(const cplx* c, int B);
  void spread_tiled(const cplx* c, int B);
  void build_tile_cache();
  void interp_sorted(cplx* c, int B);

  ThreadPool* pool_;
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
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> bin_start_;  // size nbins+1

  // Tile-ownership cache for the atomic-free merge, built in set_points:
  // geometry gate, active-bin compaction, and the per-tile arena reused by
  // every execute.
  bool tile_ok_ = false;
  int tile_nb_ = 1;  ///< batch planes held per tile (chunked by the arena cap)
  std::vector<std::uint32_t> tile_active_, tile_slot_of_;
  std::vector<cplx> tile_arena_;

  // Canonical (tile, chunk) split mirroring the device TileSet: overfull bins
  // are cut into balanced point-chunks (pure function of the points, never of
  // the pool size), scheduled largest-first over the pool's work-stealing
  // path; split tiles reduce their chunk planes in fixed chunk order before
  // the core writeback, so the merge stays bitwise-deterministic.
  std::uint32_t chunk_cap_ = 0;  ///< applied cap (UINT32_MAX = no splitting)
  std::vector<std::uint32_t> tile_chunk0_;  ///< slot -> first chunk (size +1)
  std::vector<std::uint32_t> chunk_tile_, chunk_off_, chunk_cnt_, chunk_plane_;
  std::vector<std::uint32_t> chunk_sched_;  ///< chunk ids largest-first
  std::vector<std::uint32_t> split_tile_;   ///< slots with > 1 chunk
  std::vector<cplx> chunk_arena_;  ///< split-chunk planes (plane-major)

  mutable std::mutex mu_;  ///< serializes set_points/execute; guards bd_
  CpuBreakdown bd_;
};

extern template class CpuPlan<float>;
extern template class CpuPlan<double>;

}  // namespace cf::cpu
