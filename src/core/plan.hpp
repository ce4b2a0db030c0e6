// Public cuFINUFFT-equivalent API: a "plan, set points, execute, destroy"
// interface (paper Sec. I-A) for type-1 and type-2 NUFFTs in 1-3 dimensions,
// single or double precision, on a vgpu Device.
//
//   Type 1 (nonuniform -> uniform), paper eq. (1):
//     f_k = sum_j c_j exp(iflag * i * k . x_j),   k in I_{N1 x ... x Nd}
//   Type 2 (uniform -> nonuniform), paper eq. (3):
//     c_j = sum_k f_k exp(iflag * i * k . x_j)
//
// Fourier modes are ordered with k increasing from -N/2 to N/2-1 per axis,
// x-fastest in memory. Accuracy follows the requested tolerance through the
// ES kernel width rule (eq. (6) at the paper's sigma = 2; the FINUFFT rule
// at the low-upsampling sigma = 1.25, see Options::upsampfac).
//
// Execute is a stage pipeline over batch-strided stages (spread | fft with
// the deconvolve fused into its last pass for type 1; fft with the amplify
// fused into its first pass | interp for type 2); ntransf = B stacked vectors
// run every stage once, and B = 1 is simply the same pipeline at batch size
// one. The FFT runs only the 1D lines whose results reach the retained modes
// (see fft/fftnd.hpp), with outputs bitwise-identical to the full transform.
// All point-dependent precomputation — fold-rescale,
// bin-sort, the SM tap table, the interior-first iteration partition, and
// the tile coloring and schedule of the atomic-free spread writeback — lives
// in a plan-resident PointCache built by set_points and reused by every
// execute (the paper's setpts amortization argument). Each plan runs one
// spread pipeline: type-1 SM and GM-sort spreading uses the colored
// tile-owned writeback (ZERO global atomics; the whole execute is
// bitwise-deterministic at any worker count) and falls back to atomics only
// when the tile geometry gate fails (a padded tile wider than the fine grid);
// GM is the atomic baseline by definition. Breakdown::atomic_reason says which
// of the two sent a type-1 spread to atomics.
//
// Tile shape: a type-1 SM or GM-sort plan with Options::binsize unset tiles
// 2D/3D grids by kernel width (see Plan::Plan) instead of the paper's
// shared-memory bin (32x32 / 16x16x2): the tiled engine's scratch lives in
// global memory, so the 48 KiB budget that shapes the SM bin does not bind
// it, and the paper's 2-cell z extent would be mostly halo and need 1 + pad
// colors. SM still decides whether it fits on the paper's bin, which its
// atomic fallback (geometry gate failed) runs on.
//
// Usage:
//   vgpu::Device dev;
//   core::Plan<float> plan(dev, 1, {{N1, N2}}, +1, 1e-5);
//   plan.set_points(M, d_x.data(), d_y.data(), nullptr);
//   plan.execute(d_c.data(), d_f.data());   // repeatable with new strengths
#pragma once

#include <array>
#include <atomic>
#include <complex>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "fft/fftnd.hpp"
#include "spreadinterp/binsort.hpp"
#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"
#include "spreadinterp/point_cache.hpp"
#include "spreadinterp/spread.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"

namespace cf::core {

/// Spreading method selection (paper Sec. III-A). Auto picks SM for type 1
/// when the padded bin fits shared memory (it does not for 3D double
/// precision with default bins — paper Rmk. 2), else GM-sort; interpolation
/// always uses GM-sort under Auto (paper Sec. III-B).
enum class Method { Auto, GM, GMSort, SM };

const char* method_name(Method m);

/// Tunable options; defaults are the paper's hand-tuned values.
struct Options {
  Method method = Method::Auto;
  std::uint32_t msub = 1024;            ///< max subproblem size (paper Rmk. 1)
  std::array<int, 3> binsize{0, 0, 0};  ///< 0 = paper defaults (32x32 / 16x16x2);
                                        ///< type-1 GM-sort 2D/3D plans size
                                        ///< their tiles by kernel width
  double upsampfac = 2.0;               ///< fine-grid sigma: 2.0 (paper) or 1.25
                                        ///< (low-upsampling: ~2x 3D volume
                                        ///< instead of 8x, wider kernel)
  int ntransf = 1;  ///< vectors per execute (cuFINUFFT's many-vector batching);
                    ///< > 1 also keeps a tap table for the tiled GM-sort
                    ///< type-1 spread (see Plan::set_points)
  int kerevalmeth = 0;  ///< 0 = direct exp/sqrt; 1 = piecewise-poly Horner
  int modeord = 0;  ///< 0 = CMCL (-N/2..N/2-1); 1 = FFT-style (0..,-N/2..-1)
  int tile_chunk_cap = 0;  ///< tiled-spread chunk cap (points per work item):
                           ///< 0 = auto (points-per-worker heuristic; the
                           ///< CF_TILE_CHUNK env var overrides the auto value),
                           ///< > 0 = explicit cap, < 0 = never split (one
                           ///< chunk per tile — PR-5's per-tile schedule).
                           ///< The applied cap is a pure function of the
                           ///< points, never of the worker count, so output
                           ///< stays bitwise-identical at any worker count for
                           ///< a FIXED cap (different caps re-associate the
                           ///< per-tile sums and agree to rounding).
};

/// Why a type-1 spread ran on the atomic writeback instead of the tiled one.
enum class AtomicReason {
  None,       ///< tiled (or no spread ran: type 2, no points)
  MethodGM,   ///< Method::GM was requested: the atomic baseline by definition
  TileGate,   ///< the geometry gate failed: a padded tile is wider than nf
};

/// Stage timings (seconds) and PointCache statistics. execute() returns a
/// per-execute snapshot (safe when several threads share one plan — each
/// caller sees its own execute's timings, not a concurrent writer's);
/// last_breakdown() returns a copy of the most recent snapshot. The cache
/// counters are plan-lifetime totals (atomic under the hood) so tests can
/// assert that repeated executes perform zero tap-table construction while
/// re-set_points rebuilds exactly once.
struct Breakdown {
  double sort = 0;        ///< bin-sort (in set_points)
  double cache_build = 0; ///< PointCache build incl. tile set / subproblem
                          ///< setup where needed (in set_points)
  double spread = 0;      ///< type-1 step 1
  double fft = 0;         ///< step 2, including the type-1 deconvolve and the
                          ///< type-2 amplify fused into its passes
  double deconvolve = 0;  ///< always 0: the type-1 deconvolve runs inside the
                          ///< FFT's last pass (perfbench still reports it as
                          ///< core.deconvolve_s)
  double interp = 0;      ///< type-2 step 3
  std::size_t fft_lines = 0;  ///< 1D transforms the last execute ran, summed over
                              ///< axes and planes (pruned to the retained modes)
  std::size_t tap_bytes = 0;  ///< tap-table bytes the last execute's spread read
                              ///< (0 when taps were evaluated inline)
  std::uint64_t tap_builds = 0;   ///< lifetime tap-table constructions
  std::uint64_t cache_hits = 0;   ///< lifetime executes served by the cache
  std::size_t interior_points = 0;  ///< no-wrap-classified points (last set_points)
  std::size_t boundary_points = 0;  ///< wrap-path points (last set_points)
  int tiled = 0;  ///< last execute's spread used the tile-owned writeback
  AtomicReason atomic_reason = AtomicReason::None;  ///< why the last type-1
                                                    ///< spread ran atomic
  std::size_t tiles_active = 0;  ///< tiles holding points (last set_points)
  std::size_t tile_colors = 0;   ///< colors of the tiled writeback = launches
                                 ///< per spread (last set_points)
  std::size_t arena_bytes = 0;   ///< tiled-spread scratch: per-worker padded
                                 ///< tiles + one color's split-chunk planes
                                 ///< (0 on the atomic writeback)
  std::size_t tile_chunks = 0;   ///< (tile, chunk) work items in the tiled
                                 ///< spread schedule (last set_points;
                                 ///< == tiles_active when nothing split)
  std::size_t max_tile_points = 0;  ///< largest bin population (last set_points)
  std::uint64_t chunk_steals = 0;   ///< work items the tiled spread's stealing
                                    ///< scheduler moved across workers (last
                                    ///< execute; 0 single-worker / untiled)
  double total() const { return spread + fft + deconvolve + interp; }
};

/// NUFFT plan bound to one device. T is float or double.
template <typename T>
class Plan {
 public:
  using cplx = std::complex<T>;

  /// type: 1 or 2; nmodes: N per axis (size = dim, 1..3); iflag: sign of i in
  /// the exponentials (+-1); tol: requested relative accuracy.
  Plan(vgpu::Device& dev, int type, std::span<const std::int64_t> nmodes, int iflag,
       double tol, Options opts = {});

  // -- inspectors -----------------------------------------------------------
  int type() const { return type_; }
  int dim() const { return grid_.dim; }
  int iflag() const { return iflag_; }
  double tol() const { return tol_; }
  int kernel_width() const { return kp_.w; }
  Method resolved_method() const { return method_; }
  std::int64_t modes_total() const { return N_[0] * N_[1] * N_[2]; }
  std::array<std::int64_t, 3> modes() const { return N_; }
  const spread::GridSpec& fine_grid() const { return grid_; }
  const spread::BinSpec& bins() const { return bins_; }  ///< sort bins = spread tiles
  std::size_t npoints() const { return M_; }
  vgpu::Device& device() const { return *dev_; }

  /// Copy of the most recent set_points()/execute() snapshot.
  Breakdown last_breakdown() const {
    std::lock_guard lk(mu_);
    return bd_;
  }

  /// Registers M nonuniform points (device pointers; y/z null for dim<2/3).
  /// Performs fold-rescale, the GM-sort/SM bin-sort, and the PointCache build
  /// (tile set, tap table, interior classification) whose cost is amortized
  /// over repeated execute() calls. Invalidates any previous PointCache.
  /// Throws std::invalid_argument on a NaN or infinite coordinate (checked
  /// inside the fold-rescale pass) and leaves the plan with no points.
  void set_points(std::size_t M, const T* x, const T* y, const T* z);

  /// Runs the transform: type 1 reads c (length M) and writes f (modes);
  /// type 2 reads f and writes c. Both are device pointers. Callable
  /// repeatedly after one set_points (the paper's "exec" timing) — repeated
  /// calls perform no point-dependent precomputation.
  ///
  /// With batch size B > 1, c holds B stacked strength vectors (length B*M)
  /// and f B stacked mode grids (length B*modes_total()); the whole stack
  /// runs through the same batch-strided stage pipeline with each point's tap
  /// weights applied once for all B vectors. `B = 0` (the default) uses
  /// Options::ntransf; any positive B works on any plan (the service layer
  /// coalesces a variable number of requests into one execute) — B beyond
  /// the constructed ntransf grows the fine-grid stack on first use.
  ///
  /// Thread-safe: concurrent execute()s on one shared plan serialize on an
  /// internal mutex, and each caller gets its OWN Breakdown snapshot.
  Breakdown execute(cplx* c, cplx* f, int B = 0);

 private:
  void spread_step(const cplx* c, int B, Breakdown& bd);
  void interp_step(cplx* c, int B);
  spread::NuPoints<T> nu_points() const;
  const std::uint32_t* iter_order(std::size_t& n_nowrap) const;

  vgpu::Device* dev_;
  int type_;
  int iflag_;
  double tol_;
  Options opts_;
  Method method_ = Method::Auto;

  std::array<std::int64_t, 3> N_{1, 1, 1};
  spread::KernelParams<T> kp_;  ///< kerevalmeth=1 tables live in the
                                ///< process-wide per-(w, sigma) horner_cache
  spread::GridSpec grid_;       ///< initialized before fft_, which it sizes
  spread::BinSpec bins_;

  fft::FftNd<T> fft_;
  vgpu::device_buffer<cplx> fw_;          ///< fine grid (ntransf stacked planes)
  std::array<std::vector<T>, 3> fser_;    ///< per-dim correction factors

  vgpu::device_buffer<T> xg_, yg_, zg_;   ///< fold-rescaled coords
  std::size_t M_ = 0;
  spread::DeviceSort sort_;
  spread::SubprobSetup subs_;
  bool need_sort_ = false;

  spread::PointCache<T> cache_;  ///< built in set_points, reused by execute
  std::atomic<std::uint64_t> tap_builds_{0};  ///< plan-lifetime totals: atomic
  std::atomic<std::uint64_t> cache_hits_{0};  ///< so shared-plan executes count
                                              ///< correctly under concurrency

  mutable std::mutex mu_;  ///< serializes set_points/execute; guards bd_
  Breakdown bd_;
};

extern template class Plan<float>;
extern template class Plan<double>;

}  // namespace cf::core
