#include "core/plan.hpp"

#include <atomic>
#include <cmath>
#include <stdexcept>

#include "common/timer.hpp"
#include "spreadinterp/kernel_ft.hpp"
#include "vgpu/primitives.hpp"

namespace cf::core {

const char* method_name(Method m) {
  switch (m) {
    case Method::Auto: return "auto";
    case Method::GM: return "GM";
    case Method::GMSort: return "GM-sort";
    case Method::SM: return "SM";
  }
  return "?";
}

namespace {

/// Tile edge for the tiled spread engine on one axis: about 4*pad cells (never
/// below the paper's bin edge, 32 in 2D and 16 in 3D), so the halo stays a
/// modest share of the padded tile, with the tile count rounded to an even
/// number so that, with m >= 2*pad, two colors per axis suffice. E.g. nf 162
/// at w = 13 (pad 7): 162 / 28 = 5.8 -> 6 tiles of 27.
int tile_edge(std::int64_t nf, int dim, int w) {
  const int pad = (w + 1) / 2;
  const double target = std::max(dim == 2 ? 32.0 : 16.0, 4.0 * pad);
  const std::int64_t n = 2 * std::max<std::int64_t>(1, std::llround(double(nf) / target / 2));
  return static_cast<int>((nf + n - 1) / n);
}

std::vector<std::size_t> fft_dims(const spread::GridSpec& g) {
  std::vector<std::size_t> dims;
  for (int d = 0; d < g.dim; ++d) dims.push_back(static_cast<std::size_t>(g.nf[d]));
  return dims;
}

}  // namespace

template <typename T>
Plan<T>::Plan(vgpu::Device& dev, int type, std::span<const std::int64_t> nmodes, int iflag,
              double tol, Options opts)
    : dev_(&dev),
      type_(type),
      iflag_(iflag >= 0 ? 1 : -1),
      tol_(tol),
      opts_(opts),
      kp_(spread::KernelParams<T>::from_width(
          spread::width_from_tol(tol, opts.upsampfac), opts.upsampfac)),
      // make_fine_grid validates the mode shape and the fine grid's index
      // range before fft_ allocates its per-axis twiddle tables.
      grid_(spread::make_fine_grid(nmodes, opts.upsampfac, kp_.w)),
      fft_(dev.pool(), fft_dims(grid_)) {
  if (type_ != 1 && type_ != 2) throw std::invalid_argument("Plan: type must be 1 or 2");
  if (opts_.upsampfac != 2.0 && opts_.upsampfac != 1.25)
    throw std::invalid_argument("Plan: upsampfac must be 2.0 or 1.25");

  for (std::size_t d = 0; d < nmodes.size(); ++d) N_[d] = nmodes[d];

  if (opts_.kerevalmeth == 1)
    spread::horner_cache<T>(kp_.w, opts_.upsampfac).attach(kp_);

  auto bsz = opts_.binsize[0] > 0 ? opts_.binsize : spread::BinSpec::default_size(grid_.dim);
  bins_ = spread::BinSpec::make(grid_, bsz);

  // Method resolution (paper Sec. III + Rmk. 2).
  method_ = opts_.method;
  if (method_ == Method::Auto) {
    if (type_ == 1 && spread::sm_fits<T>(*dev_, grid_, bins_, kp_.w))
      method_ = Method::SM;
    else
      method_ = Method::GMSort;
  }
  if (method_ == Method::SM) {
    if (type_ == 2)
      throw std::invalid_argument("Plan: SM applies to type 1 only (paper Sec. III-B)");
    if (!spread::sm_fits<T>(*dev_, grid_, bins_, kp_.w))
      throw std::invalid_argument(
          "Plan: SM padded bin exceeds shared memory for this precision/dim "
          "(paper Rmk. 2); use GM-sort");
  }
  need_sort_ = (method_ == Method::GMSort || method_ == Method::SM);

  // Width-aware tiles for the tiled spread (see the header notes). SM has
  // already been checked against the paper's bins above; those bins only
  // serve its atomic fallback, which runs when the geometry gate fails, and
  // a shape that fails the gate keeps the paper's bins.
  if (type_ == 1 && need_sort_ && opts_.binsize[0] <= 0 && grid_.dim >= 2) {
    std::array<int, 3> tsz{1, 1, 1};
    bool fits = true;
    for (int d = 0; d < grid_.dim; ++d) {
      tsz[d] = tile_edge(grid_.nf[d], grid_.dim, kp_.w);
      fits = fits && tsz[d] + 2 * ((kp_.w + 1) / 2) <= grid_.nf[d];
    }
    if (fits) bins_ = spread::BinSpec::make(grid_, tsz);
  }

  // One fine-grid plane per stacked vector, so a batched execute spreads,
  // transforms, and deconvolves the whole ntransf stack without reusing (and
  // thus serializing on) a single plane.
  const std::size_t nplanes = static_cast<std::size_t>(std::max(1, opts_.ntransf));
  fw_ = vgpu::device_buffer<cplx>(*dev_,
                                  nplanes * static_cast<std::size_t>(grid_.total()));

  // Deconvolution factors per dimension (planning-stage precompute).
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
spread::NuPoints<T> Plan<T>::nu_points() const {
  return spread::NuPoints<T>{xg_.data(), grid_.dim >= 2 ? yg_.data() : nullptr,
                             grid_.dim >= 3 ? zg_.data() : nullptr, M_};
}

// Iteration order + no-wrap prefix for the per-point GM/GM-sort kernels: the
// interior-first partition of the sort permutation (GM-sort) or of user order
// (GM), which set_points builds for every plan these kernels serve.
template <typename T>
const std::uint32_t* Plan<T>::iter_order(std::size_t& n_nowrap) const {
  n_nowrap = cache_.interior.n_interior;
  return cache_.interior.order.data();
}

template <typename T>
void Plan<T>::set_points(std::size_t M, const T* x, const T* y, const T* z) {
  if (M > spread::kMaxPoints)
    throw std::invalid_argument("set_points: M exceeds the 32-bit point index");
  if (grid_.dim >= 2 && !y) throw std::invalid_argument("set_points: y required");
  if (grid_.dim >= 3 && !z) throw std::invalid_argument("set_points: z required");
  std::lock_guard lk(mu_);  // a shared plan may be re-pointed while others wait
  M_ = M;
  cache_.invalidate();  // previous points' caches are stale from here on
  subs_ = spread::SubprobSetup{};  // ...as is the subproblem decomposition
  Timer t;
  xg_ = vgpu::device_buffer<T>(*dev_, M);
  if (grid_.dim >= 2) yg_ = vgpu::device_buffer<T>(*dev_, M);
  if (grid_.dim >= 3) zg_ = vgpu::device_buffer<T>(*dev_, M);
  const std::int64_t nf0 = grid_.nf[0], nf1 = grid_.nf[1], nf2 = grid_.nf[2];
  const int dim = grid_.dim;
  // The fold pass also flags non-finite coordinates: a NaN or Inf would fold
  // to NaN and then select a bin through an undefined float -> int cast.
  std::atomic<bool> nonfinite{false};
  dev_->launch_items(M, 256, [&](std::size_t j, vgpu::BlockCtx&) {
    bool ok = std::isfinite(x[j]);
    xg_[j] = spread::fold_rescale(x[j], nf0);
    if (dim >= 2) {
      ok = ok && std::isfinite(y[j]);
      yg_[j] = spread::fold_rescale(y[j], nf1);
    }
    if (dim >= 3) {
      ok = ok && std::isfinite(z[j]);
      zg_[j] = spread::fold_rescale(z[j], nf2);
    }
    if (!ok) nonfinite.store(true, std::memory_order_relaxed);
  });
  if (nonfinite.load(std::memory_order_relaxed)) {
    M_ = 0;
    xg_ = vgpu::device_buffer<T>{};
    yg_ = vgpu::device_buffer<T>{};
    zg_ = vgpu::device_buffer<T>{};
    bd_ = Breakdown{};
    throw std::invalid_argument("set_points: non-finite coordinate");
  }
  if (need_sort_)
    spread::bin_sort(*dev_, grid_, bins_, xg_.data(), dim >= 2 ? yg_.data() : nullptr,
                     dim >= 3 ? zg_.data() : nullptr, M, sort_);
  bd_ = Breakdown{};
  bd_.sort = t.seconds();

  // Plan-resident PointCache: everything that depends on the points but not
  // the strengths is paid here, once, and amortized over repeated executes.
  Timer tc;
  if (M_ > 0) {
    spread::NuPoints<T> pts{xg_.data(), dim >= 2 ? yg_.data() : nullptr,
                            dim >= 3 ? zg_.data() : nullptr, M_};
    const std::uint32_t* order = need_sort_ ? sort_.order.data() : nullptr;
    if (type_ == 1 && need_sort_)
      spread::build_tile_set(*dev_, grid_, bins_, kp_.w, sort_,
                             std::max(1, opts_.ntransf), cache_.tiles,
                             spread::tile_chunk_cap(opts_.tile_chunk_cap));
    // SM always consumes a tap table. The tiled GM-sort engine can stream
    // the same table instead of evaluating taps inline (bitwise-identical
    // either way — see spread_tiled.cpp); a batched plan (ntransf > 1, e.g.
    // the service layer's) keeps it, trading SM's memory profile for the
    // per-execute evaluation cost that batching only amortizes per chunk.
    if (method_ == Method::SM ||
        (method_ == Method::GMSort && type_ == 1 && opts_.ntransf > 1 &&
         cache_.tiles.usable)) {
      spread::build_tap_table(*dev_, grid_.dim, kp_, pts, order, cache_.taps);
      ++tap_builds_;
    }
    // The partition only feeds the atomic GM/GM-sort kernels and interp;
    // when the tile engine will serve the (type-1) spread it would be dead
    // work, so skip it — interior_points then reads 0 for such plans. The
    // SM subproblem decomposition is gated the same way: the tile engine
    // works per bin, so subproblems only matter on the atomic fallback.
    if (method_ != Method::SM && !cache_.tiles.usable)
      spread::classify_interior(*dev_, grid_, kp_, pts, order, cache_.interior);
    if (method_ == Method::SM && !cache_.tiles.usable)
      subs_ = spread::build_subproblems(*dev_, sort_, opts_.msub);
    // Valid only when something was actually built — cache_hits must mean
    // "an execute consumed plan-resident data".
    cache_.valid =
        !cache_.taps.empty() || !cache_.interior.empty() || cache_.tiles.usable;
  }
  bd_.cache_build = tc.seconds();
  bd_.tap_builds = tap_builds_.load(std::memory_order_relaxed);
  bd_.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  bd_.interior_points = cache_.interior.n_interior;
  bd_.boundary_points = cache_.interior.n_boundary;
  bd_.tiles_active = cache_.tiles.n_active;
  bd_.tile_colors = cache_.tiles.n_colors;
  bd_.arena_bytes = cache_.tiles.usable ? cache_.tiles.arena_bytes : 0;
  bd_.tile_chunks = cache_.tiles.usable ? cache_.tiles.n_chunks : 0;
  bd_.max_tile_points = cache_.tiles.usable ? cache_.tiles.max_tile_points : 0;
}

template <typename T>
void Plan<T>::spread_step(const cplx* c, int B, Breakdown& bd) {
  auto pts = nu_points();
  const std::size_t fwstride = static_cast<std::size_t>(grid_.total());
  vgpu::fill(*dev_, std::span(fw_.data(), static_cast<std::size_t>(B) * fwstride),
             cplx(0, 0));
  bd.tiled = 0;
  bd.atomic_reason = AtomicReason::None;
  switch (method_) {
    case Method::GM: {
      // GM stays on the atomic path by definition (the unsorted baseline);
      // it still benefits from the interior-first partition.
      std::size_t nowrap = 0;
      const std::uint32_t* order = iter_order(nowrap);
      pts.n_nowrap = nowrap;
      spread::spread_gm_batch<T>(*dev_, grid_, kp_, pts, c, fw_.data(), order, B, M_,
                                 fwstride);
      bd.atomic_reason = AtomicReason::MethodGM;
      break;
    }
    case Method::GMSort:
      if (cache_.tiles.usable) {
        // Tile-owned writeback; taps evaluated inline (same values as the
        // table, see spread_tiled.cpp) unless set_points kept the table.
        bd.chunk_steals = spread::spread_tiled_batch<T>(
            *dev_, grid_, bins_, kp_, pts, c, fw_.data(), sort_, cache_.tiles,
            cache_.taps.empty() ? nullptr : &cache_.taps, B, M_, fwstride);
        bd.tiled = 1;
        bd.tap_bytes = cache_.taps.bytes();
      } else {
        std::size_t nowrap = 0;
        const std::uint32_t* order = iter_order(nowrap);
        pts.n_nowrap = nowrap;
        spread::spread_gm_batch<T>(*dev_, grid_, kp_, pts, c, fw_.data(), order, B, M_,
                                   fwstride);
        bd.atomic_reason = AtomicReason::TileGate;
      }
      break;
    case Method::SM:
      if (cache_.tiles.usable) {
        bd.chunk_steals = spread::spread_tiled_batch<T>(
            *dev_, grid_, bins_, kp_, pts, c, fw_.data(), sort_, cache_.tiles,
            &cache_.taps, B, M_, fwstride);
        bd.tiled = 1;
      } else {
        spread::spread_sm_batch<T>(*dev_, grid_, bins_, kp_, pts, c, fw_.data(), sort_,
                                   subs_, opts_.msub, cache_.taps, B, M_, fwstride);
        bd.atomic_reason = AtomicReason::TileGate;
      }
      bd.tap_bytes = cache_.taps.bytes();
      break;
    default:
      throw std::logic_error("unresolved method");
  }
  // A batch beyond the planes set_points sized grows the tile scratch.
  if (bd.tiled) bd.arena_bytes = cache_.tiles.arena_bytes;
}

template <typename T>
void Plan<T>::interp_step(cplx* c, int B) {
  auto pts = nu_points();
  std::size_t nowrap = 0;
  const std::uint32_t* order = iter_order(nowrap);
  pts.n_nowrap = nowrap;
  spread::interp_batch<T>(*dev_, grid_, kp_, pts, fw_.data(), c, order, B, M_,
                          static_cast<std::size_t>(grid_.total()));
}

template <typename T>
Breakdown Plan<T>::execute(cplx* c, cplx* f, int B) {
  std::lock_guard lk(mu_);  // shared plans serialize; each caller snapshots
  if (B <= 0) B = std::max(1, opts_.ntransf);
  if (M_ == 0) {
    // No points set: type 1 yields zero output; type 2 writes nothing.
    if (type_ == 1)
      for (std::int64_t i = 0; i < B * modes_total(); ++i) f[i] = cplx(0, 0);
    return bd_;
  }
  // Per-execute snapshot: starts from the set_points-era fields (sort /
  // cache_build / classification) and records THIS execute's stage timings,
  // so concurrent callers on a shared plan never see each other's numbers.
  Breakdown bd = bd_;
  bd.spread = bd.fft = bd.deconvolve = bd.interp = 0;
  bd.chunk_steals = 0;  // per-execute counter, refilled by a tiled spread_step
  bd.tap_bytes = 0;     // likewise, refilled by a spread that reads the table
  if (cache_.valid) cache_hits_.fetch_add(1, std::memory_order_relaxed);
  // A coalesced batch larger than the constructed ntransf grows the fine-grid
  // stack once; the batch-strided stages take B as a plain parameter.
  const std::size_t fwstride = static_cast<std::size_t>(grid_.total());
  if (static_cast<std::size_t>(B) * fwstride > fw_.size())
    fw_ = vgpu::device_buffer<cplx>(*dev_, static_cast<std::size_t>(B) * fwstride);
  // One stage pipeline for every batch size: batch-strided spread/interp and
  // one batched FFT over the B planes, pruned to the lines that reach the
  // retained modes, with the type-1 deconvolve and the type-2 amplify fused
  // into its last and first pass. B = 1 runs the same kernels at batch size
  // one.
  const std::size_t ntot = static_cast<std::size_t>(modes_total());
  const typename fft::FftNd<T>::Extents keep{static_cast<std::size_t>(N_[0]),
                                             static_cast<std::size_t>(N_[1]),
                                             static_cast<std::size_t>(N_[2])};
  Timer t;
  if (type_ == 1) {
    spread_step(c, B, bd);
    bd.spread = t.seconds();
    t.reset();
    // FFT + deconvolve (type-1 steps 2-3, paper eq. (10)): the last axis
    // pass hands each line at retained modes to deconvolve_line, which
    // writes the truncated, corrected modes straight into f. Its cost is
    // reported under bd.fft.
    bd.fft_lines = fft_.exec_batch(
        fw_.data(), static_cast<std::size_t>(B), fwstride, iflag_, keep,
        [&](const cplx* line, std::size_t pos, std::size_t b) {
          spread::deconvolve_line(line, pos, f + b * ntot, grid_.dim, N_, grid_.nf, fser_,
                                  opts_.modeord);
        });
    bd.fft = t.seconds();
  } else {
    // Fused amplify + FFT (type-2 step 1, paper eq. (11)): fw_'s rows are
    // produced by amplify_fine_row inside the first-axis pass (zero-padding
    // rows skip their transforms entirely), removing the separate amplify
    // write pass over the B-plane fine grid. Its cost is reported under
    // bd.fft.
    bd.fft_lines = fft_.exec_batch_fused(
        fw_.data(), static_cast<std::size_t>(B), fwstride, iflag_, keep,
        [&](cplx* row, std::size_t line, std::size_t b) {
          return spread::amplify_fine_row(row, line, f + b * ntot, grid_.dim, N_, grid_.nf,
                                          fser_, opts_.modeord);
        });
    bd.fft = t.seconds();
    t.reset();
    interp_step(c, B);
    bd.interp = t.seconds();
  }
  bd.tap_builds = tap_builds_.load(std::memory_order_relaxed);
  bd.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  bd_ = bd;
  return bd;
}

template class Plan<float>;
template class Plan<double>;

}  // namespace cf::core
