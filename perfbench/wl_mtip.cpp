// mtip_f64: the paper's Sec. V application through mtip::MtipRank at the
// Table II grids (N_slice 41, N_merge 81), fp64, tol 1e-12 (w = 13), on a
// fixed number of Ewald-slice images. setup() once, then whole iterations:
// slicing + merging + finalize_merge + phasing.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>

#include "core/plan.hpp"
#include "harness.hpp"
#include "mtip/geometry.hpp"
#include "mtip/mtip.hpp"
#include "vgpu/device.hpp"

namespace pb {
namespace {

using cplx = std::complex<double>;
constexpr int kImages = 24;
constexpr int kPhasingIters = 2;

/// The image orientations are fixed (one Table II problem for every --seed):
/// at tol 1e-12 the merge error sits at the fp64 floor and moves by 2x
/// between orientation draws, which would drown any accuracy change. The seed
/// draws the density (hence the measured data) and the checked modes.
cf::mtip::MtipConfig config() {
  cf::mtip::MtipConfig cfg;
  cfg.N_slice = 41;
  cfg.N_merge = 81;
  cfg.nimages = kImages;
  cfg.tol = 1e-12;
  cfg.seed = 42;
  return cfg;
}

cf::mtip::BlobDensity truth(std::uint64_t seed) {
  return cf::mtip::BlobDensity(6, 2.0, seed * 7919 + 11);
}

/// The rank's nonuniform points, rebuilt from the public geometry calls.
Points<double> rank_points(const cf::mtip::MtipConfig& cfg) {
  Points<double> p;
  for (const auto& R : cf::mtip::random_rotations(std::size_t(cfg.nimages), cfg.seed))
    cf::mtip::ewald_slice_points(R, cfg.det, p.x, p.y, p.z);
  p.M = p.x.size();
  return p;
}

}  // namespace

double setup_mtip(const Args& a) {
  cf::vgpu::Device dev;
  const auto rho = truth(a.seed);
  cf::mtip::MtipRank rank(dev, config(), rho);
  return rank.setup();
}

void run_mtip(const Args& a, Tracer& tr, Result& res) {
  cf::vgpu::Device dev;
  const auto cfg = config();
  const auto rho = truth(a.seed);
  cf::mtip::MtipRank rank(dev, cfg, rho);
  double setup_s = 0;
  {
    Scope s(tr, "mtip.setup");
    setup_s = rank.setup();
  }
  const std::size_t M = rank.npoints();
  const std::int64_t Nm = cfg.N_merge;
  const std::int64_t merge_modes[3] = {Nm, Nm, Nm};

  std::vector<double> iter_s, exec_s;     // every iteration
  std::vector<double> untraced_s, traced_s, slice_s, merge_s, phase_s;
  std::uint64_t dk = 0, da = 0, dm = 0;   // device counters, traced iterations

  auto iteration = [&](std::size_t it) {
    const bool traced = tr.on();
    const auto k0 = dev.counters.kernels_launched.load();
    const auto a0 = dev.counters.global_atomics.load();
    const auto m0 = dev.counters.tile_merge_ops.load();
    Scope s(tr, "mtip.iteration", it);
    const double t0 = now_s();
    double ts, tm, tp;
    {
      Scope c(tr, "mtip.slicing");
      ts = rank.slicing();
    }
    {
      Scope c(tr, "mtip.merging");
      tm = rank.merging();
    }
    {
      Scope c(tr, "mtip.finalize_merge");
      rank.finalize_merge();
    }
    {
      Scope c(tr, "mtip.phasing");
      const double p0 = now_s();
      rank.phasing(kPhasingIters);
      tp = now_s() - p0;
    }
    const double dt = now_s() - t0;
    ++res.attempted;
    iter_s.push_back(dt);
    exec_s.push_back(ts + tm);
    if (!traced) {
      untraced_s.push_back(dt);
      return;
    }
    traced_s.push_back(dt);
    slice_s.push_back(ts);
    merge_s.push_back(tm);
    phase_s.push_back(tp);
    dk += dev.counters.kernels_launched.load() - k0;
    da += dev.counters.global_atomics.load() - a0;
    dm += dev.counters.tile_merge_ops.load() - m0;
  };

  // The traced run spends its first half untraced to report the overhead.
  const bool trace = tr.on();
  const double t_start = now_s();
  std::size_t it = 0;
  if (trace) {
    tr.set_on(false);
    while (it < 2 || now_s() - t_start < a.seconds / 2) iteration(it++);
    tr.set_on(true);
  }
  const std::size_t first = it;
  const double t_half = now_s();
  while (it < first + 2 || now_s() - t_half < (trace ? a.seconds / 2 : a.seconds))
    iteration(it++);
  const double corr = rank.real_space_correlation();

  // Output check: the merged weight transform sum_j w_j e^{+i n.x_j} at seeded
  // modes against the direct sum. The weights are MtipRank::setup's density
  // compensation w_j = |k_j| + 1/2 with k_j = x_j * N_merge / (2 pi).
  auto pts = rank_points(cfg);
  if (pts.M != M) throw std::runtime_error("mtip: rebuilt geometry differs from the rank's");
  {
    const double sc = double(Nm) / (2.0 * std::numbers::pi);
    pts.c.resize(M);
    for (std::size_t j = 0; j < M; ++j) {
      const double kx = pts.x[j] * sc, ky = pts.y[j] * sc, kz = pts.z[j] * sc;
      pts.c[j] = cplx(std::sqrt(kx * kx + ky * ky + kz * kz) + 0.5, 0);
    }
    cf::Rng crng(a.seed, 5000);
    const Err e = check_type1<double>(dev.pool(), pts, pts.c, +1, merge_modes,
                                      rank.merged_weights(), 2048, crng, 6);
    res.check("merging", "merging type1 (weights)", e, cfg.tol);
  }

  // A request here is one whole iteration; its NUFFT points are those of the
  // three executes (one type-2 slicing, two type-1 merges).
  double iter_sum = 0, exec_sum = 0;
  for (double v : iter_s) iter_sum += v;
  for (double v : exec_s) exec_sum += v;
  const double pts_iter = 3.0 * double(M);
  std::vector<double> iter_ms;
  for (double v : iter_s) iter_ms.push_back(v * 1e3);
  res.set("throughput_pts_per_s", pts_iter * double(iter_s.size()) / iter_sum);
  res.set("exec_pts_per_s", pts_iter * double(iter_s.size()) / exec_sum);
  res.set("iter_s", median(iter_s));
  res.set("requests_per_s", double(iter_s.size()) / iter_sum);
  res.set("latency_p50_ms", cf::percentile(iter_ms, 50));
  res.set("latency_p99_ms", cf::percentile(iter_ms, 99));
  res.set("device_peak_bytes", double(dev.peak_bytes()));
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "mtip_f64: %d images, M=%zu, N_slice=41, N_merge=81, tol 1e-12, %zu "
                "iterations, recon_corr %.4f; 1 device x %zu workers",
                kImages, M, iter_s.size(), corr, dev.n_workers());
  res.note(buf);
  if (!trace) return;

  // ---- per-layer (traced iterations) ----------------------------------------
  res.set("mtip.setup_s", setup_s);
  res.set("mtip.slicing_s", median(slice_s));
  res.set("mtip.merging_s", median(merge_s));
  res.set("mtip.phasing_s", median(phase_s));
  res.set("mtip.recon_corr", corr);
  const double ex = 3.0 * double(traced_s.size());
  res.set("vgpu.global_atomics", double(da) / ex);
  res.set("vgpu.tile_merge_ops", double(dm) / ex);
  res.set("vgpu.kernels_launched", double(dk) / ex);
  res.set("trace.overhead", median(traced_s) / median(untraced_s));

  // MtipRank keeps its plans private, so the core/spreadinterp/fft layers are
  // read from replicas of its two plans on the same points (same type, grid,
  // tolerance and default options).
  const std::int64_t Ns = cfg.N_slice;
  const std::int64_t slice_modes[3] = {Ns, Ns, Ns};
  std::unique_ptr<cf::core::Plan<double>> pm, ps;
  {
    Scope s(tr, "core.plan_ctor");
    pm = std::make_unique<cf::core::Plan<double>>(dev, 1, merge_modes, +1, cfg.tol);
  }
  {
    Scope s(tr, "core.plan_ctor");
    ps = std::make_unique<cf::core::Plan<double>>(dev, 2, slice_modes, -1, cfg.tol);
  }
  std::vector<double> sort, cache;
  std::size_t max_bin = 0;
  for (auto* p : {pm.get(), ps.get()}) {
    Scope s(tr, "core.set_points");
    const double t0 = now_s();
    p->set_points(M, pts.x.data(), pts.y.data(), pts.z.data());
    const auto bd = p->last_breakdown();
    setpts_children(tr, s.id(), t0 * 1e6, bd);
    sort.push_back(bd.sort);
    cache.push_back(bd.cache_build);
    max_bin = std::max(max_bin, bd.max_tile_points);
  }
  std::vector<cplx> fm(std::size_t(Nm * Nm * Nm)), fs(std::size_t(Ns * Ns * Ns), cplx(1, 0)),
      cs(M);
  cf::core::Breakdown b1, b2;
  {
    Scope s(tr, "core.execute.type1");
    const double t0 = now_s();
    b1 = pm->execute(pts.c.data(), fm.data());
    exec_children(tr, s.id(), t0 * 1e6, b1, 1);
  }
  {
    Scope s(tr, "core.execute.type2");
    const double t0 = now_s();
    b2 = ps->execute(cs.data(), fs.data());
    exec_children(tr, s.id(), t0 * 1e6, b2, 2);
  }
  const auto L = tr.layers();
  auto incl = [&](const char* n) {
    const auto i = L.find(n);
    return i == L.end() || !i->second.calls ? 0.0 : i->second.incl_s / i->second.calls;
  };
  res.set("core.plan_ctor_s", incl("core.plan_ctor"));
  res.set("core.set_points_s", incl("core.set_points"));
  res.set("core.execute_s.type1", incl("core.execute.type1"));
  res.set("core.execute_s.type2", incl("core.execute.type2"));
  res.set("core.deconvolve_s", b1.deconvolve);
  res.set("spreadinterp.sort_s", mean(sort));
  res.set("spreadinterp.cache_build_s", mean(cache));
  res.set("spreadinterp.tiled_share", b1.tiled ? 1.0 : 0.0);
  const double w1 = pm->kernel_width(), w2 = ps->kernel_width();
  res.set("spreadinterp.ns_per_tap",
          (b1.spread + b2.interp) * 1e9 / (double(M) * (w1 * w1 * w1 + w2 * w2 * w2)));
  res.set("spreadinterp.max_tile_points", double(max_bin));
  res.set("spreadinterp.chunk_steals", double(b1.chunk_steals));
  res.set("fft.exec_s", (b1.fft + b2.fft) / 2);

  // Input properties: one point set, reused by every iteration.
  const double n = double(iter_s.size());
  res.set("input.pair_repeat_share", (n - 1) / n);
  res.set("input.sig_repeat_share", (n - 1) / n);
  res.set("input.points_per_request", double(M));
  res.set("input.modes_per_request", double(Nm * Nm * Nm));
  // Computed from array sizes: coordinates, measurements/weights/slice output,
  // both fine grids, the merge grid and its host copies (numerator,
  // weights, model, two phasing buffers), and the slicing grid.
  const double ws = double(M) * (3 * sizeof(double) + 3 * sizeof(cplx)) +
                    double(pm->fine_grid().total() + ps->fine_grid().total()) * sizeof(cplx) +
                    (6.0 * double(Nm * Nm * Nm) + double(Ns * Ns * Ns)) * sizeof(cplx);
  res.set("input.working_set_bytes", ws);
  res.set("input.working_set_over_l3", l3_bytes() ? ws / double(l3_bytes()) : 0.0);
}

}  // namespace pb
