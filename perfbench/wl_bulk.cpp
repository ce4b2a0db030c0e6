// bulk_f32: the paper's low-accuracy throughput regime on the direct plan API.
// 3D, 64^3 modes, fp32, tol 1e-5 (w = 6); every round brings a fresh set of
// 2e6 points (alternating rand and cluster), runs set_points on one type-1
// and one type-2 plan, then one execute of each. The service is bypassed.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/thread_pool.hpp"
#include "core/plan.hpp"
#include "cpu/cpu_plan.hpp"
#include "harness.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"

namespace pb {
namespace {

using cplx = std::complex<float>;
constexpr std::int64_t kN = 64;
constexpr std::size_t kM = 2'000'000;
constexpr double kTol = 1e-5;
constexpr std::int64_t kModes[3] = {kN, kN, kN};
constexpr std::size_t kNmodes = std::size_t(kN * kN * kN);

Dist round_dist(std::size_t r) { return r % 2 == 0 ? Dist::Rand : Dist::Cluster; }

/// Round r's inputs depend only on (seed, r).
Points<float> round_points(std::uint64_t seed, std::size_t r, std::int64_t nf) {
  cf::Rng rng(seed, 1000 + r);
  return make_points<float>(3, kM, round_dist(r), nf, rng);
}

struct Counters {
  std::uint64_t kernels, atomics, merges;
};
Counters snap(const cf::vgpu::Device& dev) {
  return {dev.counters.kernels_launched.load(), dev.counters.global_atomics.load(),
          dev.counters.tile_merge_ops.load()};
}

}  // namespace

double setup_bulk(const Args& a) {
  cf::vgpu::Device dev;
  const auto pts = round_points(a.seed, 0, 2 * kN);
  cf::vgpu::device_buffer<float> dx(dev, std::span<const float>(pts.x)),
      dy(dev, std::span<const float>(pts.y)), dz(dev, std::span<const float>(pts.z));
  const double t0 = now_s();
  cf::core::Plan<float> p1(dev, 1, kModes, +1, kTol);
  cf::core::Plan<float> p2(dev, 2, kModes, -1, kTol);
  p1.set_points(kM, dx.data(), dy.data(), dz.data());
  p2.set_points(kM, dx.data(), dy.data(), dz.data());
  return now_s() - t0;
}

void run_bulk(const Args& a, Tracer& tr, Result& res) {
  cf::vgpu::Device dev;

  std::unique_ptr<cf::core::Plan<float>> p1, p2;
  {
    Scope s(tr, "core.plan_ctor");
    p1 = std::make_unique<cf::core::Plan<float>>(dev, 1, kModes, +1, kTol);
  }
  {
    Scope s(tr, "core.plan_ctor");
    p2 = std::make_unique<cf::core::Plan<float>>(dev, 2, kModes, -1, kTol);
  }
  const std::int64_t nf = p1->fine_grid().nf[0];
  const int w = p1->kernel_width();

  cf::Rng frng(a.seed, 7);
  const auto fin_host = random_coeffs<float>(kNmodes, frng);
  cf::vgpu::device_buffer<cplx> fin(dev, std::span<const cplx>(fin_host));
  cf::vgpu::device_buffer<float> dx(dev, kM), dy(dev, kM), dz(dev, kM);
  cf::vgpu::device_buffer<cplx> dc(dev, kM), dout1(dev, kNmodes), dout2(dev, kM);

  // Per-round samples. A "request" here is one transform: set_points plus
  // execute on one plan; a round is two requests.
  std::vector<double> round_s, req_ms, exec_s_v;
  struct LayerAcc {  // traced rounds only
    std::vector<double> sort, cache, deconv, fft;
    std::vector<double> spread[2], interp[2];  // [rand, cluster]
    double taps = 0, tap_s = 0;
    std::size_t tiled = 0, type1 = 0, max_bin = 0;
    std::uint64_t steals = 0;
    Counters dev{};  ///< device counter deltas
    std::size_t executes = 0;
    double trans_s = 0;  ///< set_points + execute seconds
    std::size_t pts = 0;
  } acc;
  double trans_untraced = 0;
  std::size_t pts_untraced = 0;
  std::vector<double> rand_exec_s;  ///< type-1 + type-2 execute of rand rounds

  auto one_round = [&](std::size_t r) {
    const Dist dist = round_dist(r);
    const auto pts = round_points(a.seed, r, nf);
    dx.copy_from_host(pts.x);
    dy.copy_from_host(pts.y);
    dz.copy_from_host(pts.z);
    dc.copy_from_host(pts.c);
    const bool traced = tr.on();
    const Counters c0 = snap(dev);

    auto setpts = [&](cf::core::Plan<float>& p) {
      Scope s(tr, "core.set_points");
      const double t0 = now_s();
      p.set_points(kM, dx.data(), dy.data(), dz.data());
      const double dt = now_s() - t0;
      const auto bd = p.last_breakdown();
      setpts_children(tr, s.id(), t0 * 1e6, bd);
      acc.sort.push_back(bd.sort);
      acc.cache.push_back(bd.cache_build);
      acc.max_bin = std::max(acc.max_bin, bd.max_tile_points);
      return dt;
    };
    auto execute = [&](cf::core::Plan<float>& p, cplx* c, cplx* f) {
      Scope s(tr, p.type() == 1 ? "core.execute.type1" : "core.execute.type2");
      const double t0 = now_s();
      const auto bd = p.execute(c, f);
      const double dt = now_s() - t0;
      exec_children(tr, s.id(), t0 * 1e6, bd, p.type());
      const int di = dist == Dist::Rand ? 0 : 1;
      acc.fft.push_back(bd.fft);
      if (p.type() == 1) {
        acc.deconv.push_back(bd.deconvolve);
        acc.spread[di].push_back(bd.spread);
        acc.tiled += bd.tiled ? 1 : 0;
        ++acc.type1;
        acc.steals += bd.chunk_steals;
        acc.tap_s += bd.spread;
      } else {
        acc.interp[di].push_back(bd.interp);
        acc.tap_s += bd.interp;
      }
      acc.taps += double(kM) * w * w * w;
      return dt;
    };

    Scope round_span(tr, "bulk.round", r);
    const double s1 = setpts(*p1);
    const double e1 = execute(*p1, dc.data(), dout1.data());
    const double s2 = setpts(*p2);
    const double e2 = execute(*p2, dout2.data(), fin.data());
    const Counters c1 = snap(dev);
    res.attempted += 2;

    round_s.push_back(s1 + e1 + s2 + e2);
    req_ms.push_back((s1 + e1) * 1e3);
    req_ms.push_back((s2 + e2) * 1e3);
    exec_s_v.push_back(e1 + e2);
    if (dist == Dist::Rand) rand_exec_s.push_back(e1 + e2);
    if (traced) {
      acc.trans_s += s1 + e1 + s2 + e2;
      acc.pts += 2 * kM;
      acc.executes += 2;
      acc.dev.kernels += c1.kernels - c0.kernels;
      acc.dev.atomics += c1.atomics - c0.atomics;
      acc.dev.merges += c1.merges - c0.merges;
    } else {
      trans_untraced += s1 + e1 + s2 + e2;
      pts_untraced += 2 * kM;
    }

    // Output check on the first round of each distribution.
    if (r < 2) {
      cf::Rng crng(a.seed, 5000 + r);
      const Err e1 = check_type1<float>(dev.pool(), pts, pts.c, +1, kModes, dout1.span(), 64,
                                        crng);
      const Err e2 = check_type2<float>(dev.pool(), pts.x.data(), pts.y.data(), pts.z.data(),
                                        kM, dout2.span(), -1, kModes, fin.span(), 256, crng);
      res.check("type1", std::string("type1 ") + dist_name(dist), e1, kTol);
      res.check("type2", std::string("type2 ") + dist_name(dist), e2, kTol);
    }
  };

  // Whole rand+cluster pairs until the time is up. The traced run spends its
  // first half untraced so it can report the tracing overhead.
  const bool trace = tr.on();
  const double t_start = now_s();
  std::size_t r = 0;
  if (trace) {
    tr.set_on(false);
    while (r < 2 || now_s() - t_start < a.seconds / 2) {
      one_round(r++);
      one_round(r++);
    }
    tr.set_on(true);
    acc = LayerAcc{};
  }
  const std::size_t traced_from = r;
  const double t_half = now_s();
  while (r == traced_from || now_s() - t_half < (trace ? a.seconds / 2 : a.seconds)) {
    one_round(r++);
    one_round(r++);
  }

  // End-to-end metrics (from every round of an untraced run).
  const double pts_total = double(2 * kM) * double(round_s.size());
  double round_sum = 0, exec_sum = 0;
  for (double v : round_s) round_sum += v;
  for (double v : exec_s_v) exec_sum += v;
  res.set("throughput_pts_per_s", pts_total / round_sum);
  res.set("exec_pts_per_s", pts_total / exec_sum);
  // One iteration is a rand round plus the cluster round after it.
  std::vector<double> pair_s;
  for (std::size_t i = 0; i + 1 < round_s.size(); i += 2)
    pair_s.push_back(round_s[i] + round_s[i + 1]);
  res.set("iter_s", median(pair_s));
  res.set("requests_per_s", double(req_ms.size()) / round_sum);
  res.set("latency_p50_ms", cf::percentile(req_ms, 50));
  res.set("latency_p99_ms", cf::percentile(req_ms, 99));
  res.set("device_peak_bytes", double(dev.peak_bytes()));

  res.note("bulk_f32: 3D 64^3 fp32 tol 1e-5, w=" + std::to_string(w) + ", M=2e6/round, " +
           std::to_string(round_s.size()) + " rounds; 1 device x " +
           std::to_string(dev.n_workers()) + " workers");
  if (!trace) return;

  // ---- per-layer (traced rounds) -------------------------------------------
  const auto L = tr.layers();
  auto incl = [&](const char* n) {
    const auto it = L.find(n);
    return it == L.end() || !it->second.calls ? 0.0 : it->second.incl_s / it->second.calls;
  };
  res.set("core.plan_ctor_s", incl("core.plan_ctor"));
  res.set("core.set_points_s", incl("core.set_points"));
  res.set("core.execute_s.type1", incl("core.execute.type1"));
  res.set("core.execute_s.type2", incl("core.execute.type2"));
  res.set("core.deconvolve_s", mean(acc.deconv));
  res.set("spreadinterp.sort_s", mean(acc.sort));
  res.set("spreadinterp.cache_build_s", mean(acc.cache));
  res.set("spreadinterp.spread_s.rand", mean(acc.spread[0]));
  res.set("spreadinterp.spread_s.cluster", mean(acc.spread[1]));
  res.set("spreadinterp.interp_s.rand", mean(acc.interp[0]));
  res.set("spreadinterp.interp_s.cluster", mean(acc.interp[1]));
  res.set("spreadinterp.tiled_share", acc.type1 ? double(acc.tiled) / acc.type1 : 0);
  res.set("spreadinterp.ns_per_tap", acc.taps > 0 ? acc.tap_s * 1e9 / acc.taps : 0);
  res.set("spreadinterp.max_tile_points", double(acc.max_bin));
  res.set("spreadinterp.chunk_steals", acc.type1 ? double(acc.steals) / acc.type1 : 0);
  res.set("fft.exec_s", mean(acc.fft));
  const double ex = acc.executes ? double(acc.executes) : 1.0;
  res.set("vgpu.global_atomics", double(acc.dev.atomics) / ex);
  res.set("vgpu.tile_merge_ops", double(acc.dev.merges) / ex);
  res.set("vgpu.kernels_launched", double(acc.dev.kernels) / ex);
  // Throughput of the untraced half over that of the traced half.
  res.set("trace.overhead",
          (double(pts_untraced) / trans_untraced) / (double(acc.pts) / acc.trans_s));

  // Input properties: every round brings new points, both plans are reused.
  const double nreq = double(req_ms.size());
  res.set("input.pair_repeat_share", 0.0);
  res.set("input.sig_repeat_share", (nreq - 2) / nreq);
  res.set("input.points_per_request", double(kM));
  res.set("input.modes_per_request", double(kNmodes));
  const double fine = double(p1->fine_grid().total()) * sizeof(cplx);
  const double ws = double(kM) * (3 * sizeof(float) + 2 * sizeof(cplx)) +
                    2.0 * double(kNmodes) * sizeof(cplx) + 2.0 * fine;
  res.set("input.working_set_bytes", ws);
  res.set("input.working_set_over_l3", l3_bytes() ? ws / double(l3_bytes()) : 0.0);

  // Single-threaded CPU reference on the round-0 (rand) problem; not an
  // end-to-end metric. Speed-up in the paper's form: CPU exec / device exec.
  {
    cf::ThreadPool one(1);
    const auto pts = round_points(a.seed, 0, nf);
    cf::cpu::CpuPlan<float> c1(one, 1, kModes, +1, kTol);
    cf::cpu::CpuPlan<float> c2(one, 2, kModes, -1, kTol);
    c1.set_points(kM, pts.x.data(), pts.y.data(), pts.z.data());
    c2.set_points(kM, pts.x.data(), pts.y.data(), pts.z.data());
    std::vector<cplx> f(kNmodes), c(kM);
    Scope s(tr, "cpu.exec");
    const double t0 = now_s();
    c1.execute(const_cast<cplx*>(pts.c.data()), f.data());
    c2.execute(c.data(), const_cast<cplx*>(fin_host.data()));
    const double cpu_s = now_s() - t0;
    res.set("cpu.exec_s", cpu_s);
    res.set("cpu.speedup", cpu_s / median(rand_exec_s));
  }
}

}  // namespace pb
