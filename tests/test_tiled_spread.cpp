// Tile-owned atomic-free spread writeback (type-1 SM and GM-sort plans):
//  * bitwise-identical execute output across worker counts {1, 2, hw,
//    $CF_WORKERS} on the tiled path (the whole pipeline is atomic-free and
//    every fine-grid cell has a single owner with a fixed merge order);
//  * zero global atomics across an entire tiled type-1 execute, all-interior
//    and boundary-heavy alike, with the halo-merge counter accounting for the
//    traffic that replaced them;
//  * parity against the atomic writeback (a Method::GM plan) at one worker
//    across dims x methods x precisions x B in {1, 3};
//  * graceful fallback: geometries failing the tile gate (padded extent
//    exceeding nf) silently keep the atomic path and stay correct;
//  * the coloring invariant of the colored writeback (tiles of one color
//    never reach the same cell), exhaustively per axis and on a built
//    TileSet;
//  * an M-TIP merge-shaped plan (3D fp64, w = 13, Ewald-slice points) on
//    width-aware tiles: tiled, zero atomics, bitwise across workers and at
//    forced chunk caps, accurate against GM and the direct sum;
//  * tile shape selection: a user-set binsize is honored, SM keeps the
//    paper's bin, and GM-sort sizes its tiles by kernel width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/plan.hpp"
#include "cpu/cpu_plan.hpp"
#include "cpu/direct.hpp"
#include "mtip/geometry.hpp"
#include "spreadinterp/binsort.hpp"
#include "spreadinterp/point_cache.hpp"
#include "spreadinterp/spread_impl.hpp"
#include "test_env.hpp"
#include "vgpu/device.hpp"

namespace core = cf::core;
namespace vgpu = cf::vgpu;
namespace mtip = cf::mtip;
using cf::Rng;

namespace {

/// Modes sized so the fine grid passes the tile-geometry gate (padded bin
/// extent <= nf per axis) at the suite's tolerances. 1D gets an explicit bin
/// size: the 1024-point default bin always fails the gate on test-sized
/// grids. The low-upsampling grid needs larger modes: sigma = 1.25 shrinks
/// nf while widening the kernel (w = 15 at double 1e-9), so the sigma = 2
/// shapes would fail the gate and silently skip the tiled path.
std::vector<std::int64_t> modes_for(int dim,
                                    double sigma = cf::test::env_upsampfac()) {
  if (dim == 1) return {64};
  if (sigma != 2.0) return dim == 2 ? std::vector<std::int64_t>{40, 40}
                                    : std::vector<std::int64_t>{28, 28, 26};
  if (dim == 2) return {40, 36};
  return {16, 16, 12};
}

core::Options base_opts(int dim, core::Method method, int B = 1) {
  core::Options o;
  o.method = method;
  o.upsampfac = cf::test::env_upsampfac();
  o.ntransf = B;
  if (dim == 1) o.binsize = {32, 1, 1};
  return o;
}

template <typename T>
struct Problem {
  std::vector<std::int64_t> N;
  std::vector<T> x, y, z;
  std::vector<std::complex<T>> c;
  std::size_t M;
  std::int64_t ntot;

  /// interior_band > 0 keeps every coordinate at least that many fine-grid
  /// cells away from the periodic edge (all-interior placement).
  Problem(std::vector<std::int64_t> modes, std::size_t M_, int B,
          const std::array<std::int64_t, 3>& nf, int interior_band,
          std::uint64_t seed)
      : N(std::move(modes)), M(M_) {
    Rng rng(seed);
    const int dim = static_cast<int>(N.size());
    ntot = 1;
    for (auto n : N) ntot *= n;
    x.resize(M);
    if (dim >= 2) y.resize(M);
    if (dim >= 3) z.resize(M);
    auto coord = [&](int d) {
      const double g = rng.uniform(double(interior_band),
                                   double(nf[d] - interior_band));
      return static_cast<T>(2.0 * std::numbers::pi * g / double(nf[d]));
    };
    for (std::size_t j = 0; j < M; ++j) {
      x[j] = coord(0);
      if (dim >= 2) y[j] = coord(1);
      if (dim >= 3) z[j] = coord(2);
    }
    c.resize(static_cast<std::size_t>(B) * M);
    for (auto& v : c)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }

  const T* yp() const { return y.empty() ? nullptr : y.data(); }
  const T* zp() const { return z.empty() ? nullptr : z.data(); }
};

/// One full type-1 execute at the given worker count; returns the mode
/// outputs and reports whether the spread ran tiled and how many global
/// atomics the execute performed.
template <typename T>
std::vector<std::complex<T>> run_type1(std::size_t workers, const Problem<T>& p,
                                       const core::Options& opts, double tol,
                                       int* tiled = nullptr,
                                       std::uint64_t* atomics = nullptr,
                                       core::Breakdown* bd = nullptr) {
  vgpu::Device dev(workers);
  const int B = std::max(1, opts.ntransf);
  core::Plan<T> plan(dev, 1, p.N, +1, tol, opts);
  plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
  std::vector<std::complex<T>> f(static_cast<std::size_t>(B) * p.ntot);
  std::vector<std::complex<T>> c = p.c;
  dev.counters.reset();
  plan.execute(c.data(), f.data());
  if (tiled) *tiled = plan.last_breakdown().tiled;
  if (atomics) *atomics = dev.counters.global_atomics.load();
  if (bd) *bd = plan.last_breakdown();
  return f;
}

std::vector<std::size_t> worker_counts() {
  std::vector<std::size_t> counts{1, 2,
                                  std::max(1u, std::thread::hardware_concurrency())};
  const int env = cf::test::env_workers(0);
  if (env > 0) counts.push_back(static_cast<std::size_t>(env));
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

}  // namespace

// ---- bitwise determinism across worker counts --------------------------------

/// SM is unavailable where the padded bin exceeds shared memory (e.g. 3D
/// double, paper Rmk. 2); those combinations are skipped.
template <typename T>
static bool method_available(const std::vector<std::int64_t>& modes, double tol,
                             const core::Options& opts) {
  vgpu::Device probe(1);
  try {
    core::Plan<T> trial(probe, 1, modes, +1, tol, opts);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

template <typename T>
static void check_bitwise_across_workers(int dim, core::Method method, int B,
                                         double sigma = cf::test::env_upsampfac()) {
  const double tol = std::is_same_v<T, double> ? 1e-9 : 1e-5;
  auto opts = base_opts(dim, method, B);
  opts.upsampfac = sigma;
  const auto modes = modes_for(dim, sigma);
  if (!method_available<T>(modes, tol, opts)) return;
  vgpu::Device probe(1);
  core::Plan<T> trial(probe, 1, modes, +1, tol, opts);
  Problem<T> p(modes, 3000, B, trial.fine_grid().nf, 0, 7 + dim + B);
  int tiled = 0;
  const auto ref = run_type1<T>(1, p, opts, tol, &tiled);
  ASSERT_EQ(tiled, 1) << "tile engine inactive at dim=" << dim
                      << " method=" << core::method_name(method);
  for (std::size_t wc : worker_counts()) {
    const auto got = run_type1<T>(wc, p, opts, tol);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], ref[i]) << "dim=" << dim << " method="
                                << core::method_name(method) << " workers=" << wc
                                << " B=" << B << " i=" << i;
  }
}

TEST(TiledSpread, BitwiseIdenticalAcrossWorkerCountsF32) {
  for (int dim = 1; dim <= 3; ++dim)
    for (auto m : {core::Method::GMSort, core::Method::SM})
      for (int B : {1, 3}) check_bitwise_across_workers<float>(dim, m, B);
}

TEST(TiledSpread, BitwiseIdenticalAcrossWorkerCountsF64) {
  for (int dim = 1; dim <= 3; ++dim)
    for (auto m : {core::Method::GMSort, core::Method::SM})
      for (int B : {1, 3}) check_bitwise_across_workers<double>(dim, m, B);
}

// ---- low-upsampling grid (sigma = 1.25) --------------------------------------

TEST(TiledSpread, Sigma125BitwiseAcrossWorkerCounts) {
  // The tile-owned writeback is sigma-agnostic: the determinism contract must
  // hold verbatim on the sigma = 1.25 grid (smaller nf, wider kernel — w = 9
  // float / w = 15 double at the suite tolerances). Forced here regardless of
  // CF_UPSAMP so the default ctest run covers both grids.
  for (int dim = 1; dim <= 3; ++dim)
    for (auto m : {core::Method::GMSort, core::Method::SM}) {
      check_bitwise_across_workers<float>(dim, m, 1, 1.25);
      check_bitwise_across_workers<double>(dim, m, 1, 1.25);
    }
}

TEST(TiledSpread, Sigma125ZeroGlobalAtomicsOnTiledExecute) {
  // Zero global atomics is per-sigma part of the contract: the wider sigma =
  // 1.25 halos go through the same shell arena + merge schedule, never
  // through atomics.
  for (int dim = 2; dim <= 3; ++dim) {
    auto opts = base_opts(dim, core::Method::GMSort);
    opts.upsampfac = 1.25;
    const auto modes = modes_for(dim, 1.25);
    vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
    core::Plan<double> plan(dev, 1, modes, +1, 1e-9, opts);
    Problem<double> p(modes, 2500, 1, plan.fine_grid().nf, 0, 33 + dim);
    plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
    std::vector<std::complex<double>> f(static_cast<std::size_t>(p.ntot));
    auto c = p.c;
    dev.counters.reset();
    plan.execute(c.data(), f.data());
    ASSERT_EQ(plan.last_breakdown().tiled, 1) << "dim=" << dim;
    EXPECT_EQ(dev.counters.global_atomics.load(), 0u) << "dim=" << dim;
    EXPECT_GT(dev.counters.tile_merge_ops.load(), 0u) << "dim=" << dim;
  }
}

// ---- atomic elision ----------------------------------------------------------

TEST(TiledSpread, ZeroGlobalAtomicsOnTiledExecute) {
  // An all-interior point set (the counter claim of the issue) and an
  // unconstrained one: the tiled execute must perform ZERO global atomics
  // either way — spread is tile-owned, FFT and deconvolve never use atomics —
  // while the halo-merge counter shows the plain adds that replaced them.
  for (int dim = 2; dim <= 3; ++dim) {
    for (auto method : {core::Method::GMSort, core::Method::SM}) {
      for (int band : {0, 8}) {
        const auto opts = base_opts(dim, method);
        // SM can't fit the padded bin everywhere (3D float at sigma = 1.25
        // exceeds shared memory); skip before the trial plan would throw.
        if (!method_available<float>(modes_for(dim), 1e-5, opts)) continue;
        vgpu::Device probe(1);
        core::Plan<float> trial(probe, 1, modes_for(dim), +1, 1e-5, opts);
        Problem<float> p(modes_for(dim), 2500, 1, trial.fine_grid().nf, band,
                         21 + dim + band);
        int tiled = 0;
        std::uint64_t atomics = ~0ull;
        vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
        core::Plan<float> plan(dev, 1, p.N, +1, 1e-5, opts);
        plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
        std::vector<std::complex<float>> f(static_cast<std::size_t>(p.ntot));
        auto c = p.c;
        dev.counters.reset();
        plan.execute(c.data(), f.data());
        tiled = plan.last_breakdown().tiled;
        atomics = dev.counters.global_atomics.load();
        ASSERT_EQ(tiled, 1) << "dim=" << dim;
        EXPECT_EQ(atomics, 0u)
            << "dim=" << dim << " method=" << core::method_name(method)
            << " band=" << band;
        EXPECT_GT(dev.counters.tile_merge_ops.load(), 0u);
      }
    }
  }
}

TEST(TiledSpread, AtomicBaselineStillCountsAtomics) {
  // Sanity check of the counter: the same problem on a Method::GM plan (the
  // atomic baseline by definition) writes back with atomics and the counter
  // sees it.
  const auto opts = base_opts(2, core::Method::GM);
  vgpu::Device probe(1);
  core::Plan<float> trial(probe, 1, modes_for(2), +1, 1e-5, opts);
  Problem<float> p(modes_for(2), 1500, 1, trial.fine_grid().nf, 0, 31);
  int tiled = -1;
  std::uint64_t atomics = 0;
  core::Breakdown bd;
  run_type1<float>(1, p, opts, 1e-5, &tiled, &atomics, &bd);
  EXPECT_EQ(tiled, 0);
  EXPECT_EQ(bd.atomic_reason, core::AtomicReason::MethodGM);
  EXPECT_GT(atomics, 0u);
}

// ---- parity vs the atomic writeback ------------------------------------------

template <typename T>
static void check_parity(int dim, core::Method method, int B) {
  const double tol = std::is_same_v<T, double> ? 1e-9 : 1e-5;
  // The double parity floor widens off the sigma = 2 grid: the w = 15 kernel
  // sums ~2x more taps per point, so summation-order noise between the tiled
  // and atomic writebacks lands near 1e-10 (measured 7.8e-11 at 3D GM-sort).
  const double lim = std::is_same_v<T, double>
                         ? (cf::test::env_upsampfac() == 2.0 ? 1e-11 : 1e-9)
                         : 1e-4;
  auto topts = base_opts(dim, method, B);
  auto aopts = base_opts(dim, core::Method::GM, B);  // atomic writeback
  if (!method_available<T>(modes_for(dim), tol, topts)) return;
  vgpu::Device probe(1);
  core::Plan<T> trial(probe, 1, modes_for(dim), +1, tol, topts);
  Problem<T> p(modes_for(dim), 2200, B, trial.fine_grid().nf, 0, 41 + dim + B);
  int tiled = 0;
  const auto got = run_type1<T>(1, p, topts, tol, &tiled);
  ASSERT_EQ(tiled, 1) << "dim=" << dim << " method=" << core::method_name(method);
  const auto want = run_type1<T>(1, p, aopts, tol, &tiled);
  ASSERT_EQ(tiled, 0);
  EXPECT_LT(cf::cpu::rel_l2_error<T>(got, want), lim)
      << "dim=" << dim << " method=" << core::method_name(method) << " B=" << B;
}

TEST(TiledSpread, ParityVsAtomicWritebackOneWorker) {
  for (int dim = 1; dim <= 3; ++dim)
    for (auto m : {core::Method::GMSort, core::Method::SM})
      for (int B : {1, 3}) {
        check_parity<float>(dim, m, B);
        check_parity<double>(dim, m, B);
      }
}

// ---- accuracy against the exact NUDFT ----------------------------------------

TEST(TiledSpread, TiledExecuteMatchesDirect) {
  for (int dim = 2; dim <= 3; ++dim) {
    const auto opts = base_opts(dim, core::Method::GMSort);
    vgpu::Device probe(1);
    core::Plan<double> trial(probe, 1, modes_for(dim), +1, 1e-9, opts);
    Problem<double> p(modes_for(dim), 1200, 1, trial.fine_grid().nf, 0, 51 + dim);
    int tiled = 0;
    const auto f = run_type1<double>(2, p, opts, 1e-9, &tiled);
    ASSERT_EQ(tiled, 1);
    cf::ThreadPool pool(2);
    std::vector<std::complex<double>> want(static_cast<std::size_t>(p.ntot));
    cf::cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
    EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-8) << "dim=" << dim;
  }
}

// ---- re-set_points to M = 0 leaves no stale decomposition --------------------

TEST(TiledSpread, ReSetPointsToZeroIsClean) {
  // A used plan re-pointed at an empty set must not retain the previous
  // subproblem/tile decomposition; execute must produce zeros, on both
  // writebacks: 2D runs tiled, and the 1D plan keeps the default 1024-point
  // bin, which fails the tile gate and takes the atomic fallback.
  for (int dim : {1, 2}) {
    const int tiled = dim == 2;
    for (auto method : {core::Method::GMSort, core::Method::SM}) {
      auto opts = base_opts(dim, method);
      if (dim == 1) opts.binsize = {0, 0, 0};
      vgpu::Device dev(2);
      core::Plan<float> plan(dev, 1, modes_for(dim), +1, 1e-5, opts);
      Problem<float> p(modes_for(dim), 2000, 1, plan.fine_grid().nf, 0, 71);
      plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
      std::vector<std::complex<float>> f(static_cast<std::size_t>(p.ntot));
      auto c = p.c;
      plan.execute(c.data(), f.data());
      ASSERT_EQ(plan.last_breakdown().tiled, tiled) << core::method_name(method);
      plan.set_points(0, p.x.data(), p.yp(), p.zp());
      plan.execute(c.data(), f.data());
      for (const auto& v : f)
        ASSERT_EQ(v, std::complex<float>(0, 0))
            << core::method_name(method) << " tiled=" << tiled;
    }
  }
}

// ---- fallback on gate failure ------------------------------------------------

TEST(TiledSpread, GateFailureFallsBackToAtomicsAndStaysCorrect) {
  // Tiny grid with the paper's 32x32 bin set explicitly (the width-aware
  // default tiles would fit): the padded bin extent exceeds nf, so the tile
  // engine must decline (Breakdown::tiled == 0, atomic_reason TileGate) and
  // the atomic path must still be exact.
  core::Options opts;
  opts.method = core::Method::GMSort;
  opts.binsize = {32, 32, 1};
  std::vector<std::int64_t> N{10, 12};
  vgpu::Device dev(2);
  core::Plan<double> plan(dev, 1, N, +1, 1e-9, opts);
  Rng rng(61);
  const std::size_t M = 500;
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  plan.set_points(M, x.data(), y.data(), nullptr);
  std::vector<std::complex<double>> f(10 * 12);
  plan.execute(c.data(), f.data());
  EXPECT_EQ(plan.last_breakdown().tiled, 0);
  EXPECT_EQ(plan.last_breakdown().atomic_reason, core::AtomicReason::TileGate);
  cf::ThreadPool pool(2);
  std::vector<std::complex<double>> want(10 * 12);
  cf::cpu::direct_type1<double>(pool, x, y, {}, c, +1, N, want);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-8);
}

// ---- CF_TILE_CHUNK parsing ---------------------------------------------------

TEST(TiledSpread, MalformedTileChunkEnvIsReportedAndMeansAuto) {
  // CF_TILE_CHUNK is parsed strictly by the one helper both the device plans
  // and the CPU comparator use: "abc" or "2x" gets a one-line stderr
  // diagnostic and leaves the cap at auto — the same split as unset.
  const char* prev = std::getenv("CF_TILE_CHUNK");
  const std::string saved = prev ? prev : "";
  const auto modes = modes_for(2);
  auto chunks = [&] {
    vgpu::Device dev(1);
    core::Plan<float> plan(dev, 1, modes, +1, 1e-5, base_opts(2, core::Method::GMSort));
    Problem<float> p(modes, 3000, 1, plan.fine_grid().nf, 0, 17);
    plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
    return plan.last_breakdown().tile_chunks;
  };
  ::unsetenv("CF_TILE_CHUNK");
  const auto unset_chunks = chunks();
  EXPECT_GT(unset_chunks, 0u);  // tiled, so the cap is consulted
  ::setenv("CF_TILE_CHUNK", "1", 1);
  EXPECT_GT(chunks(), unset_chunks);  // a valid value does reach the plan
  for (const char* bad : {"abc", "2x"}) {
    ::setenv("CF_TILE_CHUNK", bad, 1);
    testing::internal::CaptureStderr();
    const auto got = chunks();
    EXPECT_EQ(cf::spread::tile_chunk_cap(0), 0) << bad;
    EXPECT_EQ(cf::spread::tile_chunk_cap(7), 7) << bad;  // explicit caps ignore env
    cf::ThreadPool pool(1);
    cf::cpu::CpuPlan<float> cpu(pool, 1, modes, +1, 1e-5);
    Problem<float> p(modes, 3000, 1, cpu.fine_grid().nf, 0, 17);
    cpu.set_points(p.M, p.x.data(), p.yp(), p.zp());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(got, unset_chunks) << bad;
    // Device plan, auto-cap helper call, and CPU plan each report it once.
    std::size_t reports = 0;
    for (auto at = err.find("CF_TILE_CHUNK"); at != std::string::npos;
         at = err.find("CF_TILE_CHUNK", at + 1))
      ++reports;
    EXPECT_EQ(reports, 3u) << bad << ": " << err;
  }
  if (prev)
    ::setenv("CF_TILE_CHUNK", saved.c_str(), 1);
  else
    ::unsetenv("CF_TILE_CHUNK");
}

// ---- adversarial clustered distributions (chunked scheduler) -----------------

namespace {

/// Clustered coordinate layouts that defeat a per-tile schedule: kind 0 puts
/// every point inside one bin-sized box, kind 1 drops one tight clump per
/// periodic corner (halo-heavy), kind 2 draws power-law bin populations
/// (coordinate ~ nf * u^4). Strengths come from the base Problem.
template <typename T>
Problem<T> cluster_problem(int dim, int kind, std::size_t M,
                           const std::array<std::int64_t, 3>& nf,
                           std::uint64_t seed) {
  Problem<T> p(modes_for(dim), M, 1, nf, 0, seed);
  Rng rng(seed * 2 + 1);
  for (std::size_t j = 0; j < M; ++j) {
    double g[3] = {0, 0, 0};
    for (int d = 0; d < dim; ++d) {
      if (kind == 0) {
        g[d] = 0.3 * double(nf[d]) + rng.uniform(0, 1);
      } else if (kind == 1) {
        const bool hi = (j % (std::size_t(1) << dim)) >> d & 1;
        g[d] = (hi ? double(nf[d]) - 1.5 : 1.5) + rng.uniform(-1, 1);
      } else {
        const double u = rng.uniform(0, 1);
        g[d] = double(nf[d] - 1) * u * u * u * u;
      }
    }
    p.x[j] = static_cast<T>(2.0 * std::numbers::pi * g[0] / double(nf[0]));
    if (dim >= 2) p.y[j] = static_cast<T>(2.0 * std::numbers::pi * g[1] / double(nf[1]));
    if (dim >= 3) p.z[j] = static_cast<T>(2.0 * std::numbers::pi * g[2] / double(nf[2]));
  }
  return p;
}

/// For every chunk cap in {1 (max splitting, budget-clamped), 0 (auto), -1
/// (never split — PR-5's per-tile schedule)}: still tiled, still zero global
/// atomics, output bitwise-identical at every worker count; at cap = 1 the
/// split must actually engage (more work items than tiles). Different caps
/// re-associate the per-tile sums, so across caps only tolerance-level
/// agreement is required.
template <typename T>
void check_cluster(int dim, int kind) {
  const double tol = std::is_same_v<T, double> ? 1e-9 : 1e-5;
  const auto opts0 = base_opts(dim, core::Method::GMSort);
  if (!method_available<T>(modes_for(dim), tol, opts0)) return;
  vgpu::Device probe(1);
  core::Plan<T> trial(probe, 1, modes_for(dim), +1, tol, opts0);
  const auto p =
      cluster_problem<T>(dim, kind, 2000, trial.fine_grid().nf, 91 + dim * 7 + kind);

  std::vector<std::vector<std::complex<T>>> per_cap;
  for (int cap : {1, 0, -1}) {
    auto opts = opts0;
    opts.tile_chunk_cap = cap;
    int tiled = 0;
    std::uint64_t atomics = ~std::uint64_t(0);
    core::Breakdown bd{};
    const auto ref = run_type1<T>(1, p, opts, tol, &tiled, &atomics, &bd);
    ASSERT_EQ(tiled, 1) << "dim=" << dim << " kind=" << kind << " cap=" << cap;
    EXPECT_EQ(atomics, 0u) << "dim=" << dim << " kind=" << kind << " cap=" << cap;
    ASSERT_GT(bd.tiles_active, 0u);
    EXPECT_GT(bd.max_tile_points, 0u);
    // cap = 1 requests maximal splitting; the chunk-plane budget may clamp the
    // applied cap upward, but clustered bins must still split into more work
    // items than tiles. cap = -1 must reproduce the unsplit schedule exactly.
    if (cap == 1)
      EXPECT_GT(bd.tile_chunks, bd.tiles_active)
          << "split did not engage at dim=" << dim << " kind=" << kind;
    if (cap == -1) EXPECT_EQ(bd.tile_chunks, bd.tiles_active);
    for (std::size_t wc : worker_counts()) {
      const auto got = run_type1<T>(wc, p, opts, tol);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << "dim=" << dim << " kind=" << kind
                                  << " cap=" << cap << " workers=" << wc << " i=" << i;
    }
    per_cap.push_back(ref);
  }
  EXPECT_LT(cf::cpu::rel_l2_error<T>(per_cap[0], per_cap[2]), 100 * tol)
      << "caps disagree beyond rounding at dim=" << dim << " kind=" << kind;
  EXPECT_LT(cf::cpu::rel_l2_error<T>(per_cap[1], per_cap[2]), 100 * tol)
      << "caps disagree beyond rounding at dim=" << dim << " kind=" << kind;
}

}  // namespace

TEST(TiledSpread, ClusteredChunkingBitwiseF32) {
  for (int dim = 1; dim <= 3; ++dim)
    for (int kind = 0; kind <= 2; ++kind) check_cluster<float>(dim, kind);
}

TEST(TiledSpread, ClusteredChunkingBitwiseF64) {
  for (int dim = 1; dim <= 3; ++dim)
    for (int kind = 0; kind <= 2; ++kind) check_cluster<double>(dim, kind);
}

// ---- colored writeback: the coloring invariant -------------------------------

namespace {

/// Brute force over one axis: within each color, no fine-grid cell lies in
/// the reach (in-range core dilated by pad, wrapped mod nf) of two tiles, and
/// no reach covers a cell twice.
bool axis_reaches_disjoint(std::int64_t nf, std::int64_t m, std::int64_t pad,
                           const std::vector<std::uint32_t>& color,
                           std::uint32_t ncolors) {
  const std::int64_t nbins = (nf + m - 1) / m;
  for (std::uint32_t c = 0; c < ncolors; ++c) {
    std::vector<char> hit(static_cast<std::size_t>(nf), 0);
    for (std::int64_t q = 0; q < nbins; ++q) {
      if (color[static_cast<std::size_t>(q)] != c) continue;
      const std::int64_t c0 = q * m, ce = std::min((q + 1) * m, nf) - c0;
      for (std::int64_t g = c0 - pad; g < c0 + ce + pad; ++g) {
        char& h = hit[static_cast<std::size_t>(cf::spread::wrap_index(g, nf))];
        if (h) return false;
        h = 1;
      }
    }
  }
  return true;
}

}  // namespace

TEST(TileColoring, SameColorReachesNeverOverlapOnAnyAxis) {
  // Every (nf, m, pad) that passes the geometry gate (m + 2*pad <= nf):
  // odd bin counts, partial last tiles (tail colors) and nbins in {2, 3}.
  std::size_t configs = 0;
  for (std::int64_t pad = 1; pad <= 12; ++pad)
    for (std::int64_t nf = 2 * pad + 1; nf <= 96; ++nf)
      for (std::int64_t m = 1; m + 2 * pad <= nf; ++m) {
        const std::int64_t nbins = (nf + m - 1) / m;
        std::vector<std::uint32_t> color(static_cast<std::size_t>(nbins));
        const std::uint32_t k =
            cf::spread::detail::tile_axis_colors(nbins, m, nf, pad, color.data());
        ASSERT_TRUE(axis_reaches_disjoint(nf, m, pad, color, k))
            << "nf=" << nf << " m=" << m << " pad=" << pad;
        ASSERT_LE(k, static_cast<std::uint32_t>(nbins));
        for (auto c : color) ASSERT_LT(c, k);
        // Two or three tiles around the circle all touch each other.
        if (nbins <= 3) {
          EXPECT_EQ(k, static_cast<std::uint32_t>(nbins)) << nf << " " << m;
        }
        // Full tiles with nbins a multiple of k0 = 1 + ceil(2*pad / m): the
        // periodic q mod k0 coloring, no tail color.
        const std::int64_t k0 = 1 + (2 * pad + m - 1) / m;
        if (nf % m == 0 && nbins % k0 == 0) {
          EXPECT_EQ(k, static_cast<std::uint32_t>(k0))
              << "nf=" << nf << " m=" << m << " pad=" << pad;
        }
        ++configs;
      }
  EXPECT_GT(configs, 10000u);
}

TEST(TileColoring, TileSetGroupsDisjointTilesPerColor) {
  // A built TileSet on a 3D grid with odd bin counts and partial last tiles
  // (5 x 3 x 4 bins): every active tile appears once, grouped by color, and
  // the 3D reaches of one color's tiles never share a cell.
  cf::spread::GridSpec grid;
  grid.dim = 3;
  grid.nf = {30, 27, 20};
  const auto bins = cf::spread::BinSpec::make(grid, {7, 9, 5});
  const int w = 5, pad = 3;
  Rng rng(123);
  const std::size_t M = 3000;
  std::vector<double> x(M), y(M), z(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.uniform(0, 30);
    y[j] = rng.uniform(0, 27);
    z[j] = rng.uniform(0, 20);
  }
  vgpu::Device dev(2);
  cf::spread::DeviceSort sort;
  cf::spread::bin_sort<double>(dev, grid, bins, x.data(), y.data(), z.data(), M, sort);
  cf::spread::TileSet<double> ts;
  // Chunk cap 20 splits the ~50-point bins, so colors hold split tiles too.
  ASSERT_TRUE(cf::spread::build_tile_set(dev, grid, bins, w, sort, 1, ts, 20));
  // x: 5 bins of 7 (last 2) -> runs of 2 and 3 tiles, 3 colors; y: 3 bins
  // -> 3; z: 4 bins of 5 < 2*pad need runs of 3 -> one run, 4 colors.
  EXPECT_EQ(ts.n_colors, 3u * 3u * 4u);
  EXPECT_GT(ts.n_split, 0u);
  std::vector<int> seen(static_cast<std::size_t>(bins.total_bins()), 0);
  for (std::uint32_t c = 0; c < ts.n_colors; ++c) {
    std::vector<char> hit(static_cast<std::size_t>(grid.total()), 0);
    std::uint32_t last_slot = cf::spread::TileSet<double>::kNoTile;
    for (std::uint32_t ck = ts.color_chunk0[c]; ck < ts.color_chunk0[c + 1]; ++ck) {
      const std::uint32_t slot = ts.chunk_tile[ck];
      if (slot == last_slot) continue;  // further chunks of the same tile
      last_slot = slot;
      const std::uint32_t b = ts.tile_bin[slot];
      ++seen[b];
      std::int64_t bc[3];
      cf::spread::detail::bin_coords(bins, b, bc);
      std::int64_t c0[3], ce[3];
      for (int d = 0; d < 3; ++d)
        cf::spread::detail::tile_core(bc[d], bins.m[d], grid.nf[d], c0[d], ce[d]);
      for (std::int64_t gz = c0[2] - pad; gz < c0[2] + ce[2] + pad; ++gz)
        for (std::int64_t gy = c0[1] - pad; gy < c0[1] + ce[1] + pad; ++gy)
          for (std::int64_t gx = c0[0] - pad; gx < c0[0] + ce[0] + pad; ++gx) {
            const std::int64_t cell =
                cf::spread::wrap_index(gx, grid.nf[0]) +
                grid.nf[0] * (cf::spread::wrap_index(gy, grid.nf[1]) +
                              grid.nf[1] * cf::spread::wrap_index(gz, grid.nf[2]));
            ASSERT_FALSE(hit[static_cast<std::size_t>(cell)]) << "color " << c;
            hit[static_cast<std::size_t>(cell)] = 1;
          }
    }
  }
  for (std::size_t b = 0; b < seen.size(); ++b)
    EXPECT_EQ(seen[b], sort.bin_counts[b] > 0 ? 1 : 0) << "bin " << b;
}

// ---- M-TIP merge shape on width-aware tiles ----------------------------------

TEST(TiledSpread, MtipMergeShapeTiledBitwiseAndAccurate) {
  // The merge of paper Sec. V at a test-sized grid: 3D fp64 type 1 at tol
  // 1e-12 (w = 13), origin-clustered Ewald-slice points. 3D double does not
  // fit SM (Rmk. 2), so Auto resolves to GM-sort with width-aware tiles:
  // nf 90 splits into 4 tiles of 23 per axis, two colors each.
  mtip::DetectorSpec det;
  det.ndet = 12;
  std::vector<double> x, y, z;
  for (const auto& R : mtip::random_rotations(8, 11)) mtip::ewald_slice_points(R, det, x, y, z);
  Problem<double> p({41, 41, 41}, x.size(), 1, {90, 90, 90}, 0, 19);
  p.x = x;
  p.y = y;
  p.z = z;
  const double tol = 1e-12;
  core::Options opts;
  opts.upsampfac = 2.0;

  std::vector<std::vector<std::complex<double>>> per_cap;
  for (int cap : {0, 1, 64}) {
    opts.tile_chunk_cap = cap;
    int tiled = 0;
    std::uint64_t atomics = ~std::uint64_t(0);
    core::Breakdown bd;
    const auto ref = run_type1<double>(1, p, opts, tol, &tiled, &atomics, &bd);
    ASSERT_EQ(tiled, 1) << "cap=" << cap;
    EXPECT_EQ(atomics, 0u) << "cap=" << cap;
    EXPECT_EQ(bd.atomic_reason, core::AtomicReason::None);
    EXPECT_EQ(bd.tile_colors, 8u);
    EXPECT_LE(bd.tiles_active, 64u);
    if (cap == 1) {
      EXPECT_GT(bd.tile_chunks, bd.tiles_active);
    }
    for (std::size_t wc : worker_counts()) {
      const auto got = run_type1<double>(wc, p, opts, tol);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << "cap=" << cap << " workers=" << wc << " i=" << i;
    }
    per_cap.push_back(ref);
  }

  auto gm = opts;
  gm.tile_chunk_cap = 0;
  gm.method = core::Method::GM;
  int tiled = -1;
  const auto want_gm = run_type1<double>(1, p, gm, tol, &tiled);
  ASSERT_EQ(tiled, 0);
  cf::ThreadPool pool(2);
  std::vector<std::complex<double>> want(static_cast<std::size_t>(p.ntot));
  cf::cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
  for (const auto& f : per_cap) {
    EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want_gm), 1e-13);
    EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-11);
  }
}

// ---- tile shape selection ----------------------------------------------------

TEST(TiledSpread, UserBinsizeHonoredAndWidthAwareTilesOtherwise) {
  // 3D fp32 at tol 1e-5 (w = 6, pad 3) on nf {32, 32, 24}; 4000 uniform
  // points occupy every tile of each shape below.
  const std::vector<std::int64_t> modes{16, 16, 12};
  auto tiles_of = [&](core::Method method, std::array<int, 3> binsize) {
    core::Options opts;
    opts.method = method;
    opts.upsampfac = 2.0;
    opts.binsize = binsize;
    vgpu::Device dev(2);
    core::Plan<float> plan(dev, 1, modes, +1, 1e-5, opts);
    EXPECT_EQ(plan.kernel_width(), 6);
    Problem<float> p(modes, 4000, 1, plan.fine_grid().nf, 0, 29);
    plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
    std::vector<std::complex<float>> f(static_cast<std::size_t>(p.ntot));
    auto c = p.c;
    plan.execute(c.data(), f.data());
    EXPECT_EQ(plan.last_breakdown().tiled, 1);
    return plan.last_breakdown().tiles_active;
  };
  // A user-set binsize is used as given: 4 x 4 x 4 bins of 8 x 8 x 6.
  EXPECT_EQ(tiles_of(core::Method::GMSort, {8, 8, 6}), 64u);
  EXPECT_EQ(tiles_of(core::Method::SM, {8, 8, 6}), 64u);
  // With binsize unset both methods size tiles by width: about 4*pad = 12 but
  // at least 16 cells, with an even tile count -> 2 x 2 x 2 tiles of
  // 16 x 16 x 12 (the paper's 16 x 16 x 2 bin would give 2 x 2 x 12).
  EXPECT_EQ(tiles_of(core::Method::GMSort, {0, 0, 0}), 8u);
  EXPECT_EQ(tiles_of(core::Method::SM, {0, 0, 0}), 8u);
}
