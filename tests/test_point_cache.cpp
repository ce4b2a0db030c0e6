// PointCache lifecycle (plan -> set_points -> execute):
//  * repeated execute() after one set_points() is bitwise-stable at one
//    worker and performs ZERO tap-table construction (Breakdown counter);
//    a batched (ntransf > 1) tiled GM-sort type-1 plan keeps its tap table
//    from set_points and matches the inline-tap single-vector plan bitwise;
//  * re-set_points with different M/points invalidates and rebuilds the
//    cache exactly once, and results stay correct;
//  * the interior/boundary classification is exercised with an all-boundary
//    point set (everything within w/2 of the grid edge) and an all-interior
//    one, across dims x methods x precisions;
//  * at the spread/interp layer, the interior no-wrap path is bitwise-
//    identical to the wrap-everything path (n_nowrap = 0) at one worker, and
//    SM spreading from a prebuilt tap table is bitwise-identical to the
//    table-less overload's per-call transient build.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "core/plan.hpp"
#include "cpu/direct.hpp"
#include "spreadinterp/spread.hpp"
#include "test_env.hpp"
#include "vgpu/device.hpp"

namespace core = cf::core;
namespace spread = cf::spread;
namespace vgpu = cf::vgpu;
using cf::Rng;

namespace {

std::vector<std::int64_t> modes_for(int dim) {
  if (dim == 1) return {48};
  if (dim == 2) return {18, 22};
  return {10, 12, 8};
}

/// Point placement relative to the periodic fine-grid boundary.
enum class Placement { Anywhere, AllBoundary, AllInterior };

template <typename T>
struct Problem {
  std::vector<std::int64_t> N;
  std::vector<T> x, y, z;
  std::vector<std::complex<T>> c;
  std::size_t M;
  std::int64_t ntot;

  /// `nf` is the plan's fine-grid size per axis (needed to aim coordinates at
  /// the boundary band); w the kernel width.
  Problem(std::vector<std::int64_t> modes, std::size_t M_,
          const std::array<std::int64_t, 3>& nf, int w, Placement place,
          std::uint64_t seed)
      : N(std::move(modes)), M(M_) {
    Rng rng(seed);
    const int dim = static_cast<int>(N.size());
    ntot = 1;
    for (auto n : N) ntot *= n;
    x.resize(M);
    if (dim >= 2) y.resize(M);
    if (dim >= 3) z.resize(M);
    c.resize(M);
    auto coord = [&](int d) -> T {
      // Generate a fine-grid coordinate g in the wanted band, then map it to
      // the user domain: fold_rescale(2*pi*g/nf) == g (up to rounding).
      double g;
      switch (place) {
        case Placement::Anywhere: g = rng.uniform(0, double(nf[d])); break;
        case Placement::AllBoundary:
          // Within w/2 of either periodic edge — strictly inside the band
          // where some tap needs the wrap (g <= w/2 - 1 or g > nf - w/2).
          g = rng.uniform() < 0.5 ? rng.uniform(0.0, 0.4)
                                  : rng.uniform(double(nf[d]) - 0.4, double(nf[d]));
          break;
        case Placement::AllInterior:
          g = rng.uniform(double(w), double(nf[d] - w));
          break;
      }
      return static_cast<T>(2.0 * std::numbers::pi * g / double(nf[d]));
    };
    for (std::size_t j = 0; j < M; ++j) {
      x[j] = coord(0);
      if (dim >= 2) y[j] = coord(1);
      if (dim >= 3) z[j] = coord(2);
      c[j] = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
    }
  }

  const T* yp() const { return y.empty() ? nullptr : y.data(); }
  const T* zp() const { return z.empty() ? nullptr : z.data(); }
};

template <typename T>
double accuracy_vs_direct(const Problem<T>& p, const std::vector<std::complex<T>>& f) {
  cf::ThreadPool pool(2);
  std::vector<double> xd(p.x.begin(), p.x.end()), yd(p.y.begin(), p.y.end()),
      zd(p.z.begin(), p.z.end());
  std::vector<std::complex<double>> cd(p.M);
  for (std::size_t j = 0; j < p.M; ++j) cd[j] = {p.c[j].real(), p.c[j].imag()};
  std::vector<std::complex<double>> want(static_cast<std::size_t>(p.ntot));
  cf::cpu::direct_type1<double>(pool, xd, yd, zd, cd, +1, p.N, want);
  std::vector<std::complex<double>> got(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) got[i] = {f[i].real(), f[i].imag()};
  return cf::cpu::rel_l2_error<double>(got, want);
}

template <typename T>
bool sm_available(int dim, double tol) {
  vgpu::Device probe(1);
  core::Options sm;
  sm.method = core::Method::SM;
  try {
    core::Plan<T> trial(probe, 1, modes_for(dim), +1, tol, sm);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

}  // namespace

// ---- repeated execute: bitwise stability + zero tap construction ------------

/// `out` receives the first execute's output (ntransf stacked planes; every
/// plane carries the same strengths, so each must equal the single-vector
/// output) and `tiled` whether the spread ran tile-owned.
template <typename T>
static void check_repeat(int dim, int type, core::Method method, int ntransf = 1,
                         std::vector<std::int64_t> modes = {},
                         std::vector<std::complex<T>>* out = nullptr, int* tiled = nullptr) {
  const double tol = 1e-6;
  if (modes.empty()) modes = modes_for(dim);
  vgpu::Device dev(1);  // one worker => deterministic accumulation order
  core::Options opts;
  opts.method = method;
  opts.ntransf = ntransf;
  core::Plan<T> plan(dev, type, modes, +1, tol, opts);

  Problem<T> p(modes, 600, plan.fine_grid().nf, plan.kernel_width(),
               Placement::Anywhere, 7 + dim);
  plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
  const auto builds_after_setpts = plan.last_breakdown().tap_builds;

  std::vector<std::complex<T>> c(static_cast<std::size_t>(ntransf) * p.M);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = p.c[i % p.M];
  std::vector<std::complex<T>> f(static_cast<std::size_t>(ntransf * p.ntot));
  if (type == 1)
    for (auto& v : f) v = {T(0), T(0)};
  else {
    Rng rng(31);
    for (auto& v : f)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }

  auto run_once = [&] {
    if (type == 1) {
      std::vector<std::complex<T>> out(f.size());
      plan.execute(c.data(), out.data());
      return out;
    }
    std::vector<std::complex<T>> out(c.size());
    plan.execute(out.data(), f.data());
    return out;
  };

  const auto first = run_once();
  if (out) *out = first;
  if (tiled) *tiled = plan.last_breakdown().tiled;
  for (int rep = 0; rep < 3; ++rep) {
    const auto again = run_once();
    ASSERT_EQ(first.size(), again.size());
    for (std::size_t i = 0; i < first.size(); ++i)
      ASSERT_EQ(first[i], again[i])
          << "dim=" << dim << " type=" << type << " method="
          << core::method_name(method) << " rep=" << rep << " i=" << i;
  }
  // Zero tap-table construction during the four executes.
  EXPECT_EQ(plan.last_breakdown().tap_builds, builds_after_setpts)
      << "dim=" << dim << " method=" << core::method_name(method);
  EXPECT_GE(plan.last_breakdown().cache_hits, 4u);
  if (method == core::Method::SM)
    EXPECT_EQ(builds_after_setpts, 1u);  // exactly one build, in set_points
  if (method == core::Method::GMSort && type == 1 && plan.last_breakdown().tiled) {
    EXPECT_EQ(builds_after_setpts, ntransf > 1 ? 1u : 0u)
        << "dim=" << dim << " ntransf=" << ntransf;  // batched plans keep taps
  }
}

TEST(PointCache, RepeatedExecuteBitwiseStableZeroTapBuildsF64) {
  for (int dim = 1; dim <= 3; ++dim) {
    check_repeat<double>(dim, 1, core::Method::GM);
    check_repeat<double>(dim, 1, core::Method::GMSort);
    check_repeat<double>(dim, 2, core::Method::GMSort);
    if (sm_available<double>(dim, 1e-6)) check_repeat<double>(dim, 1, core::Method::SM);
  }
  // Tiled GM-sort type 1 (modes sized so the tile gate passes) at ntransf 1
  // and 3: the batched plan streams a tap table kept from set_points, the
  // single-vector plan evaluates taps inline; every plane must agree bitwise.
  const std::vector<std::int64_t> tiled3d{16, 16, 12};
  std::vector<std::complex<double>> single, batched;
  int tiled1 = 0, tiled3 = 0;
  check_repeat<double>(3, 1, core::Method::GMSort, 1, tiled3d, &single, &tiled1);
  check_repeat<double>(3, 1, core::Method::GMSort, 3, tiled3d, &batched, &tiled3);
  ASSERT_EQ(tiled1, 1);
  ASSERT_EQ(tiled3, 1);
  ASSERT_EQ(batched.size(), 3 * single.size());
  for (std::size_t i = 0; i < batched.size(); ++i)
    ASSERT_EQ(batched[i], single[i % single.size()])
        << "plane=" << i / single.size() << " i=" << i % single.size();
}

TEST(PointCache, RepeatedExecuteBitwiseStableZeroTapBuildsF32) {
  for (int dim = 1; dim <= 3; ++dim) {
    check_repeat<float>(dim, 1, core::Method::GM);
    check_repeat<float>(dim, 1, core::Method::GMSort);
    check_repeat<float>(dim, 2, core::Method::GMSort);
    if (sm_available<float>(dim, 1e-6)) check_repeat<float>(dim, 1, core::Method::SM);
  }
}

// ---- re-set_points invalidates and rebuilds ---------------------------------

TEST(PointCache, ReSetPointsInvalidatesAndRebuildsOnce) {
  for (int dim = 2; dim <= 3; ++dim) {
    if (!sm_available<double>(dim, 1e-9)) continue;
    vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(4)));
    core::Options opts;
    opts.method = core::Method::SM;
    core::Plan<double> plan(dev, 1, modes_for(dim), +1, 1e-9, opts);

    Problem<double> p1(modes_for(dim), 500, plan.fine_grid().nf, plan.kernel_width(),
                       Placement::Anywhere, 11);
    plan.set_points(p1.M, p1.x.data(), p1.yp(), p1.zp());
    EXPECT_EQ(plan.last_breakdown().tap_builds, 1u);
    std::vector<std::complex<double>> f1(static_cast<std::size_t>(p1.ntot));
    plan.execute(p1.c.data(), f1.data());
    EXPECT_LT(accuracy_vs_direct(p1, f1), 1e-8) << "dim=" << dim << " first points";

    // Different M AND different points: the old cache must not leak through.
    Problem<double> p2(modes_for(dim), 900, plan.fine_grid().nf, plan.kernel_width(),
                       Placement::Anywhere, 23);
    plan.set_points(p2.M, p2.x.data(), p2.yp(), p2.zp());
    EXPECT_EQ(plan.last_breakdown().tap_builds, 2u);  // exactly one more
    std::vector<std::complex<double>> f2(static_cast<std::size_t>(p2.ntot));
    plan.execute(p2.c.data(), f2.data());
    EXPECT_LT(accuracy_vs_direct(p2, f2), 1e-8) << "dim=" << dim << " second points";
    EXPECT_EQ(plan.last_breakdown().tap_builds, 2u);  // execute built nothing
  }
}

// ---- interior/boundary classification ---------------------------------------

template <typename T>
static void check_classification(int dim, core::Method method, Placement place,
                                 std::uint64_t seed) {
  // w = 7 / w = 6: wide enough that the boundary band is substantial, narrow
  // enough that the all-interior band [w, nf - w] is non-degenerate on the
  // smallest 3D grid.
  const double tol = std::is_same_v<T, double> ? 1e-6 : 1e-5;
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(4)));
  core::Options opts;
  opts.method = method;
  // Bins larger than the grid fail the tile gate, so GM-sort keeps the
  // atomic writeback: the tiled engine skips classification (its
  // accumulation never wraps), and this test targets the classification.
  opts.binsize = {4096, 4096, 4096};
  core::Plan<T> plan(dev, 1, modes_for(dim), +1, tol, opts);
  Problem<T> p(modes_for(dim), 400, plan.fine_grid().nf, plan.kernel_width(), place,
               seed);
  plan.set_points(p.M, p.x.data(), p.yp(), p.zp());

  const auto& bd = plan.last_breakdown();
  ASSERT_EQ(bd.interior_points + bd.boundary_points, p.M);
  if (place == Placement::AllBoundary) {
    EXPECT_EQ(bd.interior_points, 0u)
        << "dim=" << dim << " method=" << core::method_name(method);
  } else {
    EXPECT_EQ(bd.boundary_points, 0u)
        << "dim=" << dim << " method=" << core::method_name(method);
  }

  std::vector<std::complex<T>> f(static_cast<std::size_t>(p.ntot));
  plan.execute(p.c.data(), f.data());
  EXPECT_EQ(plan.last_breakdown().tiled, 0);
  EXPECT_LT(accuracy_vs_direct(p, f), (std::is_same_v<T, double> ? 1e-5 : 3e-4))
      << "dim=" << dim << " method=" << core::method_name(method)
      << (place == Placement::AllBoundary ? " all-boundary" : " all-interior");
}

TEST(PointCache, AllBoundaryClassificationAllDimsMethodsPrecisions) {
  for (int dim = 1; dim <= 3; ++dim)
    for (auto m : {core::Method::GM, core::Method::GMSort}) {
      check_classification<double>(dim, m, Placement::AllBoundary, 41 + dim);
      check_classification<float>(dim, m, Placement::AllBoundary, 43 + dim);
    }
}

TEST(PointCache, AllInteriorClassificationAllDimsMethodsPrecisions) {
  for (int dim = 1; dim <= 3; ++dim)
    for (auto m : {core::Method::GM, core::Method::GMSort}) {
      check_classification<double>(dim, m, Placement::AllInterior, 51 + dim);
      check_classification<float>(dim, m, Placement::AllInterior, 53 + dim);
    }
}

// ---- layer level: no-wrap path and cached taps are bitwise-transparent ----

namespace {

/// A Problem's points fold-rescaled onto a fine grid, as the plans hold them.
template <typename T>
struct FinePoints {
  std::vector<T> x, y, z;

  FinePoints(const Problem<T>& p, const spread::GridSpec& g) {
    auto fold = [&](const std::vector<T>& in, std::vector<T>& out, int d) {
      out.resize(in.size());
      for (std::size_t j = 0; j < in.size(); ++j)
        out[j] = spread::fold_rescale(in[j], g.nf[d]);
    };
    fold(p.x, x, 0);
    fold(p.y, y, 1);
    fold(p.z, z, 2);
  }

  spread::NuPoints<T> pts(std::size_t n_nowrap = 0) const {
    return {x.data(), y.empty() ? nullptr : y.data(), z.empty() ? nullptr : z.data(),
            x.size(), n_nowrap};
  }
};

}  // namespace

TEST(PointCache, InteriorNoWrapPathIsBitwiseTransparent) {
  // The no-wrap indices of interior points equal the wrapped ones bit for
  // bit, so running the interior-first order with its no-wrap prefix
  // (n_nowrap = n_interior) must reproduce the same order on the wrap path
  // (n_nowrap = 0) exactly: for the interp gather (each point an independent
  // sum, so the plain sort order must match too) and, at one worker where
  // the scatter order is the iteration order, for the atomic GM-sort spread.
  const int B = 2;
  for (int dim = 1; dim <= 3; ++dim) {
    vgpu::Device dev(1);
    const core::Plan<double> shape(dev, 2, modes_for(dim), +1, 1e-8);
    const auto& grid = shape.fine_grid();
    const auto kp = spread::KernelParams<double>::from_width(shape.kernel_width());
    const auto bins = spread::BinSpec::make(grid, spread::BinSpec::default_size(dim));
    Problem<double> p(modes_for(dim), 800, grid.nf, kp.w, Placement::Anywhere, 61 + dim);
    const FinePoints<double> fp(p, grid);
    spread::DeviceSort sort;
    spread::bin_sort(dev, grid, bins, fp.pts().xg, fp.pts().yg, fp.pts().zg, p.M, sort);
    spread::InteriorPartition part;
    spread::classify_interior(dev, grid, kp, fp.pts(), sort.order.data(), part);
    ASSERT_GT(part.n_interior, 0u) << "dim=" << dim;  // fast path exercised
    ASSERT_GT(part.n_boundary, 0u) << "dim=" << dim;  // ...and the wrap path

    const auto G = static_cast<std::size_t>(grid.total());
    Rng rng(71 + dim);
    std::vector<std::complex<double>> c(B * p.M), fw(B * G);
    for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    for (auto& v : fw) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};

    std::vector<std::complex<double>> sa(B * G), sb(B * G);
    spread::spread_gm_batch<double>(dev, grid, kp, fp.pts(part.n_interior), c.data(),
                                    sa.data(), part.order.data(), B, p.M, G);
    spread::spread_gm_batch<double>(dev, grid, kp, fp.pts(), c.data(), sb.data(),
                                    part.order.data(), B, p.M, G);
    for (std::size_t i = 0; i < sa.size(); ++i)
      ASSERT_EQ(sa[i], sb[i]) << "spread dim=" << dim << " i=" << i;

    std::vector<std::complex<double>> ia(B * p.M), ib(B * p.M), ic(B * p.M);
    spread::interp_batch<double>(dev, grid, kp, fp.pts(part.n_interior), fw.data(),
                                 ia.data(), part.order.data(), B, p.M, G);
    spread::interp_batch<double>(dev, grid, kp, fp.pts(), fw.data(), ib.data(),
                                 part.order.data(), B, p.M, G);
    spread::interp_batch<double>(dev, grid, kp, fp.pts(), fw.data(), ic.data(),
                                 sort.order.data(), B, p.M, G);
    for (std::size_t i = 0; i < ia.size(); ++i) {
      ASSERT_EQ(ia[i], ib[i]) << "interp dim=" << dim << " i=" << i;
      ASSERT_EQ(ia[i], ic[i]) << "interp vs sort order dim=" << dim << " i=" << i;
    }
  }
}

TEST(PointCache, SmCachedTapTableBitwiseMatchesTransientBuild) {
  // What the plan caches in set_points (one tap table, streamed by every
  // execute) must equal the table-less spread_sm overload, which builds a
  // transient table per call, bit for bit at one worker.
  for (int dim = 1; dim <= 3; ++dim) {
    vgpu::Device dev(1);
    const core::Plan<float> shape(dev, 1, modes_for(dim), +1, 1e-6);
    const auto& grid = shape.fine_grid();
    const auto kp = spread::KernelParams<float>::from_width(shape.kernel_width());
    const auto bins = spread::BinSpec::make(grid, spread::BinSpec::default_size(dim));
    if (!spread::sm_fits<float>(dev, grid, bins, kp.w)) continue;
    Problem<float> p(modes_for(dim), 700, grid.nf, kp.w, Placement::Anywhere, 81 + dim);
    const FinePoints<float> fp(p, grid);
    spread::DeviceSort sort;
    spread::bin_sort(dev, grid, bins, fp.pts().xg, fp.pts().yg, fp.pts().zg, p.M, sort);
    const auto subs = spread::build_subproblems(dev, sort, 1024);
    spread::TapTable<float> taps;
    spread::build_tap_table(dev, dim, kp, fp.pts(), sort.order.data(), taps);

    const auto G = static_cast<std::size_t>(grid.total());
    std::vector<std::complex<float>> fa(G), fb(G);
    spread::spread_sm<float>(dev, grid, bins, kp, fp.pts(), p.c.data(), fa.data(), sort,
                             subs, 1024, taps);
    spread::spread_sm<float>(dev, grid, bins, kp, fp.pts(), p.c.data(), fb.data(), sort,
                             subs, 1024);
    for (std::size_t i = 0; i < fa.size(); ++i)
      ASSERT_EQ(fa[i], fb[i]) << "dim=" << dim << " i=" << i;
  }
}
