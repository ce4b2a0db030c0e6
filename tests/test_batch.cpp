// Batched (ntransf = B) execute correctness: for every dimension, precision,
// type, and method, a single batched execute must match B independent B=1
// executes on the same plan and points — including the M=0 zero-fill branch
// and the C API's ntransf plumbing. The runtime-width scalar kernels
// (KernelParams::fast = false) get the same batch-vs-singles check at the
// spread/interp layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "core/c_api.h"
#include "core/plan.hpp"
#include "cpu/cpu_plan.hpp"
#include "cpu/direct.hpp"
#include "spreadinterp/spread.hpp"
#include "test_env.hpp"
#include "vgpu/device.hpp"

namespace core = cf::core;
namespace vgpu = cf::vgpu;
using cf::Rng;

namespace {

template <typename T>
struct BatchProblem {
  std::vector<std::int64_t> N;
  std::vector<T> x, y, z;
  std::vector<std::complex<T>> c, f;  // B stacked strength / mode vectors
  std::size_t M;
  std::int64_t ntot;

  BatchProblem(std::vector<std::int64_t> modes, std::size_t M_, int B,
               std::uint64_t seed)
      : N(std::move(modes)), M(M_) {
    Rng rng(seed);
    const int dim = static_cast<int>(N.size());
    ntot = 1;
    for (auto n : N) ntot *= n;
    x.resize(M);
    if (dim >= 2) y.resize(M);
    if (dim >= 3) z.resize(M);
    for (std::size_t j = 0; j < M; ++j) {
      x[j] = static_cast<T>(rng.angle());
      if (dim >= 2) y[j] = static_cast<T>(rng.angle());
      if (dim >= 3) z[j] = static_cast<T>(rng.angle());
    }
    c.resize(B * M);
    for (auto& v : c)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
    f.resize(static_cast<std::size_t>(B * ntot));
    for (auto& v : f)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }
};

template <typename T>
double tol_for() {
  return std::is_same_v<T, double> ? 1e-12 : 2e-5;
}

std::vector<std::int64_t> modes_for(int dim) {
  if (dim == 1) return {64};
  if (dim == 2) return {20, 24};
  return {10, 12, 8};
}

/// Batched execute vs B singles, both run on plans sharing the same points.
template <typename T>
void check_batch_matches_singles(int dim, int type, core::Method method, int B) {
  BatchProblem<T> p(modes_for(dim), 700, B, 100 + dim * 10 + B);
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(4)));
  core::Options opts;
  opts.method = method;

  core::Options bopts = opts;
  bopts.ntransf = B;
  core::Plan<T> batched(dev, type, p.N, +1, 1e-6, bopts);
  core::Plan<T> single(dev, type, p.N, +1, 1e-6, opts);
  const T* yp = dim >= 2 ? p.y.data() : nullptr;
  const T* zp = dim >= 3 ? p.z.data() : nullptr;
  batched.set_points(p.M, p.x.data(), yp, zp);
  single.set_points(p.M, p.x.data(), yp, zp);

  if (type == 1) {
    std::vector<std::complex<T>> fbatch(p.f.size());
    batched.execute(p.c.data(), fbatch.data());
    for (int b = 0; b < B; ++b) {
      std::vector<std::complex<T>> fb(static_cast<std::size_t>(p.ntot));
      single.execute(p.c.data() + b * p.M, fb.data());
      std::vector<std::complex<T>> got(fbatch.begin() + b * p.ntot,
                                       fbatch.begin() + (b + 1) * p.ntot);
      EXPECT_LT(cf::cpu::rel_l2_error<T>(got, fb), tol_for<T>())
          << "dim=" << dim << " method=" << core::method_name(method) << " B=" << B
          << " batch " << b;
    }
  } else {
    std::vector<std::complex<T>> cbatch(B * p.M);
    batched.execute(cbatch.data(), p.f.data());
    for (int b = 0; b < B; ++b) {
      std::vector<std::complex<T>> cb(p.M);
      single.execute(cb.data(), p.f.data() + b * p.ntot);
      std::vector<std::complex<T>> got(cbatch.begin() + b * p.M,
                                       cbatch.begin() + (b + 1) * p.M);
      EXPECT_LT(cf::cpu::rel_l2_error<T>(got, cb), tol_for<T>())
          << "dim=" << dim << " method=" << core::method_name(method) << " B=" << B
          << " batch " << b;
    }
  }
}

template <typename T>
void sweep_batch() {
  vgpu::Device probe(1);
  for (int dim = 1; dim <= 3; ++dim) {
    for (int B : {1, 3, 8}) {
      for (int type : {1, 2}) {
        check_batch_matches_singles<T>(dim, type, core::Method::GM, B);
        check_batch_matches_singles<T>(dim, type, core::Method::GMSort, B);
      }
      // SM is type-1 only; skip where the padded bin does not fit (3D double).
      core::Options sm;
      sm.method = core::Method::SM;
      try {
        core::Plan<T> trial(probe, 1, std::vector<std::int64_t>(modes_for(dim)), +1,
                            1e-6, sm);
      } catch (const std::invalid_argument&) {
        continue;
      }
      check_batch_matches_singles<T>(dim, 1, core::Method::SM, B);
    }
  }
}

/// Scalar-fallback layer check: every spread method's batch entry point and
/// interp_batch run with KernelParams::fast = false (the runtime-width path
/// no plan selects at these widths) against B single-vector calls.
template <typename T>
void check_fallback_batch_matches_singles(int dim, int B) {
  namespace spread = cf::spread;
  BatchProblem<T> p(modes_for(dim), 700, B, 100 + dim * 10 + B);
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(4)));
  spread::GridSpec grid;
  grid.dim = dim;
  for (int d = 0; d < dim; ++d) grid.nf[d] = std::max<std::int64_t>(2 * p.N[d], 16);
  const auto bins = spread::BinSpec::make(grid, spread::BinSpec::default_size(dim));
  auto kp = spread::KernelParams<T>::from_width(7);  // tol 1e-6's width
  kp.fast = false;
  std::vector<T> xg(p.M), yg(p.y.size()), zg(p.z.size());
  for (std::size_t j = 0; j < p.M; ++j) {
    xg[j] = spread::fold_rescale(p.x[j], grid.nf[0]);
    if (dim >= 2) yg[j] = spread::fold_rescale(p.y[j], grid.nf[1]);
    if (dim >= 3) zg[j] = spread::fold_rescale(p.z[j], grid.nf[2]);
  }
  const spread::NuPoints<T> pts{xg.data(), dim >= 2 ? yg.data() : nullptr,
                                dim >= 3 ? zg.data() : nullptr, p.M};
  spread::DeviceSort sort;
  spread::bin_sort(dev, grid, bins, pts.xg, pts.yg, pts.zg, p.M, sort);
  const auto G = static_cast<std::size_t>(grid.total());

  auto expect_planes = [&](const std::vector<std::complex<T>>& batched,
                           const std::vector<std::complex<T>>& singles,
                           std::size_t stride, const char* what) {
    for (int b = 0; b < B; ++b) {
      const auto lo = static_cast<std::ptrdiff_t>(b * stride);
      const auto hi = static_cast<std::ptrdiff_t>((b + 1) * stride);
      std::vector<std::complex<T>> got(batched.begin() + lo, batched.begin() + hi);
      std::vector<std::complex<T>> want(singles.begin() + lo, singles.begin() + hi);
      EXPECT_LT(cf::cpu::rel_l2_error<T>(got, want), tol_for<T>())
          << what << " dim=" << dim << " B=" << B << " batch " << b;
    }
  };

  // GM (user order) and GM-sort (bin-sort order) spreading.
  for (const std::uint32_t* order : {static_cast<const std::uint32_t*>(nullptr),
                                     static_cast<const std::uint32_t*>(sort.order.data())}) {
    std::vector<std::complex<T>> fb(B * G), fs(B * G);
    spread::spread_gm_batch<T>(dev, grid, kp, pts, p.c.data(), fb.data(), order, B, p.M,
                               G);
    for (int b = 0; b < B; ++b)
      spread::spread_gm<T>(dev, grid, kp, pts, p.c.data() + b * p.M, fs.data() + b * G,
                           order);
    expect_planes(fb, fs, G, order ? "GM-sort spread" : "GM spread");
  }

  // SM spreading over a prebuilt tap table, where the padded bin fits.
  if (spread::sm_fits<T>(dev, grid, bins, kp.w)) {
    const auto subs = spread::build_subproblems(dev, sort, 1024);
    spread::TapTable<T> taps;
    spread::build_tap_table(dev, dim, kp, pts, sort.order.data(), taps);
    std::vector<std::complex<T>> fb(B * G), fs(B * G);
    spread::spread_sm_batch<T>(dev, grid, bins, kp, pts, p.c.data(), fb.data(), sort,
                               subs, 1024, taps, B, p.M, G);
    for (int b = 0; b < B; ++b)
      spread::spread_sm<T>(dev, grid, bins, kp, pts, p.c.data() + b * p.M,
                           fs.data() + b * G, sort, subs, 1024, taps);
    expect_planes(fb, fs, G, "SM spread");
  }

  // GM-sort interpolation from B random fine grids.
  Rng rng(200 + dim * 10 + B);
  std::vector<std::complex<T>> fw(B * G);
  for (auto& v : fw)
    v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  std::vector<std::complex<T>> cb(B * p.M), cs(B * p.M);
  spread::interp_batch<T>(dev, grid, kp, pts, fw.data(), cb.data(), sort.order.data(), B,
                          p.M, G);
  for (int b = 0; b < B; ++b)
    spread::interp<T>(dev, grid, kp, pts, fw.data() + b * G, cs.data() + b * p.M,
                      sort.order.data());
  expect_planes(cb, cs, p.M, "interp");
}

template <typename T>
void sweep_fallback_batch() {
  for (int dim = 1; dim <= 3; ++dim)
    for (int B : {1, 3, 8}) check_fallback_batch_matches_singles<T>(dim, B);
}

}  // namespace

TEST(BatchExecute, MatchesSinglesAllDimsMethodsFastF64) { sweep_batch<double>(); }
TEST(BatchExecute, MatchesSinglesAllDimsMethodsFastF32) { sweep_batch<float>(); }
TEST(BatchExecute, MatchesSinglesAllDimsMethodsFallbackF64) {
  sweep_fallback_batch<double>();
}
TEST(BatchExecute, MatchesSinglesAllDimsMethodsFallbackF32) {
  sweep_fallback_batch<float>();
}

TEST(BatchExecute, BatchedAccuracyAgainstDirect) {
  // The batched pipeline must hit the requested tolerance, not just match the
  // serial pipeline: check every plane of a type-1 batch against the NUDFT.
  const int B = 3;
  BatchProblem<double> p({18, 20}, 900, B, 42);
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(4)));
  cf::ThreadPool pool(2);
  core::Options opts;
  opts.ntransf = B;
  core::Plan<double> plan(dev, 1, p.N, +1, 1e-9, opts);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fbatch(p.f.size());
  plan.execute(p.c.data(), fbatch.data());
  for (int b = 0; b < B; ++b) {
    std::vector<std::complex<double>> cb(p.c.begin() + b * p.M,
                                         p.c.begin() + (b + 1) * p.M);
    std::vector<std::complex<double>> want(static_cast<std::size_t>(p.ntot));
    cf::cpu::direct_type1<double>(pool, p.x, p.y, p.z, cb, +1, p.N, want);
    std::vector<std::complex<double>> got(fbatch.begin() + b * p.ntot,
                                          fbatch.begin() + (b + 1) * p.ntot);
    EXPECT_LT(cf::cpu::rel_l2_error<double>(got, want), 1e-8) << "batch " << b;
  }
}

TEST(BatchExecute, ZeroPointsZeroFillsAllPlanes) {
  const int B = 3;
  const std::vector<std::int64_t> N{12, 14};
  vgpu::Device dev(2);
  core::Options opts;
  opts.ntransf = B;
  core::Plan<double> plan(dev, 1, N, +1, 1e-8, opts);
  double dummy = 0;
  plan.set_points(0, &dummy, &dummy, nullptr);
  const std::size_t ntot = 12 * 14;
  std::vector<std::complex<double>> f(B * ntot, {7.0, -3.0});
  std::vector<std::complex<double>> c;  // unused for M = 0
  plan.execute(c.data(), f.data());
  for (std::size_t i = 0; i < f.size(); ++i)
    ASSERT_EQ(f[i], std::complex<double>(0, 0)) << "i=" << i;
}

TEST(BatchExecute, CpuComparatorBatchMatchesSingles) {
  // The CPU library's ntransf path must agree with its own serial path, for
  // both types and precisions (apples-to-apples with the device batching).
  cf::ThreadPool pool(static_cast<std::size_t>(cf::test::env_workers(4)));
  const int B = 4;
  BatchProblem<double> p({16, 18}, 800, B, 55);
  for (int type : {1, 2}) {
    cf::cpu::CpuPlan<double>::Options opts;
    cf::cpu::CpuPlan<double>::Options bopts;
    bopts.ntransf = B;
    cf::cpu::CpuPlan<double> batched(pool, type, p.N, +1, 1e-9, bopts);
    cf::cpu::CpuPlan<double> single(pool, type, p.N, +1, 1e-9, opts);
    batched.set_points(p.M, p.x.data(), p.y.data(), nullptr);
    single.set_points(p.M, p.x.data(), p.y.data(), nullptr);
    if (type == 1) {
      std::vector<std::complex<double>> fbatch(p.f.size());
      batched.execute(p.c.data(), fbatch.data());
      for (int b = 0; b < B; ++b) {
        std::vector<std::complex<double>> fb(static_cast<std::size_t>(p.ntot));
        single.execute(p.c.data() + b * p.M, fb.data());
        std::vector<std::complex<double>> got(fbatch.begin() + b * p.ntot,
                                              fbatch.begin() + (b + 1) * p.ntot);
        EXPECT_LT(cf::cpu::rel_l2_error<double>(got, fb), 1e-12) << "t1 batch " << b;
      }
    } else {
      std::vector<std::complex<double>> cbatch(B * p.M);
      batched.execute(cbatch.data(), p.f.data());
      for (int b = 0; b < B; ++b) {
        std::vector<std::complex<double>> cb(p.M);
        single.execute(cb.data(), p.f.data() + b * p.ntot);
        std::vector<std::complex<double>> got(cbatch.begin() + b * p.M,
                                              cbatch.begin() + (b + 1) * p.M);
        EXPECT_LT(cf::cpu::rel_l2_error<double>(got, cb), 1e-12) << "t2 batch " << b;
      }
    }
  }
}

TEST(BatchExecute, CApiNtransfPlumbing) {
  // ntransf through the C API, double and float: batched == per-vector runs.
  const int B = 3;
  BatchProblem<double> p({14, 16}, 500, B, 77);
  cfs_device dev = nullptr;
  ASSERT_EQ(cfs_device_create(&dev, 2), CFS_SUCCESS);
  const std::int64_t nmodes[2] = {14, 16};

  cfs_opts opts;
  cfs_default_opts(&opts);
  opts.ntransf = B;
  cfs_plan batched = nullptr;
  ASSERT_EQ(cfs_makeplan(dev, 1, 2, nmodes, +1, 1e-9, &opts, &batched), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts(batched, p.M, p.x.data(), p.y.data(), nullptr), CFS_SUCCESS);
  std::vector<std::complex<double>> fbatch(p.f.size());
  ASSERT_EQ(cfs_execute(batched, reinterpret_cast<double*>(p.c.data()),
                        reinterpret_cast<double*>(fbatch.data())),
            CFS_SUCCESS);

  cfs_opts sopts;
  cfs_default_opts(&sopts);
  cfs_plan single = nullptr;
  ASSERT_EQ(cfs_makeplan(dev, 1, 2, nmodes, +1, 1e-9, &sopts, &single), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts(single, p.M, p.x.data(), p.y.data(), nullptr), CFS_SUCCESS);
  for (int b = 0; b < B; ++b) {
    std::vector<std::complex<double>> fb(static_cast<std::size_t>(p.ntot));
    ASSERT_EQ(cfs_execute(single, reinterpret_cast<double*>(p.c.data() + b * p.M),
                          reinterpret_cast<double*>(fb.data())),
              CFS_SUCCESS);
    std::vector<std::complex<double>> got(fbatch.begin() + b * p.ntot,
                                          fbatch.begin() + (b + 1) * p.ntot);
    EXPECT_LT(cf::cpu::rel_l2_error<double>(got, fb), 1e-12) << "batch " << b;
  }
  cfs_destroy(single);
  cfs_destroy(batched);

  // Float entry points.
  BatchProblem<float> pf({14, 16}, 500, B, 78);
  cfs_planf batchedf = nullptr;
  ASSERT_EQ(cfs_makeplanf(dev, 1, 2, nmodes, +1, 1e-5, &opts, &batchedf), CFS_SUCCESS);
  ASSERT_EQ(cfs_setptsf(batchedf, pf.M, pf.x.data(), pf.y.data(), nullptr),
            CFS_SUCCESS);
  std::vector<std::complex<float>> fbatchf(pf.f.size());
  ASSERT_EQ(cfs_executef(batchedf, reinterpret_cast<float*>(pf.c.data()),
                         reinterpret_cast<float*>(fbatchf.data())),
            CFS_SUCCESS);
  cfs_planf singlef = nullptr;
  ASSERT_EQ(cfs_makeplanf(dev, 1, 2, nmodes, +1, 1e-5, &sopts, &singlef), CFS_SUCCESS);
  ASSERT_EQ(cfs_setptsf(singlef, pf.M, pf.x.data(), pf.y.data(), nullptr), CFS_SUCCESS);
  for (int b = 0; b < B; ++b) {
    std::vector<std::complex<float>> fb(static_cast<std::size_t>(pf.ntot));
    ASSERT_EQ(cfs_executef(singlef, reinterpret_cast<float*>(pf.c.data() + b * pf.M),
                           reinterpret_cast<float*>(fb.data())),
              CFS_SUCCESS);
    std::vector<std::complex<float>> got(fbatchf.begin() + b * pf.ntot,
                                         fbatchf.begin() + (b + 1) * pf.ntot);
    EXPECT_LT(cf::cpu::rel_l2_error<float>(got, fb), 2e-5) << "batch " << b;
  }
  cfs_destroyf(singlef);
  cfs_destroyf(batchedf);
  cfs_device_destroy(dev);
}

TEST(BatchExecute, BatchedBreakdownIsPopulatedOnce) {
  // Batched stage timings cover the whole stack (one spread, one FFT with the
  // deconvolve in its last pass).
  BatchProblem<float> p({32, 32}, 5000, 4, 91);
  vgpu::Device dev(2);
  core::Options opts;
  opts.ntransf = 4;
  core::Plan<float> plan(dev, 1, p.N, +1, 1e-5, opts);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<float>> f(p.f.size());
  plan.execute(p.c.data(), f.data());
  const auto& bd = plan.last_breakdown();
  EXPECT_GT(bd.spread, 0.0);
  EXPECT_GT(bd.fft, 0.0);
  EXPECT_EQ(bd.deconvolve, 0.0);  // folded into bd.fft
  EXPECT_EQ(bd.interp, 0.0);
}
