// CPU comparator library (FINUFFT-like) and the direct NUDFT reference.
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/plan.hpp"
#include "cpu/cpu_plan.hpp"
#include "cpu/direct.hpp"
#include "test_env.hpp"
#include "vgpu/device.hpp"

namespace cpu = cf::cpu;
using cf::Rng;
using cf::ThreadPool;

namespace {

template <typename T>
struct Problem {
  std::vector<std::int64_t> N;
  std::vector<T> x, y, z;
  std::vector<std::complex<T>> c, f;
  std::size_t M;

  Problem(std::vector<std::int64_t> modes, std::size_t M_, std::uint64_t seed = 7)
      : N(std::move(modes)), M(M_) {
    Rng rng(seed);
    const int dim = static_cast<int>(N.size());
    std::int64_t ntot = 1;
    for (auto n : N) ntot *= n;
    x.resize(M);
    if (dim >= 2) y.resize(M);
    if (dim >= 3) z.resize(M);
    for (std::size_t j = 0; j < M; ++j) {
      x[j] = static_cast<T>(rng.angle());
      if (dim >= 2) y[j] = static_cast<T>(rng.angle());
      if (dim >= 3) z[j] = static_cast<T>(rng.angle());
    }
    c.resize(M);
    for (auto& v : c)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
    f.resize(static_cast<std::size_t>(ntot));
    for (auto& v : f)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }
};

}  // namespace

TEST(Direct, Type1SinglePointAnalytic) {
  // One point at x=0 with strength 1: f_k = 1 for all k.
  ThreadPool pool(2);
  std::vector<double> x = {0.0};
  std::vector<std::complex<double>> c = {{1, 0}};
  const std::int64_t N[1] = {8};
  std::vector<std::complex<double>> f(8);
  cpu::direct_type1<double>(pool, x, {}, {}, c, +1, std::span(N, 1), f);
  for (auto& v : f) EXPECT_NEAR(std::abs(v - std::complex<double>(1, 0)), 0.0, 1e-14);
}

TEST(Direct, Type1PhaseRamp) {
  // One point at x0: f_k = e^{i k x0}.
  ThreadPool pool(2);
  const double x0 = 0.7;
  std::vector<double> x = {x0};
  std::vector<std::complex<double>> c = {{1, 0}};
  const std::int64_t N[1] = {9};
  std::vector<std::complex<double>> f(9);
  cpu::direct_type1<double>(pool, x, {}, {}, c, +1, std::span(N, 1), f);
  for (std::int64_t i = 0; i < 9; ++i) {
    const double k = double(i - 4);
    EXPECT_NEAR(f[i].real(), std::cos(k * x0), 1e-14);
    EXPECT_NEAR(f[i].imag(), std::sin(k * x0), 1e-14);
  }
}

TEST(Direct, Type2IsTransposeOfType1OnDeltaBasis) {
  ThreadPool pool(4);
  Problem<double> p({6, 5}, 4, 11);
  // Build the dense matrix both ways and compare A^T entries.
  const std::int64_t ntot = 30;
  for (std::size_t j = 0; j < p.M; ++j) {
    std::vector<std::complex<double>> c(p.M, {0, 0});
    c[j] = {1, 0};
    std::vector<std::complex<double>> col(ntot);
    cpu::direct_type1<double>(pool, p.x, p.y, p.z, c, +1, p.N, col);
    // Row j of type 2 applied to a delta in mode i must equal col[i].
    for (std::int64_t i = 0; i < ntot; ++i) {
      std::vector<std::complex<double>> f(ntot, {0, 0});
      f[static_cast<std::size_t>(i)] = {1, 0};
      std::vector<std::complex<double>> out(p.M);
      cpu::direct_type2<double>(pool, p.x, p.y, p.z, out, +1, p.N, f);
      EXPECT_NEAR(std::abs(out[j] - col[static_cast<std::size_t>(i)]), 0.0, 1e-13);
    }
    break;  // one column suffices; the loop documents the property
  }
}

TEST(RelL2Error, BasicProperties) {
  std::vector<std::complex<double>> a = {{1, 0}, {0, 1}};
  std::vector<std::complex<double>> b = {{1, 0}, {0, 1}};
  EXPECT_EQ(cpu::rel_l2_error<double>(a, b), 0.0);
  a[0] = {2, 0};
  EXPECT_NEAR(cpu::rel_l2_error<double>(a, b), 1.0 / std::sqrt(2.0), 1e-15);
}

using CpuCase = std::tuple<int, int, int>;  // dim, type, tol-exponent

namespace {
std::string cpu_case_name(const ::testing::TestParamInfo<CpuCase>& info) {
  return std::to_string(std::get<0>(info.param)) + "d_t" +
         std::to_string(std::get<1>(info.param)) + "_tol1e" +
         std::to_string(std::get<2>(info.param));
}
}  // namespace

class CpuPlanAccuracy : public ::testing::TestWithParam<CpuCase> {};

TEST_P(CpuPlanAccuracy, MatchesDirect) {
  const auto [dim, type, tole] = GetParam();
  const double tol = std::pow(10.0, -tole);
  std::vector<std::int64_t> N(dim == 1   ? std::vector<std::int64_t>{80}
                              : dim == 2 ? std::vector<std::int64_t>{22, 26}
                                         : std::vector<std::int64_t>{10, 11, 12});
  Problem<double> p(N, 1500, 23);
  ThreadPool pool(8);
  cpu::CpuPlan<double> plan(pool, type, p.N, +1, tol);
  plan.set_points(p.M, p.x.data(), dim >= 2 ? p.y.data() : nullptr,
                  dim >= 3 ? p.z.data() : nullptr);
  if (type == 1) {
    std::vector<std::complex<double>> got(p.f.size()), want(p.f.size());
    plan.execute(p.c.data(), got.data());
    cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
    EXPECT_LT(cpu::rel_l2_error<double>(got, want), 10 * tol);
  } else {
    std::vector<std::complex<double>> got(p.M), want(p.M);
    plan.execute(got.data(), p.f.data());
    cpu::direct_type2<double>(pool, p.x, p.y, p.z, want, +1, p.N, p.f);
    EXPECT_LT(cpu::rel_l2_error<double>(got, want), 10 * tol);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CpuPlanAccuracy,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(2, 6, 10)),
                         cpu_case_name);

class CpuPlanAccuracySigma125 : public ::testing::TestWithParam<CpuCase> {};

TEST_P(CpuPlanAccuracySigma125, MatchesDirect) {
  const auto [dim, type, tole] = GetParam();
  const double tol = std::pow(10.0, -tole);
  std::vector<std::int64_t> N(dim == 1   ? std::vector<std::int64_t>{80}
                              : dim == 2 ? std::vector<std::int64_t>{22, 26}
                                         : std::vector<std::int64_t>{10, 11, 12});
  Problem<double> p(N, 1500, 24);
  ThreadPool pool(8);
  cpu::CpuPlan<double>::Options o;
  o.upsampfac = 1.25;
  cpu::CpuPlan<double> plan(pool, type, p.N, +1, tol, o);
  plan.set_points(p.M, p.x.data(), dim >= 2 ? p.y.data() : nullptr,
                  dim >= 3 ? p.z.data() : nullptr);
  // Same 10x-of-eps heuristic as sigma = 2, floored where the sigma = 1.25
  // widths exceed the dispatch range and double rounding dominates.
  const double bound = std::max(10 * tol, 1e-11);
  if (type == 1) {
    std::vector<std::complex<double>> got(p.f.size()), want(p.f.size());
    plan.execute(p.c.data(), got.data());
    cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
    EXPECT_LT(cpu::rel_l2_error<double>(got, want), bound);
  } else {
    std::vector<std::complex<double>> got(p.M), want(p.M);
    plan.execute(got.data(), p.f.data());
    cpu::direct_type2<double>(pool, p.x, p.y, p.z, want, +1, p.N, p.f);
    EXPECT_LT(cpu::rel_l2_error<double>(got, want), bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CpuPlanAccuracySigma125,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(2, 6, 10)),
                         cpu_case_name);

TEST(CpuPlan, Sigma125MatchesDeviceLibraryClosely) {
  // Both libraries share the kernel/width selection, so their sigma = 1.25
  // grids and outputs agree the same way the sigma = 2 ones do.
  ThreadPool pool(4);
  cf::vgpu::Device dev(4);
  Problem<double> p({28, 24}, 2500, 32);
  cpu::CpuPlan<double>::Options co;
  co.upsampfac = 1.25;
  cf::core::Options go;
  go.upsampfac = 1.25;
  cpu::CpuPlan<double> cplan(pool, 1, p.N, +1, 1e-9, co);
  cf::core::Plan<double> gplan(dev, 1, p.N, +1, 1e-9, go);
  EXPECT_EQ(cplan.fine_grid().nf[0], gplan.fine_grid().nf[0]);
  EXPECT_EQ(cplan.kernel_width(), gplan.kernel_width());
  cplan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  gplan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fc(p.f.size()), fg(p.f.size());
  cplan.execute(p.c.data(), fc.data());
  gplan.execute(p.c.data(), fg.data());
  EXPECT_LT(cpu::rel_l2_error<double>(fg, fc), 1e-9);
}

TEST(CpuPlan, Sigma125RejectsUnsupportedValues) {
  ThreadPool pool(1);
  const std::int64_t n[2] = {16, 16};
  cpu::CpuPlan<double>::Options o;
  o.upsampfac = 3.0;
  EXPECT_THROW(cpu::CpuPlan<double>(pool, 1, std::span(n, 2), +1, 1e-6, o),
               std::invalid_argument);
}

TEST(CpuPlan, SinglePrecision) {
  ThreadPool pool(4);
  Problem<float> p({32, 32}, 3000, 29);
  cpu::CpuPlan<float> plan(pool, 1, p.N, -1, 1e-5);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<float>> got(p.f.size()), want(p.f.size());
  plan.execute(p.c.data(), got.data());
  cpu::direct_type1<float>(pool, p.x, p.y, p.z, p.c, -1, p.N, want);
  EXPECT_LT(cpu::rel_l2_error<float>(got, want), 3e-5);
}

TEST(CpuPlan, MatchesDeviceLibraryClosely) {
  // The CPU and device libraries implement the same math; at a given tol
  // their outputs agree to that tol against each other.
  ThreadPool pool(4);
  cf::vgpu::Device dev(4);
  Problem<double> p({28, 24}, 2500, 31);
  cpu::CpuPlan<double> cplan(pool, 1, p.N, +1, 1e-9);
  cf::core::Plan<double> gplan(dev, 1, p.N, +1, 1e-9);
  cplan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  gplan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fc(p.f.size()), fg(p.f.size());
  cplan.execute(p.c.data(), fc.data());
  gplan.execute(p.c.data(), fg.data());
  EXPECT_LT(cpu::rel_l2_error<double>(fg, fc), 1e-9);
}

TEST(CpuPlan, BreakdownPopulated) {
  ThreadPool pool(4);
  Problem<double> p({48, 48}, 20000, 37);
  cpu::CpuPlan<double> plan(pool, 1, p.N, +1, 1e-8);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> f(p.f.size());
  plan.execute(p.c.data(), f.data());
  const auto& bd = plan.last_breakdown();
  EXPECT_GT(bd.sort, 0.0);
  EXPECT_GT(bd.spread, 0.0);
  EXPECT_GT(bd.fft, 0.0);
  // Pruned type-1 passes: nf1 lines on axis 0, N0 on axis 1.
  const auto& g = plan.fine_grid();
  EXPECT_EQ(bd.fft_lines, static_cast<std::size_t>(g.nf[1] + 48));
}

TEST(CpuPlan, FftLinesCountThePrunedPasses) {
  ThreadPool pool(3);
  Problem<double> p({12, 9, 10}, 300, 41);
  for (int type : {1, 2}) {
    cpu::CpuPlan<double> plan(pool, type, p.N, +1, 1e-6);
    plan.set_points(p.M, p.x.data(), p.y.data(), p.z.data());
    std::vector<std::complex<double>> c = p.c, f = p.f;
    const auto bd = plan.execute(c.data(), f.data());
    const auto& g = plan.fine_grid();
    const auto want = type == 1 ? g.nf[1] * g.nf[2] + 12 * g.nf[2] + 12 * 9
                                : 9 * 10 + g.nf[0] * 10 + g.nf[0] * g.nf[1];
    EXPECT_EQ(bd.fft_lines, static_cast<std::size_t>(want)) << "type " << type;
  }
}

TEST(CpuPlan, RejectsIndexWidthOverflow) {
  ThreadPool pool(2);
  // A fine-grid axis beyond INT32_MAX (2^30 modes at sigma = 2) is rejected
  // before the FFT plans allocate their twiddle tables.
  const std::int64_t big[2] = {8, std::int64_t(1) << 30};
  EXPECT_THROW(cpu::CpuPlan<float>(pool, 1, std::span(big, 2), +1, 1e-3),
               std::invalid_argument);
  // More points than the uint32 sort order can index, rejected before any
  // coordinate is read (the arrays hold 16).
  const std::int64_t n[2] = {16, 16};
  cpu::CpuPlan<double> plan(pool, 1, std::span(n, 2), +1, 1e-6);
  std::vector<double> x(16, 0.0), y(16, 0.0);
  const std::size_t huge = std::size_t(std::numeric_limits<std::uint32_t>::max()) + 1;
  EXPECT_THROW(plan.set_points(huge, x.data(), y.data(), nullptr), std::invalid_argument);
}

TEST(CpuPlan, InvalidArgumentsThrow) {
  ThreadPool pool(1);
  const std::int64_t n[2] = {16, 16};
  EXPECT_THROW(cpu::CpuPlan<double>(pool, 5, std::span(n, 2), +1, 1e-6),
               std::invalid_argument);
  cpu::CpuPlan<double> plan(pool, 1, std::span(n, 2), +1, 1e-6);
  EXPECT_THROW(plan.set_points(10, nullptr, nullptr, nullptr), std::invalid_argument);
}

TEST(CpuPlan, GateFailureFallsBackToAtomicGm) {
  // 8x8 modes at tol 1e-12 (w = 13, pad 7) give a 27-cell fine grid: even two
  // tiles per axis pad to 28 cells, so the geometry gate fails and the spread
  // runs spread_gm_batch's atomic writeback over the bin-sort order.
  ThreadPool pool(4);
  Problem<double> p({8, 8}, 2000, 41);
  cpu::CpuPlan<double> plan(pool, 1, p.N, +1, 1e-12);
  ASSERT_EQ(plan.fine_grid().nf[0], 27);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> got(p.f.size()), want(p.f.size());
  auto c = p.c;
  const auto bd = plan.execute(c.data(), got.data());
  EXPECT_EQ(bd.tiled, 0);
  EXPECT_EQ(bd.atomic_reason, cf::core::AtomicReason::TileGate);
  EXPECT_EQ(bd.arena_bytes, 0u);
  cpu::direct_type1<double>(pool, p.x, p.y, {}, p.c, +1, p.N, want);
  EXPECT_LT(cpu::rel_l2_error<double>(got, want), 1e-10);
}

TEST(CpuPlan, HornerKerevalMatchesDirect) {
  // kerevalmeth=1 (padded Horner table) must agree with the default exp/sqrt
  // evaluation to below the aliasing error of the requested tolerance, in
  // both precisions and for both transform types.
  ThreadPool pool(4);
  Problem<double> p({48, 48}, 4000, 43);
  for (int type : {1, 2}) {
    cpu::CpuPlan<double>::Options direct;
    cpu::CpuPlan<double>::Options horner;
    horner.kerevalmeth = 1;
    cpu::CpuPlan<double> pd(pool, type, p.N, +1, 1e-9, direct);
    cpu::CpuPlan<double> ph(pool, type, p.N, +1, 1e-9, horner);
    pd.set_points(p.M, p.x.data(), p.y.data(), nullptr);
    ph.set_points(p.M, p.x.data(), p.y.data(), nullptr);
    std::vector<std::complex<double>> fd(p.f.size()), fh(p.f.size());
    auto cd = p.c, ch = p.c;
    if (type == 1) {
      pd.execute(cd.data(), fd.data());
      ph.execute(ch.data(), fh.data());
      EXPECT_LT(cpu::rel_l2_error<double>(fh, fd), 1e-9) << "type 1";
    } else {
      fd = p.f;
      fh = p.f;
      pd.execute(cd.data(), fd.data());
      ph.execute(ch.data(), fh.data());
      EXPECT_LT(cpu::rel_l2_error<double>(ch, cd), 1e-9) << "type 2";
    }
  }
  Problem<float> pf({48, 48}, 4000, 44);
  cpu::CpuPlan<float>::Options horner;
  horner.kerevalmeth = 1;
  cpu::CpuPlan<float> pd(pool, 1, pf.N, +1, 1e-5);
  cpu::CpuPlan<float> ph(pool, 1, pf.N, +1, 1e-5, horner);
  pd.set_points(pf.M, pf.x.data(), pf.y.data(), nullptr);
  ph.set_points(pf.M, pf.x.data(), pf.y.data(), nullptr);
  std::vector<std::complex<float>> fd(pf.f.size()), fh(pf.f.size());
  auto cd = pf.c, ch = pf.c;
  pd.execute(cd.data(), fd.data());
  ph.execute(ch.data(), fh.data());
  EXPECT_LT(cpu::rel_l2_error<float>(fh, fd), 1e-5);
}

TEST(CpuPlan, AdjointPairProperty) {
  ThreadPool pool(4);
  Problem<double> p({22, 18}, 900, 43);
  cpu::CpuPlan<double> t1(pool, 1, p.N, +1, 1e-11);
  cpu::CpuPlan<double> t2(pool, 2, p.N, -1, 1e-11);
  t1.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  t2.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> Ac(p.f.size());
  auto c = p.c;
  t1.execute(c.data(), Ac.data());
  std::vector<std::complex<double>> Atf(p.M);
  auto f = p.f;
  t2.execute(Atf.data(), f.data());
  std::complex<double> lhs(0, 0), rhs(0, 0);
  for (std::size_t i = 0; i < Ac.size(); ++i) lhs += Ac[i] * std::conj(p.f[i]);
  for (std::size_t j = 0; j < p.M; ++j) rhs += p.c[j] * std::conj(Atf[j]);
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8 * std::abs(lhs));
}

TEST(CpuPlan, ClusteredPointsAccurate) {
  ThreadPool pool(8);
  Rng rng(47);
  const std::size_t M = 4000;
  std::vector<double> x(M), y(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.uniform(-3.14159, -3.1);
    y[j] = rng.uniform(-3.14159, -3.1);
  }
  std::vector<std::complex<double>> c(M);
  for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const std::int64_t N[2] = {24, 24};
  cpu::CpuPlan<double> plan(pool, 1, std::span(N, 2), +1, 1e-9);
  plan.set_points(M, x.data(), y.data(), nullptr);
  std::vector<std::complex<double>> got(24 * 24), want(24 * 24);
  plan.execute(c.data(), got.data());
  cpu::direct_type1<double>(pool, x, y, {}, c, +1, std::span(N, 2), want);
  EXPECT_LT(cpu::rel_l2_error<double>(got, want), 1e-8);
}

TEST(CpuPlan, ThreadCountInvariance) {
  // The tiled spread, the bin sort and the FFT are pure functions of the
  // points, so the output bits do not depend on the pool size.
  for (const auto& N : {std::vector<std::int64_t>{30, 30}, std::vector<std::int64_t>{20, 18, 16}}) {
    Problem<double> p(N, 3000, 53);
    const double* zp = N.size() == 3 ? p.z.data() : nullptr;
    ThreadPool p1(1), p8(8);
    cpu::CpuPlan<double> a(p1, 1, p.N, +1, 1e-10), b(p8, 1, p.N, +1, 1e-10);
    a.set_points(p.M, p.x.data(), p.y.data(), zp);
    b.set_points(p.M, p.x.data(), p.y.data(), zp);
    std::vector<std::complex<double>> fa(p.f.size()), fb(p.f.size());
    auto c = p.c;
    EXPECT_EQ(a.execute(c.data(), fa.data()).tiled, 1) << N.size() << "D";
    EXPECT_EQ(b.execute(c.data(), fb.data()).tiled, 1) << N.size() << "D";
    EXPECT_EQ(std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(fa[0])), 0)
        << N.size() << "D";
  }
}

namespace {

/// A type-1 CpuPlan and a core::Plan with Method::GMSort run the same bin
/// sort, tiles and colored spread, and the same pruned FFT and deconvolve, so
/// their outputs agree bit for bit.
template <typename T>
void check_cpu_equals_gmsort(const std::vector<std::int64_t>& N, double sigma, int modeord,
                             int ntransf) {
  const double tol = std::is_same_v<T, double> ? 1e-9 : 1e-5;
  Problem<T> p(N, 3000, 71 + N.size());
  Rng rng(72);
  std::vector<std::complex<T>> c(ntransf * p.M);
  for (auto& v : c)
    v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  const T* yp = N.size() >= 2 ? p.y.data() : nullptr;
  const T* zp = N.size() >= 3 ? p.z.data() : nullptr;
  ThreadPool pool(static_cast<std::size_t>(cf::test::env_workers(3)));
  typename cpu::CpuPlan<T>::Options co;
  co.upsampfac = sigma;
  co.modeord = modeord;
  co.ntransf = ntransf;
  cpu::CpuPlan<T> cplan(pool, 1, N, +1, tol, co);
  cf::vgpu::Device dev(2);
  cf::core::Options go;
  go.method = cf::core::Method::GMSort;
  go.upsampfac = sigma;
  go.modeord = modeord;
  go.ntransf = ntransf;
  cf::core::Plan<T> gplan(dev, 1, N, +1, tol, go);
  cplan.set_points(p.M, p.x.data(), yp, zp);
  gplan.set_points(p.M, p.x.data(), yp, zp);
  std::vector<std::complex<T>> fc(ntransf * p.f.size()), fg(fc.size());
  const auto bc = cplan.execute(c.data(), fc.data());
  const auto bg = gplan.execute(c.data(), fg.data());
  const std::string what = std::to_string(N.size()) + "D sigma " + std::to_string(sigma) +
                           " modeord " + std::to_string(modeord) + " ntransf " +
                           std::to_string(ntransf);
  ASSERT_EQ(bc.tiled, 1) << what;
  ASSERT_EQ(bg.tiled, 1) << what;
  EXPECT_EQ(bc.tile_colors, bg.tile_colors) << what;
  EXPECT_EQ(bc.tile_chunks, bg.tile_chunks) << what;
  EXPECT_EQ(std::memcmp(fc.data(), fg.data(), fc.size() * sizeof(fc[0])), 0) << what;
}

}  // namespace

TEST(CpuPlan, Type1BitwiseEqualsDeviceGmSort) {
  const std::vector<std::vector<std::int64_t>> shapes = {{1000}, {40, 36}, {28, 27, 26}};
  for (const auto& N : shapes)
    for (double sigma : {2.0, 1.25})
      for (int modeord : {0, 1})
        for (int ntransf : {1, 3}) {
          check_cpu_equals_gmsort<float>(N, sigma, modeord, ntransf);
          check_cpu_equals_gmsort<double>(N, sigma, modeord, ntransf);
        }
}

TEST(CpuPlan, ModeOrderingMatchesDeviceLibrary) {
  ThreadPool pool(4);
  cf::vgpu::Device dev(4);
  Problem<double> p({14, 10}, 700, 61);
  cpu::CpuPlan<double>::Options copts;
  copts.modeord = 1;
  cpu::CpuPlan<double> cplan(pool, 1, p.N, +1, 1e-10, copts);
  cf::core::Options gopts;
  gopts.modeord = 1;
  cf::core::Plan<double> gplan(dev, 1, p.N, +1, 1e-10, gopts);
  cplan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  gplan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fc(p.f.size()), fg(p.f.size());
  auto c = p.c;
  cplan.execute(c.data(), fc.data());
  gplan.execute(c.data(), fg.data());
  EXPECT_LT(cpu::rel_l2_error<double>(fg, fc), 1e-10);
}

TEST(CpuPlan, BatchedMatchesSingles) {
  ThreadPool pool(4);
  Problem<double> p({18, 18}, 600, 67);
  const int B = 3;
  Rng rng(68);
  std::vector<std::complex<double>> cbatch(B * p.M);
  for (auto& v : cbatch) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  cpu::CpuPlan<double>::Options o;
  o.ntransf = B;
  cpu::CpuPlan<double> batched(pool, 1, p.N, +1, 1e-9, o);
  batched.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fbatch(B * p.f.size());
  batched.execute(cbatch.data(), fbatch.data());
  cpu::CpuPlan<double> single(pool, 1, p.N, +1, 1e-9);
  single.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  for (int b = 0; b < B; ++b) {
    std::vector<std::complex<double>> fb(p.f.size());
    single.execute(cbatch.data() + b * p.M, fb.data());
    std::vector<std::complex<double>> got(fbatch.begin() + b * p.f.size(),
                                          fbatch.begin() + (b + 1) * p.f.size());
    EXPECT_LT(cpu::rel_l2_error<double>(got, fb), 1e-13);
  }
}

// ---- non-finite coordinates --------------------------------------------------

namespace {

/// One NaN and one Inf among 4000 points: the comparator's set_points throws
/// invalid_argument from its fold pass, and a valid set_points afterwards
/// restores the bits of a fresh plan.
template <typename T>
void check_cpu_rejects_nonfinite(int dim, int type) {
  const double tol = std::is_same_v<T, double> ? 1e-9 : 1e-5;
  const std::vector<std::int64_t> N =
      dim == 2 ? std::vector<std::int64_t>{24, 20} : std::vector<std::int64_t>{12, 10, 8};
  Problem<T> p(N, 4000, 31 + dim + type);
  ThreadPool pool(1);
  auto execute = [&](cpu::CpuPlan<T>& plan) {
    std::vector<std::complex<T>> c = p.c, f = p.f;
    plan.execute(c.data(), f.data());
    return type == 1 ? f : c;
  };
  const T* zp = dim >= 3 ? p.z.data() : nullptr;
  cpu::CpuPlan<T> fresh(pool, type, N, +1, tol);
  fresh.set_points(p.M, p.x.data(), p.y.data(), zp);
  const auto want = execute(fresh);

  cpu::CpuPlan<T> plan(pool, type, N, +1, tol);
  auto q = p;
  (dim >= 3 ? q.z : q.y)[1234] = std::numeric_limits<T>::quiet_NaN();
  q.x[17] = std::numeric_limits<T>::infinity();
  EXPECT_THROW(plan.set_points(q.M, q.x.data(), q.y.data(), dim >= 3 ? q.z.data() : nullptr),
               std::invalid_argument)
      << "dim=" << dim << " type=" << type;
  plan.set_points(p.M, p.x.data(), p.y.data(), zp);
  const auto got = execute(plan);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "dim=" << dim << " type=" << type << " i=" << i;
}

}  // namespace

TEST(CpuPlan, NonFiniteCoordinatesRejected) {
  for (int dim : {2, 3})
    for (int type : {1, 2}) {
      check_cpu_rejects_nonfinite<float>(dim, type);
      check_cpu_rejects_nonfinite<double>(dim, type);
    }
}
