// FFT substrate tests: correctness against the direct DFT for all radix
// mixtures and Bluestein sizes, algebraic properties, and N-d plans.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "fft/fft.hpp"
#include "fft/fftnd.hpp"
#include "spreadinterp/kernel_ft.hpp"

using cf::Rng;
using cf::ThreadPool;
namespace fft = cf::fft;
namespace spread = cf::spread;

namespace {

template <typename T>
std::vector<std::complex<T>> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<T>> v(n);
  for (auto& x : v)
    x = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  return v;
}

/// Direct DFT in double for reference.
template <typename T>
std::vector<std::complex<double>> direct_dft(const std::vector<std::complex<T>>& in,
                                             int sign) {
  const std::size_t n = in.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * std::numbers::pi * double(j * k % n) / double(n);
      acc += std::complex<double>(in[j].real(), in[j].imag()) *
             std::complex<double>(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

template <typename T>
double max_err(const std::vector<std::complex<T>>& got,
               const std::vector<std::complex<double>>& want) {
  double m = 0, scale = 0;
  for (const auto& w : want) scale = std::max(scale, std::abs(w));
  for (std::size_t i = 0; i < got.size(); ++i)
    m = std::max(m, std::abs(std::complex<double>(got[i].real(), got[i].imag()) - want[i]));
  return m / std::max(scale, 1e-300);
}

}  // namespace

TEST(Next235, KnownValues) {
  EXPECT_EQ(fft::next235(1), 1u);
  EXPECT_EQ(fft::next235(2), 2u);
  EXPECT_EQ(fft::next235(7), 8u);
  EXPECT_EQ(fft::next235(11), 12u);
  EXPECT_EQ(fft::next235(121), 125u);
  EXPECT_EQ(fft::next235(2000), 2000u);  // 2^4 * 5^3
  EXPECT_EQ(fft::next235(257), 270u);    // 2*3^3*5
}

TEST(Next235, AlwaysFactors235AndGeq) {
  for (std::size_t n = 1; n < 2000; n += 7) {
    const std::size_t m = fft::next235(n);
    EXPECT_GE(m, n);
    EXPECT_TRUE(fft::is_235(m));
  }
}

class Fft1dSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1dSizes, MatchesDirectDftDouble) {
  const std::size_t n = GetParam();
  auto in = random_signal<double>(n, 100 + n);
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> out(n), work(plan.workspace_size());
  for (int sign : {-1, +1}) {
    plan.exec(in.data(), 1, out.data(), sign, work.data());
    auto want = direct_dft(in, sign);
    EXPECT_LT(max_err(out, want), 1e-11) << "n=" << n << " sign=" << sign;
  }
}

TEST_P(Fft1dSizes, MatchesDirectDftSingle) {
  const std::size_t n = GetParam();
  auto in = random_signal<float>(n, 200 + n);
  fft::Fft1d<float> plan(n);
  std::vector<std::complex<float>> out(n), work(plan.workspace_size());
  plan.exec(in.data(), 1, out.data(), -1, work.data());
  auto want = direct_dft(in, -1);
  EXPECT_LT(max_err(out, want), 2e-4) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(AllRadixMixes, Fft1dSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24,
                                           25, 27, 30, 32, 45, 60, 64, 81, 100, 120, 125,
                                           128, 135, 240, 243, 256, 360, 625, 729, 1024));

INSTANTIATE_TEST_SUITE_P(BluesteinSizes, Fft1dSizes,
                         ::testing::Values(7, 11, 13, 17, 23, 31, 41, 61, 97, 101, 127,
                                           211, 251, 509));

TEST(Fft1d, InverseRoundTrip) {
  for (std::size_t n : {16u, 60u, 101u, 240u}) {
    auto in = random_signal<double>(n, 7 * n);
    fft::Fft1d<double> plan(n);
    std::vector<std::complex<double>> mid(n), out(n), work(plan.workspace_size());
    plan.exec(in.data(), 1, mid.data(), -1, work.data());
    plan.exec(mid.data(), 1, out.data(), +1, work.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(out[i] / double(n) - in[i]), 0.0, 1e-12);
  }
}

TEST(Fft1d, Linearity) {
  const std::size_t n = 120;
  auto a = random_signal<double>(n, 1), b = random_signal<double>(n, 2);
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> fa(n), fb(n), fab(n), ab(n),
      work(plan.workspace_size());
  const std::complex<double> alpha(1.5, -0.5);
  for (std::size_t i = 0; i < n; ++i) ab[i] = a[i] + alpha * b[i];
  plan.exec(a.data(), 1, fa.data(), -1, work.data());
  plan.exec(b.data(), 1, fb.data(), -1, work.data());
  plan.exec(ab.data(), 1, fab.data(), -1, work.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(fab[i] - (fa[i] + alpha * fb[i])), 0.0, 1e-10);
}

TEST(Fft1d, ParsevalHolds) {
  const std::size_t n = 360;
  auto in = random_signal<double>(n, 3);
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> out(n), work(plan.workspace_size());
  plan.exec(in.data(), 1, out.data(), -1, work.data());
  double e_time = 0, e_freq = 0;
  for (auto& v : in) e_time += std::norm(v);
  for (auto& v : out) e_freq += std::norm(v);
  EXPECT_NEAR(e_freq, e_time * double(n), 1e-8 * e_freq);
}

TEST(Fft1d, StridedInputMatchesContiguous) {
  const std::size_t n = 64, stride = 3;
  auto base = random_signal<double>(n * stride, 4);
  std::vector<std::complex<double>> packed(n);
  for (std::size_t i = 0; i < n; ++i) packed[i] = base[i * stride];
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> o1(n), o2(n), work(plan.workspace_size());
  plan.exec(base.data(), stride, o1.data(), -1, work.data());
  plan.exec(packed.data(), 1, o2.data(), -1, work.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(o1[i], o2[i]);
}

TEST(Fft1d, DeltaGivesConstantSpectrum) {
  const std::size_t n = 100;
  std::vector<std::complex<double>> in(n, {0, 0}), out(n);
  in[0] = {1, 0};
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> work(plan.workspace_size());
  plan.exec(in.data(), 1, out.data(), -1, work.data());
  for (auto& v : out) EXPECT_NEAR(std::abs(v - std::complex<double>(1, 0)), 0.0, 1e-12);
}

TEST(FftNd, Fft2dMatchesDirect) {
  ThreadPool pool(4);
  const std::size_t n1 = 12, n2 = 10;
  auto in = random_signal<double>(n1 * n2, 5);
  auto data = in;
  fft::FftNd<double> plan(pool, {n1, n2});
  plan.exec(data.data(), -1);
  // Direct 2D DFT.
  for (std::size_t k2 = 0; k2 < n2; ++k2)
    for (std::size_t k1 = 0; k1 < n1; ++k1) {
      std::complex<double> acc(0, 0);
      for (std::size_t j2 = 0; j2 < n2; ++j2)
        for (std::size_t j1 = 0; j1 < n1; ++j1) {
          const double ang = -2.0 * std::numbers::pi *
                             (double(j1 * k1) / n1 + double(j2 * k2) / n2);
          acc += in[j1 + n1 * j2] * std::complex<double>(std::cos(ang), std::sin(ang));
        }
      EXPECT_NEAR(std::abs(data[k1 + n1 * k2] - acc), 0.0, 1e-9);
    }
}

TEST(FftNd, Fft3dRoundTrip) {
  ThreadPool pool(8);
  const std::size_t n1 = 8, n2 = 6, n3 = 5;
  auto in = random_signal<double>(n1 * n2 * n3, 6);
  auto data = in;
  fft::FftNd<double> plan(pool, {n1, n2, n3});
  plan.exec(data.data(), -1);
  plan.exec(data.data(), +1);
  const double scale = 1.0 / double(n1 * n2 * n3);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_NEAR(std::abs(data[i] * scale - in[i]), 0.0, 1e-12);
}

TEST(FftNd, SeparableDeltaPlane) {
  // A delta at the origin of a 3D grid transforms to the all-ones grid.
  ThreadPool pool(4);
  const std::size_t n = 10;
  std::vector<std::complex<double>> data(n * n * n, {0, 0});
  data[0] = {1, 0};
  fft::FftNd<double> plan(pool, {n, n, n});
  plan.exec(data.data(), -1);
  for (auto& v : data) EXPECT_NEAR(std::abs(v - std::complex<double>(1, 0)), 0.0, 1e-12);
}

TEST(FftNd, RejectsBadDims) {
  ThreadPool pool(2);
  EXPECT_THROW(fft::FftNd<double>(pool, {}), std::invalid_argument);
  EXPECT_THROW(fft::FftNd<double>(pool, {4, 4, 4, 4}), std::invalid_argument);
  EXPECT_THROW(fft::FftNd<double>(pool, {0}), std::invalid_argument);
}

TEST(Fft1d, RejectsBadSign) {
  fft::Fft1d<double> plan(8);
  std::vector<std::complex<double>> in(8), out(8), work(plan.workspace_size());
  EXPECT_THROW(plan.exec(in.data(), 1, out.data(), 0, work.data()), std::invalid_argument);
  EXPECT_THROW(plan.exec(in.data(), 1, out.data(), 2, work.data()), std::invalid_argument);
}

TEST(Fft1d, ShiftTheorem) {
  // Circular shift by m multiplies spectrum by e^{-2*pi*i*m*k/n}.
  const std::size_t n = 90, shift = 7;
  auto in = random_signal<double>(n, 9);
  std::vector<std::complex<double>> shifted(n);
  for (std::size_t j = 0; j < n; ++j) shifted[(j + shift) % n] = in[j];
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> fa(n), fb(n), work(plan.workspace_size());
  plan.exec(in.data(), 1, fa.data(), -1, work.data());
  plan.exec(shifted.data(), 1, fb.data(), -1, work.data());
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = -2.0 * std::numbers::pi * double(shift * k % n) / double(n);
    const auto want = fa[k] * std::complex<double>(std::cos(ang), std::sin(ang));
    EXPECT_NEAR(std::abs(fb[k] - want), 0.0, 1e-10);
  }
}

TEST(Fft1d, RealInputConjugateSymmetry) {
  const std::size_t n = 128;
  Rng rng(10);
  std::vector<std::complex<double>> in(n);
  for (auto& v : in) v = {rng.uniform(-1, 1), 0.0};
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> out(n), work(plan.workspace_size());
  plan.exec(in.data(), 1, out.data(), -1, work.data());
  for (std::size_t k = 1; k < n; ++k)
    EXPECT_NEAR(std::abs(out[k] - std::conj(out[n - k])), 0.0, 1e-11) << k;
}

TEST(Fft1d, BluesteinPrimeRoundTrip) {
  for (std::size_t n : {7u, 127u, 509u}) {
    auto in = random_signal<double>(n, 11 * n);
    fft::Fft1d<double> plan(n);
    std::vector<std::complex<double>> mid(n), out(n), work(plan.workspace_size());
    plan.exec(in.data(), 1, mid.data(), -1, work.data());
    plan.exec(mid.data(), 1, out.data(), +1, work.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(out[i] / double(n) - in[i]), 0.0, 1e-11);
  }
}

TEST(Fft1d, WorkspaceIsStateless) {
  // Two transforms sharing one workspace buffer must not interfere.
  const std::size_t n = 60;
  auto a = random_signal<double>(n, 12), b = random_signal<double>(n, 13);
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> fa1(n), fb1(n), fa2(n), work(plan.workspace_size());
  plan.exec(a.data(), 1, fa1.data(), -1, work.data());
  plan.exec(b.data(), 1, fb1.data(), -1, work.data());
  plan.exec(a.data(), 1, fa2.data(), -1, work.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(fa1[i], fa2[i]);
}

TEST(FftNd, AnisotropicDims) {
  ThreadPool pool(4);
  const std::size_t n1 = 4, n2 = 27, n3 = 10;
  auto in = random_signal<double>(n1 * n2 * n3, 14);
  auto data = in;
  fft::FftNd<double> plan(pool, {n1, n2, n3});
  plan.exec(data.data(), -1);
  plan.exec(data.data(), +1);
  const double s = 1.0 / double(n1 * n2 * n3);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_NEAR(std::abs(data[i] * s - in[i]), 0.0, 1e-11);
}

TEST(FftNd, AxisTransformMatchesManualLoop) {
  // 2D plan equals running 1D transforms along rows then columns.
  ThreadPool pool(2);
  const std::size_t n1 = 8, n2 = 6;
  auto in = random_signal<double>(n1 * n2, 15);
  auto nd = in;
  fft::FftNd<double> plan2(pool, {n1, n2});
  plan2.exec(nd.data(), -1);

  auto manual = in;
  fft::Fft1d<double> p1(n1), p2(n2);
  std::vector<std::complex<double>> line(std::max(n1, n2)),
      work(std::max(p1.workspace_size(), p2.workspace_size()));
  for (std::size_t r = 0; r < n2; ++r) {
    p1.exec(manual.data() + r * n1, 1, line.data(), -1, work.data());
    std::copy(line.begin(), line.begin() + n1, manual.begin() + r * n1);
  }
  for (std::size_t col = 0; col < n1; ++col) {
    p2.exec(manual.data() + col, std::ptrdiff_t(n1), line.data(), -1, work.data());
    for (std::size_t r = 0; r < n2; ++r) manual[col + r * n1] = line[r];
  }
  for (std::size_t i = 0; i < nd.size(); ++i)
    EXPECT_NEAR(std::abs(nd[i] - manual[i]), 0.0, 1e-10);
}

TEST(FftNd, SingleElementDims) {
  ThreadPool pool(2);
  auto in = random_signal<double>(16, 16);
  auto data = in;
  fft::FftNd<double> plan(pool, {16, 1, 1});  // degenerate trailing axes
  plan.exec(data.data(), -1);
  fft::Fft1d<double> p1(16);
  std::vector<std::complex<double>> want(16), work(p1.workspace_size());
  p1.exec(in.data(), 1, want.data(), -1, work.data());
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(data[i], want[i]);
}

TEST(FftNd, SinglePrecision3dRoundTrip) {
  ThreadPool pool(4);
  const std::size_t n = 12;
  auto in = random_signal<float>(n * n * n, 77);
  auto data = in;
  fft::FftNd<float> plan(pool, {n, n, n});
  plan.exec(data.data(), -1);
  plan.exec(data.data(), +1);
  const float s = 1.0f / float(n * n * n);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_NEAR(std::abs(data[i] * s - in[i]), 0.0f, 1e-4f);
}

TEST(Fft1d, LargeSizeSmoke) {
  // A paper-scale fine-grid line (2^20) transforms and round-trips.
  const std::size_t n = 1 << 20;
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> in(n), mid(n), out(n),
      work(plan.workspace_size());
  Rng rng(78);
  for (auto& v : in) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  plan.exec(in.data(), 1, mid.data(), -1, work.data());
  plan.exec(mid.data(), 1, out.data(), +1, work.data());
  double maxerr = 0;
  for (std::size_t i = 0; i < n; i += 997)
    maxerr = std::max(maxerr, std::abs(out[i] / double(n) - in[i]));
  EXPECT_LT(maxerr, 1e-10);
}

// ---- pruned passes ----------------------------------------------------------

namespace {

/// One pruned-FFT geometry: kept extents N (the NUFFT's modes) on a grid nf.
struct PruneCase {
  std::vector<std::size_t> N, nf;
};

std::vector<PruneCase> prune_cases() {
  return {
      {{24}, {30}},              // 1D, sigma = 1.25, even N
      {{17}, {36}},              // 1D, sigma = 2, odd N
      {{24, 17}, {30, 36}},      // 2D, mixed sigma, even/odd
      {{16, 15}, {32, 30}},      // 2D, sigma = 2
      {{12, 9, 24}, {24, 18, 30}},  // 3D, sigma = 2 and 1.25 axes
      {{7, 10, 8}, {16, 20, 10}},   // 3D, odd N, sigma = 1.25 last axis
  };
}

template <typename T>
std::array<std::vector<T>, 3> random_fser(const PruneCase& pc, std::uint64_t seed) {
  Rng rng(seed);
  std::array<std::vector<T>, 3> fser;
  for (std::size_t d = 0; d < 3; ++d) {
    if (d >= pc.N.size()) {
      fser[d].assign(1, T(1));
      continue;
    }
    fser[d].resize(pc.N[d]);
    for (auto& p : fser[d]) p = static_cast<T>(rng.uniform(0.5, 4.0));
  }
  return fser;
}

std::array<std::int64_t, 3> as3(const std::vector<std::size_t>& v) {
  std::array<std::int64_t, 3> a{1, 1, 1};
  for (std::size_t d = 0; d < v.size(); ++d) a[d] = static_cast<std::int64_t>(v[d]);
  return a;
}

fft::FftNd<double>::Extents keep3(const std::vector<std::size_t>& N) {
  fft::FftNd<double>::Extents k{1, 1, 1};
  for (std::size_t d = 0; d < N.size(); ++d) k[d] = N[d];
  return k;
}

template <typename T>
bool same_bits(const std::complex<T>& a, const std::complex<T>& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

template <typename T>
void check_pruned_type1(const PruneCase& pc, int sign, int modeord) {
  ThreadPool pool(3);
  const std::size_t nbatch = 3;
  fft::FftNd<T> plan(pool, pc.nf);
  const std::size_t total = plan.total();
  const auto N = as3(pc.N), nf = as3(pc.nf);
  const std::size_t ntot = static_cast<std::size_t>(N[0] * N[1] * N[2]);
  const auto fser = random_fser<T>(pc, 31 + pc.N[0]);
  const auto in = random_signal<T>(nbatch * total, 41 + pc.nf[0]);

  // Reference: full transform, then the deconvolve as a separate pass over
  // the output modes (truncate to the central modes, scale by p0*p1*p2).
  auto full = in;
  plan.exec_batch(full.data(), nbatch, total, sign);
  std::vector<std::complex<T>> want(nbatch * ntot);
  for (std::size_t b = 0; b < nbatch; ++b)
    for (std::size_t i = 0; i < ntot; ++i) {
      const std::int64_t ii = static_cast<std::int64_t>(i);
      const std::int64_t idx[3] = {ii % N[0], (ii / N[0]) % N[1], ii / (N[0] * N[1])};
      std::int64_t k[3], g[3];
      for (int d = 0; d < 3; ++d) {
        k[d] = spread::index_to_mode(idx[d], N[d], modeord);
        g[d] = spread::wrap_index(k[d], nf[d]);
      }
      const T p = fser[0][k[0] + N[0] / 2] * fser[1][k[1] + N[1] / 2] *
                  fser[2][k[2] + N[2] / 2];
      want[b * ntot + i] = full[b * total + g[0] + nf[0] * (g[1] + nf[1] * g[2])] * p;
    }

  // Pruned transform with the deconvolve sink.
  auto data = in;
  std::vector<std::complex<T>> got(nbatch * ntot, std::complex<T>(-7, -7));
  plan.exec_batch(data.data(), nbatch, total, sign, keep3(pc.N),
                  [&](const std::complex<T>* line, std::size_t pos, std::size_t b) {
                    spread::deconvolve_line(line, pos, got.data() + b * ntot,
                                            static_cast<int>(pc.N.size()), N, nf, fser,
                                            modeord);
                  });
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_bits(got[i], want[i])) << "entry " << i;

  // Raw kept entries, no scaling: the sink copies each line's kept outputs.
  const std::size_t L = pc.N.size() - 1;
  auto raw = in;
  std::vector<std::complex<T>> kept(nbatch * ntot);
  plan.exec_batch(raw.data(), nbatch, total, sign, keep3(pc.N),
                  [&](const std::complex<T>* line, std::size_t pos, std::size_t b) {
                    for (std::size_t j = 0; j < pc.N[L]; ++j)
                      kept[b * ntot + pos + (ntot / pc.N[L]) * j] =
                          line[spread::wrap_index(
                              spread::index_to_mode(static_cast<std::int64_t>(j), N[L], 1),
                              nf[L])];
                  });
  for (std::size_t b = 0; b < nbatch; ++b)
    for (std::size_t i = 0; i < ntot; ++i) {
      // Position i of the kept box, x-fastest, each axis in wrapped order.
      std::size_t rest = i, off = 0, stride = 1;
      for (std::size_t d = 0; d < pc.N.size(); ++d) {
        const auto j = static_cast<std::int64_t>(rest % pc.N[d]);
        rest /= pc.N[d];
        off += static_cast<std::size_t>(
                   spread::wrap_index(spread::index_to_mode(j, N[d], 1), nf[d])) *
               stride;
        stride *= pc.nf[d];
      }
      ASSERT_TRUE(same_bits(kept[b * ntot + i], full[b * total + off])) << "kept " << i;
    }
}

template <typename T>
void check_pruned_type2(const PruneCase& pc, int sign, int modeord) {
  ThreadPool pool(3);
  const std::size_t nbatch = 3;
  fft::FftNd<T> plan(pool, pc.nf);
  const std::size_t total = plan.total();
  const auto N = as3(pc.N), nf = as3(pc.nf);
  const std::size_t ntot = static_cast<std::size_t>(N[0] * N[1] * N[2]);
  const std::size_t rows = total / pc.nf[0];
  const auto fser = random_fser<T>(pc, 51 + pc.N[0]);
  const auto f = random_signal<T>(nbatch * ntot, 61 + pc.nf[0]);
  const int dim = static_cast<int>(pc.N.size());
  auto fill = [&](std::complex<T>* row, std::size_t line, std::size_t b) {
    return spread::amplify_fine_row(row, line, f.data() + b * ntot, dim, N, nf, fser,
                                    modeord);
  };

  // Reference: the amplified, zero-padded grid through the full transform.
  std::vector<std::complex<T>> want(nbatch * total);
  for (std::size_t b = 0; b < nbatch; ++b)
    for (std::size_t line = 0; line < rows; ++line) {
      std::complex<T>* row = want.data() + b * total + line * pc.nf[0];
      if (!fill(row, line, b)) std::fill(row, row + pc.nf[0], std::complex<T>(0, 0));
    }
  plan.exec_batch(want.data(), nbatch, total, sign);

  std::vector<std::complex<T>> got(nbatch * total, std::complex<T>(-7, -7));
  plan.exec_batch_fused(got.data(), nbatch, total, sign, keep3(pc.N), fill);
  ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(got[0])), 0);
}

}  // namespace

TEST(FftNd, PrunedType1MatchesFullOnKeptModesBitwise) {
  for (const auto& pc : prune_cases())
    for (int sign : {-1, +1})
      for (int modeord : {0, 1}) {
        SCOPED_TRACE(::testing::Message() << "dim " << pc.N.size() << " N0 " << pc.N[0]
                                          << " sign " << sign << " modeord " << modeord);
        check_pruned_type1<double>(pc, sign, modeord);
        check_pruned_type1<float>(pc, sign, modeord);
      }
}

TEST(FftNd, PrunedType2MatchesFullGridBitwise) {
  for (const auto& pc : prune_cases())
    for (int sign : {-1, +1})
      for (int modeord : {0, 1}) {
        SCOPED_TRACE(::testing::Message() << "dim " << pc.N.size() << " N0 " << pc.N[0]
                                          << " sign " << sign << " modeord " << modeord);
        check_pruned_type2<double>(pc, sign, modeord);
        check_pruned_type2<float>(pc, sign, modeord);
      }
}

TEST(FftNd, PrunedLineCounts) {
  ThreadPool pool(2);
  const std::size_t nbatch = 3;
  fft::FftNd<double> plan(pool, {24, 18, 30});
  const fft::FftNd<double>::Extents keep{12, 9, 24};
  std::vector<std::complex<double>> data(nbatch * plan.total());
  const std::size_t t1 = plan.exec_batch(data.data(), nbatch, plan.total(), -1, keep,
                                         [](const std::complex<double>*, std::size_t,
                                            std::size_t) {});
  EXPECT_EQ(t1, nbatch * (18 * 30 + 12 * 30 + 12 * 9));  // nf1 nf2 + N0 nf2 + N0 N1
  const std::size_t t2 = plan.exec_batch_fused(
      data.data(), nbatch, plan.total(), +1, keep,
      [](std::complex<double>* row, std::size_t, std::size_t) {
        std::fill(row, row + 24, std::complex<double>(1, 0));
        return true;
      });
  EXPECT_EQ(t2, nbatch * (9 * 24 + 24 * 24 + 24 * 18));  // N1 N2 + nf0 N2 + nf0 nf1
  EXPECT_EQ(plan.exec(data.data(), -1), 18u * 30 + 24u * 30 + 24u * 18);
}

TEST(FftNd, RejectsKeptExtentOutsideGrid) {
  ThreadPool pool(2);
  fft::FftNd<double> plan(pool, {8, 6});
  std::vector<std::complex<double>> data(plan.total());
  auto sink = [](const std::complex<double>*, std::size_t, std::size_t) {};
  EXPECT_THROW(plan.exec_batch(data.data(), 1, 0, -1, {9, 6, 1}, sink),
               std::invalid_argument);
  EXPECT_THROW(plan.exec_batch(data.data(), 1, 0, -1, {8, 0, 1}, sink),
               std::invalid_argument);
}

// The type-2 pruned passes skip lines that lie in the zero padding instead of
// transforming them; that leaves the same bits only because the mixed-radix
// transform of an all-zero line is +0 in every component (never -0).
template <typename T>
void check_zero_line_positive(std::size_t n) {
  fft::Fft1d<T> plan(n);
  std::vector<std::complex<T>> in(n, std::complex<T>(0, 0)), out(n, std::complex<T>(1, 1)),
      work(plan.workspace_size());
  const std::vector<std::complex<T>> zero(n, std::complex<T>(0, 0));
  for (int sign : {-1, +1}) {
    plan.exec(in.data(), 1, out.data(), sign, work.data());
    ASSERT_EQ(std::memcmp(out.data(), zero.data(), n * sizeof(zero[0])), 0)
        << "n " << n << " sign " << sign;
  }
}

TEST(Fft1d, ZeroLineMapsToPositiveZeroAt235Sizes) {
  // Every 2^a 3^b 5^c size up to 1000, plus the fine-grid sizes of the
  // benchmark plans (64^3 at sigma 2, the M-TIP 81^3 merge and 90^3 slicing
  // grids, a 512^2 grid).
  std::vector<std::size_t> sizes;
  for (std::size_t n = 2; n <= 1000; ++n)
    if (fft::is_235(n)) sizes.push_back(n);
  for (std::size_t n : {1024u, 1080u, 1200u}) sizes.push_back(n);
  for (std::size_t n : sizes) {
    check_zero_line_positive<double>(n);
    check_zero_line_positive<float>(n);
  }
}
