// Kernel Fourier-transform machinery for the deconvolution (correction) step.
//
// The correction factors of paper eq. (10)-(11) are, per dimension,
//   p_k = h / psihat(k) = (2/w) / phihat(alpha * k),  alpha = w*pi/n = w*h/2,
// where phihat(xi) = 2 * int_0^1 phi(z) cos(xi z) dz (phi is even). The
// integral is computed by Gauss-Legendre quadrature, as in FINUFFT. The
// quadrature is generic over the kernel functor so the comparator libraries
// (Gaussian, Kaiser-Bessel) reuse it for their own deconvolution.
#pragma once

#include <array>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numbers>
#include <vector>

#include "spreadinterp/grid.hpp"

namespace cf::spread {

/// Gauss-Legendre nodes/weights on [-1, 1] by Newton iteration on P_q.
/// Accurate to machine precision for q <= ~128.
inline void gauss_legendre(int q, std::vector<double>& nodes, std::vector<double>& weights) {
  nodes.resize(q);
  weights.resize(q);
  for (int i = 0; i < q; ++i) {
    // Chebyshev-like initial guess for the i-th root of P_q.
    double x = std::cos(std::numbers::pi * (i + 0.75) / (q + 0.5));
    double dp = 0;
    for (int iter = 0; iter < 100; ++iter) {
      // Evaluate P_q(x) and P'_q(x) by the three-term recurrence.
      double p0 = 1.0, p1 = x;
      for (int k = 2; k <= q; ++k) {
        const double p2 = ((2 * k - 1) * x * p1 - (k - 1) * p0) / k;
        p0 = p1;
        p1 = p2;
      }
      dp = q * (x * p1 - p0) / (x * x - 1.0);
      const double dx = p1 / dp;
      x -= dx;
      if (std::abs(dx) < 1e-15) break;
    }
    nodes[i] = x;
    weights[i] = 2.0 / ((1.0 - x * x) * dp * dp);
  }
}

/// phihat(xi) = 2 * int_0^1 kernel(z) cos(xi z) dz for a batch of xi values.
/// `kernel` is any even function supported on [-1, 1]; q is the quadrature
/// order (>= ~2+2w gives machine-precision for the ES kernel).
inline std::vector<double> kernel_ft(const std::function<double(double)>& kernel, int q,
                                     const std::vector<double>& xis) {
  std::vector<double> nodes, weights;
  gauss_legendre(q, nodes, weights);
  // Map to [0, 1]: z = (x + 1) / 2, dz = dx / 2.
  std::vector<double> z(q), f(q);
  for (int i = 0; i < q; ++i) {
    z[i] = 0.5 * (nodes[i] + 1.0);
    f[i] = kernel(z[i]) * weights[i];  // weight folded in; 2 * (1/2) = 1 overall
  }
  std::vector<double> out(xis.size());
  for (std::size_t j = 0; j < xis.size(); ++j) {
    double acc = 0;
    for (int i = 0; i < q; ++i) acc += f[i] * std::cos(xis[j] * z[i]);
    out[j] = acc;  // equals 2*int_0^1 kernel(z) cos(xi z) dz
  }
  return out;
}

/// Per-dimension correction factors p_k = (h/alpha) / phihat(alpha*k) for the
/// N output modes k = -N/2 .. N/2-1 (returned indexed by i = k + N/2).
/// `nf` is the fine-grid size, `w` the kernel width; h/alpha = 2/w.
inline std::vector<double> correction_factors(std::size_t N, std::size_t nf, int w,
                                              const std::function<double(double)>& kernel) {
  const double alpha = double(w) * std::numbers::pi / double(nf);
  const std::size_t half = N / 2;
  // phihat is even: evaluate on |k| = 0 .. max(N/2, N - N/2 - 1).
  const std::size_t kmax = (N + 1) / 2;
  std::vector<double> xis(kmax + 1);
  for (std::size_t k = 0; k <= kmax; ++k) xis[k] = alpha * double(k);
  const int q = 2 + 2 * w + 8;
  const std::vector<double> ph = kernel_ft(kernel, q, xis);
  std::vector<double> p(N);
  for (std::size_t i = 0; i < N; ++i) {
    const std::int64_t k = static_cast<std::int64_t>(i) - static_cast<std::int64_t>(half);
    const std::size_t a = static_cast<std::size_t>(k < 0 ? -k : k);
    p[i] = (2.0 / double(w)) / ph[a];
  }
  return p;
}

/// Type-2 step 1 (paper eq. (11)) as a row producer for the fused
/// amplify + first-axis FFT (FftNd::exec_batch_fused), shared by the device
/// and CPU plans: fills the x-row of the fine grid at `line` = (g1, g2) with
/// the pre-corrected, zero-padded copy of its mode row, or returns false when
/// the row lies entirely in the zero padding (no retained mode maps to
/// g1/g2). `fb` is one batch plane's mode grid (length N[0]*N[1]*N[2], the
/// caller applies the batch offset); `fser[d]` are the per-dim correction
/// factors indexed by k + N[d]/2 (unused dims hold a single 1).
template <typename T>
inline bool amplify_fine_row(std::complex<T>* row, std::size_t line,
                             const std::complex<T>* fb, int dim,
                             const std::array<std::int64_t, 3>& N,
                             const std::array<std::int64_t, 3>& nf,
                             const std::array<std::vector<T>, 3>& fser, int modeord) {
  const std::int64_t g1 = dim >= 2 ? static_cast<std::int64_t>(line) % nf[1] : 0;
  const std::int64_t g2 = dim >= 3 ? static_cast<std::int64_t>(line) / nf[1] : 0;
  const std::int64_t i1 = grid_to_index(g1, N[1], nf[1], modeord);
  if (i1 < 0) return false;
  const std::int64_t i2 = grid_to_index(g2, N[2], nf[2], modeord);
  if (i2 < 0) return false;
  const std::int64_t k1 = index_to_mode(i1, N[1], modeord);
  const std::int64_t k2 = index_to_mode(i2, N[2], modeord);
  const T p12 = fser[1][k1 + N[1] / 2] * fser[2][k2 + N[2] / 2];
  const T* p0 = fser[0].data();
  const std::complex<T>* frow = fb + static_cast<std::size_t>((i2 * N[1] + i1) * N[0]);
  for (std::int64_t g = 0; g < nf[0]; ++g) row[g] = std::complex<T>(0, 0);
  for (std::int64_t i0 = 0; i0 < N[0]; ++i0) {
    const std::int64_t k0 = index_to_mode(i0, N[0], modeord);
    row[wrap_index(k0, nf[0])] = frow[i0] * (p0[k0 + N[0] / 2] * p12);
  }
  return true;
}

/// Type-1 step 3 (paper eq. (10)) as the line sink of the pruned type-1 FFT
/// (FftNd::exec_batch with keep = N), shared by the device and CPU plans:
/// `line` is one transformed fine-grid line along the last axis L = dim - 1,
/// at position `pos` of the kept box of the axes before L (x-fastest over the
/// N[d] retained modes of each, in wrapped order: 0, 1, .., then -N/2, ..,
/// -1). Writes the line's N[L] retained modes, scaled by p0 * p1 * p2 in that
/// order, into `fb`, one batch plane's mode grid (length N[0]*N[1]*N[2]).
/// `fser` as in amplify_fine_row.
template <typename T>
inline void deconvolve_line(const std::complex<T>* line, std::size_t pos,
                            std::complex<T>* fb, int dim,
                            const std::array<std::int64_t, 3>& N,
                            const std::array<std::int64_t, 3>& nf,
                            const std::array<std::vector<T>, 3>& fser, int modeord) {
  std::int64_t g[3] = {0, 0, 0}, i[3] = {0, 0, 0}, k[3] = {0, 0, 0};
  auto place = [&](int d, std::int64_t j) {
    g[d] = j < N[d] - N[d] / 2 ? j : nf[d] - N[d] + j;
    i[d] = grid_to_index(g[d], N[d], nf[d], modeord);
    k[d] = index_to_mode(i[d], N[d], modeord);
  };
  const int L = dim - 1;
  for (int d = 0; d < L; ++d) {
    place(d, static_cast<std::int64_t>(pos % static_cast<std::size_t>(N[d])));
    pos /= static_cast<std::size_t>(N[d]);
  }
  for (std::int64_t j = 0; j < N[L]; ++j) {
    place(L, j);
    const T p = fser[0][k[0] + N[0] / 2] * fser[1][k[1] + N[1] / 2] *
                fser[2][k[2] + N[2] / 2];
    fb[i[0] + N[0] * (i[1] + N[1] * i[2])] = line[g[L]] * p;
  }
}

}  // namespace cf::spread
