// Interpolation (paper Sec. III-B): the type-2 gather of fine-grid values at
// the nonuniform points, plus the SM-staged variant kept to measure the
// paper's claim that shared-memory staging buys little for reads. The
// batch-strided kernels are the only implementation of the GM/GM-sort
// gather; the single-vector entry point is their B = 1 instantiation.
#include "spreadinterp/spread.hpp"
#include "spreadinterp/spread_impl.hpp"

namespace cf::spread {

namespace {

using namespace detail;

template <int DIM, int W, typename T>
void interp_batch_fast(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
                       const NuPoints<T>& pts, const std::complex<T>* fw,
                       std::complex<T>* c, const std::uint32_t* order, int B,
                       std::size_t cstride, std::size_t fwstride) {
  // Interior-first partition: two launches with the wrap decision constant-
  // folded (see spread_gm.cpp); per-point outputs are order-independent, so
  // the partition is numerically transparent here.
  auto run = [&](std::size_t lo, std::size_t hi, auto nowrap) {
    launch_point_range(dev, lo, hi, 256, [&](std::size_t jj, vgpu::BlockCtx&) {
    const std::size_t j = order ? order[jj] : jj;
    if (jj + kPointPrefetch < pts.M) {
      const std::size_t jn =
          order ? order[jj + kPointPrefetch] : jj + kPointPrefetch;
      prefetch_point<DIM>(pts, static_cast<const std::complex<T>*>(nullptr), jn);
      for (int b = 0; b < B; ++b) CF_PREFETCH(&c[b * cstride + jn], 1);
    }
    T px[3];
    load_point<DIM>(pts, j, px);
    PointTabF<DIM, W, T> tab;
    tab.compute(grid, kp, px, decltype(nowrap)::value);
    for (int b = 0; b < B; ++b) {
      const std::complex<T>* fwb = fw + b * fwstride;
      // Accumulate per-x-tap lanes across rows/planes (independent FMA lanes,
      // no serial reduction chain), then contract against the x weights once.
      T accre[W] = {}, accim[W] = {};
      if constexpr (DIM == 1) {
        for (int i0 = 0; i0 < W; ++i0) {
          const std::complex<T> g = fwb[tab.idx[0][i0]];
          accre[i0] = g.real();
          accim[i0] = g.imag();
        }
      } else if constexpr (DIM == 2) {
        for (int i1 = 0; i1 < W; ++i1) {
          const std::int64_t row = tab.idx[1][i1] * grid.nf[0];
          const T s = tab.vals[1][i1];
          for (int i0 = 0; i0 < W; ++i0) {
            const std::complex<T> g = fwb[row + tab.idx[0][i0]];
            accre[i0] += g.real() * s;
            accim[i0] += g.imag() * s;
          }
        }
      } else {
        for (int i2 = 0; i2 < W; ++i2) {
          const std::int64_t plane = tab.idx[2][i2] * grid.nf[1];
          for (int i1 = 0; i1 < W; ++i1) {
            const std::int64_t row = (plane + tab.idx[1][i1]) * grid.nf[0];
            const T s = tab.vals[2][i2] * tab.vals[1][i1];
            for (int i0 = 0; i0 < W; ++i0) {
              const std::complex<T> g = fwb[row + tab.idx[0][i0]];
              accre[i0] += g.real() * s;
              accim[i0] += g.imag() * s;
            }
          }
        }
      }
      T re(0), im(0);
      for (int i0 = 0; i0 < W; ++i0) re += accre[i0] * tab.vals[0][i0];
      for (int i0 = 0; i0 < W; ++i0) im += accim[i0] * tab.vals[0][i0];
      c[b * cstride + j] = std::complex<T>(re, im);
    }
    });
  };
  const std::size_t S = std::min(pts.n_nowrap, pts.M);
  run(0, S, std::true_type{});
  run(S, pts.M, std::false_type{});
}

template <int DIM, typename T>
void interp_batch_impl(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
                       const NuPoints<T>& pts, const std::complex<T>* fw,
                       std::complex<T>* c, const std::uint32_t* order, int B,
                       std::size_t cstride, std::size_t fwstride) {
  const int w = kp.w;
  auto run = [&](std::size_t lo, std::size_t hi, auto nowrap) {
    launch_point_range(dev, lo, hi, 256, [&, w](std::size_t jj, vgpu::BlockCtx&) {
    const std::size_t j = order ? order[jj] : jj;
    T px[3];
    load_point<DIM>(pts, j, px);
    PointTab<DIM, T> tab;
    tab.compute(grid, kp, px, decltype(nowrap)::value);
    for (int b = 0; b < B; ++b) {
      const std::complex<T>* fwb = fw + b * fwstride;
      std::complex<T> acc(0, 0);
      if constexpr (DIM == 1) {
        for (int i0 = 0; i0 < w; ++i0) acc += fwb[tab.idx[0][i0]] * tab.vals[0][i0];
      } else if constexpr (DIM == 2) {
        for (int i1 = 0; i1 < w; ++i1) {
          const std::int64_t row = tab.idx[1][i1] * grid.nf[0];
          std::complex<T> rowacc(0, 0);
          for (int i0 = 0; i0 < w; ++i0)
            rowacc += fwb[row + tab.idx[0][i0]] * tab.vals[0][i0];
          acc += rowacc * tab.vals[1][i1];
        }
      } else {
        for (int i2 = 0; i2 < w; ++i2) {
          const std::int64_t plane = tab.idx[2][i2] * grid.nf[1];
          std::complex<T> planeacc(0, 0);
          for (int i1 = 0; i1 < w; ++i1) {
            const std::int64_t row = (plane + tab.idx[1][i1]) * grid.nf[0];
            std::complex<T> rowacc(0, 0);
            for (int i0 = 0; i0 < w; ++i0)
              rowacc += fwb[row + tab.idx[0][i0]] * tab.vals[0][i0];
            planeacc += rowacc * tab.vals[1][i1];
          }
          acc += planeacc * tab.vals[2][i2];
        }
      }
      c[b * cstride + j] = acc;
    }
    });
  };
  const std::size_t S = std::min(pts.n_nowrap, pts.M);
  run(0, S, std::true_type{});
  run(S, pts.M, std::false_type{});
}

template <int DIM, typename T>
void interp_batch_any(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
                      const NuPoints<T>& pts, const std::complex<T>* fw,
                      std::complex<T>* c, const std::uint32_t* order, int B,
                      std::size_t cstride, std::size_t fwstride) {
  if (kp.fast && dispatch_width(kp.w, [&](auto W) {
        interp_batch_fast<DIM, decltype(W)::value>(dev, grid, kp, pts, fw, c, order, B,
                                                   cstride, fwstride);
      }))
    return;
  interp_batch_impl<DIM>(dev, grid, kp, pts, fw, c, order, B, cstride, fwstride);
}

// ---- SM-staged interpolation ------------------------------------------------

template <int DIM, typename T>
void interp_sm_impl(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
                    const KernelParams<T>& kp, const NuPoints<T>& pts,
                    const std::complex<T>* fw, std::complex<T>* c,
                    const DeviceSort& sort, const SubprobSetup& subs,
                    std::uint32_t msub) {
  const int w = kp.w;
  const int pad = (w + 1) / 2;
  std::int64_t p[3] = {1, 1, 1};
  for (int d = 0; d < DIM; ++d) p[d] = bins.m[d] + 2 * pad;
  const std::size_t padded = static_cast<std::size_t>(p[0] * p[1] * p[2]);

  dev.launch(subs.nsubprob, 128, [&, w, pad, padded](vgpu::BlockCtx& blk) {
    const std::uint32_t k = blk.block_id;
    const std::uint32_t b = subs.subprob_bin[k];
    const std::uint32_t off = subs.subprob_offset[k];
    const std::uint32_t cnt = std::min(msub, sort.bin_counts[b] - off);
    std::int64_t delta[3];
    subprob_delta(bins, b, DIM, pad, delta);

    // Stage the padded bin of the fine grid into shared memory.
    auto sm = blk.shared<std::complex<T>>(padded);
    blk.for_each_thread([&](unsigned t) {
      for (std::size_t i = t; i < padded; i += blk.nthreads) {
        std::int64_t s[3];
        std::int64_t r = static_cast<std::int64_t>(i);
        s[0] = r % p[0];
        r /= p[0];
        s[1] = r % p[1];
        s[2] = r / p[1];
        std::int64_t g[3] = {0, 0, 0};
        for (int d = 0; d < DIM; ++d) g[d] = wrap_index(delta[d] + s[d], grid.nf[d]);
        sm[i] = fw[g[0] + grid.nf[0] * (g[1] + grid.nf[1] * g[2])];
      }
    });
    blk.sync_threads();

    // Gather each point from the staged copy (local coords, no wrap).
    const std::uint32_t start = sort.bin_start[b] + off;
    blk.for_each_thread([&](unsigned t) {
      for (std::uint32_t i = t; i < cnt; i += blk.nthreads) {
        const std::size_t j = sort.order[start + i];
        T px[3];
        load_point<DIM>(pts, j, px);
        T vals[DIM][kMaxWidth];
        std::int64_t li0[DIM];
        for (int d = 0; d < DIM; ++d)
          li0[d] = es_values(kp, px[d], vals[d]) - delta[d];
        std::complex<T> acc(0, 0);
        if constexpr (DIM == 1) {
          for (int i0 = 0; i0 < w; ++i0) acc += sm[li0[0] + i0] * vals[0][i0];
        } else if constexpr (DIM == 2) {
          for (int i1 = 0; i1 < w; ++i1) {
            const std::int64_t row = (li0[1] + i1) * p[0];
            std::complex<T> rowacc(0, 0);
            for (int i0 = 0; i0 < w; ++i0) rowacc += sm[row + li0[0] + i0] * vals[0][i0];
            acc += rowacc * vals[1][i1];
          }
        } else {
          for (int i2 = 0; i2 < w; ++i2) {
            std::complex<T> planeacc(0, 0);
            for (int i1 = 0; i1 < w; ++i1) {
              const std::int64_t row = ((li0[2] + i2) * p[1] + li0[1] + i1) * p[0];
              std::complex<T> rowacc(0, 0);
              for (int i0 = 0; i0 < w; ++i0)
                rowacc += sm[row + li0[0] + i0] * vals[0][i0];
              planeacc += rowacc * vals[1][i1];
            }
            acc += planeacc * vals[2][i2];
          }
        }
        c[j] = acc;
      }
    });
  });
}

template <int DIM, int W, typename T>
void interp_sm_fast(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
                    const KernelParams<T>& kp, const NuPoints<T>& pts,
                    const std::complex<T>* fw, std::complex<T>* c,
                    const DeviceSort& sort, const SubprobSetup& subs,
                    std::uint32_t msub) {
  constexpr int pad = (W + 1) / 2;
  constexpr int WP = pad_width(W);
  constexpr std::size_t slack = WP - W;
  std::int64_t p[3] = {1, 1, 1};
  for (int d = 0; d < DIM; ++d) p[d] = bins.m[d] + 2 * pad;
  const std::size_t padded = static_cast<std::size_t>(p[0] * p[1] * p[2]);

  dev.launch(subs.nsubprob, 128, [&, padded](vgpu::BlockCtx& blk) {
    const std::uint32_t k = blk.block_id;
    const std::uint32_t b = subs.subprob_bin[k];
    const std::uint32_t off = subs.subprob_offset[k];
    const std::uint32_t cnt = std::min(msub, sort.bin_counts[b] - off);
    std::int64_t delta[3];
    subprob_delta(bins, b, DIM, pad, delta);

    // Stage the padded bin of fw deinterleaved, so gathers are contiguous
    // real/imag FMA streams; the copy-in itself runs over contiguous
    // wrap-resolved row segments. The slack lanes after the last row are
    // zeroed because the padded gathers below read (and zero-weight) them.
    auto smre = blk.shared<T>(padded + slack);
    auto smim = blk.shared<T>(padded + slack);
    for (std::size_t i = padded; i < padded + slack; ++i) smre[i] = smim[i] = T(0);
    const std::size_t nrows = padded / static_cast<std::size_t>(p[0]);
    blk.for_each_thread([&](unsigned t) {
      const auto [lo, hi] = thread_chunk(nrows, t, blk.nthreads);
      for_padded_rows<DIM, T>(grid, p, p, delta, lo, hi,
                              [&](std::size_t dst, std::int64_t src, std::int64_t run) {
                                for (std::int64_t i = 0; i < run; ++i) {
                                  const std::complex<T> v = fw[src + i];
                                  smre[dst + i] = v.real();
                                  smim[dst + i] = v.imag();
                                }
                              });
    });
    blk.sync_threads();

    const std::uint32_t start = sort.bin_start[b] + off;
    blk.for_each_thread([&](unsigned t) {
      const auto [lo, hi] = thread_chunk(cnt, t, blk.nthreads);
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t j = sort.order[start + i];
        if (i + kPointPrefetch < cnt)
          prefetch_point<DIM>(pts, static_cast<const std::complex<T>*>(nullptr),
                              sort.order[start + i + kPointPrefetch]);
        T px[3];
        load_point<DIM>(pts, j, px);
        T v0[WP], v1[DIM > 1 ? W : 1], v2[DIM > 2 ? W : 1];
        std::int64_t li0[DIM];
        li0[0] = es_values_padded<W>(kp, px[0], v0) - delta[0];
        if constexpr (DIM > 1) li0[1] = es_values_fixed<W>(kp, px[1], v1) - delta[1];
        if constexpr (DIM > 2) li0[2] = es_values_fixed<W>(kp, px[2], v2) - delta[2];
        // Lane-wise accumulation over rows (vector FMA streams on the staged
        // contiguous copies), then one contraction against the x weights.
        T accre[WP] = {}, accim[WP] = {};
        if constexpr (DIM == 1) {
          const T* CF_RESTRICT rre = &smre[li0[0]];
          const T* CF_RESTRICT rim = &smim[li0[0]];
          for (int i0 = 0; i0 < WP; ++i0) accre[i0] = rre[i0];
          for (int i0 = 0; i0 < WP; ++i0) accim[i0] = rim[i0];
        } else if constexpr (DIM == 2) {
          for (int i1 = 0; i1 < W; ++i1) {
            const std::int64_t row = (li0[1] + i1) * p[0] + li0[0];
            const T* CF_RESTRICT rre = &smre[row];
            const T* CF_RESTRICT rim = &smim[row];
            const T s = v1[i1];
            for (int i0 = 0; i0 < WP; ++i0) accre[i0] += rre[i0] * s;
            for (int i0 = 0; i0 < WP; ++i0) accim[i0] += rim[i0] * s;
          }
        } else {
          for (int i2 = 0; i2 < W; ++i2) {
            const std::int64_t plane = (li0[2] + i2) * p[1];
            for (int i1 = 0; i1 < W; ++i1) {
              const std::int64_t row = (plane + li0[1] + i1) * p[0] + li0[0];
              const T* CF_RESTRICT rre = &smre[row];
              const T* CF_RESTRICT rim = &smim[row];
              const T s = v2[i2] * v1[i1];
              for (int i0 = 0; i0 < WP; ++i0) accre[i0] += rre[i0] * s;
              for (int i0 = 0; i0 < WP; ++i0) accim[i0] += rim[i0] * s;
            }
          }
        }
        T re(0), im(0);
        for (int i0 = 0; i0 < WP; ++i0) re += accre[i0] * v0[i0];
        for (int i0 = 0; i0 < WP; ++i0) im += accim[i0] * v0[i0];
        c[j] = std::complex<T>(re, im);
      }
    });
  });
}

template <int DIM, typename T>
void interp_sm_any(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
                   const KernelParams<T>& kp, const NuPoints<T>& pts,
                   const std::complex<T>* fw, std::complex<T>* c, const DeviceSort& sort,
                   const SubprobSetup& subs, std::uint32_t msub) {
  if (kp.fast && sm_scratch_fits<T>(dev, grid, bins, kp.w) &&
      dispatch_width(kp.w, [&](auto W) {
        interp_sm_fast<DIM, decltype(W)::value>(dev, grid, bins, kp, pts, fw, c, sort,
                                                subs, msub);
      }))
    return;
  interp_sm_impl<DIM>(dev, grid, bins, kp, pts, fw, c, sort, subs, msub);
}

}  // namespace

template <typename T>
void interp_batch(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
                  const NuPoints<T>& pts, const std::complex<T>* fw, std::complex<T>* c,
                  const std::uint32_t* order, int B, std::size_t cstride,
                  std::size_t fwstride) {
  B = std::max(1, B);
  detail::dispatch_dim(
      grid.dim,
      [&] { interp_batch_any<1>(dev, grid, kp, pts, fw, c, order, B, cstride, fwstride); },
      [&] { interp_batch_any<2>(dev, grid, kp, pts, fw, c, order, B, cstride, fwstride); },
      [&] { interp_batch_any<3>(dev, grid, kp, pts, fw, c, order, B, cstride, fwstride); });
}

template <typename T>
void interp(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
            const NuPoints<T>& pts, const std::complex<T>* fw, std::complex<T>* c,
            const std::uint32_t* order) {
  interp_batch<T>(dev, grid, kp, pts, fw, c, order, 1, 0, 0);
}

template <typename T>
void interp_sm(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
               const KernelParams<T>& kp, const NuPoints<T>& pts,
               const std::complex<T>* fw, std::complex<T>* c, const DeviceSort& sort,
               const SubprobSetup& subs, std::uint32_t msub) {
  if (!sm_fits<T>(dev, grid, bins, kp.w))
    throw std::runtime_error("interp_sm: padded bin exceeds shared memory");
  detail::dispatch_dim(
      grid.dim,
      [&] { interp_sm_any<1>(dev, grid, bins, kp, pts, fw, c, sort, subs, msub); },
      [&] { interp_sm_any<2>(dev, grid, bins, kp, pts, fw, c, sort, subs, msub); },
      [&] { interp_sm_any<3>(dev, grid, bins, kp, pts, fw, c, sort, subs, msub); });
}

#define CF_INSTANTIATE(T)                                                                \
  template void interp<T>(vgpu::Device&, const GridSpec&, const KernelParams<T>&,       \
                          const NuPoints<T>&, const std::complex<T>*, std::complex<T>*, \
                          const std::uint32_t*);                                        \
  template void interp_batch<T>(vgpu::Device&, const GridSpec&, const KernelParams<T>&, \
                                const NuPoints<T>&, const std::complex<T>*,             \
                                std::complex<T>*, const std::uint32_t*, int,            \
                                std::size_t, std::size_t);                              \
  template void interp_sm<T>(vgpu::Device&, const GridSpec&, const BinSpec&,            \
                             const KernelParams<T>&, const NuPoints<T>&,                \
                             const std::complex<T>*, std::complex<T>*,                  \
                             const DeviceSort&, const SubprobSetup&, std::uint32_t);

CF_INSTANTIATE(float)
CF_INSTANTIATE(double)
#undef CF_INSTANTIATE

}  // namespace cf::spread
