// Batched multi-dimensional FFT execution over a thread pool.
//
// FftNd plays the role cuFFT plays in the paper: a planned, in-place,
// unnormalized d-dimensional complex transform executed with device
// parallelism (the vgpu Device hands its pool to this class; the CPU
// comparator library hands its host pool).
//
// Pruned passes. A NUFFT touches only the wrapped central block of its fine
// grid: on axis d the keep[d] indices [0, keep - keep/2) and
// [n - keep/2, n) (the retained modes; spread::grid_to_index decides the same
// membership). Every axis pass enumerates, arithmetically, only the 1D lines
// whose results reach that block:
//  - type 1 (exec_batch with a sink): axis a transforms the lines whose
//    indices on the axes before a are kept, and the last axis hands each
//    transformed line to the caller instead of writing it back. In 3D that is
//    nf1*nf2 + N0*nf2 + N0*N1 lines per plane instead of 3 full passes.
//  - type 2 (exec_batch_fused): axis a transforms the lines whose indices on
//    the axes after a are kept. The others lie in the zero padding; the
//    mixed-radix DFT of a zero line is +0, so skipping them leaves the same
//    bits.
// A line that is transformed sees the same input, the same 1D plan and the
// same axis order as in the full transform, so every output that is read is
// bitwise-identical to it. The full transform is the case keep == dims.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <complex>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "fft/fft.hpp"

namespace cf::fft {

/// Planned d-dimensional (d = 1..3) in-place complex FFT; dims[0] is the
/// fastest-varying (contiguous) axis, matching the NUFFT fine-grid layout.
template <typename T>
class FftNd {
 public:
  using cplx = std::complex<T>;
  using Extents = std::array<std::size_t, 3>;  ///< kept indices per axis

  FftNd(ThreadPool& pool, std::vector<std::size_t> dims)
      : pool_(&pool), dims_(std::move(dims)) {
    if (dims_.empty() || dims_.size() > 3)
      throw std::invalid_argument("FftNd: 1..3 dims supported");
    total_ = 1;
    for (std::size_t d : dims_) {
      if (d == 0) throw std::invalid_argument("FftNd: zero dim");
      total_ *= d;
    }
    std::size_t nmax = 0, wsmax = 0;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      plans_.emplace_back(dims_[d]);
      full_[d] = dims_[d];
      nmax = std::max(nmax, dims_[d]);
      wsmax = std::max(wsmax, plans_.back().workspace_size());
    }
    // Per-worker scratch: gather line + output line + FFT workspace.
    scratch_.resize(pool_->size());
    for (auto& s : scratch_) s.resize(2 * nmax + wsmax);
    nmax_ = nmax;
  }

  std::size_t total() const { return total_; }
  const std::vector<std::size_t>& dims() const { return dims_; }

  /// In-place full transform of `data` (length total()); sign = -1 forward,
  /// +1 backward, both unnormalized. Returns the 1D transforms run.
  std::size_t exec(cplx* data, int sign) { return exec_batch(data, 1, 0, sign); }

  /// Batched full in-place transform: `nbatch` grids at data + b*batch_stride
  /// (b = 0..nbatch-1), each of length total(). Planes are transformed
  /// PLANE-major (all axes of grid b before grid b+1): every axis pass then
  /// rereads the one plane the previous pass just wrote instead of streaming
  /// the whole nbatch-plane stack per axis. Each per-axis launch spreads its
  /// lines over the pool; the per-stage twiddle tables are shared across
  /// planes either way.
  std::size_t exec_batch(cplx* data, std::size_t nbatch, std::size_t batch_stride,
                         int sign) {
    std::size_t ran = 0;
    for (std::size_t b = 0; b < nbatch; ++b)
      ran += exec_plane(data + b * batch_stride, sign, full_, write_back);
    return ran;
  }

  /// Type-1 pruned transform: like the full exec_batch, but only the lines
  /// that reach the kept block `keep` (1 <= keep[d] <= dims()[d]) run, and
  /// the last axis's transformed lines go to `sink(line, pos, b)` instead of
  /// back into `data`. `line` holds all dims().back() outputs of one line;
  /// `pos` is the line's place in the kept box of the other axes (x-fastest
  /// over the keep[d] kept indices, each in wrapped order: the run from 0,
  /// then the run ending at dims()[d] - 1). `sink` may be called concurrently
  /// from pool workers, and `data` is left holding intermediate values.
  template <typename Sink>
  std::size_t exec_batch(cplx* data, std::size_t nbatch, std::size_t batch_stride,
                         int sign, const Extents& keep, Sink&& sink) {
    check_keep(keep);
    std::size_t ran = 0;
    for (std::size_t b = 0; b < nbatch; ++b)
      ran += exec_plane(data + b * batch_stride, sign, keep,
                        [&](const cplx* out, cplx*, std::size_t, std::size_t,
                            std::size_t pos, std::size_t) { sink(out, pos, b); });
    return ran;
  }

  /// Type-2 pruned transform with a fused first pass: the first (contiguous)
  /// axis's input rows are produced by `fill(row, line, b)` instead of read
  /// from `data` (`line` is the row's index among the total()/dims()[0] rows
  /// of plane b). Rows outside the kept block `keep` are zeroed without
  /// calling `fill`; `fill` must either populate all dims()[0] entries of
  /// `row` and return true, or return false to declare the row zero. Later
  /// axes skip the lines that lie wholly in the zeroed rows. `data` need not
  /// be initialized beforehand; `fill` may be called concurrently from pool
  /// workers. Axes run in order over the whole batch.
  template <typename RowFill>
  std::size_t exec_batch_fused(cplx* data, std::size_t nbatch, std::size_t batch_stride,
                               int sign, const Extents& keep, RowFill&& fill) {
    check_keep(keep);
    std::size_t ran = pass(
        data, nbatch, batch_stride, 0, sign, full_,
        [&](cplx* row, cplx* base, std::size_t, std::size_t n, std::size_t line,
            std::size_t b) -> const cplx* {
          if (row_kept(keep, line) && fill(row, line, b)) return row;
          std::memset(static_cast<void*>(base), 0, n * sizeof(cplx));
          return nullptr;
        },
        write_back);
    for (std::size_t axis = 1; axis < dims_.size(); ++axis) {
      Extents ext = full_;
      for (std::size_t d = axis + 1; d < dims_.size(); ++d) ext[d] = keep[d];
      ran += pass(data, nbatch, batch_stride, axis, sign, ext, gather, write_back);
    }
    return ran;
  }

 private:
  /// Line I/O of one pass. A load is called as load(buf, base, stride, n,
  /// line, b) and returns the line's n inputs (read at base[j * stride], or
  /// written into the scratch `buf`), or nullptr for a line it has zeroed in
  /// place, which is then not transformed. A store is called as store(out,
  /// base, stride, n, line, b) with the n transformed values.
  static const cplx* gather(cplx* buf, cplx* base, std::size_t stride, std::size_t n,
                            std::size_t, std::size_t) {
    if (stride == 1) return base;
    for (std::size_t j = 0; j < n; ++j) buf[j] = base[j * stride];
    return buf;
  }
  static void write_back(const cplx* out, cplx* base, std::size_t stride, std::size_t n,
                         std::size_t, std::size_t) {
    if (stride == 1) {
      std::memcpy(static_cast<void*>(base), out, n * sizeof(cplx));
      return;
    }
    for (std::size_t j = 0; j < n; ++j) base[j * stride] = out[j];
  }

  /// Grid index of the j-th of `keep` kept indices on an axis of length n.
  static std::size_t kept_index(std::size_t j, std::size_t keep, std::size_t n) {
    return j < keep - keep / 2 ? j : n - keep + j;
  }

  void check_keep(const Extents& keep) const {
    for (std::size_t d = 0; d < dims_.size(); ++d)
      if (keep[d] < 1 || keep[d] > dims_[d])
        throw std::invalid_argument("FftNd: kept extent must be in [1, dim]");
  }

  /// Whether row `line` (an axis-0 line of the full grid) lies in the kept
  /// block on every other axis.
  bool row_kept(const Extents& keep, std::size_t line) const {
    for (std::size_t d = 1; d < dims_.size(); ++d) {
      const std::size_t g = line % dims_[d];
      line /= dims_[d];
      if (g >= keep[d] - keep[d] / 2 && g < dims_[d] - keep[d] / 2) return false;
    }
    return true;
  }

  /// All axes of one plane, type-1 pruned to `keep`: axis a visits the kept
  /// indices of the axes before it and every index of the axes after it; the
  /// last axis's lines go to `last` (a store) instead of back into the grid.
  template <typename Store>
  std::size_t exec_plane(cplx* plane, int sign, const Extents& keep, Store&& last) {
    const std::size_t naxes = dims_.size();
    std::size_t ran = 0;
    Extents ext = full_;
    for (std::size_t axis = 0; axis + 1 < naxes; ++axis) {
      ran += pass(plane, 1, 0, axis, sign, ext, gather, write_back);
      ext[axis] = keep[axis];
    }
    return ran + pass(plane, 1, 0, naxes - 1, sign, ext, gather, last);
  }

  /// One axis pass over `nbatch` planes: transforms the lines at the ext[d]
  /// kept indices of every other axis d (ext[d] == dims()[d] visits all),
  /// enumerated x-fastest then by plane. Returns the transforms run.
  template <typename Load, typename Store>
  std::size_t pass(cplx* data, std::size_t nbatch, std::size_t batch_stride,
                   std::size_t axis, int sign, const Extents& ext, Load&& load,
                   Store&& store) {
    const std::size_t n = dims_[axis];
    std::size_t stride = 1;
    for (std::size_t a = 0; a < axis; ++a) stride *= dims_[a];
    std::size_t nlines = 1;
    for (std::size_t d = 0; d < dims_.size(); ++d)
      if (d != axis) nlines *= ext[d];
    const Fft1d<T>& plan = plans_[axis];
    std::atomic<std::size_t> ran{0};
    auto body = [&](std::size_t lo, std::size_t hi, std::size_t wid) {
      auto& s = scratch_[wid];
      cplx* buf = s.data();
      cplx* out = s.data() + nmax_;
      cplx* work = s.data() + 2 * nmax_;
      std::size_t cnt = 0;
      for (std::size_t idx = lo; idx < hi; ++idx) {
        const std::size_t line = idx % nlines;
        const std::size_t b = idx / nlines;
        // Line offset in its plane: the kept index of every other axis.
        std::size_t off = 0, st = 1, rest = line;
        for (std::size_t d = 0; d < dims_.size(); ++d) {
          if (d != axis) {
            off += kept_index(rest % ext[d], ext[d], dims_[d]) * st;
            rest /= ext[d];
          }
          st *= dims_[d];
        }
        cplx* base = data + b * batch_stride + off;
        const cplx* in = load(buf, base, stride, n, line, b);
        if (!in) continue;
        plan.exec(in, 1, out, sign, work);
        store(out, base, stride, n, line, b);
        ++cnt;
      }
      ran.fetch_add(cnt, std::memory_order_relaxed);
    };
    pool_->parallel_chunks(0, nbatch * nlines, pool_->size() * 4, body);
    return ran.load(std::memory_order_relaxed);
  }

  ThreadPool* pool_;
  std::vector<std::size_t> dims_;
  Extents full_{1, 1, 1};
  std::vector<Fft1d<T>> plans_;
  std::vector<std::vector<cplx>> scratch_;
  std::size_t total_ = 0;
  std::size_t nmax_ = 0;
};

}  // namespace cf::fft
