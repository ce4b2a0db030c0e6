// Tile-owned atomic-free spread writeback (type-1 SM and GM-sort plans).
//
// The atomic schemes (spread_gm.cpp, spread_sm.cpp) funnel every subproblem's
// output through global atomic adds — on this vgpu, real locked RMW
// instructions whose cost dominates the writeback and whose float summation
// order varies with worker scheduling. The bins already partition the fine
// grid into disjoint core boxes, so ownership removes both problems:
//
//  Phase 1 (one block per (tile, chunk) work item, work-stealing schedule):
//    accumulate a chunk of the bin's sorted points into a full padded
//    scratch (the per-tile generalization of the SM shared-memory scratch —
//    living in global memory, it is not limited by the 48 KiB shared budget,
//    so the engine also covers configurations where SM cannot run, e.g. 3D
//    double). Unsplit tiles are a single chunk and run the whole per-tile
//    pipeline in the owning WORKER's scratch: add the in-range core box to
//    fw with plain vectorizable stores (no other block ever writes those
//    cells) and persist the SHELL into the tile's shell-compact arena slot
//    (spread_impl.hpp) — the core cells are dead once written to fw, so the
//    arena only stores what the merge reads. Tiles whose bin exceeds the
//    chunk cap (TileSet::chunk_cap) are split into canonical point-chunks
//    that accumulate into dedicated chunk planes; a second launch reduces
//    each split tile's planes in FIXED chunk order and then runs the same
//    core/shell writeback. The work items go through launch_stealing
//    largest-first (TileSet::sched), so a Gaussian clump that lands in one
//    bin is carved across workers instead of serializing behind one block —
//    the msub-capped load-balancing idea of the paper's SM scheme, applied
//    to the tile engine. The per-cell summation order is a pure function of
//    the canonical split, never of the steal schedule.
//
//  Phase 2 (one block per MERGE owner): sum the neighboring tiles' halo
//    contributions into the owner's core, enumerating neighbors in the fixed
//    canonical order of spread_impl.hpp's tile_axis_nbrs. Each fine-grid cell
//    is written by exactly one block and its additions happen in a
//    worker-independent order, so the whole spread is bitwise-deterministic.
//
// Tap values come from the plan's cached TapTable when provided (SM) or are
// evaluated inline (GM-sort) — the same es_values_* routines either way, so
// the two sources are bitwise-identical.
#include "spreadinterp/spread.hpp"
#include "spreadinterp/spread_impl.hpp"

namespace cf::spread {

namespace {

using namespace detail;

/// Phase 1 for batch planes [b0, b0+nb): work-stealing (tile, chunk)
/// accumulation, fixed-order reduce of split tiles, core writeback.
/// W > 0 is the width-specialized deinterleaved fast path; W == 0 the
/// runtime-width fallback. HasTaps selects table rows vs inline evaluation.
/// Returns the number of work items the scheduler stole across workers.
template <int DIM, int W, bool HasTaps, typename T>
std::uint64_t tiled_accumulate(vgpu::Device& dev, const GridSpec& grid,
                               const BinSpec& bins, const KernelParams<T>& kp,
                               const NuPoints<T>& pts, const std::complex<T>* c,
                               std::complex<T>* fw, const DeviceSort& sort,
                               TileSet<T>& ts, const TapTable<T>* tt, int b0, int nb,
                               std::size_t cstride, std::size_t fwstride) {
  constexpr int WP = W > 0 ? pad_width(W > 0 ? W : 2) : 0;
  const int w = kp.w;
  const int wpad = HasTaps ? tt->wpad : 0;
  const int pad = ts.pad;
  const std::int64_t* p = ts.p;
  const std::size_t plane = ts.plane;
  const int nba = ts.nb;  // allocated planes per tile slot / worker scratch
  T* const hre = ts.halo_re.data();
  T* const him = ts.halo_im.data();
  T* const scre = ts.scratch_re.data();
  T* const scim = ts.scratch_im.data();
  T* const cre = ts.chunk_re.data();
  T* const cim = ts.chunk_im.data();
  const std::uint32_t* const shbase = ts.shell_base.data();

  // The per-tile pipeline, split into pieces the (tile, chunk) work items
  // compose: zero a padded scratch, accumulate a slice of the bin's sorted
  // run into it, write the finished tile (core box to fw, shell to the
  // arena). A singleton chunk runs all three back to back — numerically the
  // exact unchunked per-tile path.

  auto zero_planes = [plane, nb](vgpu::BlockCtx& blk, T* zre, T* zim) {
    blk.for_each_thread([&](unsigned t) {
      const auto [lo, hi] = thread_chunk(plane * nb, t, blk.nthreads);
      for (std::size_t i = lo; i < hi; ++i) zre[i] = T(0);
      for (std::size_t i = lo; i < hi; ++i) zim[i] = T(0);
    });
    blk.sync_threads();
  };

  // Accumulates points [first, first + cnt) of bin b's sorted run; tap-table
  // rows are indexed by absolute sorted position, so chunks of one tile read
  // disjoint row ranges.
  auto accum_points = [&, w, wpad, pad, plane, b0, nb](
                          vgpu::BlockCtx& blk, std::uint32_t b, std::uint32_t first,
                          std::uint32_t cnt, T* sre0, T* sim0) {
    const std::uint32_t start = sort.bin_start[b] + first;
    std::int64_t delta[3];
    subprob_delta(bins, b, DIM, pad, delta);
    blk.for_each_thread([&](unsigned t) {
      const auto [lo, hi] = thread_chunk(cnt, t, blk.nthreads);
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t j = sort.order[start + i];
        if (i + kPointPrefetch < cnt) {
          const std::size_t jn = sort.order[start + i + kPointPrefetch];
          if constexpr (!HasTaps)
            prefetch_point<DIM>(pts, static_cast<const std::complex<T>*>(nullptr), jn);
          for (int bb = 0; bb < nb; ++bb)
            CF_PREFETCH(&c[(b0 + bb) * cstride + jn], 0);
        }
        // Tap values and LOCAL tile indices. Points of this bin only reach
        // pad cells past the nominal core, so local coords never wrap.
        std::int64_t li0[DIM];
        if constexpr (W > 0) {
          T v0[WP], v1[DIM > 1 ? W : 1], v2[DIM > 2 ? W : 1];
          if constexpr (HasTaps) {
            const T* row = &tt->vals[(start + i) * static_cast<std::size_t>(DIM * WP)];
            const std::int32_t* lrow = &tt->l0[(start + i) * DIM];
            for (int i0 = 0; i0 < WP; ++i0) v0[i0] = row[i0];
            if constexpr (DIM > 1)
              for (int i1 = 0; i1 < W; ++i1) v1[i1] = row[WP + i1];
            if constexpr (DIM > 2)
              for (int i2 = 0; i2 < W; ++i2) v2[i2] = row[2 * WP + i2];
            for (int d = 0; d < DIM; ++d) li0[d] = lrow[d] - delta[d];
          } else {
            T px[3];
            load_point<DIM>(pts, j, px);
            li0[0] = es_values_padded<W>(kp, px[0], v0) - delta[0];
            if constexpr (DIM > 1)
              li0[1] = es_values_fixed<W>(kp, px[1], v1) - delta[1];
            if constexpr (DIM > 2)
              li0[2] = es_values_fixed<W>(kp, px[2], v2) - delta[2];
          }
          for (int bb = 0; bb < nb; ++bb) {
            CF_SCALAR_LOOP();  // plane loop stays scalar; tap loops vectorize
            const std::complex<T> cj = c[(b0 + bb) * cstride + j];
            const T cr = cj.real(), ci = cj.imag();
            T* CF_RESTRICT sre = sre0 + plane * bb;
            T* CF_RESTRICT sim = sim0 + plane * bb;
            if constexpr (DIM == 1) {
              T* CF_RESTRICT rre = sre + li0[0];
              T* CF_RESTRICT rim = sim + li0[0];
              for (int i0 = 0; i0 < WP; ++i0) rre[i0] += cr * v0[i0];
              for (int i0 = 0; i0 < WP; ++i0) rim[i0] += ci * v0[i0];
            } else if constexpr (DIM == 2) {
              for (int i1 = 0; i1 < W; ++i1) {
                const T wr = cr * v1[i1], wi = ci * v1[i1];
                const std::int64_t rrow = (li0[1] + i1) * p[0] + li0[0];
                T* CF_RESTRICT rre = sre + rrow;
                T* CF_RESTRICT rim = sim + rrow;
                for (int i0 = 0; i0 < WP; ++i0) rre[i0] += wr * v0[i0];
                for (int i0 = 0; i0 < WP; ++i0) rim[i0] += wi * v0[i0];
              }
            } else {
              for (int i2 = 0; i2 < W; ++i2) {
                const T c2r = cr * v2[i2], c2i = ci * v2[i2];
                const std::int64_t pl = (li0[2] + i2) * p[1];
                for (int i1 = 0; i1 < W; ++i1) {
                  const T wr = c2r * v1[i1], wi = c2i * v1[i1];
                  const std::int64_t rrow = (pl + li0[1] + i1) * p[0] + li0[0];
                  T* CF_RESTRICT rre = sre + rrow;
                  T* CF_RESTRICT rim = sim + rrow;
                  for (int i0 = 0; i0 < WP; ++i0) rre[i0] += wr * v0[i0];
                  for (int i0 = 0; i0 < WP; ++i0) rim[i0] += wi * v0[i0];
                }
              }
            }
          }
        } else {
          // Runtime-width fallback.
          T vals[3][kMaxWidth];
          const T* vrow[3];
          if constexpr (HasTaps) {
            const T* row = &tt->vals[(start + i) * static_cast<std::size_t>(DIM * wpad)];
            const std::int32_t* lrow = &tt->l0[(start + i) * DIM];
            for (int d = 0; d < DIM; ++d) {
              vrow[d] = row + d * wpad;
              li0[d] = lrow[d] - delta[d];
            }
          } else {
            T px[3];
            load_point<DIM>(pts, j, px);
            for (int d = 0; d < DIM; ++d) {
              li0[d] = es_values(kp, px[d], vals[d]) - delta[d];
              vrow[d] = vals[d];
            }
          }
          for (int bb = 0; bb < nb; ++bb) {
            CF_SCALAR_LOOP();  // see the fast-path plane loop above
            const std::complex<T> cj = c[(b0 + bb) * cstride + j];
            const T cr = cj.real(), ci = cj.imag();
            T* sre = sre0 + plane * bb;
            T* sim = sim0 + plane * bb;
            for (int i2 = 0; i2 < (DIM > 2 ? w : 1); ++i2) {
              const T w2 = DIM > 2 ? vrow[2][i2] : T(1);
              const std::int64_t pl = DIM > 2 ? (li0[2] + i2) * p[1] : 0;
              for (int i1 = 0; i1 < (DIM > 1 ? w : 1); ++i1) {
                const T w1 = DIM > 1 ? w2 * vrow[1][i1] : T(1);
                const std::int64_t rrow =
                    DIM > 1 ? (pl + li0[1] + i1) * p[0] + li0[0] : li0[0];
                const T wr = cr * w1, wi = ci * w1;
                for (int i0 = 0; i0 < w; ++i0) {
                  sre[rrow + i0] += wr * vrow[0][i0];
                  sim[rrow + i0] += wi * vrow[0][i0];
                }
              }
            }
          }
        }
        blk.note_shared_op(static_cast<std::uint64_t>(nb) * w * (DIM > 1 ? w : 1) *
                           (DIM > 2 ? w : 1));
      }
    });
    blk.sync_threads();
  };

  // Writes a finished tile out of scratch (sre0/sim0): core box to fw, shell
  // to the tile's arena slot.
  auto writeback = [&, pad, plane, nba, b0, nb](vgpu::BlockCtx& blk,
                                                std::uint32_t slot, std::uint32_t b,
                                                const T* sre0, const T* sim0) {
    // Core writeback: the in-range core box is owned by this block, so plain
    // accumulating stores — contiguous in x for both the slot and fw.
    std::int64_t bc[3];
    bin_coords(bins, b, bc);
    std::int64_t c0[3] = {0, 0, 0}, ce[3] = {1, 1, 1};
    for (int d = 0; d < DIM; ++d) tile_core(bc[d], bins.m[d], grid.nf[d], c0[d], ce[d]);
    const std::size_t nrows = static_cast<std::size_t>(ce[1] * ce[2]);
    blk.for_each_thread([&](unsigned t) {
      const auto [lo, hi] = thread_chunk(nrows, t, blk.nthreads);
      for (std::size_t r = lo; r < hi; ++r) {
        const std::int64_t s1 = static_cast<std::int64_t>(r) % ce[1];
        const std::int64_t s2 = static_cast<std::int64_t>(r) / ce[1];
        const std::int64_t s1p = DIM > 1 ? pad + s1 : 0;
        const std::int64_t s2p = DIM > 2 ? pad + s2 : 0;
        const std::size_t src =
            static_cast<std::size_t>((s2p * p[1] + s1p) * p[0] + pad);
        const std::int64_t dst =
            c0[0] + grid.nf[0] * ((c0[1] + s1) + grid.nf[1] * (c0[2] + s2));
        for (int bb = 0; bb < nb; ++bb) {
          std::complex<T>* CF_RESTRICT fwb = fw + (b0 + bb) * fwstride + dst;
          const T* CF_RESTRICT sre = sre0 + plane * bb + src;
          const T* CF_RESTRICT sim = sim0 + plane * bb + src;
          for (std::int64_t i = 0; i < ce[0]; ++i)
            fwb[i] += std::complex<T>(sre[i], sim[i]);
        }
      }
    });
    blk.sync_threads();

    // Shell persist: copy everything outside the in-range core box into the
    // tile's shell-compact arena slot for phase 2; the padded scratch is
    // about to be reused by this worker's next tile. Core rows keep only the
    // two x-shell runs, every other row is stored whole (tile_shell_off).
    const std::size_t ssz = tile_shell_cells(DIM, p, ce);
    T* const are0 = hre + static_cast<std::size_t>(shbase[slot]) * nba;
    T* const aim0 = him + static_cast<std::size_t>(shbase[slot]) * nba;
    const std::size_t shrows =
        static_cast<std::size_t>((DIM > 1 ? p[1] : 1) * (DIM > 2 ? p[2] : 1));
    blk.for_each_thread([&](unsigned t) {
      const auto [lo, hi] = thread_chunk(shrows, t, blk.nthreads);
      for (std::size_t r = lo; r < hi; ++r) {
        const std::int64_t s1 = DIM > 1 ? static_cast<std::int64_t>(r) % p[1] : 0;
        const std::int64_t s2 = DIM > 2 ? static_cast<std::int64_t>(r) / p[1] : 0;
        const bool core_row = (DIM <= 1 || (s1 >= pad && s1 < pad + ce[1])) &&
                              (DIM <= 2 || (s2 >= pad && s2 < pad + ce[2]));
        const std::size_t src0 = r * static_cast<std::size_t>(p[0]);
        const std::size_t dst0 =
            static_cast<std::size_t>(tile_shell_off<DIM>(p, pad, ce, 0, s1, s2));
        for (int bb = 0; bb < nb; ++bb) {
          const T* CF_RESTRICT sre = sre0 + plane * bb + src0;
          const T* CF_RESTRICT sim = sim0 + plane * bb + src0;
          T* CF_RESTRICT are = are0 + ssz * bb + dst0;
          T* CF_RESTRICT aim = aim0 + ssz * bb + dst0;
          if (core_row) {
            for (std::int64_t i = 0; i < pad; ++i) are[i] = sre[i];
            for (std::int64_t i = 0; i < pad; ++i) aim[i] = sim[i];
            const std::int64_t h0 = pad + ce[0];  // high x-shell start
            for (std::int64_t i = h0; i < p[0]; ++i) are[i - ce[0]] = sre[i];
            for (std::int64_t i = h0; i < p[0]; ++i) aim[i - ce[0]] = sim[i];
          } else {
            for (std::int64_t i = 0; i < p[0]; ++i) are[i] = sre[i];
            for (std::int64_t i = 0; i < p[0]; ++i) aim[i] = sim[i];
          }
        }
      }
    });
  };

  // Launch A: every (tile, chunk) work item, scheduled largest-first with
  // stealing so overfull bins spread across workers. Singleton chunks write
  // disjoint fw cores / arena slots; split chunks write disjoint chunk
  // planes — no two blocks of this launch ever touch the same cells.
  const std::uint64_t steals =
      dev.launch_stealing(ts.n_chunks, 128, [&, plane, nba](vgpu::BlockCtx& blk) {
        const std::uint32_t ck = ts.sched[blk.block_id];
        const std::uint32_t slot = ts.chunk_tile[ck];
        const std::uint32_t b = ts.tile_bin[slot];
        const std::uint32_t cpl = ts.chunk_plane[ck];
        if (cpl == TileSet<T>::kNoTile) {
          // Unsplit tile: the whole pipeline in the owning WORKER's scratch
          // (blocks on one worker run sequentially, so reuse is race-free);
          // the arena slot persists only the shell.
          T* const sre0 = scre + blk.worker * (static_cast<std::size_t>(nba) * plane);
          T* const sim0 = scim + blk.worker * (static_cast<std::size_t>(nba) * plane);
          zero_planes(blk, sre0, sim0);
          accum_points(blk, b, 0, sort.bin_counts[b], sre0, sim0);
          writeback(blk, slot, b, sre0, sim0);
        } else {
          // Chunk of a split tile: accumulate this slice of the bin's sorted
          // run into the chunk's dedicated plane; launch B reduces the
          // planes in canonical chunk order.
          T* const dre0 = cre + cpl * (static_cast<std::size_t>(nba) * plane);
          T* const dim0 = cim + cpl * (static_cast<std::size_t>(nba) * plane);
          zero_planes(blk, dre0, dim0);
          accum_points(blk, b, ts.chunk_off[ck], ts.chunk_cnt[ck], dre0, dim0);
        }
      });

  // Launch B: one block per SPLIT tile — fold its chunk planes into the
  // worker scratch in canonical (ascending) chunk order, then the same
  // core/shell writeback. The reduction order is a pure function of the
  // split, so the result is bitwise-identical at every worker count.
  if (ts.n_split > 0) {
    dev.launch(ts.n_split, 128, [&, plane, nba, nb](vgpu::BlockCtx& blk) {
      const std::uint32_t slot = ts.split_tile[blk.block_id];
      const std::uint32_t b = ts.tile_bin[slot];
      T* const sre0 = scre + blk.worker * (static_cast<std::size_t>(nba) * plane);
      T* const sim0 = scim + blk.worker * (static_cast<std::size_t>(nba) * plane);
      zero_planes(blk, sre0, sim0);
      const std::uint32_t ck0 = ts.tile_chunk0[slot];
      const std::uint32_t ck1 = ts.tile_chunk0[slot + 1];
      for (std::uint32_t ck = ck0; ck < ck1; ++ck) {
        const T* const pre = cre + ts.chunk_plane[ck] * (static_cast<std::size_t>(nba) * plane);
        const T* const pim = cim + ts.chunk_plane[ck] * (static_cast<std::size_t>(nba) * plane);
        blk.for_each_thread([&](unsigned t) {
          const auto [lo, hi] = thread_chunk(plane * nb, t, blk.nthreads);
          T* CF_RESTRICT dre = sre0;
          T* CF_RESTRICT dim0 = sim0;
          const T* CF_RESTRICT qre = pre;
          const T* CF_RESTRICT qim = pim;
          for (std::size_t i = lo; i < hi; ++i) dre[i] += qre[i];
          for (std::size_t i = lo; i < hi; ++i) dim0[i] += qim[i];
        });
        blk.sync_threads();
      }
      blk.note_shared_op(static_cast<std::uint64_t>(ck1 - ck0) * plane * nb);
      writeback(blk, slot, b, sre0, sim0);
    });
  }
  return steals;
}

/// Phase 2 for batch planes [b0, b0+nb): one block per merge owner; sums the
/// neighboring tiles' halo contributions into the owner's core in the fixed
/// canonical order. Runs block-sequentially (a real GPU would distribute the
/// core rows across the block's threads; ownership per cell is unchanged).
template <int DIM, typename T>
void tiled_merge(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
                 std::complex<T>* fw, TileSet<T>& ts, int b0, int nb,
                 std::size_t fwstride) {
  const int pad = ts.pad;
  const std::int64_t* p = ts.p;
  const int nba = ts.nb;
  const T* const hre = ts.halo_re.data();
  const T* const him = ts.halo_im.data();

  dev.launch(ts.n_merge, 1, [&, pad, nba, b0, nb](vgpu::BlockCtx& blk) {
    const std::uint32_t bown = ts.merge_bin[blk.block_id];
    std::int64_t bc[3];
    bin_coords(bins, bown, bc);
    TileNbr nbr[3][kMaxTileNbrs];
    int nn[3] = {1, 1, 1};
    for (int d = 0; d < DIM; ++d)
      nn[d] = tile_axis_nbrs(bc[d], bins.m[d], bins.nbins[d], grid.nf[d], pad, nbr[d]);
    std::uint64_t merged = 0;
    for (int iz = 0; iz < nn[2]; ++iz) {
      for (int iy = 0; iy < nn[1]; ++iy) {
        for (int ix = 0; ix < nn[0]; ++ix) {
          const std::int64_t q0 = nbr[0][ix].q;
          const std::int64_t q1 = DIM > 1 ? nbr[1][iy].q : 0;
          const std::int64_t q2 = DIM > 2 ? nbr[2][iz].q : 0;
          if (q0 == bc[0] && q1 == bc[1] && q2 == bc[2])
            continue;  // the self core was written in phase 1
          const std::uint32_t slot = ts.slot_of_bin[static_cast<std::size_t>(
              q0 + bins.nbins[0] * (q1 + bins.nbins[1] * q2))];
          if (slot == TileSet<T>::kNoTile) continue;  // empty tile: zero halo
          // q's in-range core extents fix its shell-compact layout; every
          // overlap segment lies in q's shell (cores are disjoint) and never
          // straddles the excluded core run, so runs stay contiguous.
          std::int64_t qc0[3] = {0, 0, 0}, qce[3] = {1, 1, 1};
          const std::int64_t q[3] = {q0, q1, q2};
          for (int d = 0; d < DIM; ++d)
            tile_core(q[d], bins.m[d], grid.nf[d], qc0[d], qce[d]);
          const std::size_t qsz = tile_shell_cells(DIM, p, qce);
          const T* const sre0 =
              hre + static_cast<std::size_t>(ts.shell_base[slot]) * nba;
          const T* const sim0 =
              him + static_cast<std::size_t>(ts.shell_base[slot]) * nba;
          const int nsz = DIM > 2 ? nbr[2][iz].nsegs : 1;
          const int nsy = DIM > 1 ? nbr[1][iy].nsegs : 1;
          for (int sz = 0; sz < nsz; ++sz) {
            const TileSeg zseg = DIM > 2 ? nbr[2][iz].segs[sz] : TileSeg{0, 0, 1};
            for (int sy = 0; sy < nsy; ++sy) {
              const TileSeg yseg = DIM > 1 ? nbr[1][iy].segs[sy] : TileSeg{0, 0, 1};
              for (int sx = 0; sx < nbr[0][ix].nsegs; ++sx) {
                const TileSeg xseg = nbr[0][ix].segs[sx];
                for (std::int64_t gz = 0; gz < zseg.len; ++gz) {
                  for (std::int64_t gy = 0; gy < yseg.len; ++gy) {
                    const std::size_t src =
                        static_cast<std::size_t>(tile_shell_off<DIM>(
                            p, pad, qce, xseg.s0, yseg.s0 + gy, zseg.s0 + gz));
                    const std::int64_t dst =
                        xseg.g0 +
                        grid.nf[0] * ((yseg.g0 + gy) + grid.nf[1] * (zseg.g0 + gz));
                    for (int bb = 0; bb < nb; ++bb) {
                      std::complex<T>* CF_RESTRICT fwb = fw + (b0 + bb) * fwstride + dst;
                      const T* CF_RESTRICT sre = sre0 + qsz * bb + src;
                      const T* CF_RESTRICT sim = sim0 + qsz * bb + src;
                      for (std::int64_t i = 0; i < xseg.len; ++i)
                        fwb[i] += std::complex<T>(sre[i], sim[i]);
                    }
                    merged += static_cast<std::uint64_t>(xseg.len) * nb;
                  }
                }
              }
            }
          }
        }
      }
    }
    blk.note_tile_merge(merged);
  });
}

template <int DIM, typename T>
std::uint64_t spread_tiled_dim(vgpu::Device& dev, const GridSpec& grid,
                               const BinSpec& bins, const KernelParams<T>& kp,
                               const NuPoints<T>& pts, const std::complex<T>* c,
                               std::complex<T>* fw, const DeviceSort& sort,
                               TileSet<T>& ts, const TapTable<T>* taps, int B,
                               std::size_t cstride, std::size_t fwstride) {
  const bool has_taps = taps && !taps->empty();
  std::uint64_t steals = 0;
  for (int b0 = 0; b0 < B; b0 += ts.nb) {
    const int nb = std::min(ts.nb, B - b0);
    auto accum = [&](auto W, auto HasTaps) {
      steals += tiled_accumulate<DIM, decltype(W)::value, decltype(HasTaps)::value>(
          dev, grid, bins, kp, pts, c, fw, sort, ts, taps, b0, nb, cstride, fwstride);
    };
    const bool fast =
        kp.fast && (!has_taps || taps->wpad == pad_width(kp.w)) &&
        dispatch_width(kp.w, [&](auto W) {
          if (has_taps)
            accum(W, std::true_type{});
          else
            accum(W, std::false_type{});
        });
    if (!fast) {
      if (has_taps)
        accum(std::integral_constant<int, 0>{}, std::true_type{});
      else
        accum(std::integral_constant<int, 0>{}, std::false_type{});
    }
    tiled_merge<DIM>(dev, grid, bins, fw, ts, b0, nb, fwstride);
  }
  return steals;
}

}  // namespace

template <typename T>
std::uint64_t spread_tiled_batch(vgpu::Device& dev, const GridSpec& grid,
                                 const BinSpec& bins, const KernelParams<T>& kp,
                                 const NuPoints<T>& pts, const std::complex<T>* c,
                                 std::complex<T>* fw, const DeviceSort& sort,
                                 TileSet<T>& tiles, const TapTable<T>* taps, int B,
                                 std::size_t cstride, std::size_t fwstride) {
  if (!tiles.usable)
    throw std::invalid_argument("spread_tiled: TileSet not usable (atomic fallback)");
  if (pts.M == 0 || tiles.n_active == 0) return 0;
  B = std::max(1, B);
  std::uint64_t steals = 0;
  detail::dispatch_dim(
      grid.dim,
      [&] {
        steals = spread_tiled_dim<1>(dev, grid, bins, kp, pts, c, fw, sort, tiles,
                                     taps, B, cstride, fwstride);
      },
      [&] {
        steals = spread_tiled_dim<2>(dev, grid, bins, kp, pts, c, fw, sort, tiles,
                                     taps, B, cstride, fwstride);
      },
      [&] {
        steals = spread_tiled_dim<3>(dev, grid, bins, kp, pts, c, fw, sort, tiles,
                                     taps, B, cstride, fwstride);
      });
  return steals;
}

#define CF_INSTANTIATE(T)                                                               \
  template std::uint64_t spread_tiled_batch<T>(                                         \
      vgpu::Device&, const GridSpec&, const BinSpec&, const KernelParams<T>&,           \
      const NuPoints<T>&, const std::complex<T>*, std::complex<T>*,                     \
      const DeviceSort&, TileSet<T>&, const TapTable<T>*, int, std::size_t,             \
      std::size_t);

CF_INSTANTIATE(float)
CF_INSTANTIATE(double)
#undef CF_INSTANTIATE

}  // namespace cf::spread
