// Plan-resident point-dependent precomputation (the paper's Sec. I-A setpts
// amortization argument): everything that depends only on the nonuniform
// points — not on the strengths — is computed once when the points are set
// and reused by every subsequent execute.
//
// Three caches:
//  * TapTable   — per-point kernel tap values and leftmost grid indices, laid
//                 out in ITERATION order (bin-sorted position when a sort
//                 permutation is in use) so the SM/tiled subproblem loops
//                 stream it contiguously. Closes the per-execute tap rebuild
//                 of the batched SM path and removes per-execute exp/sqrt
//                 work from the single-vector SM path.
//  * InteriorPartition — the iteration order stably partitioned into an
//                 interior-first prefix (every tap of every axis in [0, nf))
//                 and a boundary suffix. GM/GM-sort spread and interp run the
//                 two segments as separate launches, so the no-wrap hot loop
//                 is branch-free instead of testing a per-point flag.
//  * TileSet    — the tile coloring and schedule of the atomic-free spread
//                 writeback: the active (non-empty) bins grouped by color,
//                 the canonical (tile, chunk) work items, and the per-worker
//                 padded scratch. See the tile geometry notes in
//                 spread_impl.hpp.
//
// Lifetime: built by Plan::set_points (or a caller's equivalent), invalidated
// by the next set_points; plan options are fixed at construction so no other
// invalidation source exists.
#pragma once

#include <cstdint>
#include <limits>

#include "common/env.hpp"
#include "spreadinterp/binsort.hpp"
#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"

namespace cf::spread {

template <typename T>
struct NuPoints;

/// Per-point tap values (rows of dim * wpad, exact-zero tail past w) and
/// leftmost grid indices, in iteration order: row jj describes point
/// order[jj] (or point jj when no permutation was supplied at build time).
template <typename T>
struct TapTable {
  vgpu::device_buffer<T> vals;
  vgpu::device_buffer<std::int32_t> l0;
  int wpad = 0;

  bool empty() const { return vals.empty(); }
  std::size_t bytes() const { return vals.bytes() + l0.bytes(); }
};

/// Builds the tap table for M points. `order` selects iteration order (the
/// bin-sort permutation for SM; nullptr = user order). Values are evaluated
/// through the width-specialized path when kp.fast allows (identical numbers
/// to the inline evaluation of the fast kernels), else the runtime-w path.
template <typename T>
void build_tap_table(vgpu::Device& dev, int dim, const KernelParams<T>& kp,
                     const NuPoints<T>& pts, const std::uint32_t* order,
                     TapTable<T>& out);

/// Iteration order stably partitioned interior-first: order[0 .. n_interior)
/// are the points whose taps never wrap (in their original relative order),
/// order[n_interior ..] the boundary points. Consumed as the `order` argument
/// of the GM/GM-sort kernels together with NuPoints::n_nowrap = n_interior.
struct InteriorPartition {
  vgpu::device_buffer<std::uint32_t> order;
  std::size_t n_interior = 0;
  std::size_t n_boundary = 0;

  bool empty() const { return order.empty(); }
};

/// Tile coloring and schedule for the atomic-free spread writeback of type-1
/// SM and GM-sort plans. `usable` is false when the geometry gate fails (some
/// padded tile extent exceeds nf, e.g. a single bin spanning an axis); callers
/// then keep the atomic writeback.
///
/// Colored direct writeback: every tile gets a color such that two tiles of
/// one color never have overlapping reaches (the core dilated by pad, see
/// spread_impl.hpp's tile_axis_colors; the color is the product of per-axis
/// colors). The spread runs one work-stealing launch per color in ascending
/// color order. A tile accumulates into its WORKER's padded scratch (`plane`
/// cells per batch plane) and adds its whole reach into fw with plain stores:
/// no other tile of the running color touches those cells, and the fixed color
/// order fixes each cell's summation order. Nothing outlives the tile, so
/// there is no per-tile arena.
///
/// Chunked scheduling: a tile whose bin holds more than `chunk_cap` points is
/// split into several canonical point-CHUNKS (balanced sizes, fixed order
/// within the bin's sorted run) so workers can cooperate on one overfull bin
/// instead of serializing behind it. Every (tile, chunk) pair is a work item;
/// `sched` lists each color's items largest-first for its work-stealing
/// launch. A singleton chunk (unsplit tile) runs the whole per-tile pipeline;
/// chunks of a split tile accumulate into dedicated planes of `chunk_re/im`
/// that a second launch of the same color reduces in canonical chunk order.
/// Chunk planes are reused color after color, so they are sized for the color
/// with the most split chunks. The per-cell summation order is a pure function
/// of the split and the coloring, never of the schedule, keeping the spread
/// bitwise-deterministic across worker counts.
///
/// Slots (indices into tile_bin) are ordered by color, then bin id; chunks
/// follow slot order, so every per-color range below is contiguous.
template <typename T>
struct TileSet {
  static constexpr std::uint32_t kNoTile = 0xffffffffu;

  vgpu::device_buffer<std::uint32_t> tile_bin;  ///< slot -> bin id
  std::uint32_t n_active = 0;
  std::uint32_t n_colors = 0;
  vgpu::device_buffer<std::uint32_t> color_chunk0;  ///< color -> first chunk id
                                                    ///< (size n_colors + 1)
  vgpu::device_buffer<std::uint32_t> color_split0;  ///< color -> first entry of
                                                    ///< split_tile (n_colors + 1)
  int pad = 0;
  std::int64_t p[3] = {1, 1, 1};  ///< padded tile dims (unused axes 1)
  std::size_t padded = 0;         ///< cells per padded tile
  std::size_t plane = 0;          ///< scratch stride: padded + fast-path slack
  int nplanes = 0;                ///< batch planes the scratch holds (grown on
                                  ///< demand by spread_tiled_batch)
  vgpu::device_buffer<T> scratch_re, scratch_im;  ///< n_workers * nplanes * plane
  std::size_t arena_bytes = 0;  ///< worker scratch + chunk plane bytes

  // -- chunked (tile, chunk) work items, canonical order ---------------------
  std::uint32_t n_chunks = 0;       ///< total work items (== n_active unsplit)
  std::uint32_t n_split = 0;        ///< tiles split into more than one chunk
  std::uint32_t color_planes = 0;   ///< chunk planes: most split chunks of a color
  std::uint32_t chunk_cap = 0;      ///< applied cap (UINT32_MAX = no splitting)
  std::uint32_t max_tile_points = 0;       ///< largest bin population
  vgpu::device_buffer<std::uint32_t> tile_chunk0;  ///< slot -> first chunk id
                                                   ///< (size n_active + 1)
  vgpu::device_buffer<std::uint32_t> chunk_tile;   ///< chunk -> slot
  vgpu::device_buffer<std::uint32_t> chunk_off;    ///< chunk -> offset in the
                                                   ///< bin's sorted point run
  vgpu::device_buffer<std::uint32_t> chunk_cnt;    ///< chunk -> point count
  vgpu::device_buffer<std::uint32_t> chunk_plane;  ///< chunk -> plane within its
                                                   ///< color | kNoTile (unsplit)
  vgpu::device_buffer<std::uint32_t> sched;   ///< chunk ids, largest-first
                                              ///< within each color (stable)
  vgpu::device_buffer<std::uint32_t> split_tile;  ///< slots with > 1 chunk
  vgpu::device_buffer<T> chunk_re, chunk_im;  ///< color_planes * nplanes * plane

  bool usable = false;
};

/// Smallest auto chunk cap: splitting finer than this buys no balance (a
/// chunk this size is cheap next to a launch) but costs chunk-plane zero +
/// reduce traffic.
inline constexpr std::uint32_t kTileChunkMin = 1024;

/// Budget for the per-chunk scratch planes of split tiles (one color's worth);
/// the chunk cap is doubled until the split fits. Deliberately worker-count independent (the
/// worker scratch is budgeted separately) so the applied cap — and with it
/// the summation split — is identical at every worker count.
inline constexpr std::size_t kTileChunkArenaMaxBytes = std::size_t(64) << 20;

/// Resolves a plan's requested chunk cap (Options::tile_chunk_cap encoding):
/// a nonzero request is returned unchanged; at the 0 (auto) setting the
/// CF_TILE_CHUNK env var can force a cap (CI runs suites with CF_TILE_CHUNK=1
/// to exercise maximal splitting everywhere). A malformed value gets a
/// one-line stderr diagnostic and leaves the cap at auto. Shared by the
/// device plans and the CPU comparator.
inline int tile_chunk_cap(int requested) {
  if (requested != 0) return requested;
  return env_int_strict("CF_TILE_CHUNK", 0, std::numeric_limits<int>::min(),
                        std::numeric_limits<int>::max());
}

/// Builds the TileSet for the current bin sort: geometry gate, tile coloring,
/// active tiles grouped by color, the canonical chunk split, and the scratch
/// for B batch planes. `chunk_cap` is the per-chunk point cap: 0 = auto
/// (max(kTileChunkMin, ceil(Mc / (4 * hardware threads))), Mc the points of
/// the fullest color — a per-color points-per-worker heuristic that is
/// deliberately independent of the device's worker count), > 0 = explicit,
/// < 0 = never split (one chunk per tile). Returns out.usable.
template <typename T>
bool build_tile_set(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins, int w,
                    const DeviceSort& sort, int B, TileSet<T>& out, int chunk_cap = 0);

/// Grows the worker scratch and chunk planes of a usable TileSet to hold B
/// batch planes and refreshes arena_bytes; a no-op when they already hold B.
template <typename T>
void size_tile_scratch(vgpu::Device& dev, TileSet<T>& ts, int B);

/// The plan-resident cache; any part may be empty when the owning plan's
/// method does not use it.
template <typename T>
struct PointCache {
  TapTable<T> taps;
  InteriorPartition interior;
  TileSet<T> tiles;
  bool valid = false;

  void invalidate() {
    taps = TapTable<T>{};
    interior = InteriorPartition{};
    tiles = TileSet<T>{};
    valid = false;
  }
};

/// Classifies every point (interior = ceil(x - w/2) >= 0 and
/// ceil(x - w/2) + w <= nf on every axis — exactly the l0 the kernels derive,
/// so no-wrap indices equal the wrapped ones bit for bit) and fills `out`
/// with the stably partitioned iteration order. `order` is the incoming
/// iteration order (bin-sort permutation or nullptr = user order); the
/// partition preserves the relative order inside each class, so bin locality
/// survives for the (vast) interior majority.
template <typename T>
void classify_interior(vgpu::Device& dev, const GridSpec& grid,
                       const KernelParams<T>& kp, const NuPoints<T>& pts,
                       const std::uint32_t* order, InteriorPartition& out);

}  // namespace cf::spread
