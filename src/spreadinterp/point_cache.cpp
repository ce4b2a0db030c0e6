// Builders for the plan-resident point caches (point_cache.hpp): the
// bin-sorted tap table consumed by SM/tiled spreading, the interior-first
// iteration partition consumed by the branch-free GM/GM-sort no-wrap path,
// and the tile coloring and schedule consumed by the atomic-free spread
// writeback.
#include "spreadinterp/point_cache.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "spreadinterp/spread.hpp"
#include "spreadinterp/spread_impl.hpp"
#include "vgpu/primitives.hpp"

namespace cf::spread {

namespace {

using namespace detail;

/// W > 0 evaluates through the width-specialized path (identical values to
/// the inline evaluation of the fast kernels); W == 0 through the runtime-w
/// scalar path. Both pad rows to wpad lanes with exact zeros.
template <int DIM, int W, typename T>
void build_tap_table_impl(vgpu::Device& dev, const KernelParams<T>& kp,
                          const NuPoints<T>& pts, const std::uint32_t* order,
                          TapTable<T>& tt) {
  tt.wpad = pad_width(kp.w);
  tt.vals = vgpu::device_buffer<T>(dev, pts.M * static_cast<std::size_t>(DIM * tt.wpad));
  tt.l0 = vgpu::device_buffer<std::int32_t>(dev, pts.M * static_cast<std::size_t>(DIM));
  const int w = kp.w, wpad = tt.wpad;
  dev.launch_items(pts.M, 256, [&, w, wpad](std::size_t jj, vgpu::BlockCtx&) {
    const std::size_t j = order ? order[jj] : jj;
    if (jj + kPointPrefetch < pts.M)
      prefetch_point<DIM>(pts, static_cast<const std::complex<T>*>(nullptr),
                          order ? order[jj + kPointPrefetch] : jj + kPointPrefetch);
    T px[3];
    load_point<DIM>(pts, j, px);
    T* row = &tt.vals[jj * static_cast<std::size_t>(DIM * wpad)];
    std::int32_t* lrow = &tt.l0[jj * DIM];
    for (int d = 0; d < DIM; ++d) {
      T* v = row + d * wpad;
      std::int64_t l0;
      if constexpr (W > 0) {
        l0 = es_values_padded<W>(kp, px[d], v);
      } else {
        l0 = es_values(kp, px[d], v);
        for (int i = w; i < wpad; ++i) v[i] = T(0);
      }
      lrow[d] = static_cast<std::int32_t>(l0);
    }
  });
}

template <int DIM, typename T>
void build_tap_table_dim(vgpu::Device& dev, const KernelParams<T>& kp,
                         const NuPoints<T>& pts, const std::uint32_t* order,
                         TapTable<T>& tt) {
  if (kp.fast && dispatch_width(kp.w, [&](auto W) {
        build_tap_table_impl<DIM, decltype(W)::value>(dev, kp, pts, order, tt);
      }))
    return;
  build_tap_table_impl<DIM, 0>(dev, kp, pts, order, tt);
}

}  // namespace

template <typename T>
void build_tap_table(vgpu::Device& dev, int dim, const KernelParams<T>& kp,
                     const NuPoints<T>& pts, const std::uint32_t* order,
                     TapTable<T>& out) {
  detail::dispatch_dim(
      dim, [&] { build_tap_table_dim<1>(dev, kp, pts, order, out); },
      [&] { build_tap_table_dim<2>(dev, kp, pts, order, out); },
      [&] { build_tap_table_dim<3>(dev, kp, pts, order, out); });
}

template <typename T>
void classify_interior(vgpu::Device& dev, const GridSpec& grid,
                       const KernelParams<T>& kp, const NuPoints<T>& pts,
                       const std::uint32_t* order, InteriorPartition& out) {
  const std::size_t M = pts.M;
  out = InteriorPartition{};
  if (M == 0) return;
  const int dim = grid.dim;
  const T half_w = kp.half_w;
  const int w = kp.w;
  const auto nf = grid.nf;
  vgpu::device_buffer<std::uint32_t> flags(dev, M);
  dev.launch_items(M, 256, [&, dim, half_w, w](std::size_t jj, vgpu::BlockCtx&) {
    const std::size_t j = order ? order[jj] : jj;
    const T* coords[3] = {pts.xg, pts.yg, pts.zg};
    bool ok = true;
    for (int d = 0; d < dim; ++d) {
      // The exact l0 the kernels derive (es_values): the no-wrap indices of
      // an interior point equal the wrapped ones bit for bit.
      const std::int64_t l0 =
          static_cast<std::int64_t>(std::ceil(coords[d][j] - half_w));
      ok = ok && l0 >= 0 && l0 + w <= nf[d];
    }
    flags[jj] = ok ? 1u : 0u;
  });
  // Stable partition: interior points keep their relative order at the front,
  // boundary points theirs at the back. rank = exclusive scan of the flags.
  vgpu::device_buffer<std::uint32_t> rank(dev, M);
  const std::uint64_t n_in = vgpu::exclusive_scan(dev, flags.span(), rank.span());
  out.order = vgpu::device_buffer<std::uint32_t>(dev, M);
  dev.launch_items(M, 256, [&, n_in](std::size_t jj, vgpu::BlockCtx&) {
    const std::size_t pos =
        flags[jj] ? rank[jj] : n_in + (jj - rank[jj]);
    out.order[pos] = order ? order[jj] : static_cast<std::uint32_t>(jj);
  });
  out.n_interior = static_cast<std::size_t>(n_in);
  out.n_boundary = M - out.n_interior;
}

template <typename T>
void size_tile_scratch(vgpu::Device& dev, TileSet<T>& ts, int B) {
  B = std::max(1, B);
  if (B <= ts.nplanes) return;
  ts.nplanes = B;
  const std::size_t per_plane = ts.plane * static_cast<std::size_t>(B);
  ts.scratch_re = vgpu::device_buffer<T>(dev, dev.n_workers() * per_plane);
  ts.scratch_im = vgpu::device_buffer<T>(dev, dev.n_workers() * per_plane);
  ts.chunk_re = vgpu::device_buffer<T>(dev, ts.color_planes * per_plane);
  ts.chunk_im = vgpu::device_buffer<T>(dev, ts.color_planes * per_plane);
  ts.arena_bytes = (ts.scratch_re.bytes() + ts.chunk_re.bytes()) * 2;
}

template <typename T>
bool build_tile_set(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins, int w,
                    const DeviceSort& sort, int B, TileSet<T>& out, int chunk_cap) {
  out = TileSet<T>{};
  const int dim = grid.dim;
  const int pad = (w + 1) / 2;
  out.pad = pad;
  out.padded = 1;
  for (int d = 0; d < dim; ++d) {
    out.p[d] = bins.m[d] + 2 * pad;
    // Geometry gate: the padded extent must cover each cell at most once so
    // a tile's reach never meets itself across the wrap (see
    // spread_impl.hpp). Violated e.g. by a single bin spanning the axis.
    if (out.p[d] > grid.nf[d]) return false;
    out.padded *= static_cast<std::size_t>(out.p[d]);
  }
  // Fast-path x-loops run pad_width(w) lanes, overhanging the final row by up
  // to the tap-pad slack; give every plane that slack so the overhang stays
  // inside its own slot.
  out.plane = out.padded + static_cast<std::size_t>(pad_width(w) - w);

  // Tile colors: the product of per-axis colorings (unused axes have one bin
  // and one color), so two tiles of one color differ on some axis where their
  // reaches are disjoint.
  std::vector<std::uint32_t> axis_color[3];
  std::uint32_t ncol[3];
  for (int d = 0; d < 3; ++d) {
    axis_color[d].resize(static_cast<std::size_t>(bins.nbins[d]));
    ncol[d] = tile_axis_colors(bins.nbins[d], bins.m[d], grid.nf[d], pad,
                               axis_color[d].data());
  }
  out.n_colors = ncol[0] * ncol[1] * ncol[2];
  const std::size_t nbins = sort.bin_counts.size();
  std::vector<std::uint32_t> color_of(nbins);
  std::vector<std::uint32_t> slot0(out.n_colors + 1, 0);
  for (std::size_t b = 0; b < nbins; ++b) {
    std::int64_t bc[3];
    bin_coords(bins, static_cast<std::uint32_t>(b), bc);
    color_of[b] = axis_color[0][bc[0]] +
                  ncol[0] * (axis_color[1][bc[1]] + ncol[1] * axis_color[2][bc[2]]);
    if (sort.bin_counts[b] > 0) ++slot0[color_of[b] + 1];
  }
  for (std::uint32_t c = 0; c < out.n_colors; ++c) slot0[c + 1] += slot0[c];
  out.n_active = slot0[out.n_colors];
  // Active tiles in (color, bin id) order: a counting sort, stable in bin id.
  out.tile_bin = vgpu::device_buffer<std::uint32_t>(dev, out.n_active);
  {
    std::vector<std::uint32_t> cursor(slot0.begin(), slot0.end() - 1);
    for (std::size_t b = 0; b < nbins; ++b)
      if (sort.bin_counts[b] > 0)
        out.tile_bin[cursor[color_of[b]]++] = static_cast<std::uint32_t>(b);
  }

  // -- canonical chunk split (host-side; setpts-time, like the sort) ---------
  // Resolve the cap, count chunks at that cap, and double the cap until the
  // chunk planes of the color with the most split chunks fit
  // kTileChunkArenaMaxBytes. The budget test excludes the per-worker scratch
  // on purpose: the applied cap must be a pure function of the points, so
  // the summation split (and with it the spread output) is bitwise-identical
  // at every worker count.
  std::uint64_t cap;
  if (chunk_cap > 0) {
    cap = static_cast<std::uint64_t>(chunk_cap);
  } else if (chunk_cap < 0) {
    cap = UINT32_MAX;
  } else {
    // The colors run one after another, so the fullest color sets the pace:
    // about 4 items per hardware thread in its launch. A color of one or two
    // dense tiles (small grids) then still occupies every worker; when one
    // color holds nearly every point (clustered input) this is the
    // whole-set rule max(kTileChunkMin, M / (4 * hw)).
    const std::uint64_t hw = std::max(1u, std::thread::hardware_concurrency());
    std::uint64_t fullest = 0;
    for (std::uint32_t c = 0; c < out.n_colors; ++c) {
      std::uint64_t in_color = 0;
      for (std::uint32_t s = slot0[c]; s < slot0[c + 1]; ++s)
        in_color += sort.bin_counts[out.tile_bin[s]];
      fullest = std::max(fullest, in_color);
    }
    cap = std::max<std::uint64_t>(kTileChunkMin, (fullest + 4 * hw - 1) / (4 * hw));
  }
  auto nchunks = [&](std::uint32_t s) {
    const std::uint64_t cnt = sort.bin_counts[out.tile_bin[s]];
    return (cnt + cap - 1) / cap;
  };
  for (std::uint32_t s = 0; s < out.n_active; ++s)
    out.max_tile_points = std::max(out.max_tile_points, sort.bin_counts[out.tile_bin[s]]);
  for (;;) {
    std::uint64_t most = 0;
    for (std::uint32_t c = 0; c < out.n_colors; ++c) {
      std::uint64_t in_color = 0;
      for (std::uint32_t s = slot0[c]; s < slot0[c + 1]; ++s) {
        const std::uint64_t k = nchunks(s);
        if (k > 1) in_color += k;
      }
      most = std::max(most, in_color);
    }
    if (most * out.plane * 2 * sizeof(T) <= kTileChunkArenaMaxBytes) break;
    cap = cap > UINT32_MAX / 2 ? UINT32_MAX : cap * 2;
  }
  out.chunk_cap = static_cast<std::uint32_t>(std::min<std::uint64_t>(cap, UINT32_MAX));

  std::uint64_t nch = 0, nsplit = 0;
  for (std::uint32_t s = 0; s < out.n_active; ++s) {
    const std::uint64_t k = nchunks(s);
    nch += k;
    if (k > 1) ++nsplit;
  }
  out.n_chunks = static_cast<std::uint32_t>(nch);
  out.n_split = static_cast<std::uint32_t>(nsplit);
  out.tile_chunk0 = vgpu::device_buffer<std::uint32_t>(dev, out.n_active + 1);
  out.chunk_tile = vgpu::device_buffer<std::uint32_t>(dev, out.n_chunks);
  out.chunk_off = vgpu::device_buffer<std::uint32_t>(dev, out.n_chunks);
  out.chunk_cnt = vgpu::device_buffer<std::uint32_t>(dev, out.n_chunks);
  out.chunk_plane = vgpu::device_buffer<std::uint32_t>(dev, out.n_chunks);
  out.split_tile = vgpu::device_buffer<std::uint32_t>(dev, out.n_split);
  out.color_chunk0 = vgpu::device_buffer<std::uint32_t>(dev, out.n_colors + 1);
  out.color_split0 = vgpu::device_buffer<std::uint32_t>(dev, out.n_colors + 1);
  out.sched = vgpu::device_buffer<std::uint32_t>(dev, out.n_chunks);
  std::uint32_t ck = 0, sp = 0;
  for (std::uint32_t c = 0; c < out.n_colors; ++c) {
    out.color_chunk0[c] = ck;
    out.color_split0[c] = sp;
    std::uint32_t cpl = 0;  // chunk planes restart with every color
    for (std::uint32_t s = slot0[c]; s < slot0[c + 1]; ++s) {
      out.tile_chunk0[s] = ck;
      const std::uint64_t cnt = sort.bin_counts[out.tile_bin[s]];
      const std::uint64_t k = nchunks(s);
      if (k > 1) out.split_tile[sp++] = s;
      // Balanced sizes (differing by at most one point) beat cap-sized runs
      // with a small remainder chunk for load balance; the split is a pure
      // function of (cnt, cap), hence canonical.
      const std::uint64_t base = cnt / k, rem = cnt % k;
      std::uint64_t off = 0;
      for (std::uint64_t i = 0; i < k; ++i, ++ck) {
        const std::uint64_t sz = base + (i < rem ? 1 : 0);
        out.chunk_tile[ck] = s;
        out.chunk_off[ck] = static_cast<std::uint32_t>(off);
        out.chunk_cnt[ck] = static_cast<std::uint32_t>(sz);
        out.chunk_plane[ck] = k > 1 ? cpl++ : TileSet<T>::kNoTile;
        off += sz;
      }
    }
    out.color_planes = std::max(out.color_planes, cpl);
    // This color's launch deals its items largest-first.
    std::uint32_t* seg = out.sched.data() + out.color_chunk0[c];
    for (std::uint32_t i = out.color_chunk0[c]; i < ck; ++i) seg[i - out.color_chunk0[c]] = i;
    std::stable_sort(seg, out.sched.data() + ck, [&](std::uint32_t a, std::uint32_t b) {
      return out.chunk_cnt[a] > out.chunk_cnt[b];
    });
  }
  out.tile_chunk0[out.n_active] = ck;
  out.color_chunk0[out.n_colors] = ck;
  out.color_split0[out.n_colors] = sp;
  if (out.n_active > 0) size_tile_scratch(dev, out, B);
  out.usable = true;
  return true;
}

#define CF_INSTANTIATE(T)                                                               \
  template void build_tap_table<T>(vgpu::Device&, int, const KernelParams<T>&,          \
                                   const NuPoints<T>&, const std::uint32_t*,            \
                                   TapTable<T>&);                                       \
  template void classify_interior<T>(vgpu::Device&, const GridSpec&,                    \
                                     const KernelParams<T>&, const NuPoints<T>&,        \
                                     const std::uint32_t*, InteriorPartition&);         \
  template bool build_tile_set<T>(vgpu::Device&, const GridSpec&, const BinSpec&, int,  \
                                  const DeviceSort&, int, TileSet<T>&, int);            \
  template void size_tile_scratch<T>(vgpu::Device&, TileSet<T>&, int);

CF_INSTANTIATE(float)
CF_INSTANTIATE(double)
#undef CF_INSTANTIATE

}  // namespace cf::spread
