// The two service workloads.
//
// slices_open: open loop into NufftService (Shed admission, bounded
// outstanding). Poisson arrivals at one fixed absolute rate; every request is
// a type-2 transform of one shared 32^3 fp32 model (tol 1e-6) at its own
// Ewald slice (1024 points from mtip::ewald_slice_points), so every request
// misses the point fingerprint.
//
// mixed_closed: closed loop into ShardedNufftService (2 shards) with a fixed
// number of requests in flight, drawn with Zipf skew from 12 signatures
// (modes {2D 256^2, 3D 32^3, 3D 64^3} x type {1, 2} x {fp32 1e-5, fp64 1e-9});
// each signature owns a small pool of reusable rand and cluster point sets.
//
// One generator thread sends, and polls the futures between sends; latency
// runs from the scheduled (open) or actual (closed) send time until the
// future is seen resolved.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <thread>

#include "fft/fft.hpp"
#include "harness.hpp"
#include "mtip/geometry.hpp"
#include "service/service.hpp"
#include "service/shard_router.hpp"
#include "vgpu/device.hpp"

namespace pb {
namespace {

using cf::service::ExecReport;
using Clock = std::chrono::steady_clock;

constexpr auto kPoll = std::chrono::microseconds(100);
constexpr std::size_t kBlock = 64;  ///< requests per iteration (see end_to_end)
/// Seeds the open-loop arrival times and the closed-loop request order: both
/// are part of a workload's definition, fixed for every --seed.
constexpr std::uint64_t kScheduleSeed = 0x5eed;

/// Outcome of one request as the generator saw it.
struct Outcome {
  double sched = 0;  ///< scheduled (open) / actual (closed) send, s since start
  double sent = 0;   ///< when submit() was entered
  double done = 0;   ///< when the resolved future was observed
  double submit_s = 0;
  bool ok = false, shed = false, error = false;
  ExecReport rep;
};

/// Collects a resolved future into `o`. Sheds and other failures are
/// recorded, never rethrown.
void collect(std::future<ExecReport>& f, Outcome& o, double now) {
  o.done = now;
  try {
    o.rep = f.get();
    o.ok = true;
  } catch (const cf::service::OverloadedError&) {
    o.shed = true;
  } catch (const std::exception& e) {
    o.error = true;
    std::fprintf(stderr, "request failed: %s\n", e.what());
  }
}

/// Traced-half over untraced-half median execute time (batch heads). Latency
/// would mix in the difference between the halves' arrival bursts.
double trace_overhead(const std::vector<Outcome>& out, double half) {
  std::vector<double> e0, e1;
  for (const auto& o : out)
    if (o.ok && o.rep.batch_index == 0)
      (o.sched < half ? e0 : e1).push_back(o.rep.breakdown.total());
  return median(e1) / median(e0);
}

/// Histogram snapshots of several services merged bucket-wise.
cf::obs::Histogram::Snap merged(const std::vector<const cf::obs::Histogram*>& hs) {
  cf::obs::Histogram::Snap out;
  for (const auto* h : hs) {
    const auto s = h->snap();
    out.count += s.count;
    out.sum += s.sum;
    for (int i = 0; i < cf::obs::Histogram::kBuckets; ++i) out.buckets[i] += s.buckets[i];
  }
  return out;
}

/// Metrics both service workloads derive the same way from their outcomes.
struct Summary {
  std::vector<double> lat_ms;
  double pts = 0;  ///< nonuniform points of completed requests
  std::size_t completed = 0, shed = 0, errors = 0;
  double wall = 0;  ///< first scheduled send -> last resolution
};

Summary summarize(const std::vector<Outcome>& out, const std::vector<std::size_t>& M,
                  Result& res) {
  Summary s;
  double last = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto& o = out[i];
    last = std::max(last, o.done);
    if (o.ok) {
      ++s.completed;
      s.pts += double(M[i]);
      s.lat_ms.push_back((o.done - o.sched) * 1e3);
    }
    s.shed += o.shed;
    s.errors += o.error;
  }
  s.wall = last - (out.empty() ? 0 : out.front().sched);
  res.attempted += out.size();
  res.failed += s.shed + s.errors;
  if (s.errors) res.correct = false;
  return s;
}

void end_to_end(const Summary& s, const std::vector<Outcome>& out, double peak_bytes,
                Result& res) {
  // Execute seconds: each batched execute once, from its head's report.
  double exec_s = 0;
  for (const auto& o : out)
    if (o.ok && o.rep.batch_index == 0) exec_s += o.rep.breakdown.total();
  res.set("throughput_pts_per_s", s.pts / s.wall);
  res.set("exec_pts_per_s", s.pts / exec_s);
  // An iteration of a service workload is a block of kBlock requests (an
  // M-TIP slicing pass, a Zipf cycle): wall seconds per completed block.
  res.set("iter_s", s.wall * double(kBlock) / double(s.completed));
  res.set("requests_per_s", double(s.completed) / s.wall);
  res.set("latency_p50_ms", cf::percentile(s.lat_ms, 50));
  res.set("latency_p99_ms", cf::percentile(s.lat_ms, 99));
  res.set("device_peak_bytes", peak_bytes);
}

/// Per-layer numbers read from the requests' ExecReports (one report per
/// batched execute: the batch head) and from the services' own counters.
void report_layers(const std::vector<Outcome>& out, Result& res) {
  std::vector<double> sort, cache, fft, submit;
  std::size_t type1 = 0, tiled = 0, max_bin = 0;
  for (const auto& o : out) {
    submit.push_back(o.submit_s * 1e6);
    if (!o.ok || o.rep.batch_index != 0) continue;
    const auto& bd = o.rep.breakdown;
    fft.push_back(bd.fft);
    if (!o.rep.points_reused) {
      sort.push_back(bd.sort);
      cache.push_back(bd.cache_build);
      max_bin = std::max(max_bin, bd.max_tile_points);
    }
    if (bd.spread > 0) {
      ++type1;
      tiled += bd.tiled ? 1 : 0;
    }
  }
  res.set("service.submit_us", mean(submit));
  res.set("spreadinterp.sort_s", mean(sort));
  res.set("spreadinterp.cache_build_s", mean(cache));
  res.set("spreadinterp.max_tile_points", double(max_bin));
  res.set("spreadinterp.tiled_share", type1 ? double(tiled) / double(type1) : 0.0);
  res.set("fft.exec_s", mean(fft));
}

void report_service(const cf::service::ServiceStats& st,
                    const std::vector<const cf::obs::ServiceMetrics*>& ms, Result& res) {
  std::vector<const cf::obs::Histogram*> qw, ex;
  for (const auto* m : ms) {
    qw.push_back(m->queue_wait_us);
    ex.push_back(m->execute_us);
  }
  const auto q = merged(qw), e = merged(ex);
  res.set("service.queue_wait_ms.p50", q.percentile(50) * 1e-3);
  res.set("service.queue_wait_ms.p99", q.percentile(99) * 1e-3);
  res.set("service.execute_ms.p50", e.percentile(50) * 1e-3);
  res.set("service.mean_batch",
          st.batches ? double(st.batched_requests) / double(st.batches) : 0.0);
  const double plans = double(st.plan_hits + st.plan_misses);
  const double setpts = double(st.setpts_builds + st.setpts_reuses);
  res.set("service.plan_hit_ratio", plans > 0 ? double(st.plan_hits) / plans : 0.0);
  res.set("service.setpts_reuse_ratio", setpts > 0 ? double(st.setpts_reuses) / setpts : 0.0);
  res.set("service.shed", double(st.shed));
}

/// Working-set bytes of a plan's fine grid at sigma = 2 (computed).
double fine_grid_bytes(int dim, std::int64_t N, std::size_t elem) {
  const double nf = double(cf::fft::next235(std::size_t(2 * N)));
  return std::pow(nf, dim) * double(elem);
}

// ---- slices_open ---------------------------------------------------------------

using cplxf = std::complex<float>;
constexpr std::int64_t kSliceN = 32;
constexpr double kSliceTol = 1e-6;
/// Fixed absolute arrival rate (requests per second, whole), about half of the
/// service's capacity for this request on a 4-core host (75-100 requests/s),
/// so a faster build shows lower latency instead of receiving more load.
constexpr double kSliceRate = 42.0;
constexpr std::size_t kSliceMaxOut = 64;    ///< admission cap (Shed beyond it)
constexpr double kSliceWarmS = 2.0;         ///< unmeasured lead-in at the same rate
constexpr std::int64_t kSliceModes[3] = {kSliceN, kSliceN, kSliceN};

struct Slice {
  std::vector<float> x, y, z;
  std::vector<cplxf> out;
};

Slice make_slice(cf::Rng& rng) {
  const auto R = cf::mtip::random_rotation(rng);
  std::vector<double> x, y, z;
  cf::mtip::ewald_slice_points(R, cf::mtip::DetectorSpec{}, x, y, z);
  Slice s;
  s.x.assign(x.begin(), x.end());
  s.y.assign(y.begin(), y.end());
  s.z.assign(z.begin(), z.end());
  s.out.resize(x.size());
  return s;
}

cf::service::Request<float> slice_request(Slice& s, const cplxf* model) {
  cf::service::Request<float> r;
  r.type = 2;
  r.modes = {kSliceN, kSliceN, kSliceN};
  r.iflag = -1;
  r.tol = kSliceTol;
  r.M = s.x.size();
  r.x = s.x.data();
  r.y = s.y.data();
  r.z = s.z.data();
  r.input = model;
  r.output = s.out.data();
  return r;
}

cf::service::ServiceConfig slice_config() {
  cf::service::ServiceConfig cfg;
  cfg.max_outstanding = kSliceMaxOut;
  cfg.admission = cf::service::Admission::Shed;
  return cfg;
}

}  // namespace

double setup_slices(const Args& a) {
  cf::vgpu::Device dev;
  cf::Rng rng(a.seed, 3);
  const auto model = random_coeffs<float>(std::size_t(kSliceN * kSliceN * kSliceN), rng);
  Slice s = make_slice(rng);
  const double t0 = now_s();
  cf::service::NufftService svc(dev, slice_config());
  svc.submit(slice_request(s, model.data())).get();
  return now_s() - t0;
}

void run_slices(const Args& a, Tracer& tr, Result& res) {
  cf::vgpu::Device dev;
  cf::Rng rng(a.seed, 3);
  const auto model = random_coeffs<float>(std::size_t(kSliceN * kSliceN * kSliceN), rng);

  // The whole schedule and every slice exist before the clock starts. Arrivals
  // are Poisson within each second, stratified across seconds: every second
  // holds exactly kSliceRate requests at uniform random times (a Poisson
  // process conditioned on its count per second). Every run thus holds the
  // same number of requests, and the p99 is not set by a few multi-second
  // surges. The first kSliceWarmS seconds bring the queue to steady state and
  // are not measured. The schedule does not depend on the seed; the seed draws
  // the slices.
  const auto per_s = static_cast<std::size_t>(kSliceRate);
  const auto nw = per_s * static_cast<std::size_t>(kSliceWarmS);
  const auto n = per_s * static_cast<std::size_t>(a.seconds);
  std::vector<double> sched;
  {
    cf::Rng arr(kScheduleSeed, 11);
    const auto secs = static_cast<std::size_t>(kSliceWarmS + a.seconds);
    for (std::size_t s = 0; s < secs; ++s) {
      const std::size_t first = sched.size();
      for (std::size_t k = 0; k < per_s; ++k) sched.push_back(double(s) + arr.uniform());
      std::sort(sched.begin() + std::ptrdiff_t(first), sched.end());
    }
  }
  std::vector<Slice> slices;
  slices.reserve(nw + n);
  for (std::size_t i = 0; i < nw + n; ++i) slices.push_back(make_slice(rng));

  std::vector<Outcome> out(nw + n);
  std::vector<double> lag_ms;
  const bool trace = tr.on();
  std::uint64_t k0 = 0, a0 = 0, m0 = 0, k1 = 0, a1 = 0, m1 = 0, batches = 0;
  int threads = 0;
  // The traced run traces its second half only, to report the overhead.
  const double half = kSliceWarmS + a.seconds / 2;
  {
    cf::service::NufftService svc(dev, slice_config());
    threads = svc.n_threads();
    k0 = dev.counters.kernels_launched.load();
    a0 = dev.counters.global_atomics.load();
    m0 = dev.counters.tile_merge_ops.load();
    std::vector<std::pair<std::size_t, std::future<ExecReport>>> pending;
    const double start = now_s();
    std::size_t next = 0;
    if (trace) tr.set_on(false);
    while (next < sched.size() || !pending.empty()) {
      double now = now_s() - start;
      while (next < sched.size() && sched[next] <= now) {
        auto& o = out[next];
        o.sched = sched[next];
        if (trace && o.sched >= half) tr.set_on(true);
        o.sent = now_s() - start;
        if (next >= nw) lag_ms.push_back((o.sent - o.sched) * 1e3);
        auto f = svc.submit(slice_request(slices[next], model.data()));
        o.submit_s = now_s() - start - o.sent;
        pending.emplace_back(next, std::move(f));
        ++next;
        now = now_s() - start;
      }
      bool any = false;
      for (std::size_t k = 0; k < pending.size();) {
        if (pending[k].second.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          const std::size_t i = pending[k].first;
          collect(pending[k].second, out[i], now_s() - start);
          if (tr.on()) {
            const int id = tr.add("request", (start + out[i].sched) * 1e6,
                                  (out[i].done - out[i].sched) * 1e6, -1, i);
            tr.add("service.submit", (start + out[i].sent) * 1e6, out[i].submit_s * 1e6, id, i);
          }
          pending[k] = std::move(pending.back());
          pending.pop_back();
          any = true;
        } else {
          ++k;
        }
      }
      if (!any) {
        const double wait = next < sched.size() ? sched[next] - (now_s() - start) : 1e-4;
        std::this_thread::sleep_for(std::min<Clock::duration>(
            kPoll, std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(std::max(0.0, wait)))));
      }
    }
    k1 = dev.counters.kernels_launched.load();
    a1 = dev.counters.global_atomics.load();
    m1 = dev.counters.tile_merge_ops.load();
    const auto st = svc.stats();
    batches = st.batches;
    if (trace) report_service(st, {&svc.metrics()}, res);
  }
  // Layer counters cover the warm-up too; the metrics below do not.
  const auto all_ok = std::size_t(
      std::count_if(out.begin(), out.end(), [](const Outcome& o) { return o.ok; }));

  out.erase(out.begin(), out.begin() + std::ptrdiff_t(nw));
  slices.erase(slices.begin(), slices.begin() + std::ptrdiff_t(nw));
  std::vector<std::size_t> M(n);
  for (std::size_t i = 0; i < n; ++i) M[i] = slices[i].x.size();
  const auto s = summarize(out, M, res);
  end_to_end(s, out, double(dev.peak_bytes()), res);

  // Output check on a seeded sample of the completed requests.
  {
    cf::Rng crng(a.seed, 5000);
    for (int q = 0; q < 24; ++q) {
      const std::size_t i = std::size_t(crng.below(n));
      if (!out[i].ok) continue;
      const auto& sl = slices[i];
      const Err e = check_type2<float>(dev.pool(), sl.x.data(), sl.y.data(), sl.z.data(),
                                       sl.x.size(), sl.out, -1, kSliceModes, model, 64, crng);
      res.check("slices", "slice type2 #" + std::to_string(i), e, kSliceTol);
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "slices_open: %zu requests at %.0f/s, %zu completed, %zu shed; 1 device x "
                  "%zu workers, %d dispatch threads",
                  n, kSliceRate, s.completed, s.shed, dev.n_workers(), threads);
    res.note(buf);
  }
  if (!trace) return;

  report_layers(out, res);
  res.set("gen.lag_p99_ms", cf::percentile(lag_ms, 99));
  res.set("vgpu.kernels_launched", all_ok ? double(k1 - k0) / double(all_ok) : 0.0);
  const double nb = batches ? double(batches) : 1.0;
  res.set("vgpu.global_atomics", double(a1 - a0) / nb);
  res.set("vgpu.tile_merge_ops", double(m1 - m0) / nb);
  res.set("trace.overhead", trace_overhead(out, half));
  res.set("input.pair_repeat_share", 0.0);  // every slice is a fresh rotation
  res.set("input.sig_repeat_share", double(n - 1) / double(n));
  res.set("input.points_per_request", double(M[0]));
  res.set("input.modes_per_request", double(kSliceN * kSliceN * kSliceN));
  // Computed: model + fine grid + the in-flight requests' points and outputs.
  const double ws = double(kSliceN * kSliceN * kSliceN) * sizeof(cplxf) +
                    fine_grid_bytes(3, kSliceN, sizeof(cplxf)) +
                    double(kSliceMaxOut) * double(M[0]) * (3 * sizeof(float) + sizeof(cplxf));
  res.set("input.working_set_bytes", ws);
  res.set("input.working_set_over_l3", l3_bytes() ? ws / double(l3_bytes()) : 0.0);
}

// ---- mixed_closed ---------------------------------------------------------------

namespace {

struct Sig {
  int dim;
  std::int64_t N;
  int type;
  bool f64;
  double tol;
  std::size_t M;
};

// Fixed popularity order (Zipf rank 1 first), independent of the seed so that
// every seed sees the same mix: cheap 32^3 / 256^2 signatures are hot, the
// 64^3 and fp64 ones form the tail.
constexpr Sig kSigs[] = {
    {3, 32, 2, false, 1e-5, 8192},   {2, 256, 1, false, 1e-5, 16384},
    {3, 32, 1, false, 1e-5, 8192},   {2, 256, 2, false, 1e-5, 16384},
    {3, 32, 2, true, 1e-9, 8192},    {2, 256, 1, true, 1e-9, 16384},
    {3, 64, 1, false, 1e-5, 32768},  {3, 64, 2, false, 1e-5, 32768},
    {3, 32, 1, true, 1e-9, 8192},    {2, 256, 2, true, 1e-9, 16384},
    {3, 64, 1, true, 1e-9, 32768},   {3, 64, 2, true, 1e-9, 32768},
};
constexpr std::size_t kNsig = sizeof(kSigs) / sizeof(kSigs[0]);
/// Requests per signature in each cycle of 64: Zipf (s = 1.5) shares of the
/// 12 ranks, rounded, in a shuffled order; the mix is exact per cycle.
constexpr int kQuota[kNsig] = {31, 11, 6, 4, 3, 2, 2, 1, 1, 1, 1, 1};
constexpr std::size_t kPoolSize = 4;  ///< point sets per signature: 2 rand, 2 cluster
/// A client reuses a point set for this many of its signature's consecutive
/// requests before moving to the next one in the pool.
constexpr std::size_t kPoolRun = 4;
constexpr std::size_t kInflight = 8;
constexpr int kShards = 2;

std::vector<std::int64_t> sig_modes(const Sig& s) {
  return std::vector<std::int64_t>(std::size_t(s.dim), s.N);
}
std::size_t sig_nmodes(const Sig& s) {
  std::size_t n = 1;
  for (int d = 0; d < s.dim; ++d) n *= std::size_t(s.N);
  return n;
}

template <typename T>
struct SigData {
  std::vector<Points<T>> pool;
  std::vector<std::complex<T>> f;  ///< type-2 input
};

struct MixedInputs {
  std::vector<SigData<float>> f32;
  std::vector<SigData<double>> f64;

  explicit MixedInputs(std::uint64_t seed) : f32(kNsig), f64(kNsig) {
    for (std::size_t s = 0; s < kNsig; ++s) {
      const Sig& g = kSigs[s];
      cf::Rng rng(seed, 300 + s);
      const std::int64_t nf = 2 * g.N;
      auto fill = [&](auto& d, auto tag) {
        using T = decltype(tag);
        for (std::size_t p = 0; p < kPoolSize; ++p)
          d.pool.push_back(make_points<T>(g.dim, g.M, p < 2 ? Dist::Rand : Dist::Cluster,
                                          nf, rng));
        if (g.type == 2) d.f = random_coeffs<T>(sig_nmodes(g), rng);
      };
      if (g.f64)
        fill(f64[s], double{});
      else
        fill(f32[s], float{});
    }
  }
};

template <typename T>
cf::service::Request<T> mixed_request(const Sig& g, const SigData<T>& d, std::size_t pool,
                                      std::complex<T>* out) {
  const auto& p = d.pool[pool];
  cf::service::Request<T> r;
  r.type = g.type;
  r.modes = sig_modes(g);
  r.iflag = g.type == 1 ? +1 : -1;
  r.tol = g.tol;
  r.M = p.M;
  r.x = p.x.data();
  r.y = p.yp();
  r.z = p.zp();
  r.input = g.type == 1 ? p.c.data() : d.f.data();
  r.output = out;
  return r;
}

cf::service::ShardedConfig mixed_config() {
  cf::service::ShardedConfig cfg;
  cfg.shards = kShards;
  return cfg;
}

/// Signature of request i: cycle i / 64 is a fixed shuffle of the quota list.
class MixedSchedule {
 public:
  std::size_t sig(std::size_t i) {
    const std::size_t c = i / 64;
    if (c != cycle_ || cur_.empty()) {
      cur_.clear();
      for (std::size_t s = 0; s < kNsig; ++s) cur_.insert(cur_.end(), std::size_t(kQuota[s]), s);
      cf::Rng rng(kScheduleSeed, 20000 + c);
      for (std::size_t k = cur_.size() - 1; k > 0; --k)
        std::swap(cur_[k], cur_[std::size_t(rng.below(k + 1))]);
      cycle_ = c;
    }
    return cur_[i % 64];
  }

 private:
  std::size_t cycle_ = 0;
  std::vector<std::size_t> cur_;
};

/// One in-flight slot: its own output buffers, big enough for any signature.
struct Slot {
  std::vector<std::complex<float>> of;
  std::vector<std::complex<double>> od;
  std::size_t idx = 0;
  std::future<ExecReport> fut;
  bool active = false;
};

struct Kept {  ///< a sampled request's output, checked after the run
  std::size_t sig, pool;
  std::vector<std::complex<float>> of;
  std::vector<std::complex<double>> od;
};

std::size_t out_size(const Sig& g) { return g.type == 1 ? sig_nmodes(g) : g.M; }

}  // namespace

double setup_mixed(const Args& a) {
  const MixedInputs in(a.seed);
  const Sig& g = kSigs[0];  // the hottest signature, whatever the seed
  std::vector<std::complex<float>> out(out_size(g));
  const double t0 = now_s();
  cf::service::ShardedNufftService svc(mixed_config());
  svc.submit(mixed_request(g, in.f32[0], 0, out.data())).get();
  return now_s() - t0;
}

void run_mixed(const Args& a, Tracer& tr, Result& res) {
  const MixedInputs in(a.seed);
  MixedSchedule sched;
  std::size_t max_out = 0;
  for (const auto& g : kSigs) max_out = std::max(max_out, out_size(g));
  std::vector<Slot> slots(kInflight);
  for (auto& s : slots) {
    s.of.resize(max_out);
    s.od.resize(max_out);
  }

  std::vector<Outcome> out;
  std::vector<std::size_t> M, sig_of, pool_of;
  std::vector<bool> keep;  ///< output checked after the run
  std::vector<std::size_t> uses(kNsig, 0);
  std::vector<Kept> kept;
  const bool trace = tr.on();
  double peak = 0;
  std::uint64_t k0 = 0, a0 = 0, m0 = 0, k1 = 0, a1 = 0, m1 = 0, batches = 0;
  cf::service::ShardedStats st;
  std::string shards;
  {
    cf::service::ShardedNufftService svc(mixed_config());
    shards = std::to_string(svc.n_shards()) + " shards x " +
             std::to_string(svc.device(0).n_workers()) + " device workers, " +
             std::to_string(svc.shard(0).n_threads()) + " dispatch threads each";
    std::vector<const cf::obs::ServiceMetrics*> ms;
    for (int i = 0; i < svc.n_shards(); ++i) ms.push_back(&svc.shard(i).metrics());
    auto dev_sum = [&](auto field) {
      std::uint64_t v = 0;
      for (int i = 0; i < svc.n_shards(); ++i) v += (svc.device(i).counters.*field).load();
      return v;
    };
    using C = cf::vgpu::DeviceCounters;
    k0 = dev_sum(&C::kernels_launched);
    a0 = dev_sum(&C::global_atomics);
    m0 = dev_sum(&C::tile_merge_ops);

    const double start = now_s();
    if (trace) tr.set_on(false);
    auto send = [&](Slot& slot) {
      const std::size_t i = out.size();
      const std::size_t s = sched.sig(i);
      const Sig& g = kSigs[s];
      // Check the first request of every signature plus a seeded 3% sample.
      keep.push_back(uses[s] == 0 || cf::Rng(a.seed, 9000 + i).uniform() < 0.03);
      const std::size_t p = (uses[s]++ / kPoolRun) % kPoolSize;
      out.emplace_back();
      M.push_back(g.M);
      sig_of.push_back(s);
      pool_of.push_back(p);
      auto& o = out.back();
      o.sched = o.sent = now_s() - start;
      if (trace && o.sched >= a.seconds / 2) tr.set_on(true);
      slot.fut = g.f64 ? svc.submit(mixed_request(g, in.f64[s], p, slot.od.data()))
                       : svc.submit(mixed_request(g, in.f32[s], p, slot.of.data()));
      o.submit_s = now_s() - start - o.sent;
      slot.idx = i;
      slot.active = true;
    };
    for (auto& slot : slots) send(slot);
    for (;;) {
      bool any = false, active = false;
      for (auto& slot : slots) {
        if (!slot.active) continue;
        active = true;
        if (slot.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
          continue;
        any = true;
        const std::size_t i = slot.idx;
        collect(slot.fut, out[i], now_s() - start);
        slot.active = false;
        if (tr.on()) {
          const int id = tr.add("request", (start + out[i].sched) * 1e6,
                                (out[i].done - out[i].sched) * 1e6, -1, i);
          tr.add("service.submit", (start + out[i].sent) * 1e6, out[i].submit_s * 1e6, id, i);
        }
        if (out[i].ok && keep[i]) {
          const Sig& g = kSigs[sig_of[i]];
          Kept k{sig_of[i], pool_of[i], {}, {}};
          if (g.f64)
            k.od.assign(slot.od.begin(), slot.od.begin() + std::ptrdiff_t(out_size(g)));
          else
            k.of.assign(slot.of.begin(), slot.of.begin() + std::ptrdiff_t(out_size(g)));
          kept.push_back(std::move(k));
        }
        if (now_s() - start < a.seconds) send(slot);
      }
      if (!active) break;
      if (!any) std::this_thread::sleep_for(kPoll);
    }
    svc.drain();
    k1 = dev_sum(&C::kernels_launched);
    a1 = dev_sum(&C::global_atomics);
    m1 = dev_sum(&C::tile_merge_ops);
    st = svc.stats();
    batches = st.total.batches;
    for (int i = 0; i < svc.n_shards(); ++i) peak += double(svc.device(i).peak_bytes());
    if (trace) report_service(st.total, ms, res);
  }

  const auto s = summarize(out, M, res);
  end_to_end(s, out, peak, res);

  // Output checks.
  {
    cf::ThreadPool pool(nproc());
    cf::Rng crng(a.seed, 5000);
    for (const auto& k : kept) {
      const Sig& g = kSigs[k.sig];
      const auto N = sig_modes(g);
      char what[64];
      std::snprintf(what, sizeof what, "sig%zu.type%d.%s", k.sig, g.type, g.f64 ? "fp64" : "fp32");
      // One pooled group per precision/tolerance class.
      const std::string group = g.f64 ? "fp64" : "fp32";
      Err e;
      if (g.f64) {
        const auto& p = in.f64[k.sig].pool[k.pool];
        e = g.type == 1 ? check_type1<double>(pool, p, p.c, +1, N, k.od, 128, crng)
                        : check_type2<double>(pool, p.x.data(), p.yp(), p.zp(), p.M, k.od, -1,
                                              N, in.f64[k.sig].f, 128, crng);
      } else {
        const auto& p = in.f32[k.sig].pool[k.pool];
        e = g.type == 1 ? check_type1<float>(pool, p, p.c, +1, N, k.of, 128, crng)
                        : check_type2<float>(pool, p.x.data(), p.yp(), p.zp(), p.M, k.of, -1,
                                             N, in.f32[k.sig].f, 128, crng);
      }
      res.check(group, what, e, g.tol);
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "mixed_closed: %zu requests, %zu in flight, %zu completed, %zu checked; %s",
                  out.size(), kInflight, s.completed, kept.size(), shards.c_str());
    res.note(buf);
  }
  if (!trace) return;

  report_layers(out, res);
  const double nb = batches ? double(batches) : 1.0;
  res.set("vgpu.kernels_launched", s.completed ? double(k1 - k0) / double(s.completed) : 0.0);
  res.set("vgpu.global_atomics", double(a1 - a0) / nb);
  res.set("vgpu.tile_merge_ops", double(m1 - m0) / nb);
  res.set("shard.sticky_hit_ratio", st.routed ? double(st.sticky_hits) / double(st.routed) : 0.0);
  res.set("shard.migrations", double(st.migrations));
  double cmax = 0, csum = 0;
  for (const auto& sh : st.shards) {
    cmax = std::max(cmax, double(sh.completed));
    csum += double(sh.completed);
  }
  res.set("shard.completed_imbalance", csum > 0 ? cmax / (csum / double(st.shards.size())) : 0.0);
  res.set("trace.overhead", trace_overhead(out, a.seconds / 2));

  // Where the device time goes, per signature (batch-head execute seconds).
  {
    std::vector<double> exec(kNsig, 0);
    std::vector<std::size_t> count(kNsig, 0);
    double total = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      ++count[sig_of[i]];
      if (out[i].ok && out[i].rep.batch_index == 0) {
        exec[sig_of[i]] += out[i].rep.breakdown.total();
        total += out[i].rep.breakdown.total();
      }
    }
    for (std::size_t g = 0; g < kNsig; ++g) {
      const Sig& sg = kSigs[g];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "sig%zu %dD %lld^%d type%d %s: %5.1f%% of requests, %5.1f%% of execute time",
                    g, sg.dim, static_cast<long long>(sg.N), sg.dim, sg.type,
                    sg.f64 ? "fp64" : "fp32", 100.0 * double(count[g]) / double(out.size()),
                    100.0 * exec[g] / total);
      res.note(buf);
    }
  }

  // Input properties.
  std::size_t pair_rep = 0, sig_rep = 0;
  {
    std::vector<std::vector<bool>> seen(kNsig, std::vector<bool>(kPoolSize, false));
    std::vector<bool> sseen(kNsig, false);
    for (std::size_t i = 0; i < out.size(); ++i) {
      pair_rep += seen[sig_of[i]][pool_of[i]];
      sig_rep += sseen[sig_of[i]];
      seen[sig_of[i]][pool_of[i]] = true;
      sseen[sig_of[i]] = true;
    }
  }
  const double n = double(out.size());
  double pts = 0, modes = 0, ws = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    pts += double(kSigs[sig_of[i]].M);
    modes += double(sig_nmodes(kSigs[sig_of[i]]));
  }
  // Computed: every signature's point pool, type-2 input and one fine-grid
  // plane, plus the in-flight slots' output buffers.
  for (const auto& g : kSigs) {
    const std::size_t rb = g.f64 ? sizeof(double) : sizeof(float);
    ws += double(kPoolSize) * double(g.M) * double(g.dim * rb + 2 * rb);
    if (g.type == 2) ws += double(sig_nmodes(g)) * double(2 * rb);
    ws += fine_grid_bytes(g.dim, g.N, 2 * rb);
  }
  ws += double(kInflight) * double(max_out) * (sizeof(std::complex<float>) + sizeof(std::complex<double>));
  res.set("input.pair_repeat_share", double(pair_rep) / n);
  res.set("input.sig_repeat_share", double(sig_rep) / n);
  res.set("input.points_per_request", pts / n);
  res.set("input.modes_per_request", modes / n);
  res.set("input.working_set_bytes", ws);
  res.set("input.working_set_over_l3", l3_bytes() ? ws / double(l3_bytes()) : 0.0);
}

}  // namespace pb
