#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <numeric>
#include <thread>

#include "common/clock.hpp"
#include "cpu/direct.hpp"

namespace pb {

void Result::check(const std::string& group, const std::string& what, const Err& e,
                   double tol) {
  auto& p = pools_[group];
  p.diff2 += e.diff2;
  p.ref2 += e.ref2;
  p.tol = tol;
  if (!(e.rel <= kTolFactor * tol)) {  // also catches NaN
    correct = false;
    ++failed;
    char buf[200];
    std::snprintf(buf, sizeof buf, "OUT OF TOLERANCE: %s rel_l2=%.3e > %g x tol=%.1e",
                  what.c_str(), e.rel, kTolFactor, tol);
    note(buf);
    std::fprintf(stderr, "%s\n", buf);
  }
}

double Result::err_over_tol() {
  double worst = 0;
  for (const auto& [name, p] : pools_) {
    const double rel = p.ref2 > 0 ? std::sqrt(p.diff2 / p.ref2) : 0.0;
    worst = std::max(worst, std::isfinite(rel) ? rel / p.tol : 1e300);
    char buf[160];
    std::snprintf(buf, sizeof buf, "pooled check %s: rel_l2 %.3e = %.3f x tol", name.c_str(),
                  rel, rel / p.tol);
    note(buf);
  }
  return worst;
}

// ---- spans ------------------------------------------------------------------

namespace {
thread_local std::vector<int> t_stack;
std::atomic<std::uint32_t> g_next_tid{0};
std::uint32_t thread_index() {
  thread_local const std::uint32_t id = g_next_tid.fetch_add(1);
  return id;
}
}  // namespace

int Tracer::begin(const char* name, std::uint64_t req) {
  if (!on_) return -1;
  const double t0 = cf::mono::now_us();
  std::lock_guard lk(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, t0, t0, t_stack.empty() ? -1 : t_stack.back(), req,
                    thread_index()});
  t_stack.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double t1 = cf::mono::now_us();
  std::lock_guard lk(mu_);
  spans_[static_cast<std::size_t>(id)].t1_us = t1;
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

int Tracer::add(const char* name, double t0_us, double dur_us, int parent,
                std::uint64_t req) {
  if (!on_) return -1;
  std::lock_guard lk(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, t0_us, t0_us + dur_us, parent, req, thread_index()});
  return id;
}

std::size_t Tracer::size() const {
  std::lock_guard lk(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  std::lock_guard lk(mu_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const auto& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0_us, s.t1_us);
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const double dur = s.t1_us - s.t0_us;
    // Union of the children's intervals clipped to this span.
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0, lo = s.t0_us, hi = s.t0_us;
    for (auto [a, b] : k) {
      a = std::clamp(a, s.t0_us, s.t1_us);
      b = std::clamp(b, s.t0_us, s.t1_us);
      if (a > hi) {
        covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    covered += hi - lo;
    auto& l = out[s.name];
    ++l.calls;
    l.incl_s += dur * 1e-6;
    l.self_s += std::max(0.0, dur - covered) * 1e-6;
  }
  return out;
}

bool Tracer::export_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard lk(mu_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"req\":%llu}}\n",
                 i ? "," : "", s.name, s.t0_us, s.t1_us - s.t0_us, s.tid, i, s.parent,
                 static_cast<unsigned long long>(s.req));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void setpts_children(Tracer& tr, int parent, double t0_us, const cf::core::Breakdown& bd) {
  if (!tr.on()) return;
  tr.add("spreadinterp.sort", t0_us, bd.sort * 1e6, parent);
  tr.add("spreadinterp.cache_build", t0_us + bd.sort * 1e6, bd.cache_build * 1e6, parent);
}

void exec_children(Tracer& tr, int parent, double t0_us, const cf::core::Breakdown& bd,
                   int type) {
  if (!tr.on()) return;
  double t = t0_us;
  auto child = [&](const char* name, double s) {
    tr.add(name, t, s * 1e6, parent);
    t += s * 1e6;
  };
  if (type == 1) {
    child("spreadinterp.spread", bd.spread);
    child("fft.exec", bd.fft);
    child("core.deconvolve", bd.deconvolve);
  } else {
    child("fft.exec", bd.fft);
    child("spreadinterp.interp", bd.interp);
  }
}

// ---- inputs -------------------------------------------------------------------

template <typename T>
Points<T> make_points(int dim, std::size_t M, Dist dist, std::int64_t nf, cf::Rng& rng) {
  Points<T> p;
  p.M = M;
  p.x.resize(M);
  if (dim >= 2) p.y.resize(M);
  if (dim >= 3) p.z.resize(M);
  p.c.resize(M);
  const double pi = std::numbers::pi;
  const double hi = dist == Dist::Rand ? pi : -pi + 8.0 * 2.0 * pi / double(nf);
  for (std::size_t j = 0; j < M; ++j) {
    p.x[j] = static_cast<T>(rng.uniform(-pi, hi));
    if (dim >= 2) p.y[j] = static_cast<T>(rng.uniform(-pi, hi));
    if (dim >= 3) p.z[j] = static_cast<T>(rng.uniform(-pi, hi));
    p.c[j] = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }
  return p;
}

template <typename T>
std::vector<std::complex<T>> random_coeffs(std::size_t n, cf::Rng& rng) {
  std::vector<std::complex<T>> v(n);
  for (auto& e : v)
    e = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  return v;
}

// ---- checks -------------------------------------------------------------------

namespace {
template <typename T>
Err make_err(const std::vector<std::complex<T>>& got, const std::vector<std::complex<T>>& want) {
  Err e;
  e.rel = cf::cpu::rel_l2_error<T>(got, want);
  for (std::size_t i = 0; i < got.size(); ++i) {
    e.diff2 += std::norm(std::complex<double>(got[i]) - std::complex<double>(want[i]));
    e.ref2 += std::norm(std::complex<double>(want[i]));
  }
  return e;
}
}  // namespace

template <typename T>
Err check_type1(cf::ThreadPool& pool, const Points<T>& pts,
                std::span<const std::complex<T>> c, int iflag,
                std::span<const std::int64_t> N, std::span<const std::complex<T>> f,
                std::size_t nsample, cf::Rng& rng, int core) {
  const int dim = static_cast<int>(N.size());
  std::vector<std::array<std::int64_t, 3>> picks;  // mode offsets i_d = k_d + N_d / 2
  if (core > 0) {
    const std::int64_t side = 2 * core + 1;
    const std::int64_t count = dim == 1 ? side : dim == 2 ? side * side : side * side * side;
    for (std::int64_t q = 0; q < count; ++q) {
      std::array<std::int64_t, 3> i{0, 0, 0};
      std::int64_t r = q;
      for (int d = 0; d < dim; ++d, r /= side) i[d] = N[d] / 2 - core + r % side;
      picks.push_back(i);
    }
  }
  for (std::size_t q = 0; q < nsample; ++q) {
    std::array<std::int64_t, 3> i{0, 0, 0};
    for (int d = 0; d < dim; ++d)
      i[d] = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(N[d])));
    picks.push_back(i);
  }
  const std::size_t n = picks.size();
  std::vector<T> s(n), t(dim >= 2 ? n : 0), u(dim >= 3 ? n : 0);
  std::vector<std::complex<T>> got(n), want(n);
  for (std::size_t q = 0; q < n; ++q) {
    std::int64_t idx = 0, stride = 1;
    for (int d = 0; d < dim; ++d) {
      (d == 0 ? s : d == 1 ? t : u)[q] = static_cast<T>(picks[q][d] - N[d] / 2);
      idx += picks[q][d] * stride;
      stride *= N[d];
    }
    got[q] = f[static_cast<std::size_t>(idx)];
  }
  cf::cpu::direct_type3<T>(pool, pts.x, pts.y, pts.z, c, iflag, s, t, u, want);
  return make_err<T>(got, want);
}

template <typename T>
Err check_type2(cf::ThreadPool& pool, const T* x, const T* y, const T* z, std::size_t M,
                std::span<const std::complex<T>> c, int iflag,
                std::span<const std::int64_t> N, std::span<const std::complex<T>> f,
                std::size_t nsample, cf::Rng& rng) {
  const int dim = static_cast<int>(N.size());
  std::vector<T> xs(nsample), ys(dim >= 2 ? nsample : 0), zs(dim >= 3 ? nsample : 0);
  std::vector<std::complex<T>> got(nsample), want(nsample);
  for (std::size_t q = 0; q < nsample; ++q) {
    const auto j = static_cast<std::size_t>(rng.below(M));
    xs[q] = x[j];
    if (dim >= 2) ys[q] = y[j];
    if (dim >= 3) zs[q] = z[j];
    got[q] = c[j];
  }
  cf::cpu::direct_type2<T>(pool, xs, ys, zs, want, iflag, N, f);
  return make_err<T>(got, want);
}

#define PB_INSTANTIATE(T)                                                              \
  template Points<T> make_points<T>(int, std::size_t, Dist, std::int64_t, cf::Rng&);   \
  template std::vector<std::complex<T>> random_coeffs<T>(std::size_t, cf::Rng&);       \
  template Err check_type1<T>(cf::ThreadPool&, const Points<T>&,                    \
                                 std::span<const std::complex<T>>, int,                \
                                 std::span<const std::int64_t>,                        \
                                 std::span<const std::complex<T>>, std::size_t,        \
                                 cf::Rng&, int);                                       \
  template Err check_type2<T>(cf::ThreadPool&, const T*, const T*, const T*,        \
                                 std::size_t, std::span<const std::complex<T>>, int,   \
                                 std::span<const std::int64_t>,                        \
                                 std::span<const std::complex<T>>, std::size_t,        \
                                 cf::Rng&);
PB_INSTANTIATE(float)
PB_INSTANTIATE(double)
#undef PB_INSTANTIATE

// ---- statistics / machine ---------------------------------------------------------

double median(std::vector<double> v) { return cf::percentile(std::move(v), 50); }

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / double(v.size());
}

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

std::size_t l3_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
#else
  return 0;
#endif
}

std::string machine_facts() {
  auto kib = [](long v) { return v > 0 ? std::to_string(v / 1024) + " KiB" : std::string("?"); };
  long l1 = -1, l2 = -1;
#ifdef _SC_LEVEL1_DCACHE_SIZE
  l1 = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  return "nproc " + std::to_string(nproc()) + ", L1d " + kib(l1) + ", L2 " + kib(l2) +
         ", L3 " + kib(static_cast<long>(l3_bytes()));
}

double now_s() { return cf::mono::now_us() * 1e-6; }

}  // namespace pb
