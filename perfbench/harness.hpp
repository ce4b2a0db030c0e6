// Shared pieces of the repo benchmark: run arguments, the metric sink, the
// benchmark's own span tracer, seeded input generation, and the output checks
// against the direct (O(N*M)) sums.
#pragma once

#include <complex>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/plan.hpp"

namespace pb {

struct Args {
  std::string workload;
  std::string phase = "run";  ///< "run" (measure) or "setup" (one cold set-up)
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  ///< where the traced run writes its files
};

/// An output is out of tolerance when its relative l2 error exceeds this
/// multiple of the requested tolerance: the accuracy contract the library's
/// own tests enforce (tests/test_plan.cpp, tests/test_cpu.cpp). The requested
/// tolerance picks the kernel width; it is not a hard bound, and fp32 near its
/// rounding floor or fp64 at 1e-9 lands a small factor above it.
inline constexpr double kTolFactor = 10.0;

/// One output check: the relative l2 error of the sampled entries against
/// the direct sum, plus the squared norms it came from so that checks can be
/// pooled.
struct Err {
  double rel = 0;   ///< cpu::rel_l2_error(got, want)
  double diff2 = 0; ///< ||got - want||^2
  double ref2 = 0;  ///< ||want||^2
};

/// What one process reports: the verdict, the request ledger and every
/// metric by name (units live in BENCHMARK.json; run.py attaches them).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;  ///< human-readable lines (input facts, checks)

  void set(const std::string& name, double v) { metrics[name] = v; }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records one output check of `group` (checks of one transform kind, pooled
  /// for err_over_tol). An error above kTolFactor x tol fails the run.
  void check(const std::string& group, const std::string& what, const Err& e, double tol);
  /// Worst over groups of the pooled relative l2 error divided by the
  /// requested tolerance (raw ratio, not the pass criterion). Also notes each
  /// group's pooled error.
  double err_over_tol();

 private:
  struct Pool {
    double diff2 = 0, ref2 = 0, tol = 1;
  };
  std::map<std::string, Pool> pools_;
};

// ---- spans ----------------------------------------------------------------

/// The benchmark's own tracer: spans wrap the public calls the workloads make
/// (plus synthetic children imported from a returned Breakdown). Off means
/// every call is a no-op, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  /// Pauses/resumes recording (the traced run measures an untraced half).
  void set_on(bool on) { on_ = on; }

  /// Opens a span as a child of the innermost open span on this thread.
  int begin(const char* name, std::uint64_t req = 0);
  void end(int id);
  /// Closed span with explicit times (microseconds on the cf::mono timeline).
  int add(const char* name, double t0_us, double dur_us, int parent,
          std::uint64_t req = 0);

  /// Per-name totals: calls, inclusive seconds, and self seconds (duration
  /// minus the part of it covered by child spans).
  struct Layer {
    std::uint64_t calls = 0;
    double incl_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Layer> layers() const;
  bool export_chrome(const std::string& path) const;
  std::size_t size() const;

 private:
  struct Span {
    const char* name;
    double t0_us, t1_us;
    int parent;
    std::uint64_t req;
    std::uint32_t tid;
  };
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Imports a returned Breakdown as child spans of `parent`, laid out
/// sequentially from t0_us (a Breakdown holds durations, not stamps):
/// set-points stages (sort, cache build) or execute stages (spread | fft |
/// deconvolve for type 1, fft | interp for type 2).
void setpts_children(Tracer& tr, int parent, double t0_us, const cf::core::Breakdown& bd);
void exec_children(Tracer& tr, int parent, double t0_us, const cf::core::Breakdown& bd,
                   int type);

/// RAII span around one public call.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t req = 0)
      : t_(t), id_(t.begin(name, req)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// ---- inputs ----------------------------------------------------------------

enum class Dist { Rand, Cluster };
inline const char* dist_name(Dist d) { return d == Dist::Rand ? "rand" : "cluster"; }

/// Nonuniform points in [-pi, pi)^dim with random strengths. "rand" is iid
/// over the box; "cluster" is iid in [-pi, -pi + 8h)^dim with h the spacing
/// of a fine grid with nf points per axis (the paper's Sec. IV tasks).
template <typename T>
struct Points {
  std::vector<T> x, y, z;
  std::vector<std::complex<T>> c;
  std::size_t M = 0;
  const T* yp() const { return y.empty() ? nullptr : y.data(); }
  const T* zp() const { return z.empty() ? nullptr : z.data(); }
};

template <typename T>
Points<T> make_points(int dim, std::size_t M, Dist dist, std::int64_t nf,
                      cf::Rng& rng);

/// Random complex vector with entries uniform in [-1, 1]^2.
template <typename T>
std::vector<std::complex<T>> random_coeffs(std::size_t n, cf::Rng& rng);

// ---- output checks -----------------------------------------------------------

/// Relative l2 error of a type-1 output `f` (modes per axis `N`,
/// k = -N/2..N/2-1, x fastest) over `nsample` seeded modes, plus every mode
/// with all |k_d| <= core, against the direct sum over all points
/// (cpu::direct_type3 evaluated at the sampled integer frequencies is exactly
/// the type-1 sum restricted to those modes). The core matters where the
/// output's energy sits in a few low modes, which a uniform sample misses.
template <typename T>
Err check_type1(cf::ThreadPool& pool, const Points<T>& pts,
                std::span<const std::complex<T>> c, int iflag,
                std::span<const std::int64_t> N, std::span<const std::complex<T>> f,
                std::size_t nsample, cf::Rng& rng, int core = 0);

/// Same for a type-2 output `c` at `nsample` seeded points, against
/// cpu::direct_type2 over the full mode grid `f`.
template <typename T>
Err check_type2(cf::ThreadPool& pool, const T* x, const T* y, const T* z, std::size_t M,
                std::span<const std::complex<T>> c, int iflag,
                std::span<const std::int64_t> N, std::span<const std::complex<T>> f,
                std::size_t nsample, cf::Rng& rng);

// ---- small statistics ----------------------------------------------------------

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Machine facts recorded with every run.
std::size_t nproc();
std::size_t l3_bytes();  ///< 0 when the platform does not report it
/// "nproc 4, L1d 48 KiB, L2 2048 KiB, L3 307200 KiB" (per-core L1d/L2).
std::string machine_facts();

/// Monotonic seconds since the process epoch (cf::mono timeline).
double now_s();

// ---- workloads -------------------------------------------------------------
// Each `setup_*` performs one cold set-up and returns its seconds; each `run_*`
// measures for args.seconds and fills `res`.

double setup_bulk(const Args& a);
void run_bulk(const Args& a, Tracer& tr, Result& res);
double setup_mtip(const Args& a);
void run_mtip(const Args& a, Tracer& tr, Result& res);
double setup_slices(const Args& a);
void run_slices(const Args& a, Tracer& tr, Result& res);
double setup_mixed(const Args& a);
void run_mixed(const Args& a, Tracer& tr, Result& res);

}  // namespace pb
