// Signature-keyed LRU plan registry for the concurrent NUFFT service.
//
// Plan construction (FFT twiddle tables, Horner coefficients, deconvolution
// factors) and set_points (fold-rescale, bin sort, tap table, tile set) are
// the two expensive per-problem setups the paper's plan/setpts/execute
// lifecycle amortizes. The registry extends that amortization ACROSS
// independent callers: requests carrying the same transform signature
// (backend, precision, type, dim, modes, iflag, tol, and every
// result-affecting option) share one plan, and a 64-bit fingerprint of the
// point coordinates lets a repeated geometry skip set_points entirely — the
// service-level analogue of the plan-resident PointCache.
//
// Entries are handed out as shared_ptr: eviction (LRU, capacity-bounded)
// only drops the registry's reference, so in-flight dispatches finish on the
// plan they hold. Each entry carries its own mutex serializing plan
// construction, set_points, and execute for that signature.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "core/plan.hpp"
#include "cpu/cpu_plan.hpp"
#include "obs/obs.hpp"

namespace cf::service {

/// Which library executes the transform. Both run on the device's worker
/// pool, so service concurrency never oversubscribes the host.
enum class Backend : std::uint8_t { Device = 0, Cpu = 1 };

/// Transform signature: everything that must match for two requests to share
/// a plan (and therefore to coalesce into one batched execute). ntransf is
/// deliberately absent — the service picks the batch size per dispatch.
/// Fields the chosen backend ignores are NORMALIZED by make_plan_key (the
/// device-only method under Backend::Cpu), so option noise a backend cannot
/// observe never splits otherwise-identical requests into plans that refuse
/// to coalesce.
struct PlanKey {
  std::uint8_t backend = 0;    ///< Backend enum value
  std::uint8_t precision = 0;  ///< 0 = float, 1 = double
  std::int32_t type = 1;
  std::int32_t dim = 1;
  std::int32_t iflag = 1;
  std::int64_t N[3] = {1, 1, 1};
  double tol = 1e-6;
  std::int32_t method = 0;  ///< core::Method as int
  std::int32_t msub = 0;
  std::int32_t binsize[3] = {0, 0, 0};
  std::int32_t kerevalmeth = 0;
  std::int32_t modeord = 0;
  std::int32_t tile_chunk_cap = 0;  ///< 0 = auto; caps change tile geometry & bits
  double upsampfac = 2.0;  ///< fine-grid sigma; changes width, grid, and bits,
                           ///< so two sigma values are two plans

  bool operator==(const PlanKey&) const = default;
};

/// Builds the signature of a request (T selects the precision tag).
template <typename T>
PlanKey make_plan_key(Backend backend, int type, int dim, const std::int64_t* nmodes,
                      int iflag, double tol, const core::Options& opts);

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const;
};

/// 64-bit FNV-1a over the raw coordinate arrays (plus M and dim), computed on
/// the submitting thread. Matching fingerprints let the dispatcher reuse the
/// plan's current set_points; the probability of a spurious 64-bit match is
/// negligible next to hardware fault rates, mirroring content-addressed
/// caches elsewhere.
template <typename T>
std::uint64_t point_fingerprint(int dim, std::size_t M, const T* x, const T* y,
                                const T* z);

/// Type-3 fingerprint: hashes BOTH point sets (sources and target
/// frequencies), since set_points binds the plan's geometry-derived fine
/// grid, corrections, and phases to the pair.
template <typename T>
std::uint64_t point_fingerprint3(int dim, std::size_t M, const T* x, const T* y,
                                 const T* z, std::size_t K, const T* s, const T* t,
                                 const T* u);

/// Type-erased plan: the registry stores one of four concrete instantiations
/// (Device/Cpu x float/double) behind the precision- and backend-agnostic
/// base, and dispatchers downcast through typed_plan<T>().
class PlanBase {
 public:
  virtual ~PlanBase() = default;
};

/// The typed backend interface the service drives. Breakdown is the device
/// library's, which the CPU comparator returns as well.
template <typename T>
class TypedPlan : public PlanBase {
 public:
  virtual void set_points(std::size_t M, const T* x, const T* y, const T* z) = 0;
  virtual core::Breakdown execute(std::complex<T>* c, std::complex<T>* f, int B) = 0;
  virtual std::int64_t modes_total() const = 0;

  /// Type-3 surface (sources AND target frequencies; single-vector execute).
  /// Only Type3BackendPlan overrides these — PlanKey::type routes each
  /// registry entry to exactly one surface, so these defaults firing means a
  /// dispatcher bug, not a user error.
  virtual void set_points3(std::size_t /*M*/, const T*, const T*, const T*,
                           std::size_t /*K*/, const T*, const T*, const T*) {
    throw std::logic_error("TypedPlan: set_points3 on a type-1/2 plan");
  }
  virtual void execute3(std::complex<T>*, std::complex<T>*) {
    throw std::logic_error("TypedPlan: execute3 on a type-1/2 plan");
  }
};

/// Constructs the backend plan for `key` (batched executes sized up to
/// max_batch planes). Throws std::invalid_argument for bad signatures — the
/// service propagates that through the request futures.
std::unique_ptr<PlanBase> make_backend_plan(const PlanKey& key, vgpu::Device& dev,
                                            int max_batch);

/// One registry entry; `mu` serializes construction, set_points, and execute
/// for this signature (different signatures run concurrently).
struct PlanEntry {
  PlanKey key;
  std::mutex mu;
  std::unique_ptr<PlanBase> plan;    ///< built under mu by the first dispatcher
  std::uint64_t fingerprint = 0;     ///< point set currently loaded (0 = none)
  std::size_t M = 0;
  std::size_t K = 0;                 ///< type-3 target count currently loaded
  std::uint64_t executes = 0;        ///< dispatches served by this entry
};

/// Registry counters (monotonic; read via PlanRegistry::stats).
struct RegistryStats {
  std::uint64_t hits = 0;        ///< acquire found the signature cached
  std::uint64_t misses = 0;      ///< acquire created a fresh entry
  std::uint64_t evictions = 0;   ///< LRU entries dropped at capacity
  std::size_t size = 0;          ///< entries currently resident
};

/// LRU map PlanKey -> PlanEntry. acquire() is the only mutator; it touches
/// the entry to most-recently-used and evicts the tail beyond `capacity`.
class PlanRegistry {
 public:
  explicit PlanRegistry(std::size_t capacity);

  /// Returns the entry for `key`, creating (plan unbuilt) and evicting as
  /// needed. Thread-safe; the returned shared_ptr pins the entry against
  /// eviction for the caller's lifetime.
  std::shared_ptr<PlanEntry> acquire(const PlanKey& key);

  RegistryStats stats() const;

  /// Mirrors future hit/miss/eviction increments into the owning service's
  /// obs counters (additive; RegistryStats stays the source of truth). Call
  /// before any acquire; null pointers skip the mirror.
  void bind_counters(obs::Counter* hits, obs::Counter* misses,
                     obs::Counter* evictions) {
    hits_obs_ = hits;
    misses_obs_ = misses;
    evictions_obs_ = evictions;
  }

 private:
  std::size_t cap_;
  mutable std::mutex mu_;
  std::list<std::shared_ptr<PlanEntry>> lru_;  ///< front = most recent
  std::unordered_map<PlanKey, std::list<std::shared_ptr<PlanEntry>>::iterator,
                     PlanKeyHash>
      map_;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
  obs::Counter* hits_obs_ = nullptr;
  obs::Counter* misses_obs_ = nullptr;
  obs::Counter* evictions_obs_ = nullptr;
};

}  // namespace cf::service
