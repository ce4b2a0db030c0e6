#include "service/plan_registry.hpp"

#include <span>
#include <stdexcept>

#include "core/type3.hpp"

namespace cf::service {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

template <typename V>
inline std::uint64_t fnv1a_value(std::uint64_t h, const V& v) {
  return fnv1a(h, &v, sizeof(V));
}

core::Options options_from_key(const PlanKey& key, int max_batch) {
  core::Options o;
  o.method = static_cast<core::Method>(key.method);
  if (key.msub > 0) o.msub = static_cast<std::uint32_t>(key.msub);
  o.binsize = {key.binsize[0], key.binsize[1], key.binsize[2]};
  // Batched executes up to the coalescing cap. ntransf > 1 also makes a
  // tiled GM-sort type-1 plan stream a plan-resident tap table instead of
  // re-evaluating taps every execute (bitwise-identical output).
  o.ntransf = max_batch;
  o.kerevalmeth = key.kerevalmeth;
  o.modeord = key.modeord;
  o.tile_chunk_cap = key.tile_chunk_cap;
  o.upsampfac = key.upsampfac;
  return o;
}

/// Device-library backend: core::Plan is already batch-strided and returns
/// per-execute Breakdown snapshots.
template <typename T>
class DevicePlan final : public TypedPlan<T> {
 public:
  DevicePlan(const PlanKey& key, vgpu::Device& dev, int max_batch)
      : plan_(dev, key.type, std::span(key.N, static_cast<std::size_t>(key.dim)),
              key.iflag, key.tol, options_from_key(key, max_batch)) {}

  void set_points(std::size_t M, const T* x, const T* y, const T* z) override {
    plan_.set_points(M, x, y, z);
  }
  core::Breakdown execute(std::complex<T>* c, std::complex<T>* f, int B) override {
    return plan_.execute(c, f, B);
  }
  std::int64_t modes_total() const override { return plan_.modes_total(); }

 private:
  core::Plan<T> plan_;
};

/// CPU-comparator backend behind the same interface; it shares the device's
/// worker pool, so service traffic never oversubscribes the host. CpuPlan
/// returns the device library's Breakdown, filled by the same spread engine.
template <typename T>
class CpuBackendPlan final : public TypedPlan<T> {
 public:
  CpuBackendPlan(const PlanKey& key, vgpu::Device& dev, int max_batch)
      : plan_(dev.pool(), key.type, std::span(key.N, static_cast<std::size_t>(key.dim)),
              key.iflag, key.tol, cpu_options(key, max_batch)) {}

  void set_points(std::size_t M, const T* x, const T* y, const T* z) override {
    plan_.set_points(M, x, y, z);
  }
  core::Breakdown execute(std::complex<T>* c, std::complex<T>* f, int B) override {
    return plan_.execute(c, f, B);
  }
  std::int64_t modes_total() const override { return plan_.modes_total(); }

 private:
  static typename cpu::CpuPlan<T>::Options cpu_options(const PlanKey& key,
                                                       int max_batch) {
    typename cpu::CpuPlan<T>::Options o;
    o.binsize = {key.binsize[0], key.binsize[1], key.binsize[2]};
    o.ntransf = max_batch;
    o.modeord = key.modeord;
    o.kerevalmeth = key.kerevalmeth;
    o.tile_chunk_cap = key.tile_chunk_cap;
    o.upsampfac = key.upsampfac;
    return o;
  }

  cpu::CpuPlan<T> plan_;
};

/// Type-3 backend (nonuniform -> nonuniform): wraps core::Type3Plan behind
/// the registry interface so type-3 traffic shares the LRU / fingerprint /
/// coalescing substrate. The fine grid is geometry-derived in set_points3,
/// so the plan construction here is cheap (validation + kernel parameters)
/// and the fingerprint reuse is what amortizes the expensive part.
template <typename T>
class Type3BackendPlan final : public TypedPlan<T> {
 public:
  Type3BackendPlan(const PlanKey& key, vgpu::Device& dev, int max_batch)
      : plan_(dev, key.dim, key.iflag, key.tol, options_from_key(key, max_batch)) {}

  void set_points(std::size_t, const T*, const T*, const T*) override {
    throw std::logic_error("TypedPlan: set_points on a type-3 plan");
  }
  core::Breakdown execute(std::complex<T>*, std::complex<T>*, int) override {
    throw std::logic_error("TypedPlan: batched execute on a type-3 plan");
  }
  std::int64_t modes_total() const override { return 0; }  // grid is geometry-derived

  void set_points3(std::size_t M, const T* x, const T* y, const T* z, std::size_t K,
                   const T* s, const T* t, const T* u) override {
    plan_.set_points(M, x, y, z, K, s, t, u);
  }
  void execute3(std::complex<T>* c, std::complex<T>* f) override {
    plan_.execute(c, f);
  }

 private:
  core::Type3Plan<T> plan_;
};

}  // namespace

template <typename T>
PlanKey make_plan_key(Backend backend, int type, int dim, const std::int64_t* nmodes,
                      int iflag, double tol, const core::Options& opts) {
  PlanKey k;
  k.backend = static_cast<std::uint8_t>(backend);
  k.precision = std::is_same_v<T, double> ? 1 : 0;
  k.type = type;
  k.dim = dim;
  // Sign fold only: submit_impl has already rejected iflag == 0, so the fold
  // never silently turns "no direction chosen" into the +1 transform.
  k.iflag = iflag > 0 ? 1 : -1;
  for (int d = 0; d < dim && d < 3; ++d) k.N[d] = nmodes[d];
  k.tol = tol;
  k.method = static_cast<std::int32_t>(opts.method);
  k.msub = static_cast<std::int32_t>(opts.msub);
  k.binsize[0] = opts.binsize[0];
  k.binsize[1] = opts.binsize[1];
  k.binsize[2] = opts.binsize[2];
  k.kerevalmeth = opts.kerevalmeth;
  k.modeord = opts.modeord;
  k.tile_chunk_cap = opts.tile_chunk_cap;
  // Unset (<= 0) folds to the default sigma so a zero-initialized options
  // struct lands on the same plan as an explicit 2.0.
  k.upsampfac = opts.upsampfac > 0 ? opts.upsampfac : 2.0;
  if (type == 3) {
    // Type 3 has no mode grid: the fine grid is geometry-derived in
    // set_points (next235(sigma*(2*gamma*S + w)) per axis), so mode counts
    // and mode ordering are dead signature bits — normalize them or
    // requests differing only there would never share a plan.
    k.N[0] = k.N[1] = k.N[2] = 1;
    k.modeord = 0;
  }
  if (backend == Backend::Cpu) {
    // CpuBackendPlan::cpu_options consumes neither the device-only method
    // nor the SM subproblem cap, so under Backend::Cpu both are dead
    // signature bits: two requests differing only there would build two
    // registry entries that serve byte-identical transforms yet never
    // coalesce (and double-pay plan construction and set_points). Normalize
    // them to 0.
    k.method = 0;
    k.msub = 0;
  }
  return k;
}

std::size_t PlanKeyHash::operator()(const PlanKey& k) const {
  // Field-by-field (never raw-struct: padding bytes are indeterminate).
  std::uint64_t h = kFnvOffset;
  h = fnv1a_value(h, k.backend);
  h = fnv1a_value(h, k.precision);
  h = fnv1a_value(h, k.type);
  h = fnv1a_value(h, k.dim);
  h = fnv1a_value(h, k.iflag);
  h = fnv1a(h, k.N, sizeof(k.N));
  h = fnv1a_value(h, k.tol);
  h = fnv1a_value(h, k.method);
  h = fnv1a_value(h, k.msub);
  h = fnv1a(h, k.binsize, sizeof(k.binsize));
  h = fnv1a_value(h, k.kerevalmeth);
  h = fnv1a_value(h, k.modeord);
  h = fnv1a_value(h, k.tile_chunk_cap);
  h = fnv1a_value(h, k.upsampfac);
  return static_cast<std::size_t>(h);
}

template <typename T>
std::uint64_t point_fingerprint(int dim, std::size_t M, const T* x, const T* y,
                                const T* z) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_value(h, dim);
  h = fnv1a_value(h, M);
  if (x) h = fnv1a(h, x, M * sizeof(T));
  if (dim >= 2 && y) h = fnv1a(h, y, M * sizeof(T));
  if (dim >= 3 && z) h = fnv1a(h, z, M * sizeof(T));
  // 0 is the "no points loaded" sentinel in PlanEntry; avoid colliding it.
  return h ? h : 1;
}

template <typename T>
std::uint64_t point_fingerprint3(int dim, std::size_t M, const T* x, const T* y,
                                 const T* z, std::size_t K, const T* s, const T* t,
                                 const T* u) {
  std::uint64_t h = point_fingerprint<T>(dim, M, x, y, z);
  h = fnv1a_value(h, K);
  if (s) h = fnv1a(h, s, K * sizeof(T));
  if (dim >= 2 && t) h = fnv1a(h, t, K * sizeof(T));
  if (dim >= 3 && u) h = fnv1a(h, u, K * sizeof(T));
  return h ? h : 1;
}

std::unique_ptr<PlanBase> make_backend_plan(const PlanKey& key, vgpu::Device& dev,
                                            int max_batch) {
  const bool f64 = key.precision == 1;
  if (key.type == 3) {
    if (key.backend == static_cast<std::uint8_t>(Backend::Cpu))
      throw std::invalid_argument(
          "NufftService: type-3 requests run on the device backend only");
    if (f64) return std::make_unique<Type3BackendPlan<double>>(key, dev, max_batch);
    return std::make_unique<Type3BackendPlan<float>>(key, dev, max_batch);
  }
  if (key.backend == static_cast<std::uint8_t>(Backend::Cpu)) {
    if (f64) return std::make_unique<CpuBackendPlan<double>>(key, dev, max_batch);
    return std::make_unique<CpuBackendPlan<float>>(key, dev, max_batch);
  }
  if (f64) return std::make_unique<DevicePlan<double>>(key, dev, max_batch);
  return std::make_unique<DevicePlan<float>>(key, dev, max_batch);
}

PlanRegistry::PlanRegistry(std::size_t capacity) : cap_(std::max<std::size_t>(1, capacity)) {}

std::shared_ptr<PlanEntry> PlanRegistry::acquire(const PlanKey& key) {
  std::lock_guard lk(mu_);
  if (auto it = map_.find(key); it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // touch to most recent
    ++hits_;
    if (hits_obs_) hits_obs_->add(1);
    return *it->second;
  }
  auto entry = std::make_shared<PlanEntry>();
  entry->key = key;
  lru_.push_front(entry);
  map_[key] = lru_.begin();
  ++misses_;
  if (misses_obs_) misses_obs_->add(1);
  while (lru_.size() > cap_) {
    map_.erase(lru_.back()->key);  // in-flight holders keep the plan alive
    lru_.pop_back();
    ++evictions_;
    if (evictions_obs_) evictions_obs_->add(1);
  }
  return entry;
}

RegistryStats PlanRegistry::stats() const {
  std::lock_guard lk(mu_);
  return {hits_, misses_, evictions_, lru_.size()};
}

#define CF_INSTANTIATE(T)                                                               \
  template PlanKey make_plan_key<T>(Backend, int, int, const std::int64_t*, int,        \
                                    double, const core::Options&);                      \
  template std::uint64_t point_fingerprint<T>(int, std::size_t, const T*, const T*,     \
                                              const T*);                                \
  template std::uint64_t point_fingerprint3<T>(int, std::size_t, const T*, const T*,    \
                                               const T*, std::size_t, const T*,         \
                                               const T*, const T*);

CF_INSTANTIATE(float)
CF_INSTANTIATE(double)
#undef CF_INSTANTIATE

}  // namespace cf::service
