#include "core/c_api.h"

#include <complex>
#include <future>
#include <mutex>
#include <new>
#include <unordered_map>

#include "core/plan.hpp"
#include "core/type3.hpp"
#include "obs/obs.hpp"
#include "service/service.hpp"
#include "service/shard_router.hpp"
#include "vgpu/device.hpp"

namespace {

using cf::core::Method;
using cf::core::Options;
using cf::core::Plan;

Options to_options(const cfs_opts* opts) {
  Options o;
  if (!opts) return o;
  switch (opts->gpu_method) {
    case CFS_METHOD_GM: o.method = Method::GM; break;
    case CFS_METHOD_GMSORT: o.method = Method::GMSort; break;
    case CFS_METHOD_SM: o.method = Method::SM; break;
    default: o.method = Method::Auto; break;
  }
  if (opts->gpu_maxsubprobsize > 0)
    o.msub = static_cast<std::uint32_t>(opts->gpu_maxsubprobsize);
  if (opts->gpu_binsizex > 0)
    o.binsize = {opts->gpu_binsizex, opts->gpu_binsizey > 0 ? opts->gpu_binsizey : 1,
                 opts->gpu_binsizez > 0 ? opts->gpu_binsizez : 1};
  if (opts->ntransf > 0) o.ntransf = opts->ntransf;
  o.kerevalmeth = opts->gpu_kerevalmeth == 1 ? 1 : 0;
  o.modeord = opts->modeord == 1 ? 1 : 0;
  o.tile_chunk_cap = opts->gpu_tile_chunk_cap;  /* same encoding both sides */
  if (opts->upsampfac > 0) o.upsampfac = opts->upsampfac;
  return o;
}

template <typename P>
int plan_stats_impl(P* p, uint64_t* tile_chunks, uint64_t* chunk_steals,
                    uint64_t* max_tile_points, uint64_t* tiles_active, int* tiled) {
  if (!p) return CFS_ERR_INVALID_ARG;
  const auto bd = p->last_breakdown();
  if (tile_chunks) *tile_chunks = bd.tile_chunks;
  if (chunk_steals) *chunk_steals = bd.chunk_steals;
  if (max_tile_points) *max_tile_points = bd.max_tile_points;
  if (tiles_active) *tiles_active = bd.tiles_active;
  if (tiled) *tiled = bd.tiled;
  return CFS_SUCCESS;
}

/// C-side service wrapper: the futures API becomes handle + wait.
struct ServiceHandle {
  explicit ServiceHandle(cf::vgpu::Device& dev, cf::service::ServiceConfig cfg)
      : svc(dev, cfg) {}

  cf::service::NufftService svc;
  std::mutex mu;
  std::unordered_map<int64_t, std::future<cf::service::ExecReport>> inflight;
  int64_t next_id = 1;
};

template <typename T>
int service_submit_impl(cfs_service svc, int type, int dim, const int64_t* nmodes,
                        int iflag, double tol, const cfs_opts* opts, size_t M,
                        const T* x, const T* y, const T* z, const T* input, T* output,
                        int priority, cfs_request* req) {
  if (!svc || !nmodes || !req || dim < 1 || dim > 3) return CFS_ERR_INVALID_ARG;
  if (priority != CFS_PRIORITY_BULK && priority != CFS_PRIORITY_INTERACTIVE)
    return CFS_ERR_INVALID_ARG;
  try {
    auto* h = reinterpret_cast<ServiceHandle*>(svc);
    cf::service::Request<T> r;
    r.type = type;
    r.modes.assign(nmodes, nmodes + dim);
    r.iflag = iflag;
    r.tol = tol;
    r.opts = to_options(opts);
    r.priority = priority == CFS_PRIORITY_INTERACTIVE
                     ? cf::service::Priority::Interactive
                     : cf::service::Priority::Bulk;
    r.M = M;
    r.x = x;
    r.y = y;
    r.z = z;
    r.input = reinterpret_cast<const std::complex<T>*>(input);
    r.output = reinterpret_cast<std::complex<T>*>(output);
    auto fut = h->svc.submit(r);
    std::lock_guard lk(h->mu);
    const int64_t id = h->next_id++;
    h->inflight.emplace(id, std::move(fut));
    *req = id;
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

/// C-side sharded-tier wrapper; owns its devices through the router.
struct ShardedHandle {
  explicit ShardedHandle(cf::service::ShardedConfig cfg) : svc(cfg) {}

  cf::service::ShardedNufftService svc;
  std::mutex mu;
  std::unordered_map<int64_t, std::future<cf::service::ExecReport>> inflight;
  int64_t next_id = 1;
};

template <typename T>
int sharded_submit_impl(cfs_sharded svc, cf::service::Request<T>& r,
                        cfs_request* req) {
  try {
    auto* h = reinterpret_cast<ShardedHandle*>(svc);
    auto fut = h->svc.submit(r);
    std::lock_guard lk(h->mu);
    const int64_t id = h->next_id++;
    h->inflight.emplace(id, std::move(fut));
    *req = id;
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

template <typename T>
int sharded_submit12_impl(cfs_sharded svc, int type, int dim, const int64_t* nmodes,
                          int iflag, double tol, const cfs_opts* opts, size_t M,
                          const T* x, const T* y, const T* z, const T* input,
                          T* output, cfs_request* req) {
  if (!svc || !nmodes || !req || dim < 1 || dim > 3) return CFS_ERR_INVALID_ARG;
  cf::service::Request<T> r;
  r.type = type;
  r.modes.assign(nmodes, nmodes + dim);
  r.iflag = iflag;
  r.tol = tol;
  r.opts = to_options(opts);
  r.M = M;
  r.x = x;
  r.y = y;
  r.z = z;
  r.input = reinterpret_cast<const std::complex<T>*>(input);
  r.output = reinterpret_cast<std::complex<T>*>(output);
  return sharded_submit_impl(svc, r, req);
}

template <typename T, typename PlanPtr>
int make_plan_impl(cfs_device dev, int type, int dim, const int64_t* nmodes, int iflag,
                   double tol, const cfs_opts* opts, PlanPtr* out) {
  if (!dev || !nmodes || !out || dim < 1 || dim > 3) return CFS_ERR_INVALID_ARG;
  try {
    auto* d = reinterpret_cast<cf::vgpu::Device*>(dev);
    auto* p = new Plan<T>(*d, type, std::span(nmodes, static_cast<std::size_t>(dim)),
                          iflag, tol, to_options(opts));
    *out = reinterpret_cast<PlanPtr>(p);
    return CFS_SUCCESS;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (const std::bad_alloc&) {
    return CFS_ERR_INTERNAL;
  } catch (...) {
    return CFS_ERR_METHOD_UNAVAILABLE;
  }
}

}  // namespace

extern "C" {

void cfs_default_opts(cfs_opts* opts) {
  if (!opts) return;
  opts->gpu_method = CFS_METHOD_AUTO;
  opts->gpu_maxsubprobsize = 0;
  opts->gpu_binsizex = opts->gpu_binsizey = opts->gpu_binsizez = 0;
  opts->ntransf = 0;
  opts->gpu_kerevalmeth = 0;
  opts->modeord = 0;
  opts->gpu_tile_chunk_cap = 0;
  opts->upsampfac = 0.0; /* default sigma = 2 */
}

int cfs_device_create(cfs_device* dev, int workers) {
  if (!dev || workers < 0) return CFS_ERR_INVALID_ARG;
  try {
    *dev = reinterpret_cast<cfs_device>(
        new cf::vgpu::Device(static_cast<std::size_t>(workers)));
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_device_destroy(cfs_device dev) {
  delete reinterpret_cast<cf::vgpu::Device*>(dev);
  return CFS_SUCCESS;
}

size_t cfs_device_bytes_in_use(cfs_device dev) {
  if (!dev) return 0;
  return reinterpret_cast<cf::vgpu::Device*>(dev)->bytes_in_use();
}

int cfs_makeplan(cfs_device dev, int type, int dim, const int64_t* nmodes, int iflag,
                 double tol, const cfs_opts* opts, cfs_plan* plan) {
  return make_plan_impl<double>(dev, type, dim, nmodes, iflag, tol, opts, plan);
}

int cfs_setpts(cfs_plan plan, size_t M, const double* x, const double* y,
               const double* z) {
  if (!plan || !x) return CFS_ERR_INVALID_ARG;
  try {
    reinterpret_cast<Plan<double>*>(plan)->set_points(M, x, y, z);
    return CFS_SUCCESS;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_execute(cfs_plan plan, double* c, double* f) {
  if (!plan) return CFS_ERR_INVALID_ARG;
  try {
    reinterpret_cast<Plan<double>*>(plan)->execute(
        reinterpret_cast<std::complex<double>*>(c),
        reinterpret_cast<std::complex<double>*>(f));
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_destroy(cfs_plan plan) {
  delete reinterpret_cast<Plan<double>*>(plan);
  return CFS_SUCCESS;
}

int cfs_plan_stats(cfs_plan plan, uint64_t* tile_chunks, uint64_t* chunk_steals,
                   uint64_t* max_tile_points, uint64_t* tiles_active, int* tiled) {
  return plan_stats_impl(reinterpret_cast<Plan<double>*>(plan), tile_chunks,
                         chunk_steals, max_tile_points, tiles_active, tiled);
}

int cfs_makeplanf(cfs_device dev, int type, int dim, const int64_t* nmodes, int iflag,
                  double tol, const cfs_opts* opts, cfs_planf* plan) {
  return make_plan_impl<float>(dev, type, dim, nmodes, iflag, tol, opts, plan);
}

int cfs_setptsf(cfs_planf plan, size_t M, const float* x, const float* y,
                const float* z) {
  if (!plan || !x) return CFS_ERR_INVALID_ARG;
  try {
    reinterpret_cast<Plan<float>*>(plan)->set_points(M, x, y, z);
    return CFS_SUCCESS;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_executef(cfs_planf plan, float* c, float* f) {
  if (!plan) return CFS_ERR_INVALID_ARG;
  try {
    reinterpret_cast<Plan<float>*>(plan)->execute(
        reinterpret_cast<std::complex<float>*>(c),
        reinterpret_cast<std::complex<float>*>(f));
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_destroyf(cfs_planf plan) {
  delete reinterpret_cast<Plan<float>*>(plan);
  return CFS_SUCCESS;
}

int cfs_plan_statsf(cfs_planf plan, uint64_t* tile_chunks, uint64_t* chunk_steals,
                    uint64_t* max_tile_points, uint64_t* tiles_active, int* tiled) {
  return plan_stats_impl(reinterpret_cast<Plan<float>*>(plan), tile_chunks,
                         chunk_steals, max_tile_points, tiles_active, tiled);
}

int cfs_service_create(cfs_service* svc, cfs_device dev, int threads, int max_plans,
                       int max_batch) {
  return cfs_service_create_ex(svc, dev, threads, max_plans, max_batch, 0,
                               CFS_ADMIT_BLOCK, -1);
}

int cfs_service_create_ex(cfs_service* svc, cfs_device dev, int threads,
                          int max_plans, int max_batch, int64_t max_outstanding,
                          int admission, int64_t window_us) {
  if (!svc || !dev || threads < 0 || max_plans < 0 || max_batch < 0 ||
      max_outstanding < 0 ||
      (admission != CFS_ADMIT_BLOCK && admission != CFS_ADMIT_SHED))
    return CFS_ERR_INVALID_ARG;
  try {
    cf::service::ServiceConfig cfg;
    cfg.threads = threads;
    if (max_plans > 0) cfg.max_plans = static_cast<std::size_t>(max_plans);
    if (max_batch > 0) cfg.max_batch = max_batch;
    cfg.max_outstanding = static_cast<std::size_t>(max_outstanding);
    cfg.admission = admission == CFS_ADMIT_SHED ? cf::service::Admission::Shed
                                                : cf::service::Admission::Block;
    // window_us < 0 keeps the config's auto sentinel (CF_SERVICE_WINDOW_US).
    if (window_us >= 0) cfg.coalesce_window = std::chrono::microseconds(window_us);
    *svc = reinterpret_cast<cfs_service>(
        new ServiceHandle(*reinterpret_cast<cf::vgpu::Device*>(dev), cfg));
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_service_destroy(cfs_service svc) {
  delete reinterpret_cast<ServiceHandle*>(svc);
  return CFS_SUCCESS;
}

int cfs_service_submit(cfs_service svc, int type, int dim, const int64_t* nmodes,
                       int iflag, double tol, const cfs_opts* opts, size_t M,
                       const double* x, const double* y, const double* z,
                       const double* input, double* output, cfs_request* req) {
  return service_submit_impl<double>(svc, type, dim, nmodes, iflag, tol, opts, M, x, y,
                                     z, input, output, CFS_PRIORITY_BULK, req);
}

int cfs_service_submitf(cfs_service svc, int type, int dim, const int64_t* nmodes,
                        int iflag, double tol, const cfs_opts* opts, size_t M,
                        const float* x, const float* y, const float* z,
                        const float* input, float* output, cfs_request* req) {
  return service_submit_impl<float>(svc, type, dim, nmodes, iflag, tol, opts, M, x, y,
                                    z, input, output, CFS_PRIORITY_BULK, req);
}

int cfs_service_submit_pri(cfs_service svc, int type, int dim, const int64_t* nmodes,
                           int iflag, double tol, const cfs_opts* opts, size_t M,
                           const double* x, const double* y, const double* z,
                           const double* input, double* output, int priority,
                           cfs_request* req) {
  return service_submit_impl<double>(svc, type, dim, nmodes, iflag, tol, opts, M, x, y,
                                     z, input, output, priority, req);
}

int cfs_service_submitf_pri(cfs_service svc, int type, int dim, const int64_t* nmodes,
                            int iflag, double tol, const cfs_opts* opts, size_t M,
                            const float* x, const float* y, const float* z,
                            const float* input, float* output, int priority,
                            cfs_request* req) {
  return service_submit_impl<float>(svc, type, dim, nmodes, iflag, tol, opts, M, x, y,
                                    z, input, output, priority, req);
}

int cfs_service_wait(cfs_service svc, cfs_request req) {
  if (!svc) return CFS_ERR_INVALID_ARG;
  auto* h = reinterpret_cast<ServiceHandle*>(svc);
  std::future<cf::service::ExecReport> fut;
  {
    std::lock_guard lk(h->mu);
    auto it = h->inflight.find(req);
    if (it == h->inflight.end()) return CFS_ERR_INVALID_ARG;
    fut = std::move(it->second);
    h->inflight.erase(it);
  }
  try {
    fut.get();
    return CFS_SUCCESS;
  } catch (const cf::service::OverloadedError&) {
    return CFS_ERR_OVERLOADED;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_service_stats(cfs_service svc, uint64_t* batches, uint64_t* batched_requests,
                      uint64_t* plan_misses, uint64_t* setpts_reuses) {
  if (!svc) return CFS_ERR_INVALID_ARG;
  const auto s = reinterpret_cast<ServiceHandle*>(svc)->svc.stats();
  if (batches) *batches = s.batches;
  if (batched_requests) *batched_requests = s.batched_requests;
  if (plan_misses) *plan_misses = s.plan_misses;
  if (setpts_reuses) *setpts_reuses = s.setpts_reuses;
  return CFS_SUCCESS;
}

int cfs_service_stats_ex(cfs_service svc, uint64_t* submitted, uint64_t* completed,
                         uint64_t* failed, uint64_t* shed) {
  if (!svc) return CFS_ERR_INVALID_ARG;
  const auto s = reinterpret_cast<ServiceHandle*>(svc)->svc.stats();
  if (submitted) *submitted = s.submitted;
  if (completed) *completed = s.completed;
  if (failed) *failed = s.failed;
  if (shed) *shed = s.shed;
  return CFS_SUCCESS;
}

int cfs_sharded_create(cfs_sharded* svc, int shards, int device_workers, int threads,
                       int max_plans, int max_batch) {
  return cfs_sharded_create_ex(svc, shards, device_workers, threads, max_plans,
                               max_batch, 0, CFS_ADMIT_BLOCK, -1);
}

int cfs_sharded_create_ex(cfs_sharded* svc, int shards, int device_workers,
                          int threads, int max_plans, int max_batch,
                          int64_t max_outstanding, int admission, int64_t window_us) {
  if (!svc || shards < 0 || device_workers < 0 || threads < 0 || max_plans < 0 ||
      max_batch < 0 || max_outstanding < 0 ||
      (admission != CFS_ADMIT_BLOCK && admission != CFS_ADMIT_SHED))
    return CFS_ERR_INVALID_ARG;
  try {
    cf::service::ShardedConfig cfg;
    cfg.shards = shards;
    cfg.device_workers = static_cast<std::size_t>(device_workers);
    cfg.shard.threads = threads;
    if (max_plans > 0) cfg.shard.max_plans = static_cast<std::size_t>(max_plans);
    if (max_batch > 0) cfg.shard.max_batch = max_batch;
    if (window_us >= 0)
      cfg.shard.coalesce_window = std::chrono::microseconds(window_us);
    cfg.max_outstanding = static_cast<std::size_t>(max_outstanding);
    cfg.admission = admission == CFS_ADMIT_SHED ? cf::service::Admission::Shed
                                                : cf::service::Admission::Block;
    *svc = reinterpret_cast<cfs_sharded>(new ShardedHandle(cfg));
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_sharded_destroy(cfs_sharded svc) {
  delete reinterpret_cast<ShardedHandle*>(svc);
  return CFS_SUCCESS;
}

int cfs_sharded_submit(cfs_sharded svc, int type, int dim, const int64_t* nmodes,
                       int iflag, double tol, const cfs_opts* opts, size_t M,
                       const double* x, const double* y, const double* z,
                       const double* input, double* output, cfs_request* req) {
  return sharded_submit12_impl<double>(svc, type, dim, nmodes, iflag, tol, opts, M, x,
                                       y, z, input, output, req);
}

int cfs_sharded_submitf(cfs_sharded svc, int type, int dim, const int64_t* nmodes,
                        int iflag, double tol, const cfs_opts* opts, size_t M,
                        const float* x, const float* y, const float* z,
                        const float* input, float* output, cfs_request* req) {
  return sharded_submit12_impl<float>(svc, type, dim, nmodes, iflag, tol, opts, M, x,
                                      y, z, input, output, req);
}

int cfs_sharded_submit3(cfs_sharded svc, int dim, int iflag, double tol,
                        const cfs_opts* opts, size_t M, const double* x,
                        const double* y, const double* z, size_t K, const double* s,
                        const double* t, const double* u, const double* input,
                        double* output, cfs_request* req) {
  if (!svc || !req || dim < 1 || dim > 3) return CFS_ERR_INVALID_ARG;
  cf::service::Request<double> r;
  r.type = 3;
  r.modes.assign(static_cast<std::size_t>(dim), 1);  // type 3: dim only
  r.iflag = iflag;
  r.tol = tol;
  r.opts = to_options(opts);
  r.M = M;
  r.x = x;
  r.y = y;
  r.z = z;
  r.K = K;
  r.s = s;
  r.t = t;
  r.u = u;
  r.input = reinterpret_cast<const std::complex<double>*>(input);
  r.output = reinterpret_cast<std::complex<double>*>(output);
  return sharded_submit_impl(svc, r, req);
}

int cfs_sharded_wait(cfs_sharded svc, cfs_request req) {
  if (!svc) return CFS_ERR_INVALID_ARG;
  auto* h = reinterpret_cast<ShardedHandle*>(svc);
  std::future<cf::service::ExecReport> fut;
  {
    std::lock_guard lk(h->mu);
    auto it = h->inflight.find(req);
    if (it == h->inflight.end()) return CFS_ERR_INVALID_ARG;
    fut = std::move(it->second);
    h->inflight.erase(it);
  }
  try {
    fut.get();
    return CFS_SUCCESS;
  } catch (const cf::service::OverloadedError&) {
    return CFS_ERR_OVERLOADED;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_sharded_stats(cfs_sharded svc, int* shards, uint64_t* routed,
                      uint64_t* sticky_hits, uint64_t* migrations,
                      uint64_t* plan_misses, uint64_t* setpts_reuses) {
  if (!svc) return CFS_ERR_INVALID_ARG;
  auto* h = reinterpret_cast<ShardedHandle*>(svc);
  const auto s = h->svc.stats();
  if (shards) *shards = h->svc.n_shards();
  if (routed) *routed = s.routed;
  if (sticky_hits) *sticky_hits = s.sticky_hits;
  if (migrations) *migrations = s.migrations;
  if (plan_misses) *plan_misses = s.total.plan_misses;
  if (setpts_reuses) *setpts_reuses = s.total.setpts_reuses;
  return CFS_SUCCESS;
}

int cfs_sharded_stats_ex(cfs_sharded svc, uint64_t* submitted, uint64_t* completed,
                         uint64_t* failed, uint64_t* shed) {
  if (!svc) return CFS_ERR_INVALID_ARG;
  const auto s = reinterpret_cast<ShardedHandle*>(svc)->svc.stats();
  if (submitted) *submitted = s.total.submitted;
  if (completed) *completed = s.total.completed;
  if (failed) *failed = s.total.failed;
  if (shed) *shed = s.total.shed;
  return CFS_SUCCESS;
}

int cfs_sharded_shard_stats(cfs_sharded svc, int shard, uint64_t* submitted,
                            uint64_t* completed, uint64_t* batches,
                            uint64_t* plan_misses) {
  if (!svc) return CFS_ERR_INVALID_ARG;
  auto* h = reinterpret_cast<ShardedHandle*>(svc);
  if (shard < 0 || shard >= h->svc.n_shards()) return CFS_ERR_INVALID_ARG;
  const auto s = h->svc.shard(shard).stats();
  if (submitted) *submitted = s.submitted;
  if (completed) *completed = s.completed;
  if (batches) *batches = s.batches;
  if (plan_misses) *plan_misses = s.plan_misses;
  return CFS_SUCCESS;
}

int cfs_obs_enable(int on) {
  cf::obs::set_enabled(on != 0);
  return CFS_SUCCESS;
}

int cfs_obs_enabled(void) { return cf::obs::enabled() ? 1 : 0; }

int cfs_obs_snapshot_json(const char* path) {
  if (!path) return CFS_ERR_INVALID_ARG;
  bool consistent = true;
  const std::string json = cf::obs::json_string(&consistent);
  if (!cf::obs::write_text_file(path, json)) return CFS_ERR_INTERNAL;
  // The exported snapshot asserts the ledger invariant on itself: a torn or
  // leaking ledger is an internal error, not a caller mistake.
  return consistent ? CFS_SUCCESS : CFS_ERR_INTERNAL;
}

int cfs_obs_prometheus(const char* path) {
  if (!path) return CFS_ERR_INVALID_ARG;
  return cf::obs::write_text_file(path, cf::obs::prometheus_string())
             ? CFS_SUCCESS
             : CFS_ERR_INTERNAL;
}

int cfs_obs_trace_export(const char* path) {
  if (!path) return CFS_ERR_INVALID_ARG;
  return cf::obs::export_chrome_trace(path) ? CFS_SUCCESS : CFS_ERR_INTERNAL;
}

int cfs_obs_trace_reset(void) {
  cf::obs::reset_trace();
  return CFS_SUCCESS;
}

int cfs_makeplan3(cfs_device dev, int dim, int iflag, double tol, const cfs_opts* opts,
                  cfs_plan3* plan) {
  if (!dev || !plan || dim < 1 || dim > 3) return CFS_ERR_INVALID_ARG;
  try {
    auto* d = reinterpret_cast<cf::vgpu::Device*>(dev);
    *plan = reinterpret_cast<cfs_plan3>(
        new cf::core::Type3Plan<double>(*d, dim, iflag, tol, to_options(opts)));
    return CFS_SUCCESS;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_setpts3(cfs_plan3 plan, size_t M, const double* x, const double* y,
                const double* z, size_t K, const double* s, const double* t,
                const double* u) {
  if (!plan || !x || !s) return CFS_ERR_INVALID_ARG;
  try {
    reinterpret_cast<cf::core::Type3Plan<double>*>(plan)->set_points(M, x, y, z, K, s, t,
                                                                     u);
    return CFS_SUCCESS;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_execute3(cfs_plan3 plan, double* c, double* f) {
  if (!plan) return CFS_ERR_INVALID_ARG;
  try {
    reinterpret_cast<cf::core::Type3Plan<double>*>(plan)->execute(
        reinterpret_cast<std::complex<double>*>(c),
        reinterpret_cast<std::complex<double>*>(f));
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_destroy3(cfs_plan3 plan) {
  delete reinterpret_cast<cf::core::Type3Plan<double>*>(plan);
  return CFS_SUCCESS;
}

}  // extern "C"
