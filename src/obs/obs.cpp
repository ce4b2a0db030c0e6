#include "obs/obs.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/env.hpp"

namespace cf::obs {

// ---- trace rings ------------------------------------------------------------

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_trace{1};
std::atomic<std::size_t> g_ring_capacity{8192};

/// One thread's span storage. The owning thread is the only writer: it bumps
/// `head` (total spans ever, monotonically) with release order after filling
/// the slot, so a reader that acquires `head` sees complete slots for
/// everything below it. When head exceeds capacity the ring wraps and the
/// oldest span is overwritten — bounded memory, newest data wins.
struct Ring {
  explicit Ring(std::size_t cap) : spans(cap) {}
  std::vector<Span> spans;
  std::atomic<std::uint64_t> head{0};
  std::uint32_t tid = 0;
};

std::mutex& rings_mu() {
  static std::mutex mu;
  return mu;
}
std::vector<std::unique_ptr<Ring>>& rings() {
  static std::vector<std::unique_ptr<Ring>> r;
  return r;
}

Ring& my_ring() {
  thread_local Ring* ring = [] {
    auto r = std::make_unique<Ring>(g_ring_capacity.load(std::memory_order_relaxed));
    Ring* raw = r.get();
    std::lock_guard lk(rings_mu());
    raw->tid = static_cast<std::uint32_t>(rings().size());
    rings().push_back(std::move(r));
    return raw;
  }();
  return *ring;
}

/// Reader-side copy of one ring, oldest-first. Safe against a concurrent
/// writer: slots at indices >= head are unpublished and skipped, and the ring
/// is sized so the writer lapping the reader mid-copy is the oldest-wins
/// overwrite the design already accepts.
std::vector<Span> drain_ring(const Ring& r) {
  const std::uint64_t head = r.head.load(std::memory_order_acquire);
  const std::uint64_t cap = r.spans.size();
  const std::uint64_t n = std::min(head, cap);
  const std::uint64_t first = head - n;  // oldest surviving span index
  std::vector<Span> out;
  out.reserve(n);
  for (std::uint64_t i = first; i < head; ++i) out.push_back(r.spans[i % cap]);
  return out;
}

}  // namespace

const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::Admission: return "admission";
    case SpanKind::QueueEnter: return "queue_enter";
    case SpanKind::GroupJoin: return "group_join";
    case SpanKind::WindowOpen: return "window_open";
    case SpanKind::WindowClose: return "window_close";
    case SpanKind::PlanHit: return "plan_hit";
    case SpanKind::PlanMiss: return "plan_build";
    case SpanKind::SetPoints: return "set_points";
    case SpanKind::Execute: return "execute";
    case SpanKind::StageSort: return "stage.sort";
    case SpanKind::StageCacheBuild: return "stage.cache_build";
    case SpanKind::StageSpread: return "stage.spread";
    case SpanKind::StageFft: return "stage.fft";
    case SpanKind::StageInterp: return "stage.interp";
    case SpanKind::Route: return "route";
    case SpanKind::RouteMigrate: return "route_migrate";
    case SpanKind::FutureResolve: return "resolve";
    case SpanKind::kCount: break;
  }
  return "?";
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool env_trace_enabled() {
  static const bool on = env_int_strict("CF_TRACE", 0, 0, 1) == 1;
  return on;
}

std::string env_trace_path() {
  const char* v = std::getenv("CF_TRACE_PATH");
  return (v && *v) ? std::string(v) : std::string();
}

std::uint64_t trace_begin() {
  if (!enabled()) return 0;
  return g_next_trace.fetch_add(1, std::memory_order_relaxed);
}

void span(SpanKind kind, std::uint64_t trace, double t0_us, double dur_us,
          std::int64_t arg) {
  if (!enabled()) return;
  Ring& r = my_ring();
  const std::uint64_t head = r.head.load(std::memory_order_relaxed);
  Span& s = r.spans[head % r.spans.size()];
  s.trace = trace;
  s.t0_us = t0_us;
  s.dur_us = dur_us < 0 ? 0 : dur_us;
  s.arg = arg;
  s.kind = kind;
  r.head.store(head + 1, std::memory_order_release);
}

void execute_spans(std::uint64_t trace, double t0_us, double exec_us,
                   const core::Breakdown& bd, int batch) {
  if (!enabled()) return;
  span(SpanKind::Execute, trace, t0_us, exec_us, batch);
  // Breakdown carries stage DURATIONS (seconds), not start stamps; lay the
  // children out sequentially from the parent's t0 in pipeline order.
  double t = t0_us;
  const std::pair<SpanKind, double> stages[] = {
      {SpanKind::StageSpread, bd.spread},
      {SpanKind::StageFft, bd.fft},
      {SpanKind::StageInterp, bd.interp},
  };
  for (const auto& [kind, sec] : stages) {
    if (sec <= 0) continue;
    const double dur = sec * 1e6;
    span(kind, trace, t, dur);
    t += dur;
  }
}

void setpts_spans(std::uint64_t trace, double t0_us, double setpts_us,
                  const core::Breakdown& bd) {
  if (!enabled()) return;
  span(SpanKind::SetPoints, trace, t0_us, setpts_us, /*arg=built*/ 1);
  double t = t0_us;
  const std::pair<SpanKind, double> stages[] = {
      {SpanKind::StageSort, bd.sort},
      {SpanKind::StageCacheBuild, bd.cache_build},
  };
  for (const auto& [kind, sec] : stages) {
    if (sec <= 0) continue;
    const double dur = sec * 1e6;
    span(kind, trace, t, dur);
    t += dur;
  }
}

std::vector<std::pair<std::uint32_t, std::vector<Span>>> collect() {
  std::lock_guard lk(rings_mu());
  std::vector<std::pair<std::uint32_t, std::vector<Span>>> out;
  out.reserve(rings().size());
  for (const auto& r : rings()) out.emplace_back(r->tid, drain_ring(*r));
  return out;
}

std::vector<Span> collect_trace(std::uint64_t trace) {
  std::vector<Span> out;
  if (trace == 0) return out;
  for (const auto& [tid, spans] : collect()) {
    (void)tid;
    for (const Span& s : spans)
      if (s.trace == trace) out.push_back(s);
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.t0_us < b.t0_us; });
  return out;
}

namespace {

void append_trace_event(std::string& out, std::uint32_t tid, const Span& s,
                        bool first) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"trace\":%" PRIu64 ",\"arg\":%" PRId64 "}}",
                first ? "" : ",\n", span_name(s.kind), tid, s.t0_us,
                s.dur_us, s.trace, s.arg);
  out += buf;
}

}  // namespace

bool export_chrome_trace(const std::string& path) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [tid, spans] : collect()) {
    for (const Span& s : spans) {
      append_trace_event(out, tid, s, first);
      first = false;
    }
  }
  out += "\n]}\n";
  return write_text_file(path, out);
}

void reset_trace() {
  std::lock_guard lk(rings_mu());
  for (auto& r : rings()) r->head.store(0, std::memory_order_release);
}

void configure(const TraceConfig& cfg) {
  if (cfg.ring_capacity > 0)
    g_ring_capacity.store(cfg.ring_capacity, std::memory_order_relaxed);
}

void log_slow_request(std::uint64_t trace, double e2e_ms, double threshold_ms) {
  std::string line;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "cf-obs: SLOW request trace=%" PRIu64 " e2e=%.3f ms (threshold %.3f ms)",
                trace, e2e_ms, threshold_ms);
  line = buf;
  for (const Span& s : collect_trace(trace)) {
    std::snprintf(buf, sizeof buf, "\n  +%10.1f us %-14s dur=%10.1f us arg=%" PRId64,
                  s.t0_us, span_name(s.kind), s.dur_us, s.arg);
    line += buf;
  }
  line += "\n";
  std::fputs(line.c_str(), stderr);
}

// ---- histogram --------------------------------------------------------------

namespace {

int bucket_index(double v) {
  if (!(v >= 1)) return 0;  // v < 1, NaN, negative all land in bucket 0
  const int i = std::ilogb(v) + 1;  // [2^(i-1), 2^i) -> bucket i
  return std::min(i, Histogram::kBuckets - 1);
}

}  // namespace

void Histogram::record(double v) {
  if (!(v >= 0)) v = 0;
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double cur;
  do {
    std::memcpy(&cur, &bits, sizeof cur);
    const double next = cur + v;
    std::uint64_t next_bits;
    std::memcpy(&next_bits, &next, sizeof next_bits);
    if (sum_bits_.compare_exchange_weak(bits, next_bits, std::memory_order_relaxed))
      break;
  } while (true);
}

double Histogram::bucket_le(int i) { return std::ldexp(1.0, i); }

Histogram::Snap Histogram::snap() const {
  Snap s;
  for (int i = 0; i < kBuckets; ++i)
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  s.count = count_.load(std::memory_order_relaxed);
  const std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  std::memcpy(&s.sum, &bits, sizeof s.sum);
  return s;
}

std::uint64_t Histogram::Snap::bucket_total() const {
  std::uint64_t t = 0;
  for (auto b : buckets) t += b;
  return t;
}

double Histogram::Snap::percentile(double q) const {
  const std::uint64_t total = bucket_total();
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 100.0);
  const double rank = q / 100.0 * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    if (static_cast<double>(seen + buckets[i]) >= rank) {
      const double lo = i == 0 ? 0.0 : bucket_le(i - 1);
      const double hi = bucket_le(i);
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen += buckets[i];
  }
  return bucket_le(kBuckets - 1);
}

// ---- registry ---------------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lk(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lk(mu_);
  auto& slot = hists_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lk(mu_);
  Snapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [n, c] : counters_) s.counters.emplace_back(n, c->value());
  s.histograms.reserve(hists_.size());
  for (const auto& [n, h] : hists_) s.histograms.emplace_back(n, h->snap());
  return s;
}

// ---- ledger -----------------------------------------------------------------

bool Ledger::admit(std::size_t cap, bool block, bool* waited) {
  std::unique_lock lk(mu_);
  if (waited) *waited = false;
  if (cap > 0) {
    if (block) {
      if (waited && outstanding_ >= cap) *waited = true;
      cv_.wait(lk, [&] { return outstanding_ < cap; });
    } else if (outstanding_ >= cap) {
      ++submitted_;
      ++failed_;
      ++shed_;
      return false;
    }
  }
  ++submitted_;
  ++outstanding_;
  return true;
}

void Ledger::admit_routed() {
  std::lock_guard lk(mu_);
  ++submitted_;
  ++outstanding_;
}

void Ledger::reject() {
  std::lock_guard lk(mu_);
  ++submitted_;
  ++failed_;
}

void Ledger::fulfill(std::size_t n, std::size_t nfailed) {
  {
    std::lock_guard lk(mu_);
    outstanding_ -= n;
    completed_ += n - nfailed;
    failed_ += nfailed;
  }
  cv_.notify_all();
}

void Ledger::wait_drained() {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return outstanding_ == 0; });
}

std::size_t Ledger::outstanding() const {
  std::lock_guard lk(mu_);
  return outstanding_;
}

Ledger::Snap Ledger::snap() const {
  std::lock_guard lk(mu_);
  Snap s;
  s.submitted = submitted_;
  s.completed = completed_;
  s.failed = failed_;
  s.shed = shed_;
  s.outstanding = outstanding_;
  return s;
}

// ---- service metrics bundle -------------------------------------------------

namespace {

std::mutex& services_mu() {
  static std::mutex mu;
  return mu;
}
std::vector<ServiceMetrics*>& services() {
  static std::vector<ServiceMetrics*> v;
  return v;
}
std::atomic<std::uint64_t> g_next_service{0};

}  // namespace

ServiceMetrics::ServiceMetrics(const std::string& name) {
  name_ = name + "#" +
          std::to_string(g_next_service.fetch_add(1, std::memory_order_relaxed));
  batches = &reg_.counter("batches");
  batched_requests = &reg_.counter("batched_requests");
  max_batch_seen = &reg_.counter("max_batch_seen");
  plan_hits = &reg_.counter("plan_hits");
  plan_misses = &reg_.counter("plan_misses");
  plan_evictions = &reg_.counter("plan_evictions");
  setpts_builds = &reg_.counter("setpts_builds");
  setpts_reuses = &reg_.counter("setpts_reuses");
  queue_wait_us = &reg_.histogram("queue_wait_us");
  window_wait_us = &reg_.histogram("window_wait_us");
  batch_size = &reg_.histogram("batch_size");
  setpts_us = &reg_.histogram("setpts_us");
  execute_us = &reg_.histogram("execute_us");
  e2e_us = &reg_.histogram("e2e_us");
  stage_sort_us = &reg_.histogram("stage_sort_us");
  stage_spread_us = &reg_.histogram("stage_spread_us");
  stage_fft_us = &reg_.histogram("stage_fft_us");
  stage_interp_us = &reg_.histogram("stage_interp_us");
  std::lock_guard lk(services_mu());
  services().push_back(this);
}

ServiceMetrics::~ServiceMetrics() {
  std::lock_guard lk(services_mu());
  auto& v = services();
  v.erase(std::remove(v.begin(), v.end(), this), v.end());
}

void ServiceMetrics::record_execute(const core::Breakdown& bd, int batch,
                                    double exec_us) {
  batches->add(1);
  batched_requests->add(static_cast<std::uint64_t>(batch));
  max_batch_seen->observe_max(static_cast<std::uint64_t>(batch));
  batch_size->record(static_cast<double>(batch));
  execute_us->record(exec_us);
  // stage_sort_us is NOT recorded here: Breakdown carries the LAST
  // set_points' sort time on every execute snapshot, so the caller records
  // it only on dispatches that actually rebuilt the point set.
  if (bd.spread > 0) stage_spread_us->record(bd.spread * 1e6);
  if (bd.fft > 0) stage_fft_us->record(bd.fft * 1e6);
  if (bd.interp > 0) stage_interp_us->record(bd.interp * 1e6);
}

ServiceMetrics::Snapshot ServiceMetrics::snapshot() const {
  Snapshot s;
  s.name = name_;
  s.ledger = ledger_.snap();
  s.metrics = reg_.snapshot();
  return s;
}

std::vector<ServiceMetrics::Snapshot> snapshot_all() {
  std::lock_guard lk(services_mu());
  std::vector<ServiceMetrics::Snapshot> out;
  out.reserve(services().size());
  for (const ServiceMetrics* m : services()) out.push_back(m->snapshot());
  return out;
}

// ---- exports ----------------------------------------------------------------

namespace {

void json_escape_into(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

void append_hist_json(std::string& out, const Histogram::Snap& h) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"count\":%" PRIu64 ",\"sum\":%.3f,\"buckets\":[",
                h.count, h.sum);
  out += buf;
  bool first = true;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    std::snprintf(buf, sizeof buf, "%s[%.0f,%" PRIu64 "]", first ? "" : ",",
                  Histogram::bucket_le(i), h.buckets[i]);
    out += buf;
    first = false;
  }
  out += "]}";
}

}  // namespace

std::string json_string(bool* all_consistent) {
  bool ok = true;
  std::string out = "{\"services\":[\n";
  bool first_svc = true;
  for (const auto& s : snapshot_all()) {
    const bool cons = s.ledger.consistent();
    ok = ok && cons;
    if (!first_svc) out += ",\n";
    first_svc = false;
    out += "{\"name\":\"";
    json_escape_into(out, s.name);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\",\"ledger\":{\"submitted\":%" PRIu64 ",\"completed\":%" PRIu64
                  ",\"failed\":%" PRIu64 ",\"shed\":%" PRIu64
                  ",\"outstanding\":%" PRIu64 ",\"consistent\":%s},",
                  s.ledger.submitted, s.ledger.completed, s.ledger.failed,
                  s.ledger.shed, s.ledger.outstanding, cons ? "true" : "false");
    out += buf;
    out += "\"counters\":{";
    bool first = true;
    for (const auto& [n, v] : s.metrics.counters) {
      out += first ? "\"" : ",\"";
      first = false;
      json_escape_into(out, n);
      std::snprintf(buf, sizeof buf, "\":%" PRIu64, v);
      out += buf;
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [n, h] : s.metrics.histograms) {
      out += first ? "\"" : ",\"";
      first = false;
      json_escape_into(out, n);
      out += "\":";
      append_hist_json(out, h);
    }
    out += "}}";
  }
  out += "\n]}\n";
  if (all_consistent) *all_consistent = ok;
  return out;
}

std::string prometheus_string() {
  std::string out;
  char buf[256];
  for (const auto& s : snapshot_all()) {
    const char* svc = s.name.c_str();
    std::snprintf(buf, sizeof buf,
                  "cf_submitted_total{service=\"%s\"} %" PRIu64 "\n"
                  "cf_completed_total{service=\"%s\"} %" PRIu64 "\n"
                  "cf_failed_total{service=\"%s\"} %" PRIu64 "\n"
                  "cf_shed_total{service=\"%s\"} %" PRIu64 "\n"
                  "cf_outstanding{service=\"%s\"} %" PRIu64 "\n",
                  svc, s.ledger.submitted, svc, s.ledger.completed, svc,
                  s.ledger.failed, svc, s.ledger.shed, svc,
                  s.ledger.outstanding);
    out += buf;
    for (const auto& [n, v] : s.metrics.counters) {
      std::snprintf(buf, sizeof buf, "cf_%s_total{service=\"%s\"} %" PRIu64 "\n",
                    n.c_str(), svc, v);
      out += buf;
    }
    for (const auto& [n, h] : s.metrics.histograms) {
      std::uint64_t cum = 0;
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        if (h.buckets[i] == 0) continue;
        cum += h.buckets[i];
        std::snprintf(buf, sizeof buf,
                      "cf_%s_bucket{service=\"%s\",le=\"%.0f\"} %" PRIu64 "\n",
                      n.c_str(), svc, Histogram::bucket_le(i), cum);
        out += buf;
      }
      std::snprintf(buf, sizeof buf,
                    "cf_%s_bucket{service=\"%s\",le=\"+Inf\"} %" PRIu64 "\n"
                    "cf_%s_sum{service=\"%s\"} %.3f\n"
                    "cf_%s_count{service=\"%s\"} %" PRIu64 "\n",
                    n.c_str(), svc, h.bucket_total(), n.c_str(), svc, h.sum,
                    n.c_str(), svc, h.count);
      out += buf;
    }
  }
  return out;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace cf::obs
