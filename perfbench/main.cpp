// nufft_bench: one process of the repo benchmark. run.py drives it:
//
//   nufft_bench --workload W --seed S --phase setup
//       one cold set-up; prints {"setup_s": ...}
//   nufft_bench --workload W --seed S --seconds T --trace 0|1 --out DIR
//       measures workload W for T seconds; prints one JSON line
//       {"correct":..,"attempted":..,"failed":..,"metrics":{name: value}}
//
// Human-readable lines (input facts, check results) go before the JSON line.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nufft_bench --workload {bulk_f32|mtip_f64|slices_open|"
               "mixed_closed} --seed N [--seconds T] [--trace 0|1] "
               "[--phase run|setup] [--out DIR]\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    std::uint64_t u = 0;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--phase") {
      a.phase = v;
    } else if (k == "--out") {
      a.out_dir = v;
    } else if (k == "--seed" && parse_u64(v, u)) {
      a.seed = u;
    } else if (k == "--seconds" && parse_u64(v, u) && u >= 1 && u <= 3600) {
      a.seconds = double(u);
    } else if (k == "--trace" && parse_u64(v, u) && u <= 1) {
      a.trace = u == 1;
    } else {
      return usage();
    }
  }

  using SetupFn = double (*)(const pb::Args&);
  using RunFn = void (*)(const pb::Args&, pb::Tracer&, pb::Result&);
  SetupFn setup = nullptr;
  RunFn run = nullptr;
  if (a.workload == "bulk_f32") {
    setup = pb::setup_bulk;
    run = pb::run_bulk;
  } else if (a.workload == "mtip_f64") {
    setup = pb::setup_mtip;
    run = pb::run_mtip;
  } else if (a.workload == "slices_open") {
    setup = pb::setup_slices;
    run = pb::run_slices;
  } else if (a.workload == "mixed_closed") {
    setup = pb::setup_mixed;
    run = pb::run_mixed;
  } else {
    return usage();
  }

  try {
    if (a.phase == "setup") {
      const double s = setup(a);
      std::printf("{\"setup_s\": %.9g}\n", s);
      return 0;
    }
    if (a.phase != "run") return usage();
    pb::Tracer tr(a.trace);
    pb::Result res;
    res.note("machine: " + pb::machine_facts());
    run(a, tr, res);
    res.set("err_over_tol", res.err_over_tol());
    if (a.trace) {
      const std::string path = a.out_dir + "/trace_" + a.workload + ".json";
      if (!tr.export_chrome(path)) throw std::runtime_error("cannot write " + path);
      res.note("chrome trace: " + path + " (" + std::to_string(tr.size()) + " spans)");
      for (const auto& [name, l] : tr.layers()) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "span %-28s calls %6llu  incl %10.6f s  self %10.6f s",
                      name.c_str(), static_cast<unsigned long long>(l.calls), l.incl_s,
                      l.self_s);
        res.note(buf);
      }
    }
    for (const auto& line : res.notes) std::printf("# %s\n", line.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    bool first = true;
    for (const auto& [name, v] : res.metrics) {
      std::printf("%s\"%s\": %.10g", first ? "" : ", ", name.c_str(), v);
      first = false;
    }
    std::printf("}}\n");
    return res.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nufft_bench: %s\n", e.what());
    return 1;
  }
}
