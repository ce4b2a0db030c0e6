// Environment overrides for the test suites: CI re-runs ctest with
// CF_WORKERS (device worker count), CF_TILE_CHUNK (forced tiled-spread chunk
// cap), and CF_UPSAMP (fine-grid sigma) set, so multi-worker contention, the
// chunked stealing scheduler, and the low-upsampling grid all stay covered
// without recompiling. Unset variables keep the defaults; malformed ones get
// a one-line stderr diagnostic and the default, so a typo never silently runs
// the default configuration while looking like an override.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>

#include "common/env.hpp"

namespace cf::test {

inline int env_int(const char* name, int fallback, int min_v = INT_MIN,
                   int max_v = INT_MAX) {
  return cf::env_int_strict(name, fallback, min_v, max_v);
}

/// Device worker count for suites that don't sweep it themselves.
inline int env_workers(int fallback) {
  return env_int("CF_WORKERS", fallback, 1, 4096);
}

/// Options::tile_chunk_cap override (default 0 = auto). The library itself
/// also honors CF_TILE_CHUNK at the auto setting, so plans created by suites
/// that never touch the option still pick the forced cap up; this helper is
/// for tests that want the value explicitly.
inline int env_tile_chunk(int fallback = 0) {
  return env_int("CF_TILE_CHUNK", fallback);
}

/// Options::upsampfac override (default 2.0; CI sets CF_UPSAMP=1.25 for the
/// low-upsampling pass). Parsed strictly, same policy as env_int.
inline double env_upsampfac(double fallback = 2.0) {
  const char* v = std::getenv("CF_UPSAMP");
  if (!v || !*v) return fallback;
  char* end = nullptr;
  errno = 0;
  const double s = std::strtod(v, &end);
  if (errno != 0 || end == v || *end != '\0' || !(s >= 1.0) || !(s <= 4.0)) {
    std::fprintf(stderr,
                 "tests: ignoring invalid CF_UPSAMP='%s' (want a double in "
                 "[1, 4]); using %g\n",
                 v, fallback);
    return fallback;
  }
  return s;
}

}  // namespace cf::test
