// C API surface: lifecycle, both precisions, error codes, and agreement with
// the C++ plan.
#include <gtest/gtest.h>

#include <complex>
#include <limits>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/c_api.h"
#include "cpu/direct.hpp"

using cf::Rng;

namespace {

struct DeviceGuard {
  cfs_device dev = nullptr;
  DeviceGuard() { cfs_device_create(&dev, 4); }
  ~DeviceGuard() { cfs_device_destroy(dev); }
};

}  // namespace

TEST(CApi, DefaultOptsAreAuto) {
  cfs_opts opts;
  cfs_default_opts(&opts);
  EXPECT_EQ(opts.gpu_method, CFS_METHOD_AUTO);
  EXPECT_EQ(opts.gpu_maxsubprobsize, 0);
  EXPECT_EQ(opts.gpu_binsizex, 0);
}

TEST(CApi, DeviceLifecycle) {
  cfs_device dev = nullptr;
  ASSERT_EQ(cfs_device_create(&dev, 2), CFS_SUCCESS);
  ASSERT_NE(dev, nullptr);
  EXPECT_EQ(cfs_device_bytes_in_use(dev), 0u);
  EXPECT_EQ(cfs_device_destroy(dev), CFS_SUCCESS);
  EXPECT_EQ(cfs_device_create(nullptr, 2), CFS_ERR_INVALID_ARG);
}

TEST(CApi, DoubleType1MatchesDirect) {
  DeviceGuard g;
  const std::size_t M = 800;
  const int64_t nmodes[2] = {20, 24};
  Rng rng(5);
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  cfs_plan plan = nullptr;
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, nmodes, +1, 1e-9, nullptr, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
  std::vector<std::complex<double>> f(20 * 24);
  ASSERT_EQ(cfs_execute(plan, reinterpret_cast<double*>(c.data()),
                        reinterpret_cast<double*>(f.data())),
            CFS_SUCCESS);
  EXPECT_EQ(cfs_destroy(plan), CFS_SUCCESS);

  cf::ThreadPool pool(4);
  std::vector<std::complex<double>> want(20 * 24);
  cf::cpu::direct_type1<double>(pool, x, y, {}, c, +1, std::span(nmodes, 2), want);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-8);
}

TEST(CApi, FloatType2MatchesDirect) {
  DeviceGuard g;
  const std::size_t M = 700;
  const int64_t nmodes[2] = {18, 18};
  Rng rng(6);
  std::vector<float> x(M), y(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = static_cast<float>(rng.angle());
    y[j] = static_cast<float>(rng.angle());
  }
  std::vector<std::complex<float>> f(18 * 18);
  for (auto& v : f)
    v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  cfs_planf plan = nullptr;
  ASSERT_EQ(cfs_makeplanf(g.dev, 2, 2, nmodes, -1, 1e-5, nullptr, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setptsf(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
  std::vector<std::complex<float>> c(M);
  ASSERT_EQ(cfs_executef(plan, reinterpret_cast<float*>(c.data()),
                         reinterpret_cast<float*>(f.data())),
            CFS_SUCCESS);
  EXPECT_EQ(cfs_destroyf(plan), CFS_SUCCESS);

  cf::ThreadPool pool(4);
  std::vector<std::complex<float>> want(M);
  cf::cpu::direct_type2<float>(pool, x, y, {}, want, -1, std::span(nmodes, 2), f);
  EXPECT_LT(cf::cpu::rel_l2_error<float>(c, want), 3e-5);
}

TEST(CApi, MethodOptionIsHonoredAndRmk2Rejected) {
  DeviceGuard g;
  cfs_opts opts;
  cfs_default_opts(&opts);
  opts.gpu_method = CFS_METHOD_SM;
  const int64_t n3[3] = {24, 24, 24};
  // SM in 3D double violates shared memory (paper Rmk. 2): a clean error.
  cfs_plan plan = nullptr;
  EXPECT_EQ(cfs_makeplan(g.dev, 1, 3, n3, +1, 1e-6, &opts, &plan),
            CFS_ERR_INVALID_ARG);
  // Works in single precision.
  cfs_planf planf = nullptr;
  EXPECT_EQ(cfs_makeplanf(g.dev, 1, 3, n3, +1, 1e-5, &opts, &planf), CFS_SUCCESS);
  cfs_destroyf(planf);
}

TEST(CApi, InvalidArgumentsReturnErrorCodes) {
  DeviceGuard g;
  const int64_t n2[2] = {16, 16};
  cfs_plan plan = nullptr;
  EXPECT_EQ(cfs_makeplan(nullptr, 1, 2, n2, +1, 1e-6, nullptr, &plan),
            CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_makeplan(g.dev, 1, 4, n2, +1, 1e-6, nullptr, &plan),
            CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_makeplan(g.dev, 7, 2, n2, +1, 1e-6, nullptr, &plan),
            CFS_ERR_INVALID_ARG);
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, n2, +1, 1e-6, nullptr, &plan), CFS_SUCCESS);
  EXPECT_EQ(cfs_setpts(plan, 10, nullptr, nullptr, nullptr), CFS_ERR_INVALID_ARG);
  std::vector<double> x(10, 0.0);
  EXPECT_EQ(cfs_setpts(plan, 10, x.data(), nullptr, nullptr), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_execute(nullptr, nullptr, nullptr), CFS_ERR_INVALID_ARG);
  // Index widths: more points than a uint32 sort order indexes (rejected
  // before any coordinate is read), and a fine grid beyond INT32_MAX.
  std::vector<double> y(10, 0.0);
  const size_t huge = size_t(std::numeric_limits<uint32_t>::max()) + 1;
  EXPECT_EQ(cfs_setpts(plan, huge, x.data(), y.data(), nullptr), CFS_ERR_INVALID_ARG);
  cfs_destroy(plan);
  const int64_t big[2] = {16, int64_t(1) << 30};
  EXPECT_EQ(cfs_makeplan(g.dev, 1, 2, big, +1, 1e-6, nullptr, &plan), CFS_ERR_INVALID_ARG);
  cfs_planf planf = nullptr;
  EXPECT_EQ(cfs_makeplanf(g.dev, 2, 2, big, +1, 1e-3, nullptr, &planf),
            CFS_ERR_INVALID_ARG);
}

TEST(CApi, CustomBinSizeAndMsub) {
  DeviceGuard g;
  cfs_opts opts;
  cfs_default_opts(&opts);
  opts.gpu_method = CFS_METHOD_SM;
  opts.gpu_binsizex = 16;
  opts.gpu_binsizey = 16;
  opts.gpu_maxsubprobsize = 256;
  const int64_t n2[2] = {32, 32};
  Rng rng(9);
  const std::size_t M = 2000;
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  cfs_plan plan = nullptr;
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, n2, +1, 1e-8, &opts, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
  std::vector<std::complex<double>> f(32 * 32);
  ASSERT_EQ(cfs_execute(plan, reinterpret_cast<double*>(c.data()),
                        reinterpret_cast<double*>(f.data())),
            CFS_SUCCESS);
  cfs_destroy(plan);
  cf::ThreadPool pool(4);
  std::vector<std::complex<double>> want(32 * 32);
  cf::cpu::direct_type1<double>(pool, x, y, {}, c, +1, std::span(n2, 2), want);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-7);
}

TEST(CApi, TileChunkCapAndPlanStats) {
  // gpu_tile_chunk_cap mirrors Options::tile_chunk_cap (0 = auto, > 0 =
  // explicit, -1 = never split); cfs_plan_stats exposes the chunked
  // scheduler's counters. A small explicit cap must split uniform bins into
  // more work items than tiles, -1 must reproduce the unsplit schedule, and
  // every cap agrees with the defaults to reassociation level.
  DeviceGuard g;
  cfs_opts defaults;
  cfs_default_opts(&defaults);
  EXPECT_EQ(defaults.gpu_tile_chunk_cap, 0);
  EXPECT_EQ(cfs_plan_stats(nullptr, nullptr, nullptr, nullptr, nullptr, nullptr),
            CFS_ERR_INVALID_ARG);

  const int64_t nmodes[2] = {40, 36};
  Rng rng(43);
  const std::size_t M = 1500;
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  struct Stats {
    uint64_t chunks = 0, steals = 0, maxpts = 0, tiles = 0;
    int tiled = -1;
  };
  auto run = [&](int cap, std::vector<std::complex<double>>& f, Stats& st) {
    cfs_opts opts = defaults;
    opts.gpu_method = CFS_METHOD_GMSORT;
    opts.gpu_tile_chunk_cap = cap;
    cfs_plan plan = nullptr;
    ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, nmodes, +1, 1e-9, &opts, &plan), CFS_SUCCESS);
    ASSERT_EQ(cfs_setpts(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
    f.assign(40 * 36, {0, 0});
    ASSERT_EQ(cfs_execute(plan, reinterpret_cast<double*>(c.data()),
                          reinterpret_cast<double*>(f.data())),
              CFS_SUCCESS);
    ASSERT_EQ(cfs_plan_stats(plan, &st.chunks, &st.steals, &st.maxpts, &st.tiles,
                             &st.tiled),
              CFS_SUCCESS);
    // NULL-tolerant outparams.
    EXPECT_EQ(cfs_plan_stats(plan, nullptr, nullptr, nullptr, nullptr, nullptr),
              CFS_SUCCESS);
    EXPECT_EQ(cfs_destroy(plan), CFS_SUCCESS);
  };
  std::vector<std::complex<double>> ref, f;
  Stats st_nosplit, st_split;
  run(-1, ref, st_nosplit);
  ASSERT_EQ(st_nosplit.tiled, 1);
  EXPECT_GT(st_nosplit.tiles, 0u);
  EXPECT_EQ(st_nosplit.chunks, st_nosplit.tiles);
  EXPECT_GT(st_nosplit.maxpts, 0u);
  run(16, f, st_split);
  ASSERT_EQ(st_split.tiled, 1);
  EXPECT_GT(st_split.chunks, st_split.tiles) << "explicit cap did not split";
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f, ref), 1e-11);
  Stats st_auto;
  run(0, f, st_auto);
  EXPECT_GE(st_auto.chunks, st_auto.tiles);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f, ref), 1e-11);

  // Single-precision mirror.
  EXPECT_EQ(cfs_plan_statsf(nullptr, nullptr, nullptr, nullptr, nullptr, nullptr),
            CFS_ERR_INVALID_ARG);
  std::vector<float> xf(x.begin(), x.end()), yf(y.begin(), y.end());
  std::vector<std::complex<float>> cfl(M), ff(40 * 36);
  for (std::size_t j = 0; j < M; ++j)
    cfl[j] = {static_cast<float>(c[j].real()), static_cast<float>(c[j].imag())};
  cfs_opts fopts = defaults;
  fopts.gpu_method = CFS_METHOD_GMSORT;
  fopts.gpu_tile_chunk_cap = 16;
  cfs_planf planf = nullptr;
  ASSERT_EQ(cfs_makeplanf(g.dev, 1, 2, nmodes, +1, 1e-5, &fopts, &planf), CFS_SUCCESS);
  ASSERT_EQ(cfs_setptsf(planf, M, xf.data(), yf.data(), nullptr), CFS_SUCCESS);
  ASSERT_EQ(cfs_executef(planf, reinterpret_cast<float*>(cfl.data()),
                         reinterpret_cast<float*>(ff.data())),
            CFS_SUCCESS);
  Stats stf;
  ASSERT_EQ(cfs_plan_statsf(planf, &stf.chunks, &stf.steals, &stf.maxpts, &stf.tiles,
                            &stf.tiled),
            CFS_SUCCESS);
  EXPECT_EQ(stf.tiled, 1);
  EXPECT_GT(stf.chunks, stf.tiles);
  EXPECT_EQ(cfs_destroyf(planf), CFS_SUCCESS);
}

TEST(CApi, UpsampfacLowUpsamplingPlanAndService) {
  // cfs_opts.upsampfac: 0 is "library default" (sigma 2), 1.25 selects the
  // low-upsampling grid, anything else is a clean error. The sigma = 1.25
  // plan must hit the tolerance against the exact DFT, run the deterministic
  // tiled pipeline, and split the service plan registry from sigma = 2.
  DeviceGuard g;
  cfs_opts opts;
  cfs_default_opts(&opts);
  EXPECT_EQ(opts.upsampfac, 0.0);

  const int64_t n2[2] = {40, 40};
  cfs_plan plan = nullptr;
  opts.upsampfac = 1.5;
  EXPECT_EQ(cfs_makeplan(g.dev, 1, 2, n2, +1, 1e-9, &opts, &plan),
            CFS_ERR_INVALID_ARG);

  const std::size_t M = 800;
  Rng rng(7);
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  opts.upsampfac = 1.25;
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, n2, +1, 1e-9, &opts, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
  std::vector<std::complex<double>> f(40 * 40);
  ASSERT_EQ(cfs_execute(plan, reinterpret_cast<double*>(c.data()),
                        reinterpret_cast<double*>(f.data())),
            CFS_SUCCESS);
  int tiled = -1;
  ASSERT_EQ(cfs_plan_stats(plan, nullptr, nullptr, nullptr, nullptr, &tiled),
            CFS_SUCCESS);
  EXPECT_EQ(tiled, 1) << "sigma = 1.25 grid must still pass the tile gate here";
  EXPECT_EQ(cfs_destroy(plan), CFS_SUCCESS);

  cf::ThreadPool pool(4);
  std::vector<std::complex<double>> want(40 * 40);
  cf::cpu::direct_type1<double>(pool, x, y, {}, c, +1, std::span(n2, 2), want);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-8);

  // Service layer: two sigmas are two registry entries; same-signature
  // requests ride one cached plan and reproduce the direct plan's bits (the
  // tiled pipeline is deterministic).
  cfs_service svc = nullptr;
  ASSERT_EQ(cfs_service_create(&svc, g.dev, 2, 4, 4), CFS_SUCCESS);
  cfs_opts sigma2;
  cfs_default_opts(&sigma2);
  std::vector<std::complex<double>> o1(40 * 40), o2(40 * 40), o3(40 * 40);
  cfs_request r1, r2, r3;
  ASSERT_EQ(cfs_service_submit(svc, 1, 2, n2, +1, 1e-9, &sigma2, M, x.data(),
                               y.data(), nullptr,
                               reinterpret_cast<const double*>(c.data()),
                               reinterpret_cast<double*>(o1.data()), &r1),
            CFS_SUCCESS);
  ASSERT_EQ(cfs_service_submit(svc, 1, 2, n2, +1, 1e-9, &opts, M, x.data(),
                               y.data(), nullptr,
                               reinterpret_cast<const double*>(c.data()),
                               reinterpret_cast<double*>(o2.data()), &r2),
            CFS_SUCCESS);
  ASSERT_EQ(cfs_service_submit(svc, 1, 2, n2, +1, 1e-9, &opts, M, x.data(),
                               y.data(), nullptr,
                               reinterpret_cast<const double*>(c.data()),
                               reinterpret_cast<double*>(o3.data()), &r3),
            CFS_SUCCESS);
  EXPECT_EQ(cfs_service_wait(svc, r1), CFS_SUCCESS);
  EXPECT_EQ(cfs_service_wait(svc, r2), CFS_SUCCESS);
  EXPECT_EQ(cfs_service_wait(svc, r3), CFS_SUCCESS);
  uint64_t misses = 0;
  ASSERT_EQ(cfs_service_stats(svc, nullptr, nullptr, &misses, nullptr),
            CFS_SUCCESS);
  EXPECT_EQ(misses, 2u) << "sigma must split the plan signature, once per value";
  for (std::size_t i = 0; i < o2.size(); ++i) {
    ASSERT_EQ(o2[i], o3[i]) << i;
    ASSERT_EQ(o2[i], f[i]) << i;
  }
  EXPECT_EQ(cfs_service_destroy(svc), CFS_SUCCESS);
}

TEST(CApi, Type3MatchesDirect) {
  DeviceGuard g;
  Rng rng(21);
  const std::size_t M = 600, K = 500;
  std::vector<double> x(M), y(M), s(K), t(K);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.uniform(-2, 2);
    y[j] = rng.uniform(-2, 2);
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  for (std::size_t k = 0; k < K; ++k) {
    s[k] = rng.uniform(-12, 12);
    t[k] = rng.uniform(-12, 12);
  }
  cfs_plan3 plan = nullptr;
  ASSERT_EQ(cfs_makeplan3(g.dev, 2, +1, 1e-8, nullptr, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts3(plan, M, x.data(), y.data(), nullptr, K, s.data(), t.data(),
                        nullptr),
            CFS_SUCCESS);
  std::vector<std::complex<double>> f(K);
  ASSERT_EQ(cfs_execute3(plan, reinterpret_cast<double*>(c.data()),
                         reinterpret_cast<double*>(f.data())),
            CFS_SUCCESS);
  EXPECT_EQ(cfs_destroy3(plan), CFS_SUCCESS);

  cf::ThreadPool pool(4);
  std::vector<std::complex<double>> want(K);
  cf::cpu::direct_type3<double>(pool, x, y, {}, c, +1, s, t, {}, want);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-6);
}

TEST(CApi, Type3InvalidArgs) {
  DeviceGuard g;
  cfs_plan3 plan = nullptr;
  EXPECT_EQ(cfs_makeplan3(nullptr, 2, +1, 1e-6, nullptr, &plan), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_makeplan3(g.dev, 5, +1, 1e-6, nullptr, &plan), CFS_ERR_INVALID_ARG);
  ASSERT_EQ(cfs_makeplan3(g.dev, 2, +1, 1e-6, nullptr, &plan), CFS_SUCCESS);
  std::vector<double> x(3, 0.0);
  EXPECT_EQ(cfs_setpts3(plan, 3, x.data(), nullptr, nullptr, 3, x.data(), x.data(),
                        nullptr),
            CFS_ERR_INVALID_ARG);  // y missing for dim 2
  cfs_destroy3(plan);
}

TEST(CApi, NtransfAndModeordOptions) {
  DeviceGuard g;
  cfs_opts opts;
  cfs_default_opts(&opts);
  EXPECT_EQ(opts.ntransf, 0);
  EXPECT_EQ(opts.gpu_kerevalmeth, 0);
  EXPECT_EQ(opts.modeord, 0);
  opts.ntransf = 2;
  opts.gpu_kerevalmeth = 1;
  const int64_t nmodes[2] = {12, 12};
  Rng rng(31);
  const std::size_t M = 300;
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(2 * M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
  }
  for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  cfs_plan plan = nullptr;
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, nmodes, +1, 1e-8, &opts, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
  std::vector<std::complex<double>> f(2 * 144);
  ASSERT_EQ(cfs_execute(plan, reinterpret_cast<double*>(c.data()),
                        reinterpret_cast<double*>(f.data())),
            CFS_SUCCESS);
  cfs_destroy(plan);
  // Each batch must match the direct sum of its own strengths.
  cf::ThreadPool pool(4);
  for (int b = 0; b < 2; ++b) {
    std::vector<std::complex<double>> cb(c.begin() + b * M, c.begin() + (b + 1) * M);
    std::vector<std::complex<double>> want(144);
    cf::cpu::direct_type1<double>(pool, x, y, {}, cb, +1, std::span(nmodes, 2), want);
    std::vector<std::complex<double>> got(f.begin() + b * 144, f.begin() + (b + 1) * 144);
    EXPECT_LT(cf::cpu::rel_l2_error<double>(got, want), 1e-7) << "batch " << b;
  }
}

// ---- serving-quality surface: admission, priority, shed accounting ----------

TEST(CApi, ServiceAdmissionShedAndPriority) {
  DeviceGuard g;

  // Invalid admission / priority arguments are rejected up front.
  cfs_service bad = nullptr;
  EXPECT_EQ(cfs_service_create_ex(&bad, g.dev, 1, 4, 4, 1, 99, 0),
            CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_service_create_ex(&bad, g.dev, 1, 4, 4, -1, CFS_ADMIT_SHED, 0),
            CFS_ERR_INVALID_ARG);

  cfs_service svc = nullptr;
  ASSERT_EQ(cfs_service_create_ex(&svc, g.dev, 1, 4, 4, /*max_outstanding=*/1,
                                  CFS_ADMIT_SHED, /*window_us=*/0),
            CFS_SUCCESS);

  const int64_t nmodes2[2] = {32, 24};
  Rng rng(41);
  const std::size_t MB = 300000, MS = 300;
  std::vector<float> xb(MB), yb(MB), xs(MS), ys(MS);
  for (std::size_t j = 0; j < MB; ++j) {
    xb[j] = static_cast<float>(rng.angle());
    yb[j] = static_cast<float>(rng.angle());
  }
  for (std::size_t j = 0; j < MS; ++j) {
    xs[j] = static_cast<float>(rng.angle());
    ys[j] = static_cast<float>(rng.angle());
  }
  std::vector<float> cb(2 * MB), cs(2 * MS);
  for (auto& v : cb) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : cs) v = static_cast<float>(rng.uniform(-1, 1));
  const std::size_t ntot = 32 * 24;

  // A big blocker fills the 1-deep cap; small submissions shed with the
  // dedicated error code until the dispatcher frees the slot.
  std::vector<float> fb(2 * ntot);
  cfs_request rb = 0;
  ASSERT_EQ(cfs_service_submitf(svc, 1, 2, nmodes2, +1, 1e-5, nullptr, MB, xb.data(),
                                yb.data(), nullptr, cb.data(), fb.data(), &rb),
            CFS_SUCCESS);
  int shed = 0, served = 0;
  std::vector<std::vector<float>> fs;
  fs.reserve(4000);
  for (int i = 0; i < 4000 && shed < 3; ++i) {
    fs.emplace_back(2 * ntot);
    cfs_request r = 0;
    ASSERT_EQ(cfs_service_submitf(svc, 1, 2, nmodes2, +1, 1e-5, nullptr, MS,
                                  xs.data(), ys.data(), nullptr, cs.data(),
                                  fs.back().data(), &r),
              CFS_SUCCESS);
    const int rc = cfs_service_wait(svc, r);
    if (rc == CFS_ERR_OVERLOADED)
      ++shed;
    else if (rc == CFS_SUCCESS)
      ++served;
    else
      FAIL() << "unexpected wait status " << rc;
  }
  EXPECT_EQ(cfs_service_wait(svc, rb), CFS_SUCCESS);
  EXPECT_GE(shed, 3);

  // iflag = 0 is rejected through the future, not folded to +1.
  {
    std::vector<float> f0(2 * ntot);
    cfs_request r0 = 0;
    ASSERT_EQ(cfs_service_submitf(svc, 1, 2, nmodes2, 0, 1e-5, nullptr, MS,
                                  xs.data(), ys.data(), nullptr, cs.data(),
                                  f0.data(), &r0),
              CFS_SUCCESS);
    EXPECT_EQ(cfs_service_wait(svc, r0), CFS_ERR_INVALID_ARG);
  }

  uint64_t submitted = 0, completed = 0, failed = 0, shed_ctr = 0;
  ASSERT_EQ(cfs_service_stats_ex(svc, &submitted, &completed, &failed, &shed_ctr),
            CFS_SUCCESS);
  EXPECT_EQ(submitted, completed + failed);  // every request waited on above
  EXPECT_EQ(shed_ctr, static_cast<uint64_t>(shed));
  EXPECT_GE(failed, shed_ctr + 1);  // the sheds plus the iflag rejection
  EXPECT_EQ(completed, static_cast<uint64_t>(served) + 1);  // smalls + blocker
  cfs_service_destroy(svc);

  // Block policy at the same cap never sheds, and the priority submits are
  // served like any other request.
  ASSERT_EQ(cfs_service_create_ex(&svc, g.dev, 1, 4, 4, 1, CFS_ADMIT_BLOCK, -1),
            CFS_SUCCESS);
  const int kReq = 6;
  std::vector<std::vector<float>> outs(kReq, std::vector<float>(2 * ntot));
  std::vector<cfs_request> reqs(kReq);
  for (int i = 0; i < kReq; ++i) {
    const int pri = i % 2 == 0 ? CFS_PRIORITY_INTERACTIVE : CFS_PRIORITY_BULK;
    ASSERT_EQ(cfs_service_submitf_pri(svc, 1, 2, nmodes2, +1, 1e-5, nullptr, MS,
                                      xs.data(), ys.data(), nullptr, cs.data(),
                                      outs[i].data(), pri, &reqs[i]),
              CFS_SUCCESS);
  }
  cfs_request rbad = 0;
  EXPECT_EQ(cfs_service_submitf_pri(svc, 1, 2, nmodes2, +1, 1e-5, nullptr, MS,
                                    xs.data(), ys.data(), nullptr, cs.data(),
                                    outs[0].data(), 42, &rbad),
            CFS_ERR_INVALID_ARG);
  for (int i = 0; i < kReq; ++i)
    EXPECT_EQ(cfs_service_wait(svc, reqs[i]), CFS_SUCCESS);
  ASSERT_EQ(cfs_service_stats_ex(svc, &submitted, &completed, &failed, &shed_ctr),
            CFS_SUCCESS);
  EXPECT_EQ(shed_ctr, 0u);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(submitted, completed);
  EXPECT_EQ(completed, static_cast<uint64_t>(kReq));
  // All six shared one point set and strengths: identical outputs.
  for (int i = 1; i < kReq; ++i) EXPECT_EQ(outs[i], outs[0]);
  cfs_service_destroy(svc);
}

TEST(CApi, ShardedServiceRoundTripAndStats) {
  cfs_sharded svc = nullptr;
  EXPECT_EQ(cfs_sharded_create(nullptr, 2, 1, 1, 8, 4), CFS_ERR_INVALID_ARG);
  // 2 shards, 1 device worker and 1 dispatch thread each: serial shards, so
  // every comparison below is bitwise.
  ASSERT_EQ(cfs_sharded_create(&svc, 2, 1, 1, 8, 4), CFS_SUCCESS);

  // ---- type 1, float: one hot signature -> one shard, one plan ----
  const int64_t nmodes[2] = {32, 24};
  const std::size_t M = 300, ntot = 32 * 24;
  Rng rng(33);
  std::vector<float> x(M), y(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = static_cast<float>(rng.angle());
    y[j] = static_cast<float>(rng.angle());
  }
  const int kReq = 4;
  std::vector<std::vector<float>> cin(kReq), fout(kReq, std::vector<float>(2 * ntot));
  for (auto& ci : cin) {
    ci.resize(2 * M);
    for (auto& v : ci) v = static_cast<float>(rng.uniform(-1, 1));
  }
  std::vector<cfs_request> reqs(kReq);
  for (int i = 0; i < kReq; ++i)
    ASSERT_EQ(cfs_sharded_submitf(svc, 1, 2, nmodes, +1, 1e-5, nullptr, M, x.data(),
                                  y.data(), nullptr, cin[i].data(), fout[i].data(),
                                  &reqs[i]),
              CFS_SUCCESS);
  for (int i = 0; i < kReq; ++i)
    EXPECT_EQ(cfs_sharded_wait(svc, reqs[i]), CFS_SUCCESS);
  EXPECT_EQ(cfs_sharded_wait(svc, 987654), CFS_ERR_INVALID_ARG);  // unknown handle

  int nsh = 0;
  uint64_t routed = 0, sticky = 0, migrations = 0, misses = 0, reuses = 0;
  ASSERT_EQ(cfs_sharded_stats(svc, &nsh, &routed, &sticky, &migrations, &misses,
                              &reuses),
            CFS_SUCCESS);
  EXPECT_EQ(nsh, 2);
  EXPECT_EQ(routed, static_cast<uint64_t>(kReq));
  EXPECT_EQ(sticky, static_cast<uint64_t>(kReq - 1));
  EXPECT_EQ(migrations, 0u);
  EXPECT_EQ(misses, 1u);  // sticky routing: one plan across both shards

  // Reference on a private serial device. Batching is batch-strided, so
  // ntransf = 1 executes are bit-identical to the coalesced ones and keep the
  // reference buffers single-vector; the reference evaluates taps inline
  // where the batched service plan streams its cached table (identical
  // values either way).
  cfs_device rdev = nullptr;
  ASSERT_EQ(cfs_device_create(&rdev, 1), CFS_SUCCESS);
  cfs_opts ropts;
  cfs_default_opts(&ropts);
  {
    cfs_planf plan = nullptr;
    ASSERT_EQ(cfs_makeplanf(rdev, 1, 2, nmodes, +1, 1e-5, &ropts, &plan),
              CFS_SUCCESS);
    ASSERT_EQ(cfs_setptsf(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
    for (int i = 0; i < kReq; ++i) {
      std::vector<float> want(2 * ntot), c = cin[i];
      ASSERT_EQ(cfs_executef(plan, c.data(), want.data()), CFS_SUCCESS);
      EXPECT_EQ(fout[i], want) << "sharded type-1 req " << i;
    }
    cfs_destroyf(plan);
  }

  // ---- type 3, double, through the same tier ----
  const std::size_t M3 = 220, K3 = 160;
  std::vector<double> x3(M3), y3(M3), s3(K3), t3(K3);
  std::vector<double> c3(2 * M3);
  for (std::size_t j = 0; j < M3; ++j) {
    x3[j] = rng.uniform(-2, 2);
    y3[j] = rng.uniform(-2, 2);
  }
  for (std::size_t k = 0; k < K3; ++k) {
    s3[k] = rng.uniform(-12, 12);
    t3[k] = rng.uniform(-12, 12);
  }
  for (auto& v : c3) v = rng.uniform(-1, 1);
  const int k3Req = 3;
  std::vector<std::vector<double>> f3(k3Req, std::vector<double>(2 * K3));
  std::vector<cfs_request> reqs3(k3Req);
  for (int i = 0; i < k3Req; ++i)
    ASSERT_EQ(cfs_sharded_submit3(svc, 2, +1, 1e-8, nullptr, M3, x3.data(),
                                  y3.data(), nullptr, K3, s3.data(), t3.data(),
                                  nullptr, c3.data(), f3[i].data(), &reqs3[i]),
              CFS_SUCCESS);
  for (int i = 0; i < k3Req; ++i)
    EXPECT_EQ(cfs_sharded_wait(svc, reqs3[i]), CFS_SUCCESS);
  {
    cfs_plan3 plan = nullptr;
    ASSERT_EQ(cfs_makeplan3(rdev, 2, +1, 1e-8, &ropts, &plan), CFS_SUCCESS);
    ASSERT_EQ(cfs_setpts3(plan, M3, x3.data(), y3.data(), nullptr, K3, s3.data(),
                          t3.data(), nullptr),
              CFS_SUCCESS);
    std::vector<double> want(2 * K3), c = c3;
    ASSERT_EQ(cfs_execute3(plan, c.data(), want.data()), CFS_SUCCESS);
    for (int i = 0; i < k3Req; ++i)
      EXPECT_EQ(f3[i], want) << "sharded type-3 req " << i;
    cfs_destroy3(plan);
  }
  cfs_device_destroy(rdev);

  // ---- ledger + per-shard counters ----
  uint64_t submitted = 0, completed = 0, failed = 0, shed = 0;
  ASSERT_EQ(cfs_sharded_stats_ex(svc, &submitted, &completed, &failed, &shed),
            CFS_SUCCESS);
  EXPECT_EQ(submitted, static_cast<uint64_t>(kReq + k3Req));
  EXPECT_EQ(completed, submitted);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(shed, 0u);

  uint64_t sum_sub = 0;
  for (int i = 0; i < nsh; ++i) {
    uint64_t ssub = 0, scomp = 0, sbatches = 0, smisses = 0;
    ASSERT_EQ(cfs_sharded_shard_stats(svc, i, &ssub, &scomp, &sbatches, &smisses),
              CFS_SUCCESS);
    EXPECT_EQ(ssub, scomp);
    sum_sub += ssub;
  }
  EXPECT_EQ(sum_sub, submitted);  // every admitted request reached one shard
  uint64_t dummy = 0;
  EXPECT_EQ(cfs_sharded_shard_stats(svc, nsh, &dummy, nullptr, nullptr, nullptr),
            CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_sharded_shard_stats(svc, -1, &dummy, nullptr, nullptr, nullptr),
            CFS_ERR_INVALID_ARG);

  EXPECT_EQ(cfs_sharded_destroy(svc), CFS_SUCCESS);
  EXPECT_EQ(cfs_sharded_destroy(nullptr), CFS_SUCCESS);  // no-op, like the others
}

TEST(CApi, ObservabilityExportsAndErrors) {
  // Save/restore the process-global trace switch so suite order (and an
  // external CF_TRACE=1 CI pass) never leaks between tests.
  const int was = cfs_obs_enabled();
  EXPECT_EQ(cfs_obs_enable(1), CFS_SUCCESS);
  EXPECT_EQ(cfs_obs_enabled(), 1);

  // NULL paths are argument errors, not crashes.
  EXPECT_EQ(cfs_obs_snapshot_json(nullptr), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_obs_prometheus(nullptr), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_obs_trace_export(nullptr), CFS_ERR_INVALID_ARG);

  // Push a small workload through the service tier so the registry and the
  // rings have content worth exporting.
  DeviceGuard g;
  const std::size_t M = 400;
  const int64_t n2[2] = {20, 24};
  Rng rng(91);
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  cfs_service svc = nullptr;
  ASSERT_EQ(cfs_service_create(&svc, g.dev, 1, 4, 0), CFS_SUCCESS);
  std::vector<std::complex<double>> out(20 * 24);
  cfs_request r;
  ASSERT_EQ(cfs_service_submit(svc, 1, 2, n2, +1, 1e-6, nullptr, M, x.data(),
                               y.data(), nullptr,
                               reinterpret_cast<const double*>(c.data()),
                               reinterpret_cast<double*>(out.data()), &r),
            CFS_SUCCESS);
  EXPECT_EQ(cfs_service_wait(svc, r), CFS_SUCCESS);

  auto slurp = [](const char* path) {
    std::string text;
    if (std::FILE* f = std::fopen(path, "rb")) {
      char buf[4096];
      for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
        text.append(buf, n);
      std::fclose(f);
    }
    std::remove(path);
    return text;
  };

  // The service is drained (wait returned) but still ALIVE: its metrics
  // deregister from the global registry on destroy, so exports run first.
  // The ledger is settled, so the snapshot reports consistent and succeeds.
  ASSERT_EQ(cfs_obs_snapshot_json("c_api_obs.json"), CFS_SUCCESS);
  const std::string json = slurp("c_api_obs.json");
  EXPECT_NE(json.find("\"services\""), std::string::npos);
  EXPECT_NE(json.find("\"consistent\":true"), std::string::npos);

  ASSERT_EQ(cfs_obs_prometheus("c_api_obs.prom"), CFS_SUCCESS);
  const std::string prom = slurp("c_api_obs.prom");
  EXPECT_NE(prom.find("cf_submitted_total{"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  ASSERT_EQ(cfs_obs_trace_export("c_api_obs_trace.json"), CFS_SUCCESS);
  const std::string trace = slurp("c_api_obs_trace.json");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"execute\""), std::string::npos);

  EXPECT_EQ(cfs_service_destroy(svc), CFS_SUCCESS);
  EXPECT_EQ(cfs_obs_trace_reset(), CFS_SUCCESS);
  EXPECT_EQ(cfs_obs_enable(was), CFS_SUCCESS);
  EXPECT_EQ(cfs_obs_enabled(), was);
}

TEST(CApi, NonFiniteCoordinatesMapToInvalidArg) {
  // set_points rejects NaN/Inf coordinates with invalid_argument, which the C
  // API maps to CFS_ERR_INVALID_ARG; the plan stays usable.
  DeviceGuard g;
  const std::size_t M = 4000;
  const int64_t nmodes[3] = {12, 10, 8};
  Rng rng(17);
  std::vector<double> x(M), y(M), z(M);
  std::vector<float> xf(M), yf(M), zf(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    z[j] = rng.angle();
    xf[j] = static_cast<float>(x[j]);
    yf[j] = static_cast<float>(y[j]);
    zf[j] = static_cast<float>(z[j]);
  }
  cfs_plan plan = nullptr;
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 3, nmodes, +1, 1e-9, nullptr, &plan), CFS_SUCCESS);
  auto xb = x;
  xb[1234] = std::numeric_limits<double>::quiet_NaN();
  xb[17] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(cfs_setpts(plan, M, xb.data(), y.data(), z.data()), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_setpts(plan, M, x.data(), y.data(), z.data()), CFS_SUCCESS);
  EXPECT_EQ(cfs_destroy(plan), CFS_SUCCESS);

  cfs_planf planf = nullptr;
  ASSERT_EQ(cfs_makeplanf(g.dev, 2, 3, nmodes, +1, 1e-5, nullptr, &planf), CFS_SUCCESS);
  auto zb = zf;
  zb[99] = -std::numeric_limits<float>::infinity();
  EXPECT_EQ(cfs_setptsf(planf, M, xf.data(), yf.data(), zb.data()), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_setptsf(planf, M, xf.data(), yf.data(), zf.data()), CFS_SUCCESS);
  EXPECT_EQ(cfs_destroyf(planf), CFS_SUCCESS);
}
