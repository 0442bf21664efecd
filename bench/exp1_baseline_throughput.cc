// E1 — §6.2.1 baseline throughput: all database work on the backend server
// (web servers access it directly), users scaled until the latency bound is
// barely met. Paper: Browsing 50 WIPS, Shopping 82 WIPS, Ordering 283 WIPS
// with the backend at ~90% CPU.
//
// `--smoke` runs one short fixed-load measurement per mix instead of the
// full throughput search, so CI can exercise the whole harness (including
// the DMV snapshot) in seconds.
//
// `--threads N` switches to a closed-loop wall-clock mode: real worker
// threads issue point queries back to back (no think time, so only engine
// work overlaps) against one backend Server, measured for 1, 2, 4, ... up
// to N threads. Aggregate QPS per thread count goes into the JSON line,
// next to `effective_cores`: what a CPU-bound spin gains from N threads on
// the host running it, the ceiling any engine speedup is read against.

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>

#include "bench/bench_util.h"

using namespace mtcache;
using namespace mtcache::bench;

namespace {

constexpr int kThreadBenchItems = 1000;

std::string PointQuery(int64_t id) {
  return "SELECT i_title, i_cost FROM item WHERE i_id = " + std::to_string(id);
}

/// Closed loop: each of `n_threads` sessions issues `ops_per_thread` point
/// SELECTs back to back. Returns aggregate queries per wall-clock second.
double RunClosedLoop(Server* server, int n_threads, int ops_per_thread) {
  auto start = std::chrono::steady_clock::now();
  ThreadedLoop(n_threads, [&](int /*thread_index*/, Random& rng) {
    for (int i = 0; i < ops_per_thread; ++i) {
      auto r = server->Execute(PointQuery(rng.Uniform(1, kThreadBenchItems)));
      Check(r.status(), "closed-loop query");
      if (r->rows.size() != 1) {
        std::fprintf(stderr, "FATAL: point query returned %zu rows\n",
                     r->rows.size());
        std::exit(1);
      }
    }
  });
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(n_threads) * ops_per_thread / elapsed.count();
}

/// Parallelism probe: the same CPU-bound spin (a serial LCG chain, no
/// memory traffic) on 1 and on `n_threads` threads. Returns
/// n_threads * t1 / tn: the cores' worth of throughput the host delivers to
/// n_threads, which is below n_threads on a shared or throttled machine.
double EffectiveCores(int n_threads, bool smoke) {
  const uint64_t iters = smoke ? 20'000'000 : 200'000'000;
  auto spin_seconds = [iters](int n) {
    std::atomic<uint64_t> sink{0};
    auto start = std::chrono::steady_clock::now();
    ThreadedLoop(n, [&](int thread_index, Random& /*rng*/) {
      uint64_t x = thread_index + 1;
      for (uint64_t i = 0; i < iters; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      sink += x;
    });
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
  };
  const double t1 = spin_seconds(1);
  return n_threads * t1 / spin_seconds(n_threads);
}

int RunThreadScaling(int max_threads, bool smoke) {
  Banner("E1-threads", "Closed-loop multi-session scaling",
         "engine concurrency; QPS vs. worker threads, no think time");
  SimClock clock;
  Server server(ServerOptions{"backend", "dbo", {}}, &clock);
  Check(server.ExecuteScript("CREATE TABLE item (i_id INT PRIMARY KEY, "
                             "i_title VARCHAR(30), i_cost FLOAT)"),
        "create item");
  for (int i = 1; i <= kThreadBenchItems; ++i) {
    Check(server.ExecuteScript("INSERT INTO item VALUES (" +
                               std::to_string(i) + ", 'title" +
                               std::to_string(i) + "', " +
                               std::to_string(i * 1.5) + ")"),
          "load item");
  }
  server.RecomputeStats();

  const int ops = smoke ? 2000 : 200000;
  // Warm the plan cache (one plan per id's text) and the allocator before
  // timing anything, so the first thread count does not pay the compiles.
  for (int i = 1; i <= kThreadBenchItems; ++i) {
    Check(server.Execute(PointQuery(i)).status(), "warm plan cache");
  }

  std::printf("%-8s %12s %10s\n", "Threads", "QPS", "Speedup");
  std::string json_results;
  double qps_1 = 0, qps_max = 0;
  for (int n = 1; n <= max_threads; n *= 2) {
    double qps = RunClosedLoop(&server, n, ops);
    if (n == 1) qps_1 = qps;
    qps_max = qps;
    std::printf("%-8d %12.1f %9.2fx\n", n, qps, qps / qps_1);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"threads\": %d, \"qps\": %.3f, \"speedup\": %.4f}", n,
                  qps, qps / qps_1);
    if (!json_results.empty()) json_results += ", ";
    json_results += buf;
  }
  const double cores = EffectiveCores(max_threads, smoke);
  std::printf("\nCPU-bound spin on %d threads: %.2f effective cores.\n",
              max_threads, cores);
  std::printf("Reading: effective_cores bounds the speedup; a speedup well "
              "below it is contention inside the engine, not the host.\n");
  std::printf("JSON: {\"experiment\": \"exp1_baseline_throughput\", "
              "\"mode\": \"threads\", \"smoke\": %s, \"max_threads\": %d, "
              "\"effective_cores\": %.4f, \"aggregate_speedup\": %.4f, "
              "\"results\": [%s]}\n",
              smoke ? "true" : "false", max_threads, cores, qps_max / qps_1,
              json_results.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int threads = 0;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[i + 1];
    }
  }
  // --trace FILE: record spans for the whole run and write Chrome trace JSON
  // on exit. Tracing alters timings (span bookkeeping per statement), so
  // throughput numbers from a traced run are diagnostic, not comparable.
  if (!trace_path.empty()) TraceRecorder::Global().set_enabled(true);
  if (threads > 0) {
    int rc = RunThreadScaling(threads, smoke);
    if (!trace_path.empty()) WriteChromeTrace(trace_path);
    return rc;
  }

  Banner("E1", "Baseline throughput without caching",
         "section 6.2.1 table (no cache: 50 / 82 / 283 WIPS)");
  std::printf("%-10s %8s %8s %12s %12s %10s\n", "Workload", "Users", "WIPS",
              "BackendCPU", "WebCPU", "p90(s)");
  const double paper[3] = {50, 82, 283};
  // One backend-only lab serves all three mixes (the profile does not
  // depend on the mix); five web servers carry the app work.
  sim::FleetConfig config = PaperConfig();
  config.num_caches = 0;
  if (smoke) config.profile_samples = 3;
  sim::Fleet fleet(config);
  Check(fleet.Initialize(), "fleet init");
  int i = 0;
  std::string json_results;
  for (auto mix : {tpcw::WorkloadMix::kBrowsing, tpcw::WorkloadMix::kShopping,
                   tpcw::WorkloadMix::kOrdering}) {
    sim::FleetLoad load = PaperLoad(mix, 5);
    if (smoke) {
      load.users = 10;
      load.warmup = 2;
      load.measure = 10;
    }
    sim::FleetResult r =
        smoke ? CheckOk(fleet.Simulate(load), "smoke run")
              : CheckOk(fleet.FindMaxThroughput(load), "find max throughput");
    std::printf("%-10s %8d %8.1f %11.1f%% %11.1f%% %10.2f   (paper: %.0f WIPS)\n",
                tpcw::MixName(mix), r.users, r.wips, r.backend_util * 100,
                r.cache_util_max * 100, r.latency_p90, paper[i++]);
    char num[256];
    std::snprintf(num, sizeof(num),
                  "\"users\": %d, \"wips\": %.3f, \"backend_util\": %.4f, "
                  "\"p90_latency\": %.4f",
                  r.users, r.wips, r.backend_util, r.latency_p90);
    if (!json_results.empty()) json_results += ", ";
    json_results += "{\"mix\": \"" + std::string(tpcw::MixName(mix)) + "\", " +
                    num +
                    ", \"backend_dmv\": " + DmvSnapshotJson(fleet.backend()) +
                    "}";
  }
  std::printf("\nShape check: Ordering >> Shopping > Browsing, backend ~90%% "
              "loaded in all three.\n");
  std::printf("JSON: {\"experiment\": \"exp1_baseline_throughput\", "
              "\"smoke\": %s, \"results\": [%s]}\n",
              smoke ? "true" : "false", json_results.c_str());
  if (!trace_path.empty()) WriteChromeTrace(trace_path);
  return 0;
}
