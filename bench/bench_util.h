#ifndef MTCACHE_BENCH_BENCH_UTIL_H_
#define MTCACHE_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/trace.h"
#include "sim/fleet.h"

namespace mtcache {
namespace bench {

inline void Banner(const char* id, const char* title, const char* paper) {
  std::printf("=====================================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("Paper reference: %s\n", paper);
  std::printf("=====================================================================\n");
}

inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL during %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckOk(StatusOr<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL during %s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return result.ConsumeValue();
}

inline std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

inline std::string ValueToJson(const Value& v) {
  if (v.is_null()) return "null";
  switch (v.type()) {
    case TypeId::kBool:
      return v.AsBool() ? "true" : "false";
    case TypeId::kString:
      return "\"" + JsonEscape(v.AsString()) + "\"";
    default:
      return v.ToSqlLiteral();  // ints and round-trip-exact doubles
  }
}

/// One server's full DMV state as a JSON object — one key per sys.dm_* view,
/// each an array of row objects keyed by column name. Experiment harnesses
/// append this to their output so a run's internal counters (plan cache,
/// routing decisions, replication pipeline) are machine-checkable after the
/// fact. Reading the DMVs goes through the ordinary SQL path, so the
/// snapshot queries themselves appear in later snapshots' counters.
///
/// Every snapshot is stamped with the server identity (`server`, e.g.
/// "backend" vs "cache3") plus sim-clock and wall-clock capture times, so
/// multi-server fleet artifacts stay joinable: two snapshots from the same
/// run can be correlated by (server, sim_time). The stamped values go
/// through JsonEscape like any column value — a hostile server name cannot
/// corrupt the artifact.
inline std::string DmvSnapshotJson(Server* server) {
  std::string out = "{";
  {
    char stamp[96];
    std::snprintf(stamp, sizeof(stamp),
                  "\"sim_time\": %.6f, \"wall_unix_seconds\": %.3f",
                  server->db().Now(),
                  std::chrono::duration<double>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count());
    out += "\"server\": \"" + JsonEscape(server->name()) + "\", ";
    out += stamp;
  }
  bool first_dmv = false;
  for (const std::string& name : server->dmvs().Names()) {
    QueryResult r = CheckOk(server->Execute("SELECT * FROM sys." + name),
                            "DMV snapshot");
    if (!first_dmv) out += ", ";
    first_dmv = false;
    // DMV and column names are escaped like any other string: they come from
    // catalog metadata today, but a name with a quote or backslash must not
    // be able to corrupt the artifact.
    out += "\"" + JsonEscape(name) + "\": [";
    for (size_t i = 0; i < r.rows.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{";
      for (int c = 0; c < r.schema.num_columns(); ++c) {
        if (c > 0) out += ", ";
        out += "\"" + JsonEscape(r.schema.column(c).name) +
               "\": " + ValueToJson(r.rows[i][c]);
      }
      out += "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

/// Drains the global span recorder into `path` as Chrome trace_event JSON
/// (load in chrome://tracing or ui.perfetto.dev). Call after a traced run;
/// reports how many spans were written and whether the ring overflowed.
inline void WriteChromeTrace(const std::string& path) {
  TraceRecorder& recorder = TraceRecorder::Global();
  std::vector<TraceSpan> spans = recorder.Snapshot();
  std::string json = ChromeTraceJson(spans);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write trace file %s\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("trace: wrote %zu spans to %s%s\n", spans.size(), path.c_str(),
              recorder.dropped() > 0 ? " (ring overflowed; oldest dropped)"
                                     : "");
}

/// Runs `fn(thread_index, rng)` on `n_threads` concurrent threads and joins
/// them all. Each thread gets its own deterministically seeded Random (a
/// shared RNG would serialize the threads and hide scaling), so a run is
/// reproducible for any fixed thread count.
template <typename Fn>
inline void ThreadedLoop(int n_threads, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([t, &fn] {
      Random rng(0x9E3779B9ULL * (t + 1) + 1);
      fn(t, rng);
    });
  }
  for (std::thread& th : threads) th.join();
}

/// The standard experiment scale (laptop-sized stand-in for the paper's
/// 10,000-item / 10,000-EB database; DESIGN.md documents the substitution).
/// Callers pick the deployment with `num_caches` (0 = backend only).
inline sim::FleetConfig PaperConfig() {
  sim::FleetConfig config;
  config.tpcw.num_items = 1000;
  config.tpcw.num_authors = 250;
  config.tpcw.num_customers = 2880;
  config.tpcw.num_orders = 2590;
  config.tpcw.best_seller_window = 333;
  config.profile_samples = 20;
  return config;
}

/// The paper-table measurement window for `servers` web/cache machines;
/// Fleet::FindMaxThroughput searches the user count.
inline sim::FleetLoad PaperLoad(tpcw::WorkloadMix mix, int servers) {
  sim::FleetLoad load;
  load.mix = mix;
  load.num_caches = servers;
  load.warmup = 15;
  load.measure = 80;
  return load;
}

}  // namespace bench
}  // namespace mtcache

#endif  // MTCACHE_BENCH_BENCH_UTIL_H_
