// One repeat of the TPC-W layer-ledger benchmark.
//
// Builds a real backend Server and a real MTCache server linked to it,
// loads TPC-W, warms every plan, then runs a fixed number of interactions
// from one client in a closed loop with zero think time. After each
// interaction the same thread runs one replication pump round (log reader on
// the backend, distribution agent on the cache) and advances the SimClock by
// a fixed step. The run ends with DrainPipeline plus a full ConsistencyChecker
// pass. Prints one JSON object of raw metrics on stdout; perfbench/run.py
// repeats this program and reports medians.
//
//   tpcw_ledger --workload browsing|ordering|shopping_half --seed N
//               [--traced] [--probe]
//
// --traced records spans (TraceRecorder::Global()) and reports the layer
// ledger instead of the end-to-end latencies; --probe adds a fixed per-
// interaction probe after the timed loop (tpcw.<Interaction>.p50_us).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "check/consistency.h"
#include "common/trace.h"
#include "ledger.h"
#include "mtcache/mtcache.h"
#include "repl/replication.h"
#include "sql/parser.h"
#include "tpcw/cache_setup.h"
#include "tpcw/datagen.h"
#include "tpcw/procs.h"
#include "tpcw/workload.h"

using namespace mtcache;
using perfbench::Counters;
using perfbench::Percentile;
using perfbench::Ratio;

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

struct Workload {
  const char* name;
  tpcw::WorkloadMix mix;
  double cached_fraction;
  int interactions;  // timed interactions per repeat (fixed, never a duration)
};

// Interaction counts are sized so one repeat's timed loop takes two to three
// seconds (run.py medians many short repeats against host-speed swings) with
// at least 20 samples beyond the p99. The Ordering mix grows the database as
// it runs, so a fixed count is what keeps builds of different speed
// comparable.
constexpr Workload kWorkloads[] = {
    {"browsing", tpcw::WorkloadMix::kBrowsing, 1.0, 2000},
    {"ordering", tpcw::WorkloadMix::kOrdering, 1.0, 8000},
    {"shopping_half", tpcw::WorkloadMix::kShopping, 0.5, 3000},
};

constexpr double kClockStep = 0.01;   // simulated seconds per interaction
constexpr int kWarmupPerKind = 4;     // warm-up runs of each interaction
constexpr int kProbePerKind = 25;     // --probe runs of each interaction

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "tpcw_ledger: %s\n", what.c_str());
  std::exit(1);
}

void Require(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Millions of xorshift steps per second on one thread: a fixed spin loop
// that records the host's single-thread speed beside every run.
double SpinMops() {
  constexpr uint64_t kSteps = 1 << 24;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto start = Clock::now();
  for (uint64_t i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  double us = MicrosSince(start);
  volatile uint64_t sink = x;
  (void)sink;
  return static_cast<double>(kSteps) / us;
}

// The system under test: one backend, one cache, replication between them.
// Member order follows sim::Fleet (caches and MTCache layers are destroyed
// before the replication system and the backend).
struct CachePair {
  SimClock clock;
  LinkedServerRegistry links;
  std::unique_ptr<Server> backend;
  std::unique_ptr<Server> cache;
  std::unique_ptr<ReplicationSystem> repl;
  std::unique_ptr<MTCache> mtcache;

  void Build(const tpcw::TpcwConfig& config, double cached_fraction) {
    backend = std::make_unique<Server>(ServerOptions{"backend", "dbo", {}},
                                       &clock, &links);
    Require(tpcw::CreateSchema(backend.get()), "create schema");
    Require(tpcw::GenerateData(backend.get(), config), "generate data");
    Require(tpcw::CreateProcedures(backend.get(), config), "procedures");
    clock.AdvanceTo(tpcw::LoadEndTime(config));
    repl = std::make_unique<ReplicationSystem>(&clock);
    cache = std::make_unique<Server>(ServerOptions{"cache1", "dbo", {}},
                                     &clock, &links);
    auto setup = MTCache::Setup(cache.get(), backend.get(), repl.get());
    Require(setup.status(), "mtcache setup");
    mtcache = setup.ConsumeValue();
    Require(tpcw::SetupTpcwCache(mtcache.get(), config, cached_fraction),
            "cache setup");
  }

  // One replication round; returns false on a pipeline error.
  bool Pump(double* log_reader_us, double* agent_us) {
    auto start = Clock::now();
    Status reader = repl->RunLogReader(backend.get(), nullptr);
    *log_reader_us = MicrosSince(start);
    start = Clock::now();
    Status agent = repl->RunDistributionAgent(cache.get(), nullptr);
    *agent_us = MicrosSince(start);
    clock.Advance(kClockStep);
    return reader.ok() && agent.ok();
  }

  // The counters the timed window is measured by, read through metrics().
  Counters Read() const {
    const MetricsRegistry& c = cache->metrics();
    const MetricsRegistry& b = backend->metrics();
    const ReplicationMetrics& r = repl->metrics();
    Counters out = {
        {"cache.hits", double(c.plan_cache.hits)},
        {"cache.misses", double(c.plan_cache.misses)},
        {"cache.uncacheable", double(c.plan_cache.uncacheable)},
        {"backend.hits", double(b.plan_cache.hits)},
        {"backend.misses", double(b.plan_cache.misses)},
        {"backend.uncacheable", double(b.plan_cache.uncacheable)},
        {"view_match_hits", double(c.optimizer.view_match_hits)},
        {"dynamic_plans", double(c.optimizer.dynamic_plans)},
        {"local_branches", double(c.chooseplan.local_branches)},
        {"remote_branches", double(c.chooseplan.remote_branches)},
        {"txns_applied", double(r.txns_applied)},
        {"txns_retried", double(r.txns_retried)},
        {"batches", double(r.batches_distributed)},
        {"batch_txns", double(r.batch_txns_distributed)},
    };
    double matches = 0;
    double avoided = 0;
    for (const auto& [view, stats] : c.SnapshotViewOffload()) {
      matches += static_cast<double>(stats.matches);
      avoided += static_cast<double>(stats.roundtrips_avoided);
    }
    out["offload.matches"] = matches;
    out["offload.avoided"] = avoided;
    return out;
  }
};

// Span totals keyed by tier-qualified site name ("query" on the cache,
// "backend.query" under a remote round trip), plus the remote-SQL census.
struct SpanLedger {
  std::map<std::string, double> self_us;
  std::map<std::string, double> total_us;
  double select_self_us = 0;
  double dml_self_us = 0;
  int64_t selects = 0;
  int64_t dmls = 0;
  std::map<std::string, int64_t> remote_sql;  // shipped text -> frequency

  void Add(const std::vector<TraceSpan>& spans) {
    std::vector<int64_t> self = perfbench::SelfTimes(spans);
    std::unordered_map<uint64_t, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i) index[spans[i].span_id] = i;
    for (size_t i = 0; i < spans.size(); ++i) {
      const TraceSpan& span = spans[i];
      const bool backend_tier =
          perfbench::HasAncestor(spans, index, i, "remote_roundtrip");
      const std::string key = (backend_tier ? "backend." : "") +
                              std::string(span.name);
      self_us[key] += static_cast<double>(self[i]);
      total_us[key] += static_cast<double>(span.dur_us);
      if (key != "remote_roundtrip") continue;
      // Detail is "<link>: <sql>"; the SQL is what the backend parses.
      const size_t colon = span.detail.find(": ");
      const std::string sql = colon == std::string::npos
                                  ? span.detail
                                  : span.detail.substr(colon + 2);
      ++remote_sql[sql];
      if (sql.compare(0, 6, "SELECT") == 0) {
        select_self_us += static_cast<double>(self[i]);
        ++selects;
      } else {
        dml_self_us += static_cast<double>(self[i]);
        ++dmls;
      }
    }
  }
};

// Moves every recorded span into `ledger`; the ring is drained after each
// interaction so it never overflows (dropped() is checked at the end).
void Drain(SpanLedger* ledger) {
  TraceRecorder& tracer = TraceRecorder::Global();
  std::vector<TraceSpan> spans = tracer.Snapshot();
  tracer.Clear();
  ledger->Add(spans);
}

// Mean ParseSql time per shipped statement, weighted by how often each text
// was shipped: the backend parse cost a parse-free plan-cache hit removes.
double WeightedParseUs(const std::map<std::string, int64_t>& remote_sql) {
  double weighted = 0;
  int64_t total = 0;
  for (const auto& [sql, freq] : remote_sql) {
    constexpr int kReps = 200;
    auto start = Clock::now();
    for (int r = 0; r < kReps; ++r) {
      if (!ParseSql(sql).ok()) Die("shipped SQL does not parse: " + sql);
    }
    weighted += MicrosSince(start) / kReps * static_cast<double>(freq);
    total += freq;
  }
  return Ratio(weighted, static_cast<double>(total));
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  bool traced = false;
  bool probe = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      std::string name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) Die("unknown workload " + name);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--traced") {
      args.traced = true;
    } else if (flag == "--probe") {
      args.probe = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload == nullptr) Die("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const Args args = ParseArgs(argc, argv);
  const Workload& workload = *args.workload;
  TraceRecorder& tracer = TraceRecorder::Global();
  tracer.set_enabled(args.traced);
  SpanLedger setup_spans;

  // ---- Set-up: load, procedures, cache views with snapshots, warm-up. ----
  tpcw::TpcwConfig config;
  config.seed = args.seed;
  CachePair pair;
  pair.Build(config, workload.cached_fraction);
  if (args.traced) Drain(&setup_spans);
  // Two drivers with disjoint client-id spaces: warm-up, then the timed loop.
  tpcw::TpcwDriver warmup(pair.cache.get(), config, args.seed ^ 0xa11ce,
                          /*driver_index=*/1, /*driver_stride=*/2);
  tpcw::TpcwDriver driver(pair.cache.get(), config, args.seed,
                          /*driver_index=*/0, /*driver_stride=*/2);
  double ignored_us = 0;
  for (int k = 0; k < tpcw::kNumInteractions; ++k) {
    for (int r = 0; r < kWarmupPerKind; ++r) {
      Require(warmup.Run(static_cast<tpcw::Interaction>(k)).status(),
              "warm-up interaction");
      if (!pair.Pump(&ignored_us, &ignored_us)) Die("warm-up pump failed");
      if (args.traced) Drain(&setup_spans);
    }
  }
  Require(DrainPipeline(pair.repl.get(), &pair.clock), "warm-up drain");
  if (args.traced) Drain(&setup_spans);
  const double setup_s = MicrosSince(process_start) / 1e6;

  // ---- Timed loop: a fixed number of interactions, pump after each. ----
  const Counters before = pair.Read();
  const int64_t statements_before = driver.statements_issued();
  SpanLedger window;
  ExecStats totals;
  std::vector<double> latency;
  std::vector<double> browse;
  std::vector<double> order;
  latency.reserve(workload.interactions);
  double pump_us = 0;
  double log_reader_us = 0;
  double agent_us = 0;
  double busy_us = 0;  // loop time without span draining
  int64_t failed = 0;
  for (int i = 0; i < workload.interactions; ++i) {
    const tpcw::Interaction kind = driver.Pick(workload.mix);
    const auto start = Clock::now();
    StatusOr<ExecStats> result = [&] {
      SpanScope span("tpcw.interaction");
      return driver.Run(kind);
    }();
    const double us = MicrosSince(start);
    double reader = 0;
    double agent = 0;
    bool pumped = [&] {
      SpanScope span("tpcw.repl_pump");
      return pair.Pump(&reader, &agent);
    }();
    busy_us += MicrosSince(start);
    if (!result.ok() || !pumped) {
      ++failed;
      if (!result.ok()) {
        std::fprintf(stderr, "interaction %s failed: %s\n",
                     tpcw::InteractionName(kind),
                     result.status().ToString().c_str());
      }
    }
    if (result.ok()) totals.Add(*result);
    latency.push_back(us);
    (tpcw::IsBrowseClass(kind) ? browse : order).push_back(us);
    pump_us += reader + agent;
    log_reader_us += reader;
    agent_us += agent;
    if (args.traced) Drain(&window);
  }
  const double peak_rss_mb = PeakRssMb();
  const Counters d = perfbench::Delta(pair.Read(), before);
  const double n = static_cast<double>(workload.interactions);

  // ---- Per-interaction probe (fixed sample count for every kind). ----
  std::map<std::string, double> probe_p50;
  if (args.probe) {
    for (int k = 0; k < tpcw::kNumInteractions; ++k) {
      const auto kind = static_cast<tpcw::Interaction>(k);
      std::vector<double> samples;
      for (int r = 0; r < kProbePerKind; ++r) {
        const auto start = Clock::now();
        Require(driver.Run(kind).status(), "probe interaction");
        samples.push_back(MicrosSince(start));
        if (!pair.Pump(&ignored_us, &ignored_us)) Die("probe pump failed");
      }
      probe_p50[std::string("tpcw.") + tpcw::InteractionName(kind) +
                ".p50_us"] = Percentile(samples, 50);
    }
  }

  // ---- Correctness: quiesce, then diff every cached view. ----
  const auto check_start = Clock::now();
  Status drained = DrainPipeline(pair.repl.get(), &pair.clock);
  ConsistencyReport report =
      ConsistencyChecker(pair.repl.get(), pair.backend.get(), pair.cache.get())
          .Check();
  const double check_s = MicrosSince(check_start) / 1e6;
  bool correct = drained.ok() && report.ok();
  if (!correct) {
    std::fprintf(stderr, "consistency: %s %s\n", drained.ToString().c_str(),
                 report.ToString().c_str());
  }
  if (args.traced && tracer.dropped() != 0) {
    std::fprintf(stderr, "trace ring dropped %lld spans\n",
                 static_cast<long long>(tracer.dropped()));
    correct = false;
  }

  // ---- Report. ----
  std::map<std::string, double> m;
  m["host.nproc"] = std::thread::hardware_concurrency();
  m["host.spin_mops"] = SpinMops();
  if (args.traced) {
    auto per = [&](const std::string& key) { return window.self_us[key] / n; };
    const double interaction_us = window.total_us["tpcw.interaction"];
    const double remote_us = window.total_us["remote_roundtrip"];
    m["trace.wips"] = n / (busy_us / 1e6);
    m["tpcw.unattributed_pct"] =
        100 * Ratio(window.self_us["tpcw.interaction"], interaction_us);
    m["engine.query_self_us"] = per("query");
    m["engine.plan_cache_lookup_us"] = per("plan_cache_lookup");
    m["exec.execute_self_us"] = per("execute");
    m["exec.execute_share_pct"] =
        100 * Ratio(window.self_us["execute"], interaction_us);
    m["engine.remote.roundtrip_us"] = remote_us / n;
    m["engine.remote.share_pct"] = 100 * Ratio(remote_us, interaction_us);
    m["engine.remote.self_us"] = per("remote_roundtrip");
    m["engine.remote.select_self_us"] =
        Ratio(window.select_self_us, static_cast<double>(window.selects));
    m["engine.remote.dml_self_us"] =
        Ratio(window.dml_self_us, static_cast<double>(window.dmls));
    m["engine.remote.selects_per_interaction"] = window.selects / n;
    m["engine.remote.dml_per_interaction"] = window.dmls / n;
    m["engine.backend.query_self_us"] = per("backend.query");
    m["engine.backend.execute_self_us"] = per("backend.execute");
    m["repl.apply_us_per_txn"] =
        Ratio(window.total_us["repl.apply"], d.at("txns_applied"));
    m["opt.optimize_us"] = setup_spans.total_us["optimize"] +
                           setup_spans.total_us["backend.optimize"];
    m["sql.parse_us"] = WeightedParseUs(window.remote_sql);
    m["exec.us_per_local_unit"] =
        Ratio(interaction_us - remote_us, totals.local_cost);
    m["engine.remote.us_per_unit"] = Ratio(remote_us, totals.remote_cost);
    m["trace.dropped"] = static_cast<double>(tracer.dropped());
  } else {
    m["setup_s"] = setup_s;
    m["wips"] = n / (busy_us / 1e6);
    m["latency_p50_us"] = Percentile(latency, 50);
    m["latency_p99_us"] = Percentile(latency, 99);
    m["latency_samples"] = n;
    m["browse_p50_us"] = Percentile(browse, 50);
    m["browse_samples"] = static_cast<double>(browse.size());
    m["order_p50_us"] = Percentile(order, 50);
    m["order_samples"] = static_cast<double>(order.size());
    m["repl_overhead_us"] = pump_us / n;
    m["remote_per_interaction"] = totals.remote_queries / n;
    m["peak_rss_mb"] = peak_rss_mb;
    m["error_rate"] = failed / n;
    m["tpcw.statements_per_interaction"] =
        (driver.statements_issued() - statements_before) / n;
    m["engine.plan_cache_hit_ratio"] =
        Ratio(d.at("cache.hits"), d.at("cache.hits") + d.at("cache.misses"));
    m["engine.backend.plan_cache_hit_ratio"] = Ratio(
        d.at("backend.hits"), d.at("backend.hits") + d.at("backend.misses"));
    m["engine.remote.rows_per_roundtrip"] = Ratio(
        static_cast<double>(totals.rows_transferred), totals.remote_queries);
    m["engine.remote.bytes_per_interaction"] = totals.bytes_transferred / n;
    m["opt.optimizations"] = d.at("cache.misses") + d.at("cache.uncacheable") +
                             d.at("backend.misses") +
                             d.at("backend.uncacheable");
    m["opt.view_match_hits"] = before.at("view_match_hits");
    m["opt.dynamic_plans"] = before.at("dynamic_plans");
    m["exec.chooseplan_remote_ratio"] =
        Ratio(d.at("remote_branches"),
              d.at("remote_branches") + d.at("local_branches"));
    m["mtcache.offload_ratio"] =
        Ratio(d.at("offload.avoided"), d.at("offload.matches"));
    m["repl.log_reader_us"] = log_reader_us / n;
    m["repl.agent_us"] = agent_us / n;
    m["repl.txns_applied_per_interaction"] = d.at("txns_applied") / n;
    m["repl.avg_batch_size"] = Ratio(d.at("batch_txns"), d.at("batches"));
    m["repl.txns_retried"] = d.at("txns_retried");
    m["check.consistency_s"] = check_s;
    for (const auto& [name, value] : probe_p50) m[name] = value;
  }

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", workload.interactions,
              static_cast<long long>(failed));
  const char* sep = "";
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
