// E6 — replication pipeline throughput and lag under heavy DML: the
// group-commit sweep. The original §6.2.3 experiment reported
// commit-to-commit propagation delay under light/heavy TPC-W load; this
// harness attacks the pipeline directly with a write-heavy workload and
// sweeps the distribution batch size (group commit: N txns per delivery
// unit) at several source write rates, reporting applied-txn throughput and
// the commit->apply lag distribution (p50/p95/p99) per configuration.
//
// Lag methodology: source commits are spaced on the simulated clock at the
// configured write rate. The distribution agent is then polled with
// max_batches_per_poll=1, and after each poll the simulated clock advances
// by the poll's measured wall time times a per-rate calibration scale chosen
// so the SERIAL baseline's modeled apply rate equals the write rate (a
// backlogged system at the edge). Every configuration at a rate shares that
// scale, so simulated lag = time queued behind the backlog at each config's
// measured relative speed: a configuration that drains 2x faster in wall
// time shows half the apply-side lag.
//
// Gate: every source txn applied exactly once and the ConsistencyChecker
// clean, in every configuration and every repeat.

#include <cstring>

#include "bench/bench_util.h"
#include "check/consistency.h"
#include "repl/replication.h"

using namespace mtcache;
using namespace mtcache::bench;

namespace {

constexpr int kNumTables = 6;

struct RunConfig {
  double write_rate = 400;  // source txns per simulated second
  int writes = 900;         // source txns in the run
  int batch = 1;            // distribution_batch_size
};

struct RunResult {
  RunConfig config;
  double apply_wall = 0;  // wall seconds to drain the backlog
  double tps = 0;         // applied source txns per wall second
  int64_t txns_applied = 0;
  int64_t changes_applied = 0;
  int64_t batches = 0;
  double avg_batch = 0;
  double lag_avg = 0, lag_p50 = 0, lag_p95 = 0, lag_p99 = 0, lag_max = 0;
  bool all_applied = false;
  bool consistent = false;
};

// One fresh pipeline per configuration: backend + cache servers, kNumTables
// published tables, one subscription per table.
RunResult RunOne(const RunConfig& config, double time_scale) {
  SimClock clock;
  LinkedServerRegistry links;
  Server backend(ServerOptions{"backend", "dbo", {}}, &clock, &links);
  Server cache(ServerOptions{"cache", "dbo", {}}, &clock, &links);
  ReplicationSystem repl(&clock);
  repl.AddPublisher(&backend);
  repl.set_distribution_batch_size(config.batch);

  for (int t = 0; t < kNumTables; ++t) {
    std::string table = "stock" + std::to_string(t);
    std::string ddl = "CREATE TABLE " + table +
                      " (id INT PRIMARY KEY, grp INT, qty INT, "
                      "note VARCHAR(20))";
    Check(backend.ExecuteScript(ddl), "backend DDL");
    Check(cache.ExecuteScript(ddl), "cache DDL");
    Article article;
    article.name = table + "_article";
    article.def.base_table = table;
    article.def.columns = {"id", "grp", "qty", "note"};
    CheckOk(repl.Subscribe(&backend, article, &cache, table), "subscribe");
  }

  // Heavy-DML write phase: single-statement source txns (insert-heavy with
  // updates and deletes against previously inserted keys), round-robin over
  // the tables, committed at the configured write rate on the sim clock.
  Random rng(0xE6D11ULL + config.batch * 1000);
  std::vector<std::vector<int>> live(kNumTables);
  std::vector<int> next_id(kNumTables, 1);
  double spacing = 1.0 / config.write_rate;
  for (int i = 0; i < config.writes; ++i) {
    int t = i % kNumTables;
    std::string table = "stock" + std::to_string(t);
    double r = rng.NextDouble();
    std::string sql;
    if (live[t].size() < 20 || r < 0.40) {
      int id = next_id[t]++;
      live[t].push_back(id);
      sql = "INSERT INTO " + table + " VALUES (" + std::to_string(id) + ", " +
            std::to_string(id % 7) + ", " +
            std::to_string(static_cast<int>(rng.NextDouble() * 1000)) +
            ", 'w" + std::to_string(i) + "')";
    } else if (r < 0.85) {
      int id = live[t][rng.NextU64() % live[t].size()];
      sql = "UPDATE " + table +
            " SET qty = " + std::to_string(static_cast<int>(r * 1000)) +
            " WHERE id = " + std::to_string(id);
    } else {
      size_t slot = rng.NextU64() % live[t].size();
      int id = live[t][slot];
      live[t].erase(live[t].begin() + slot);
      sql = "DELETE FROM " + table + " WHERE id = " + std::to_string(id);
    }
    Check(backend.ExecuteScript(sql), "source DML");
    clock.Advance(spacing);
  }

  // Distribute: one scan forms the whole backlog as delivery units.
  ExecStats pub_stats;
  Check(repl.RunLogReader(&backend, &pub_stats), "log reader");

  // Drain: one delivery unit per subscription per poll; the sim clock
  // advances by each poll's measured wall time (see header comment).
  repl.set_max_batches_per_poll(1);
  ExecStats sub_stats;
  auto drain_start = std::chrono::steady_clock::now();
  int polls = 0;
  while (!repl.Quiesced()) {
    auto poll_start = std::chrono::steady_clock::now();
    Check(repl.RunDistributionAgent(&cache, &sub_stats), "agent poll");
    clock.Advance(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - poll_start)
                      .count() *
                  time_scale);
    if (++polls > config.writes + 100) {
      Check(Status::Unavailable("pipeline failed to drain"), "drain");
    }
  }
  double wall = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              drain_start)
                    .count();

  RunResult result;
  result.config = config;
  result.apply_wall = wall;
  const ReplicationMetrics& m = repl.metrics();
  result.txns_applied = m.txns_applied;
  result.changes_applied = m.changes_applied;
  result.tps = wall > 0 ? static_cast<double>(result.txns_applied) / wall : 0;
  result.batches = m.batches_distributed;
  result.avg_batch = m.AvgBatchSize();
  result.lag_avg = m.lag_histogram.Avg();
  result.lag_p50 = m.lag_histogram.Percentile(0.50);
  result.lag_p95 = m.lag_histogram.Percentile(0.95);
  result.lag_p99 = m.lag_histogram.Percentile(0.99);
  result.lag_max = m.lag_histogram.Max();
  result.all_applied = result.txns_applied == config.writes;
  result.consistent = ConsistencyChecker(&repl).Check().ok();
  return result;
}

// Calibrates the per-rate sim-time scale: a short serial probe measures this
// host's wall time per applied txn, and the scale maps that to exactly one
// write interval — the serial baseline then models a pipeline running at the
// edge of the offered write rate, and every other configuration's lag is its
// measured speed relative to that.
double CalibrateScale(double write_rate) {
  RunConfig probe;
  probe.write_rate = write_rate;
  probe.writes = 120;
  probe.batch = 1;
  double best_wall = 0;
  for (int rep = 0; rep < 3; ++rep) {
    RunResult r = RunOne(probe, 1.0);
    if (rep == 0 || r.apply_wall < best_wall) best_wall = r.apply_wall;
  }
  double wall_per_txn = best_wall / probe.writes;
  if (wall_per_txn <= 0) return 1.0;
  return (1.0 / write_rate) / wall_per_txn;
}

std::string RunJson(const RunResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"write_rate\": %.0f, \"writes\": %d, \"batch_size\": %d, "
      "\"apply_wall_seconds\": %.6f, "
      "\"txns_per_sec\": %.1f, \"txns_applied\": %lld, "
      "\"changes_applied\": %lld, \"batches_distributed\": %lld, "
      "\"avg_batch_size\": %.2f, \"lag_avg\": %.6f, "
      "\"lag_p50\": %.6f, \"lag_p95\": %.6f, \"lag_p99\": %.6f, "
      "\"lag_max\": %.6f, \"all_applied\": %s, \"consistency_ok\": %s}",
      r.config.write_rate, r.config.writes, r.config.batch, r.apply_wall,
      r.tps, static_cast<long long>(r.txns_applied),
      static_cast<long long>(r.changes_applied),
      static_cast<long long>(r.batches), r.avg_batch, r.lag_avg,
      r.lag_p50, r.lag_p95, r.lag_p99, r.lag_max,
      r.all_applied ? "true" : "false", r.consistent ? "true" : "false");
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_exp6_repl.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  Banner("E6", "Replication pipeline: group-commit batch size sweep",
         "section 6.2.3 methodology, heavy-DML variant");

  std::vector<double> rates =
      smoke ? std::vector<double>{400} : std::vector<double>{100, 400, 1600};
  // Batch sizes: the txn-at-a-time baseline, then group commit.
  const std::vector<int> batches = {1, 8, 32};
  int writes = smoke ? 120 : 900;

  std::printf("%8s %6s %10s %10s %8s %9s %9s %9s\n", "rate", "batch",
              "wall(s)", "txns/s", "avgbat", "lag p50", "lag p95", "lag p99");
  std::vector<RunResult> results;
  bool sanity_ok = true;
  for (double rate : rates) {
    double time_scale = CalibrateScale(rate);
    for (int batch : batches) {
      RunConfig config;
      config.write_rate = rate;
      config.writes = writes;
      config.batch = batch;
      // Best of three (by throughput) to keep the recorded numbers off the
      // scheduler's noise floor; the sanity gate must hold on every repeat.
      int repeats = smoke ? 1 : 3;
      RunResult r;
      for (int rep = 0; rep < repeats; ++rep) {
        RunResult attempt = RunOne(config, time_scale);
        sanity_ok = sanity_ok && attempt.all_applied && attempt.consistent;
        if (rep == 0 || attempt.tps > r.tps) r = attempt;
      }
      std::printf("%8.0f %6d %10.4f %10.1f %8.2f %9.4f %9.4f %9.4f%s%s\n",
                  rate, batch, r.apply_wall, r.tps, r.avg_batch, r.lag_p50,
                  r.lag_p95, r.lag_p99, r.all_applied ? "" : "  [MISSING TXNS]",
                  r.consistent ? "" : "  [INCONSISTENT]");
      results.push_back(r);
    }
  }

  std::string json = std::string("{\"experiment\": \"exp6_repl\", ") +
                     "\"smoke\": " + (smoke ? "true" : "false") +
                     ", \"runs\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) json += ", ";
    json += RunJson(results[i]);
  }
  json += std::string("], \"gates\": {\"sanity_gate\": \"") +
          (sanity_ok ? "pass" : "FAIL") + "\"}}";
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!sanity_ok) {
    std::fprintf(stderr, "FAIL: a configuration lost txns or diverged\n");
    return 1;
  }
  std::printf("gates: sanity pass\n");
  return 0;
}
