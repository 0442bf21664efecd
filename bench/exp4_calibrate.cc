// E4-calibrate — audit of the one cost model. The probe set from
// src/opt/calibration covers every operator shape the optimizer costs
// (sequential scan, filtered scan, projection, index point/range seek, hash
// join, nested loops, aggregate, sort, distinct, and remote round-trips
// against the backend). The probes run in interleaved rounds through the
// profiling layer on a warm plan cache; each probe's median profiled elapsed
// time becomes one least-squares equation
// `sum(features * coefficients) ~= seconds`. The fitted coefficients,
// normalized so seq_row == kSeqRowCost, are reported beside the CostModel
// constants the optimizer and executor both use (constant, value,
// ratio = value / constant). Nothing is handed back to the optimizer: the
// report only shows how far each constant is from measured time.
//
// Before timing, each probe's EXPLAIN output must contain the expected
// operator: a plan flip would attribute the measurement to the wrong
// feature vector, so mismatched probes are skipped and reported.
//
// In-binary gates (exit nonzero): the fit must anchor (seq_row > 0), reach
// the R^2 floor, leave at most 1/3 of the probes skipped, and fit the
// scan/filter/hash coefficients without fallback.
//
// `--smoke` shrinks tables and per-probe time for CI; `--out FILE` writes
// BENCH_exp4_calibration.json.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "mtcache/mtcache.h"
#include "opt/calibration.h"

using namespace mtcache;
using namespace mtcache::bench;

namespace {

// Loads `rows` rows through the storage layer directly (the SQL INSERT path
// would spend the whole run parsing).
void LoadRows(Server* server, const std::string& table, int rows,
              int val_domain, bool with_grp, bool with_pad) {
  StoredTable* stored = server->db().GetStoredTable(table);
  if (stored == nullptr) {
    std::fprintf(stderr, "FATAL: no stored table %s\n", table.c_str());
    std::exit(1);
  }
  const std::string pad(36, 'x');
  Random rng(0xCA11B007 + rows);
  auto txn = server->db().txn_manager().Begin();
  for (int i = 0; i < rows; ++i) {
    Row row = {Value::Int(i), Value::Int(rng.Uniform(0, val_domain - 1))};
    if (with_grp) row.push_back(Value::Int(i % 16));
    if (with_pad) row.push_back(Value::String(pad));
    Check(stored->Insert(row, txn.get()).status(), "load calibration table");
  }
  server->db().txn_manager().Commit(txn.get(), 0.0);
}

// Profiled total_seconds of the latest execution, which must be `sql`'s.
double LastProfiledSeconds(Server* server, const std::string& sql) {
  std::vector<QueryProfileRecord> ring = server->metrics().SnapshotProfiles();
  if (ring.empty() || ring.back().text != sql) return -1;
  return ring.back().total_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  Banner("E4-calibrate",
         "cost-model audit: probe queries -> least-squares fit vs constants",
         "S5 (cost-based local/remote decisions need believable costs)");

  CalibrationConfig cfg;
  if (smoke) {
    cfg.rows_big = 12000;
    cfg.rows_small = 2000;
    cfg.rows_tiny = 200;
    cfg.rows_remote = 3000;
  }
  const double min_probe_seconds = smoke ? 0.03 : 0.2;
  const int min_rounds = 3;

  // One backend (owning cal_remote) + one cache configured per S4; the
  // probe tables live locally on the cache.
  SimClock clock;
  LinkedServerRegistry links;
  Server backend(ServerOptions{"backend", "dbo", {}}, &clock, &links);
  Server cache(ServerOptions{"cache1", "dbo", {}}, &clock, &links);
  ReplicationSystem repl(&clock);

  Check(backend.ExecuteScript(
            "CREATE TABLE cal_remote (id INT PRIMARY KEY, val INT, grp INT, "
            "pad VARCHAR(40))"),
        "create cal_remote");
  LoadRows(&backend, "cal_remote", cfg.rows_remote, cfg.big_val_domain,
           /*with_grp=*/true, /*with_pad=*/true);
  backend.RecomputeStats();

  auto setup = MTCache::Setup(&cache, &backend, &repl);
  Check(setup.status(), "MTCache setup");

  Check(cache.ExecuteScript(
            "CREATE TABLE cal_big (id INT PRIMARY KEY, val INT, grp INT, "
            "pad VARCHAR(40)); "
            "CREATE TABLE cal_small (id INT PRIMARY KEY, val INT, grp INT); "
            "CREATE TABLE cal_tiny (id INT PRIMARY KEY, val INT)"),
        "create local calibration tables");
  LoadRows(&cache, "cal_big", cfg.rows_big, cfg.big_val_domain, true, true);
  LoadRows(&cache, "cal_small", cfg.rows_small, cfg.small_val_domain, true,
           false);
  LoadRows(&cache, "cal_tiny", cfg.rows_tiny, cfg.small_val_domain, false,
           false);
  cache.RecomputeStats();

  cache.metrics().set_profiling_enabled(true);

  std::vector<CalibrationProbe> probes = MakeCalibrationProbes(cfg);
  std::vector<CalibrationSample> samples;
  std::vector<std::string> skipped;
  std::vector<const CalibrationProbe*> kept;
  for (const CalibrationProbe& probe : probes) {
    // The plan must contain the operator the feature vector was derived
    // for; otherwise the measurement would be attributed to the wrong
    // coefficients.
    auto explain = cache.Explain(probe.sql);
    Check(explain.status(), probe.name.c_str());
    std::string plan_text = PhysicalToString(*explain->plan, 0);
    if (plan_text.find(probe.expect_op) == std::string::npos) {
      std::printf("skipped %s: plan lacks %s\n", probe.name.c_str(),
                  probe.expect_op.c_str());
      skipped.push_back(probe.name);
      continue;
    }
    CheckOk(cache.Execute(probe.sql), probe.name.c_str());  // warm the plan
    kept.push_back(&probe);
  }

  // Time in interleaved rounds, one profiled execution of every kept probe
  // per round, so host speed drift lands on all probes alike instead of
  // biasing whichever probe ran through a slow stretch. A probe's sample is
  // the median of its per-round times.
  std::vector<std::vector<double>> times(kept.size());
  const double budget = min_probe_seconds * static_cast<double>(kept.size());
  const auto start = std::chrono::steady_clock::now();
  int rounds = 0;
  while (rounds < min_rounds ||
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
                 .count() < budget) {
    for (size_t i = 0; i < kept.size(); ++i) {
      CheckOk(cache.Execute(kept[i]->sql), kept[i]->name.c_str());
      double seconds = LastProfiledSeconds(&cache, kept[i]->sql);
      if (seconds < 0) {
        std::fprintf(stderr, "FATAL: no profile retained for %s\n",
                     kept[i]->name.c_str());
        return 1;
      }
      times[i].push_back(seconds);
    }
    ++rounds;
  }
  std::printf("%-18s %-24s %10s (%d rounds)\n", "probe", "expected-op",
              "med-ms", rounds);
  for (size_t i = 0; i < kept.size(); ++i) {
    std::vector<double>& t = times[i];
    std::sort(t.begin(), t.end());
    const double seconds = t[t.size() / 2];
    samples.push_back({kept[i]->name, kept[i]->features, seconds});
    std::printf("%-18s %-24s %10.3f\n", kept[i]->name.c_str(),
                kept[i]->expect_op.c_str(), seconds * 1e3);
  }

  CalibrationReport report = FitCostModel(samples);
  std::printf("\nfit: samples=%d r_squared=%.4f anchored=%s\n",
              report.samples, report.r_squared,
              report.anchored ? "yes" : "no");
  std::printf("%-18s %12s %12s %8s %s\n", "coefficient", "constant", "value",
              "ratio", "source");
  for (const std::string& name : CalibrationCoefficientNames()) {
    const CoefficientFit& fit = report.coefficients[name];
    std::printf("%-18s %12.4f %12.4f %8.3f %s\n", name.c_str(), fit.constant,
                fit.value, fit.ratio,
                fit.used_fallback ? "fallback" : "fitted");
  }

  std::string extra = "\"smoke\": " + std::string(smoke ? "true" : "false");
  std::string json = CalibrationReportJson(report, samples, skipped, extra);
  std::printf("JSON: %s\n", json.c_str());
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json << "\n";
    if (!out) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }

  // Gates.
  bool failed = false;
  if (!report.anchored) {
    std::fprintf(stderr, "GATE: fit did not anchor (seq_row <= 0)\n");
    failed = true;
  }
  const double r2_floor = smoke ? 0.5 : 0.8;
  if (report.r_squared < r2_floor) {
    std::fprintf(stderr, "GATE: r_squared %.4f below floor %.2f\n",
                 report.r_squared, r2_floor);
    failed = true;
  }
  if (skipped.size() * 3 > probes.size()) {
    std::fprintf(stderr, "GATE: %zu/%zu probes skipped (plan mismatches)\n",
                 skipped.size(), probes.size());
    failed = true;
  }
  for (const char* must_fit :
       {"seq_row", "filter_row", "hash_build_row", "hash_probe_row"}) {
    if (report.coefficients[must_fit].used_fallback) {
      std::fprintf(stderr, "GATE: core coefficient %s fell back\n", must_fit);
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
