// Plan-quality regression corpus (scripts/check.sh planqual).
//
// ~40 canned queries run against an MTCache fixture with deliberately
// *skewed* data (heavy-hitter equality values, quadratically dense ranges)
// and two cached views, so local/remote routing, scan/seek access-path
// picks, and histogram-vs-uniform estimation all have teeth. For every
// query the test records:
//
//   - the chosen plan's routing class (local / remote / dynamic) and access
//     path (scan / seek / scan+seek),
//   - the worst per-operator Q-error, max(est/actual, actual/est) from the
//     profiling layer's estimated-vs-actual rows (unexecuted dynamic
//     branches, opens == 0, are excluded),
//
// and fails if any routing or access-path choice differs from the committed
// golden (tests/plan_quality_golden.txt) or any query's Q-error worsens.
// Everything compared is deterministic — seeded data, stats-driven abstract
// costs, no wall-clock — so the golden is machine-stable. Regenerate after
// an intentional optimizer change with:
//
//   MT_UPDATE_PLAN_GOLDEN=1 ./build/tests/plan_quality_test
//
// A second pass strips the equi-depth histograms from every table the cache
// optimizer sees and re-runs the corpus: the median Q-error with histograms
// must strictly beat the uniform-assumption baseline on the queries where
// the two models disagree (PK point lookups estimate identically either
// way), and must not be worse overall. A human-readable per-query report
// (including est-vs-actual rows per operator) is written to
// $MT_PLAN_QUALITY_REPORT (default plan_quality_report.txt) — the CI
// artifact reviewers diff when a golden changes.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mtcache/mtcache.h"

#ifndef MT_PLAN_QUALITY_GOLDEN
#define MT_PLAN_QUALITY_GOLDEN "plan_quality_golden.txt"
#endif

namespace mtcache {
namespace {

struct QuerySpec {
  std::string name;
  std::string sql;
  ParamMap params;  // empty for unparameterized queries
};

struct QueryOutcome {
  std::string name;
  std::string routing;     // local | remote | dynamic
  std::string access;      // scan | seek | scan+seek | none
  double max_qerr = 1.0;   // worst per-operator Q-error
  std::string plan_text;   // full physical plan (report only)
  std::string op_detail;   // per-operator est vs actual (report only)
};

std::vector<QuerySpec> Corpus() {
  std::vector<QuerySpec> qs;
  auto add = [&](std::string name, std::string sql, ParamMap params = {}) {
    qs.push_back({std::move(name), std::move(sql), std::move(params)});
  };
  // Customer point/range probes around the v_cust_low coverage edge (1250).
  add("q01_cust_point_low", "SELECT * FROM customer WHERE cid = 100");
  add("q02_cust_point_high", "SELECT * FROM customer WHERE cid = 2000");
  add("q03_cust_range_low", "SELECT * FROM customer WHERE cid <= 300");
  add("q04_cust_range_high", "SELECT * FROM customer WHERE cid >= 2400");
  add("q05_cust_param_point", "SELECT * FROM customer WHERE cid = @p",
      {{"@p", Value::Int(400)}});
  add("q06_cust_param_range",
      "SELECT cid, segment FROM customer WHERE cid <= @p",
      {{"@p", Value::Int(800)}});
  // Heavy-hitter vs rare equality on the skewed segment column.
  add("q07_seg_heavy", "SELECT cid FROM customer WHERE segment = 1");
  add("q08_seg_rare", "SELECT cid FROM customer WHERE segment = 7");
  add("q09_seg_heavy_count",
      "SELECT COUNT(*) FROM customer WHERE segment = 1");
  add("q10_region_group",
      "SELECT region, COUNT(*) FROM customer GROUP BY region");
  add("q11_balance_high", "SELECT cid FROM customer WHERE cbalance >= 900");
  add("q12_order_point", "SELECT * FROM orders WHERE okey = 2500");
  // Orders by customer key: inside / across / outside v_orders_small (500).
  add("q13_orders_ckey_low", "SELECT okey FROM orders WHERE ckey <= 200");
  add("q14_orders_ckey_mid", "SELECT okey FROM orders WHERE ckey <= 1500");
  add("q15_orders_ckey_eq", "SELECT total FROM orders WHERE ckey = 50");
  // Quadratically dense odate: uniform interpolation misestimates badly.
  add("q16_odate_low", "SELECT okey FROM orders WHERE odate <= 10100");
  add("q17_odate_high", "SELECT okey FROM orders WHERE odate >= 12000");
  add("q18_odate_heavy_eq", "SELECT okey FROM orders WHERE odate = 10000");
  add("q19_status_heavy", "SELECT okey FROM orders WHERE status = 0");
  add("q20_status_rare", "SELECT okey FROM orders WHERE status = 2");
  add("q21_status_group",
      "SELECT status, COUNT(*) FROM orders GROUP BY status");
  // Joins.
  add("q22_join_count",
      "SELECT COUNT(*) FROM customer JOIN orders ON cid = ckey");
  add("q23_join_filtered",
      "SELECT COUNT(*) FROM customer JOIN orders ON cid = ckey "
      "WHERE cid <= 500");
  add("q24_join_heavy_seg",
      "SELECT COUNT(*) FROM customer JOIN orders ON cid = ckey "
      "WHERE segment = 1");
  add("q25_join_group",
      "SELECT region, SUM(total) FROM customer JOIN orders ON cid = ckey "
      "GROUP BY region");
  // Sort / top / distinct.
  add("q26_top_balance",
      "SELECT TOP 50 cid, cbalance FROM customer ORDER BY cbalance DESC");
  add("q27_top_odate", "SELECT TOP 20 okey FROM orders ORDER BY odate");
  add("q28_distinct_seg", "SELECT DISTINCT segment FROM customer");
  add("q29_distinct_region",
      "SELECT DISTINCT region FROM customer WHERE cid <= 1250");
  // Aggregates.
  add("q30_count_orders", "SELECT COUNT(*) FROM orders");
  add("q31_sum_heavy",
      "SELECT SUM(total) FROM orders WHERE status = 0");
  // Compound predicates.
  add("q32_and_pred",
      "SELECT cid FROM customer WHERE segment = 1 AND region = 3");
  add("q33_or_pred",
      "SELECT cid FROM customer WHERE segment = 7 OR region = 5");
  add("q34_odate_band",
      "SELECT okey FROM orders WHERE odate >= 10050 AND odate <= 10200");
  add("q35_orders_seek", "SELECT total FROM orders WHERE ckey = 123");
  add("q36_orders_param", "SELECT okey FROM orders WHERE ckey <= @p",
      {{"@p", Value::Int(300)}});
  add("q37_cust_proj",
      "SELECT cid + region FROM customer WHERE cid <= 600");
  add("q38_orders_proj",
      "SELECT okey, total FROM orders WHERE total >= 450");
  add("q39_three_preds",
      "SELECT COUNT(*) FROM orders WHERE status = 0 AND odate <= 11000 "
      "AND total >= 100");
  add("q40_left_join",
      "SELECT COUNT(*) FROM customer LEFT JOIN orders ON cid = ckey "
      "WHERE region = 2");
  return qs;
}

std::string ClassifyRouting(const std::string& plan) {
  if (plan.find("StartupFilter") != std::string::npos) return "dynamic";
  if (plan.find("RemoteQuery") != std::string::npos) return "remote";
  return "local";
}

std::string ClassifyAccess(const std::string& plan) {
  bool scan = plan.find("SeqScan") != std::string::npos;
  bool seek = plan.find("IndexSeek") != std::string::npos;
  if (scan && seek) return "scan+seek";
  if (seek) return "seek";
  if (scan) return "scan";
  return "none";
}

// Worst per-operator Q-error over the executed operators of a profile tree.
// actual_rows accumulates over opens (rescanned inners), so the per-open
// actual is actual_rows / opens; never-opened operators (the untaken branch
// of a dynamic plan) carry no evidence and are skipped.
void CollectQerr(const OperatorProfile& node, double* worst,
                 std::string* detail) {
  if (node.opens > 0) {
    double actual =
        static_cast<double>(node.actual_rows) / static_cast<double>(node.opens);
    double a = std::max(actual, 1.0);
    double e = std::max(node.est_rows, 1.0);
    double q = std::max(a / e, e / a);
    *worst = std::max(*worst, q);
    char line[256];
    std::snprintf(line, sizeof(line), "    %-40s est=%.1f actual=%.1f q=%.2f\n",
                  node.op_name.c_str(), node.est_rows, actual, q);
    *detail += line;
  }
  for (const OperatorProfile& child : node.children) {
    CollectQerr(child, worst, detail);
  }
}

class PlanQualityTest : public ::testing::Test {
 protected:
  PlanQualityTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache1", "dbo", {}}, &clock_, &links_),
        repl_(&clock_) {}

  // Deterministic skewed dataset, loaded through the storage layer (the SQL
  // INSERT path would dominate the suite's runtime).
  void SetUp() override {
    ASSERT_TRUE(backend_
                    .ExecuteScript(
                        "CREATE TABLE customer (cid INT PRIMARY KEY, "
                        "segment INT, region INT, cbalance FLOAT); "
                        "CREATE TABLE orders (okey INT PRIMARY KEY, "
                        "ckey INT, odate INT, total FLOAT, status INT); "
                        "CREATE INDEX orders_ckey ON orders (ckey); "
                        "CREATE INDEX orders_odate ON orders (odate)")
                    .ok());
    {
      StoredTable* t = backend_.db().GetStoredTable("customer");
      auto txn = backend_.db().txn_manager().Begin();
      for (int i = 1; i <= 2500; ++i) {
        // segment: 70% heavy hitter (1), rest spread over 2..20.
        int segment = (i % 10) < 7 ? 1 : 2 + (i % 19);
        Row row = {Value::Int(i), Value::Int(segment), Value::Int(i % 8),
                   Value::Double((i * i) % 1000)};
        ASSERT_TRUE(t->Insert(row, txn.get()).ok());
      }
      backend_.db().txn_manager().Commit(txn.get(), 0.0);
    }
    {
      StoredTable* t = backend_.db().GetStoredTable("orders");
      auto txn = backend_.db().txn_manager().Begin();
      for (int j = 1; j <= 5000; ++j) {
        // ckey: quadratically dense toward low customer ids; odate:
        // quadratically dense toward 10000; status: 80% zero.
        double f = static_cast<double>(j) / 5000.0;
        int ckey = static_cast<int>(2499.0 * f * f) + 1;
        int odate = 10000 + (j % 60) * (j % 60);
        int status = (j % 5 == 0) ? 1 + (j % 3) : 0;
        Row row = {Value::Int(j), Value::Int(ckey), Value::Int(odate),
                   Value::Double((j % 500) * 1.0), Value::Int(status)};
        ASSERT_TRUE(t->Insert(row, txn.get()).ok());
      }
      backend_.db().txn_manager().Commit(txn.get(), 0.0);
    }
    backend_.RecomputeStats();
    auto setup = MTCache::Setup(&cache_, &backend_, &repl_);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    mtcache_ = setup.ConsumeValue();
    ASSERT_TRUE(mtcache_
                    ->CreateCachedView("v_cust_low",
                                       "SELECT cid, segment, region, cbalance "
                                       "FROM customer WHERE cid <= 1250")
                    .ok());
    ASSERT_TRUE(mtcache_
                    ->CreateCachedView("v_orders_small",
                                       "SELECT okey, ckey, odate, total, "
                                       "status FROM orders WHERE ckey <= 500")
                    .ok());
    cache_.RecomputeStats();  // histograms on the cached views' local data
    cache_.metrics().set_profiling_enabled(true);
  }

  QueryOutcome RunOne(const QuerySpec& spec) {
    QueryOutcome out;
    out.name = spec.name;
    auto explain = cache_.Explain(spec.sql);
    EXPECT_TRUE(explain.ok()) << spec.name << ": "
                              << explain.status().ToString();
    if (explain.ok()) {
      out.plan_text = PhysicalToString(*explain->plan, 0);
      out.routing = ClassifyRouting(out.plan_text);
      out.access = ClassifyAccess(out.plan_text);
    }
    auto result = cache_.Execute(spec.sql, spec.params, nullptr);
    EXPECT_TRUE(result.ok()) << spec.name << ": "
                             << result.status().ToString();
    // The profile ring holds 16 entries; snapshot immediately and take the
    // newest record for this statement.
    const auto profiles = cache_.metrics().SnapshotProfiles();
    bool found = false;
    for (auto it = profiles.rbegin(); it != profiles.rend(); ++it) {
      if (it->info->label == spec.sql) {
        CollectQerr(it->root, &out.max_qerr, &out.op_detail);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "no profile retained for " << spec.name;
    return out;
  }

  std::vector<QueryOutcome> RunCorpus() {
    std::vector<QueryOutcome> outcomes;
    for (const QuerySpec& spec : Corpus()) outcomes.push_back(RunOne(spec));
    return outcomes;
  }

  // Strips the equi-depth histograms from every table the cache optimizer
  // sees (shadow tables and cached-view backing tables alike) and
  // invalidates cached plans, degrading estimation to the uniform [min,max]
  // assumption.
  void StripHistograms() {
    for (const std::string& name : cache_.db().catalog().TableNames()) {
      TableDef* def = cache_.db().catalog().GetTable(name);
      if (def == nullptr) continue;
      for (ColumnStats& cs : def->stats.columns) cs.hist_bounds.clear();
    }
    cache_.set_optimizer_options(cache_.optimizer_options());
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  std::unique_ptr<MTCache> mtcache_;
};

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

TEST_F(PlanQualityTest, CorpusMatchesGoldenAndHistogramsBeatUniform) {
  std::vector<QueryOutcome> with_hist = RunCorpus();
  ASSERT_EQ(with_hist.size(), Corpus().size());

  // ---- Report artifact (always written; CI uploads it). ----
  const char* report_env = std::getenv("MT_PLAN_QUALITY_REPORT");
  std::string report_path =
      report_env != nullptr ? report_env : "plan_quality_report.txt";
  {
    std::ofstream report(report_path);
    report << "# plan-quality corpus: routing | access | max per-operator "
              "Q-error\n";
    for (const QueryOutcome& o : with_hist) {
      report << o.name << " | " << o.routing << " | " << o.access << " | "
             << "qerr=" << o.max_qerr << "\n"
             << o.op_detail << "  plan:\n";
      std::istringstream plan(o.plan_text);
      std::string line;
      while (std::getline(plan, line)) report << "    " << line << "\n";
    }
    ASSERT_TRUE(report.good()) << "cannot write " << report_path;
  }

  // ---- Golden comparison (or regeneration). ----
  const std::string golden_path = MT_PLAN_QUALITY_GOLDEN;
  if (std::getenv("MT_UPDATE_PLAN_GOLDEN") != nullptr) {
    std::ofstream golden(golden_path);
    golden << "# query|routing|access|max_qerr — regenerate with "
              "MT_UPDATE_PLAN_GOLDEN=1 ./plan_quality_test\n";
    for (const QueryOutcome& o : with_hist) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s|%s|%s|%.3f\n", o.name.c_str(),
                    o.routing.c_str(), o.access.c_str(), o.max_qerr);
      golden << buf;
    }
    ASSERT_TRUE(golden.good()) << "cannot write " << golden_path;
    GTEST_LOG_(INFO) << "golden regenerated at " << golden_path;
  } else {
    std::ifstream golden(golden_path);
    ASSERT_TRUE(golden.good())
        << "missing golden " << golden_path
        << " — run MT_UPDATE_PLAN_GOLDEN=1 ./plan_quality_test";
    std::map<std::string, std::tuple<std::string, std::string, double>> want;
    std::string line;
    while (std::getline(golden, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream ss(line);
      std::string name, routing, access, qerr;
      ASSERT_TRUE(std::getline(ss, name, '|') &&
                  std::getline(ss, routing, '|') &&
                  std::getline(ss, access, '|') && std::getline(ss, qerr))
          << "malformed golden line: " << line;
      want[name] = {routing, access, std::stod(qerr)};
    }
    EXPECT_EQ(want.size(), with_hist.size())
        << "golden is stale (query set changed) — regenerate";
    for (const QueryOutcome& o : with_hist) {
      auto it = want.find(o.name);
      ASSERT_NE(it, want.end()) << o.name << " not in golden — regenerate";
      const auto& [routing, access, qerr] = it->second;
      EXPECT_EQ(o.routing, routing)
          << o.name << ": routing flipped (plan-choice regression)\n"
          << o.plan_text;
      EXPECT_EQ(o.access, access)
          << o.name << ": access path flipped (plan-choice regression)\n"
          << o.plan_text;
      // Q-error must not worsen. Improvements pass (tighten the golden when
      // they are intentional).
      EXPECT_LE(o.max_qerr, qerr + 0.02)
          << o.name << ": Q-error regressed\n"
          << o.op_detail;
    }
  }

  // ---- Histogram ablation: uniform baseline must be worse. ----
  StripHistograms();
  std::vector<QueryOutcome> uniform = RunCorpus();
  ASSERT_EQ(uniform.size(), with_hist.size());
  std::vector<double> all_hist, all_uni, diff_hist, diff_uni;
  for (size_t i = 0; i < with_hist.size(); ++i) {
    all_hist.push_back(with_hist[i].max_qerr);
    all_uni.push_back(uniform[i].max_qerr);
    if (std::abs(with_hist[i].max_qerr - uniform[i].max_qerr) > 1e-9) {
      diff_hist.push_back(with_hist[i].max_qerr);
      diff_uni.push_back(uniform[i].max_qerr);
    }
  }
  // PK point lookups and full-table aggregates estimate identically under
  // both models; the skew-sensitive remainder is where histograms must win.
  ASSERT_FALSE(diff_hist.empty())
      << "histograms changed no estimate — corpus lost its skewed queries";
  double med_hist = Median(diff_hist), med_uni = Median(diff_uni);
  std::printf("[planqual] estimation-affected queries: %zu/%zu; median "
              "Q-error hist=%.3f uniform=%.3f (overall %.3f vs %.3f)\n",
              diff_hist.size(), all_hist.size(), med_hist, med_uni,
              Median(all_hist), Median(all_uni));
  EXPECT_LT(med_hist, med_uni)
      << "median Q-error with histograms must strictly beat uniform";
  EXPECT_LE(Median(all_hist), Median(all_uni))
      << "histograms must not hurt the overall corpus median";
}

}  // namespace
}  // namespace mtcache
