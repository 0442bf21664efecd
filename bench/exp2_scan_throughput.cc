// E2-scan — single-node scan throughput over a selectivity × table-size
// grid. MTCache's premise is that a cache hit runs at local memory speed
// (§6.2); this harness measures what "local memory speed" actually is for
// the executor: a filtered scan over an unindexed column, repeated from a
// warm plan cache, so the per-query cost is pure executor work (snapshot
// acquisition, predicate evaluation, row materialization).
//
// The workload is SELECT id, a FROM scan_t WHERE a < K with K chosen for
// 1% / 10% / 100% selectivity, plus aggregate shapes (a scalar
// COUNT/SUM/MIN/MAX and a 16-group GROUP BY) over the same table. Rows
// carry a ~96-byte pad column so row-copy costs are visible. Each cell
// reports absolute QPS; regressions show against the committed trajectory
// in BENCH_exp2_scan.json and EXPERIMENTS.md E2. Every measured repeat must
// return exactly its warm-up rows, and the aggregate cells' results must
// equal the sums kept while loading; a mismatch exits FATAL.
//
// The largest table adds an 8-thread closed loop (no think time) on the 1%
// point, asserting each thread's warm result cardinality matches the
// single-thread run (this used to report result_rows: 0 because workers
// discarded rows).
//
// `--smoke` shrinks the grid for CI. Output ends with one JSON line,
// committed as BENCH_exp2_scan.json.
//
// Run with the machine idle; concurrent compiles easily halve these
// numbers.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

using namespace mtcache;
using namespace mtcache::bench;

namespace {

constexpr int kValueDomain = 10000;  // `a` is uniform over [0, kValueDomain)

// What the aggregate cells must return, accumulated while loading.
struct Expected {
  // agg_scalar: COUNT(*), SUM(a), MIN(a), MAX(a) over a < kValueDomain / 2.
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  // agg_group: g -> (COUNT(*), SUM(a)).
  std::map<int64_t, std::pair<int64_t, int64_t>> groups;
};

// Loads scan_t with `rows` rows through the storage layer directly (the
// SQL INSERT path would spend the whole run parsing).
Expected LoadTable(Server* server, int64_t rows) {
  Check(server->ExecuteScript("CREATE TABLE scan_t (id INT PRIMARY KEY, "
                              "a INT, g INT, pad VARCHAR(100))"),
        "create scan_t");
  StoredTable* table = server->db().GetStoredTable("scan_t");
  const std::string pad(96, 'x');
  Random rng(0xE25CA9);
  Expected want;
  auto txn = server->db().txn_manager().Begin();
  for (int64_t i = 0; i < rows; ++i) {
    const int64_t a = rng.Uniform(0, kValueDomain - 1);
    Row row = {Value::Int(i), Value::Int(a), Value::Int(i % 16),
               Value::String(pad)};
    Check(table->Insert(row, txn.get()).status(), "load scan_t");
    if (a < kValueDomain / 2) {
      want.min = want.count == 0 ? a : std::min(want.min, a);
      want.max = want.count == 0 ? a : std::max(want.max, a);
      ++want.count;
      want.sum += a;
    }
    auto& [group_count, group_sum] = want.groups[i % 16];
    ++group_count;
    group_sum += a;
  }
  server->db().txn_manager().Commit(txn.get(), 0.0);
  server->RecomputeStats();
  return want;
}

// Same rows in the same order, value for value and type tag for type tag.
bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      const Value& x = a[r][c];
      const Value& y = b[r][c];
      if (x.is_null() != y.is_null()) return false;
      if (!x.is_null() && (x.type() != y.type() || x.Compare(y) != 0)) {
        return false;
      }
    }
  }
  return true;
}

void CheckScalarAggregate(const QueryResult& r, const Expected& want) {
  const std::vector<Row> expect = {{Value::Int(want.count),
                                    Value::Int(want.sum), Value::Int(want.min),
                                    Value::Int(want.max)}};
  if (!SameRows(r.rows, expect)) {
    std::fprintf(stderr, "FATAL: agg_scalar result differs from the loaded "
                         "data\n");
    std::exit(1);
  }
}

void CheckGroupedAggregate(const QueryResult& r, const Expected& want) {
  bool ok = r.rows.size() == want.groups.size();
  for (const Row& row : r.rows) {
    if (!ok) break;
    auto it = want.groups.find(row[0].AsInt());
    ok = row.size() == 3 && it != want.groups.end() &&
         SameRows({row}, {{Value::Int(it->first),
                           Value::Int(it->second.first),
                           Value::Int(it->second.second)}});
  }
  if (!ok) {
    std::fprintf(stderr, "FATAL: agg_group result differs from the loaded "
                         "data\n");
    std::exit(1);
  }
}

struct Measurement {
  double qps = 0;
  double scanned_rows_per_sec = 0;  // table rows visited per second
  size_t result_rows = 0;
};

// Runs `sql` repeatedly (warm plan cache) until `min_seconds` of wall clock
// or `min_iters` iterations, whichever is later. `check`, when set, vets the
// warm-up result; every measured repeat must return exactly the warm-up
// rows. The comparison is kept out of the timed window.
Measurement MeasureQps(Server* server, const std::string& sql,
                       int64_t table_rows, double min_seconds, int min_iters,
                       const std::function<void(const QueryResult&)>& check) {
  Measurement m;
  QueryResult warm = CheckOk(server->Execute(sql), "warmup query");
  if (check) check(warm);
  m.result_rows = warm.rows.size();
  int iters = 0;
  auto start = std::chrono::steady_clock::now();
  double elapsed = 0;
  double checking = 0;  // seconds spent comparing results
  while (iters < min_iters || elapsed < min_seconds) {
    QueryResult r = CheckOk(server->Execute(sql), "measured query");
    auto check_start = std::chrono::steady_clock::now();
    if (!SameRows(r.rows, warm.rows)) {
      std::fprintf(stderr, "FATAL: repeat %d of \"%s\" differs from the "
                           "warm-up result (%zu -> %zu rows)\n",
                   iters, sql.c_str(), m.result_rows, r.rows.size());
      std::exit(1);
    }
    ++iters;
    auto now = std::chrono::steady_clock::now();
    checking += std::chrono::duration<double>(now - check_start).count();
    elapsed = std::chrono::duration<double>(now - start).count() - checking;
  }
  m.qps = iters / elapsed;
  m.scanned_rows_per_sec = m.qps * static_cast<double>(table_rows);
  return m;
}

// Closed-loop variant of MeasureQps on `n_threads` concurrent sessions.
// Every thread runs its own warm query and records the cardinality it saw;
// the caller asserts those against the single-thread measurement (workers
// used to throw the rows away, which is how result_rows: 0 shipped).
struct ThreadedMeasurement {
  double qps = 0;
  size_t result_rows = 0;  // per-thread warm cardinality, verified uniform
};

ThreadedMeasurement MeasureQpsThreaded(Server* server, const std::string& sql,
                                       int n_threads, int ops_per_thread) {
  std::vector<size_t> warm_rows(n_threads, 0);
  auto start = std::chrono::steady_clock::now();
  ThreadedLoop(n_threads, [&](int thread_index, Random& /*rng*/) {
    QueryResult warm = CheckOk(server->Execute(sql), "threaded warmup");
    warm_rows[thread_index] = warm.rows.size();
    for (int i = 0; i < ops_per_thread; ++i) {
      Check(server->Execute(sql).status(), "threaded query");
    }
  });
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ThreadedMeasurement m;
  m.qps = static_cast<double>(n_threads) * (ops_per_thread + 1) / elapsed;
  m.result_rows = warm_rows[0];
  for (int t = 1; t < n_threads; ++t) {
    if (warm_rows[t] != m.result_rows) {
      std::fprintf(stderr, "FATAL: thread %d saw %zu rows, thread 0 saw %zu\n",
                   t, warm_rows[t], m.result_rows);
      std::exit(1);
    }
  }
  return m;
}

std::string ScanSql(double selectivity) {
  int64_t threshold =
      static_cast<int64_t>(selectivity * static_cast<double>(kValueDomain));
  return "SELECT id, a FROM scan_t WHERE a < " + std::to_string(threshold);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  Banner("E2-scan", "Filtered-scan throughput (selectivity x table size)",
         "local-execution premise of §6.2; executor scan path");

  std::vector<int64_t> sizes =
      smoke ? std::vector<int64_t>{2000}
            : std::vector<int64_t>{10000, 100000, 1000000};
  const std::vector<double> selectivities = {0.01, 0.10, 1.00};
  const double min_seconds = smoke ? 0.05 : 0.5;
  const int min_iters = smoke ? 3 : 10;

  std::printf("%-10s %-22s %8s %12s %12s\n", "Rows", "Query", "Threads",
              "QPS", "ResultRows");
  std::string json_results;
  auto append_json = [&](const std::string& fields) {
    if (!json_results.empty()) json_results += ", ";
    json_results += "{" + fields + "}";
  };
  // One single-thread cell: measured, printed, and appended to the JSON.
  auto cell = [&](Server* server, int64_t rows, const char* label,
                  const char* query, double sel, const std::string& sql,
                  const std::function<void(const QueryResult&)>& check =
                      nullptr) {
    Measurement m =
        MeasureQps(server, sql, rows, min_seconds, min_iters, check);
    std::printf("%-10lld %-22s %8d %12.1f %12zu\n",
                static_cast<long long>(rows), label, 1, m.qps, m.result_rows);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"rows\": %lld, \"query\": \"%s\", \"selectivity\": %.2f, "
                  "\"threads\": 1, \"qps\": %.2f, "
                  "\"scanned_rows_per_sec\": %.0f, \"result_rows\": %zu",
                  static_cast<long long>(rows), query, sel, m.qps,
                  m.scanned_rows_per_sec, m.result_rows);
    append_json(buf);
  };

  for (int64_t rows : sizes) {
    SimClock clock;
    Server server(ServerOptions{"scanbench", "dbo", {}}, &clock);
    const Expected want = LoadTable(&server, rows);

    for (double sel : selectivities) {
      char label[32];
      std::snprintf(label, sizeof(label), "scan sel=%.2f", sel);
      cell(&server, rows, label, "scan", sel, ScanSql(sel));
    }

    // Aggregate shapes: the scan hands the aggregate row batches, whose
    // cells it reads in place. Both results are checked against the loaded
    // data.
    cell(&server, rows, "agg scalar", "agg_scalar", 0.50,
         "SELECT COUNT(*), SUM(a), MIN(a), MAX(a) FROM scan_t WHERE a < " +
             std::to_string(kValueDomain / 2),
         [&want](const QueryResult& r) { CheckScalarAggregate(r, want); });
    cell(&server, rows, "agg group", "agg_group", 1.00,
         "SELECT g, COUNT(*), SUM(a) FROM scan_t GROUP BY g",
         [&want](const QueryResult& r) { CheckGroupedAggregate(r, want); });

    if (rows != sizes.back()) continue;

    // Threaded leg on the most selective point of the largest table: the
    // snapshot path must not serialize concurrent readers, and every
    // worker's cardinality must match the single-thread measurement.
    {
      const int n_threads = smoke ? 2 : 8;
      const int ops = smoke ? 5 : 40;
      Measurement single = MeasureQps(&server, ScanSql(0.01), rows,
                                      min_seconds, min_iters, nullptr);
      ThreadedMeasurement tm =
          MeasureQpsThreaded(&server, ScanSql(0.01), n_threads, ops);
      if (tm.result_rows != single.result_rows) {
        std::fprintf(stderr,
                     "FATAL: threaded result_rows %zu != single-thread %zu\n",
                     tm.result_rows, single.result_rows);
        return 1;
      }
      std::printf("%-10lld %-22s %8d %12.1f %12zu\n",
                  static_cast<long long>(rows), "scan sel=0.01", n_threads,
                  tm.qps, tm.result_rows);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "\"rows\": %lld, \"query\": \"scan\", "
                    "\"selectivity\": 0.01, \"threads\": %d, \"qps\": %.2f, "
                    "\"scanned_rows_per_sec\": %.0f, \"result_rows\": %zu",
                    static_cast<long long>(rows), n_threads, tm.qps,
                    tm.qps * static_cast<double>(rows), tm.result_rows);
      append_json(buf);
    }
  }

  std::printf("\nShape check: QPS falls with table size and with "
              "selectivity; compare each cell with BENCH_exp2_scan.json.\n");
  std::printf("JSON: {\"experiment\": \"exp2_scan_throughput\", "
              "\"smoke\": %s, \"pad_bytes\": 96, \"results\": [%s]}\n",
              smoke ? "true" : "false", json_results.c_str());
  return 0;
}
