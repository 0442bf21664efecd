// Profiling smoke gate: EXPLAIN ANALYZE through a cache server on TPC-W
// queries must report nonzero per-operator actuals (including the backend
// round-trip for a remotely routed query), the round-trip must appear as a
// `remote_roundtrip` trace span under the query's root span, and the
// histogram/wait-stats DMVs must be live. Exits non-zero on any violated
// assertion, so scripts/check.sh uses it as the `profile` regression gate.
//
// Last, the cost audit: TPC-W shopping interactions run with profiling on,
// their operators must have charged cost units, and a table of each
// operator kind's self microseconds per unit (inclusive minus children,
// from sys.dm_exec_query_profiles) is printed; the `planqual` gate keeps
// that table as its cost-audit artifact.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/profile_smoke

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/trace.h"
#include "common/wait_stats.h"
#include "sim/fleet.h"

using namespace mtcache;

namespace {

void Must(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

void Fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  std::exit(1);
}

/// Runs the statement and returns the single string column as lines.
std::vector<std::string> PlanLines(Server* server, const std::string& sql) {
  auto result = server->Execute(sql);
  Must(result.status(), sql.c_str());
  std::vector<std::string> lines;
  for (const Row& row : result->rows) lines.emplace_back(row[0].AsString());
  return lines;
}

bool AnyLineContains(const std::vector<std::string>& lines,
                     const std::string& needle) {
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

double AsNumber(const Value& v) {
  if (v.is_null()) return 0;
  return v.type() == TypeId::kDouble ? v.AsDouble()
                                     : static_cast<double>(v.AsInt());
}

double Scalar(Server* server, const std::string& sql, const char* what) {
  auto result = server->Execute(sql);
  Must(result.status(), what);
  if (result->rows.empty() || result->rows[0].empty()) Fail(what);
  return AsNumber(result->rows[0][0]);
}

// Self (exclusive) seconds and charged units of one operator kind, summed
// over every profiled instance.
struct SelfCost {
  int64_t ops = 0;
  double seconds = 0;
  double units = 0;
};

// Folds the profile rows of statements with query_id > *last_query into
// `by_kind`: each operator's inclusive seconds and units less its
// children's, keyed by the label's operator name ("SeqScan(item) [pred:
// ...]" -> "SeqScan"). Returns the summed inclusive units of those roots.
double FoldSelfCosts(Server* server, int64_t* last_query,
                     std::map<std::string, SelfCost>* by_kind) {
  auto result = server->Execute(
      "SELECT query_id, op_id, parent_id, operator, "
      "open_seconds + next_seconds + close_seconds, charged_units "
      "FROM sys.dm_exec_query_profiles WHERE query_id > " +
      std::to_string(*last_query));
  Must(result.status(), "profile rows");
  // Rows come in pre-order, so a parent's kind is known before its
  // children's rows subtract from it.
  std::map<std::pair<int64_t, int64_t>, std::string> kinds;  // (query, op)
  double root_units = 0;
  for (const Row& row : result->rows) {
    const int64_t query = row[0].AsInt();
    const std::string label(row[3].AsString());
    const std::string& kind = kinds[{query, row[1].AsInt()}] =
        label.substr(0, label.find_first_of("([ "));
    const double seconds = AsNumber(row[4]);
    const double units = AsNumber(row[5]);
    SelfCost& own = (*by_kind)[kind];
    ++own.ops;
    own.seconds += seconds;
    own.units += units;
    const int64_t parent = row[2].AsInt();
    if (parent < 0) {
      root_units += units;
    } else {
      SelfCost& up = (*by_kind)[kinds[{query, parent}]];
      up.seconds -= seconds;
      up.units -= units;
    }
    if (query > *last_query) *last_query = query;
  }
  return root_units;
}

}  // namespace

int main() {
  // A small TPC-W lab: item/author/orders/order_line are cached on the web
  // server, customer is not — so a customer query routes to the backend.
  sim::FleetConfig config;
  config.tpcw.num_items = 100;
  config.tpcw.num_authors = 25;
  config.tpcw.num_customers = 60;
  config.tpcw.num_orders = 50;
  config.num_caches = 1;
  config.profile_samples = 2;
  sim::Fleet fleet(config);
  Must(fleet.Initialize(), "fleet init");
  Server* cache = fleet.cache(0);

  // 1. EXPLAIN ANALYZE on a locally served query (cached view over item):
  // per-operator actuals with a nonzero row count and a summary row.
  std::vector<std::string> local = PlanLines(
      cache, "EXPLAIN ANALYZE SELECT i_title, i_cost FROM item WHERE i_id = 7");
  if (!AnyLineContains(local, "actual_rows=1")) {
    Fail("local EXPLAIN ANALYZE reports no operator with actual_rows=1");
  }
  if (!AnyLineContains(local, "actual: 1 rows")) {
    Fail("local EXPLAIN ANALYZE summary missing actual row count");
  }

  // 2. EXPLAIN ANALYZE on a remotely routed query, with tracing on: the
  // plan must carry a RemoteQuery operator whose actuals moved, and the
  // backend hop must be recorded as a remote_roundtrip span chained (via
  // trace_id) to a root span from this statement.
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.set_enabled(true);
  std::vector<std::string> remote = PlanLines(
      cache,
      "EXPLAIN ANALYZE SELECT c_fname, c_lname FROM customer WHERE c_id = 5");
  recorder.set_enabled(false);
  if (!AnyLineContains(remote, "RemoteQuery")) {
    Fail("customer query did not route through RemoteQuery");
  }
  bool remote_actuals = false;
  for (const std::string& line : remote) {
    if (line.find("RemoteQuery") != std::string::npos &&
        line.find("actual_rows=1") != std::string::npos) {
      remote_actuals = true;
    }
  }
  if (!remote_actuals) Fail("RemoteQuery operator shows no actual rows");
  std::vector<TraceSpan> spans = recorder.Snapshot();
  uint64_t roundtrip_trace = 0;
  for (const TraceSpan& span : spans) {
    if (std::string(span.name) == "remote_roundtrip") {
      roundtrip_trace = span.trace_id;
      if (span.parent_id == 0) Fail("remote_roundtrip span has no parent");
    }
  }
  if (roundtrip_trace == 0) Fail("no remote_roundtrip span recorded");
  bool has_root = false;
  for (const TraceSpan& span : spans) {
    if (span.trace_id == roundtrip_trace && span.parent_id == 0) {
      has_root = true;
    }
  }
  if (!has_root) Fail("remote_roundtrip span's trace has no root span");

  // 3. SET STATISTICS PROFILE ON publishes full-precision operator actuals
  // into sys.dm_exec_query_profiles (timings in seconds, not the rendered
  // milliseconds, so sub-microsecond operators still assert nonzero).
  Must(cache
           ->Execute("SET STATISTICS PROFILE ON; "
                     "SELECT i_title FROM item WHERE i_id = 11; "
                     "SET STATISTICS PROFILE OFF")
           .status(),
       "profiled SELECT");
  if (Scalar(cache,
             "SELECT COUNT(*) FROM sys.dm_exec_query_profiles "
             "WHERE actual_rows > 0",
             "profile rows") <= 0) {
    Fail("dm_exec_query_profiles has no operators with actual rows");
  }
  double timed = Scalar(cache,
                        "SELECT SUM(open_seconds) "
                        "FROM sys.dm_exec_query_profiles",
                        "open timings") +
                 Scalar(cache,
                        "SELECT SUM(next_seconds) "
                        "FROM sys.dm_exec_query_profiles",
                        "next timings") +
                 Scalar(cache,
                        "SELECT SUM(close_seconds) "
                        "FROM sys.dm_exec_query_profiles",
                        "close timings");
  if (!(timed > 0)) Fail("dm_exec_query_profiles timings are all zero");

  // 4. Latency histograms: the rollup DMV must report ordered percentiles.
  double p50 = Scalar(cache,
                      "SELECT MAX(latency_p50) FROM sys.dm_exec_query_stats",
                      "p50");
  double p99 = Scalar(cache,
                      "SELECT MAX(latency_p99) FROM sys.dm_exec_query_stats",
                      "p99");
  if (!(p50 > 0)) Fail("dm_exec_query_stats latency_p50 is zero");
  if (p99 < p50) Fail("dm_exec_query_stats percentiles out of order");

  // 5. Wait accounting: the scans above took table latches.
  if (Scalar(cache,
             "SELECT acquisitions FROM sys.dm_os_wait_stats "
             "WHERE wait_type = 'TABLE_LATCH_SH'",
             "wait stats") <= 0) {
    Fail("dm_os_wait_stats shows no table latch acquisitions");
  }

  // 6. EXPLAIN on DML: the cache's customer table is a shadow, so the plan
  // must state the statement is forwarded to the backend.
  std::vector<std::string> update = PlanLines(
      cache, "EXPLAIN UPDATE customer SET c_fname = 'x' WHERE c_id = 5");
  if (!AnyLineContains(update, "forwarded to backend as:")) {
    Fail("EXPLAIN UPDATE on a shadow table does not show forwarding");
  }

  // 7. Cost audit over TPC-W traffic: every SELECT of 60 shopping
  // interactions through the cache is profiled. The profile ring keeps the
  // last 16 executions, so the rows are folded after each interaction,
  // with profiling off so the DMV reads do not profile themselves.
  int64_t last_query = static_cast<int64_t>(Scalar(
      cache, "SELECT MAX(query_id) FROM sys.dm_exec_query_profiles",
      "last profiled query"));
  std::map<std::string, SelfCost> by_kind;
  double charged = 0;
  for (int i = 0; i < 60; ++i) {
    cache->metrics().set_profiling_enabled(true);
    Must(fleet.ExecuteInteractions(tpcw::WorkloadMix::kShopping, 1, 1),
         "TPC-W interaction");
    cache->metrics().set_profiling_enabled(false);
    charged += FoldSelfCosts(cache, &last_query, &by_kind);
  }
  if (!(charged > 0)) {
    Fail("profiled TPC-W statements charged no cost units");
  }
  std::printf("cost audit: self time per charged unit by operator over 60 "
              "profiled TPC-W shopping interactions (%.0f units)\n",
              charged);
  std::printf("%-16s %8s %14s %12s %10s\n", "operator", "ops", "self_units",
              "self_us", "us/unit");
  for (const auto& [kind, cost] : by_kind) {
    std::printf("%-16s %8lld %14.2f %12.1f ", kind.c_str(),
                static_cast<long long>(cost.ops), cost.units,
                cost.seconds * 1e6);
    if (cost.units > 0) {
      std::printf("%10.4f\n", cost.seconds * 1e6 / cost.units);
    } else {
      std::printf("%10s\n", "-");
    }
  }

  std::printf("profile smoke OK: EXPLAIN ANALYZE actuals, remote span, "
              "profiles DMV, percentiles, wait stats, DML EXPLAIN, "
              "charged units.\n");
  return 0;
}
