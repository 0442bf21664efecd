// DMV smoke: drive a cache server through the usual motions (local hits,
// remote routing, a dynamic plan, a freshness-bounded query, a replication
// round) and then read every sys.dm_* view back through plain SQL. Exits
// non-zero if a DMV fails to execute or an expected counter stayed at zero,
// so scripts/check.sh can use it as a regression gate.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/dmv_smoke

#include <cstdio>
#include <string>

#include "mtcache/mtcache.h"

using namespace mtcache;

namespace {

void Must(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

void PrintDmv(Server* server, const std::string& name) {
  auto result = server->Execute("SELECT * FROM sys." + name);
  Must(result.status(), name.c_str());
  std::printf("\nsys.%s (%zu row%s)\n", name.c_str(), result->rows.size(),
              result->rows.size() == 1 ? "" : "s");
  for (const Row& row : result->rows) {
    std::printf("  ");
    for (int c = 0; c < result->schema.num_columns(); ++c) {
      std::printf("%s%s=%s", c ? " " : "",
                  result->schema.column(c).name.c_str(),
                  row[c].ToString().c_str());
    }
    std::printf("\n");
  }
}

int64_t Counter(Server* server, const std::string& query, const char* what) {
  auto result = server->Execute(query);
  Must(result.status(), what);
  if (result->rows.size() != 1 || result->rows[0].empty()) {
    std::fprintf(stderr, "%s: expected one scalar row\n", what);
    std::exit(1);
  }
  return result->rows[0][0].AsInt();
}

}  // namespace

int main() {
  SimClock clock;
  LinkedServerRegistry links;
  Server backend(ServerOptions{"backend", "dbo", {}}, &clock, &links);
  Server cache(ServerOptions{"cache1", "dbo", {}}, &clock, &links);

  Must(backend.ExecuteScript(R"sql(
    CREATE TABLE customer (
      cid INT PRIMARY KEY,
      cname VARCHAR(30),
      city VARCHAR(30)
    );
  )sql"),
       "create schema");
  for (int i = 1; i <= 300; ++i) {
    Must(backend.ExecuteScript(
             "INSERT INTO customer VALUES (" + std::to_string(i) +
             ", 'customer" + std::to_string(i) + "', '" +
             (i % 2 == 0 ? "seattle" : "redmond") + "')"),
         "load");
  }
  backend.RecomputeStats();

  ReplicationSystem repl(&clock);
  auto mtcache_or = MTCache::Setup(&cache, &backend, &repl);
  Must(mtcache_or.status(), "MTCache setup");
  std::unique_ptr<MTCache> mtcache = mtcache_or.ConsumeValue();
  Must(cache.ExecuteScript(
           "CREATE CACHED MATERIALIZED VIEW cust200 AS "
           "SELECT cid, cname, city FROM customer WHERE cid <= 200"),
       "create cached view");

  // A little of everything the counters track: a repeated local query (plan
  // cache hit), a query outside the cached region (remote routing), a
  // parameterized dynamic plan exercised on both sides of the boundary, a
  // freshness-bounded query (uncacheable plan), a forwarded update, and one
  // replication round.
  for (int i = 0; i < 3; ++i) {
    Must(cache.Execute("SELECT cname FROM customer WHERE cid = 42").status(),
         "local query");
  }
  Must(cache.Execute("SELECT cname FROM customer WHERE cid = 250").status(),
       "remote query");
  ParamMap params;
  params["@cid"] = Value::Int(100);
  Must(cache.Execute("SELECT cname FROM customer WHERE cid = @cid", params,
                     nullptr)
           .status(),
       "dynamic plan, local branch");
  params["@cid"] = Value::Int(250);
  Must(cache.Execute("SELECT cname FROM customer WHERE cid = @cid", params,
                     nullptr)
           .status(),
       "dynamic plan, remote branch");
  Must(cache
           .Execute("SELECT cname FROM customer WHERE cid = 7 "
                    "WITH MAXSTALENESS 30")
           .status(),
       "freshness query");
  Must(cache.Execute("UPDATE customer SET cname = 'renamed' WHERE cid = 42")
           .status(),
       "forwarded update");
  clock.Advance(0.5);
  Must(repl.RunOnce(nullptr, nullptr), "replication round");

  for (const std::string& name : cache.dmvs().Names()) {
    PrintDmv(&cache, name);
  }

  // Regression gates: these counters must have moved if the layer is wired.
  struct Gate {
    const char* what;
    std::string query;
  } gates[] = {
      {"plan cache hits",
       "SELECT hits FROM sys.dm_plan_cache"},
      {"uncacheable plans",
       "SELECT uncacheable FROM sys.dm_plan_cache"},
      {"view-match hits",
       "SELECT view_match_hits FROM sys.dm_plan_cache"},
      {"dynamic plans",
       "SELECT dynamic_plans FROM sys.dm_plan_cache"},
      {"traced statements",
       "SELECT COUNT(*) FROM sys.dm_exec_requests"},
      {"rolled-up statements",
       "SELECT COUNT(*) FROM sys.dm_exec_query_stats"},
      {"cached views listed",
       "SELECT COUNT(*) FROM sys.dm_mtcache_views"},
      {"replicated changes",
       "SELECT changes_applied FROM sys.dm_repl_metrics"},
      {"cached index entries",
       "SELECT SUM(entries) FROM sys.dm_db_index_stats"},
  };
  bool ok = true;
  for (const Gate& gate : gates) {
    int64_t n = Counter(&cache, gate.query, gate.what);
    if (n <= 0) {
      std::fprintf(stderr, "FAIL: %s is %lld, expected > 0\n", gate.what,
                   static_cast<long long>(n));
      ok = false;
    }
  }
  if (!ok) return 1;
  std::printf("\nDMV smoke OK: all %zu gates nonzero.\n",
              sizeof(gates) / sizeof(gates[0]));
  return 0;
}
