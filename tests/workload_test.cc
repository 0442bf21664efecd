#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/workload.h"
#include "mtcache/mtcache.h"

namespace mtcache {
namespace {

// ---------------------------------------------------------------------------
// Fingerprinting: normalization and hashing.
// ---------------------------------------------------------------------------

TEST(FingerprintTest, LiteralsFoldToPlaceholders) {
  EXPECT_EQ(NormalizeStatement("SELECT * FROM t WHERE id = 7"),
            "select * from t where id = ?");
  EXPECT_EQ(NormalizeStatement("SELECT * FROM t WHERE x > 1.5"),
            "select * from t where x > ?");
  EXPECT_EQ(NormalizeStatement("SELECT * FROM t WHERE name = 'Bob'"),
            "select * from t where name = ?");
}

TEST(FingerprintTest, CaseAndWhitespaceFold) {
  const std::string a = NormalizeStatement("SELECT  id\nFROM t WHERE id=3");
  const std::string b = NormalizeStatement("select ID from T where ID = 99");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, "select id from t where id = ?");
  EXPECT_EQ(FingerprintHash(a), FingerprintHash(b));
}

TEST(FingerprintTest, ParametersKeepTheirIdentity) {
  // Parameters are already placeholders; distinct names must stay distinct
  // (two proc bodies differing only in parameter use are different plans).
  const std::string a = NormalizeStatement("SELECT * FROM t WHERE id = @a");
  const std::string b = NormalizeStatement("SELECT * FROM t WHERE id = @b");
  EXPECT_EQ(a, "select * from t where id = @a");
  EXPECT_NE(a, b);
}

TEST(FingerprintTest, UnlexableTextFallsBackToFolding) {
  // Unterminated string: the lexer rejects it, the fallback still produces
  // a deterministic lower-cased, whitespace-folded fingerprint.
  EXPECT_EQ(NormalizeStatement("  SELECT 'broken  "), "select 'broken");
}

TEST(FingerprintTest, HexIsSixteenLowercaseDigits) {
  const std::string hex = FingerprintHex(FingerprintHash("select 1"));
  ASSERT_EQ(hex.size(), 16u);
  for (char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
  EXPECT_EQ(FingerprintHex(0), "0000000000000000");
}

// ---------------------------------------------------------------------------
// Repository: delta correctness and ring bounds, against a real server.
// ---------------------------------------------------------------------------

class WorkloadRepositoryTest : public ::testing::Test {
 protected:
  WorkloadRepositoryTest() : server_(ServerOptions{"s", "dbo", {}}, &clock_) {}

  void SetUp() override {
    ASSERT_TRUE(server_
                    .ExecuteScript(
                        "CREATE TABLE t (id INT PRIMARY KEY, x FLOAT)")
                    .ok());
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE(server_
                      .ExecuteScript("INSERT INTO t VALUES (" +
                                     std::to_string(i) + ", 1.0)")
                      .ok());
    }
  }

  void RunPointQueries(int n) {
    for (int i = 1; i <= n; ++i) {
      ASSERT_TRUE(server_
                      .Execute("SELECT id FROM t WHERE id = " +
                               std::to_string(i % 10 + 1))
                      .ok());
    }
  }

  SimClock clock_;
  Server server_;
};

TEST_F(WorkloadRepositoryTest, DeltasAreMonotoneAndSumToTotals) {
  RunPointQueries(3);
  clock_.Advance(5);
  WorkloadSlice s1 = server_.CaptureWorkloadSnapshot();
  RunPointQueries(4);
  ASSERT_TRUE(server_.Execute("SELECT COUNT(*) FROM t").ok());
  clock_.Advance(5);
  WorkloadSlice s2 = server_.CaptureWorkloadSnapshot();

  // Slice ids are monotone; the second slice covers exactly the advance.
  EXPECT_EQ(s2.slice_id, s1.slice_id + 1);
  EXPECT_DOUBLE_EQ(s2.captured_at, s1.captured_at + 5);
  EXPECT_DOUBLE_EQ(s2.interval_seconds, 5);

  // Deltas are non-negative (counters are monotone) and reflect the window:
  // slice 2 saw the 4 point queries + the COUNT(*).
  EXPECT_EQ(s1.statements, 3);
  EXPECT_EQ(s2.statements, 5);
  EXPECT_GE(s2.plan_cache_hits, 0);
  EXPECT_GE(s2.plan_cache_misses, 0);

  // Per-fingerprint deltas: the point-query fingerprint moved by 4 in s2,
  // and summing both slices reproduces the cumulative rollup exactly.
  const std::string fp = "select id from t where id = ?";
  int64_t delta_sum = 0;
  for (const WorkloadSlice* s : {&s1, &s2}) {
    for (const WorkloadQueryDelta& d : s->queries) {
      EXPECT_GT(d.executions, 0) << "idle fingerprints are omitted";
      if (d.statement == fp) delta_sum += d.executions;
    }
  }
  EXPECT_EQ(delta_sum, 7);
  auto rollups = server_.metrics().SnapshotRollups();
  ASSERT_TRUE(rollups.count(fp));
  EXPECT_EQ(rollups[fp].executions, 7);
  EXPECT_EQ(FingerprintHex(rollups[fp].query_hash),
            FingerprintHex(FingerprintHash(fp)));

  // A capture with no traffic in between produces an all-idle slice.
  WorkloadSlice s3 = server_.CaptureWorkloadSnapshot();
  EXPECT_EQ(s3.statements, 0);
  EXPECT_TRUE(s3.queries.empty());
}

TEST_F(WorkloadRepositoryTest, EverySliceCounterSumsToCumulative) {
  // Chop a run into 5 arbitrary slices; the per-slice deltas of every
  // counter must add back up to the since-boot totals.
  int64_t statements = 0, hits = 0, misses = 0;
  for (int k = 0; k < 5; ++k) {
    RunPointQueries(k + 1);
    WorkloadSlice s = server_.CaptureWorkloadSnapshot();
    statements += s.statements;
    hits += s.plan_cache_hits;
    misses += s.plan_cache_misses;
  }
  int64_t total = 0;
  for (const auto& [key, rollup] : server_.metrics().SnapshotRollups()) {
    total += rollup.executions;
  }
  EXPECT_EQ(statements, total);
  EXPECT_EQ(hits, server_.plan_cache_stats().hits);
  EXPECT_EQ(misses, server_.plan_cache_stats().misses);
}

TEST_F(WorkloadRepositoryTest, RingEvictsOldestAndCountsDrops) {
  server_.workload().set_capacity(3);
  EXPECT_EQ(server_.workload().capacity(), 3u);
  for (int i = 0; i < 5; ++i) {
    RunPointQueries(1);
    server_.CaptureWorkloadSnapshot();
  }
  std::vector<WorkloadSlice> slices = server_.workload().SnapshotSlices();
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices.front().slice_id, 3);  // 1 and 2 evicted
  EXPECT_EQ(slices.back().slice_id, 5);
  EXPECT_EQ(server_.workload().slices_dropped(), 2);
  EXPECT_EQ(server_.workload().slices_captured(), 5);
  // Shrinking evicts immediately.
  server_.workload().set_capacity(1);
  slices = server_.workload().SnapshotSlices();
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices.front().slice_id, 5);
  EXPECT_EQ(server_.workload().slices_dropped(), 4);
}

TEST_F(WorkloadRepositoryTest, CadenceCapturesOnSimClock) {
  EXPECT_DOUBLE_EQ(server_.workload_capture_interval(), 0);
  server_.set_workload_capture_interval(10);
  EXPECT_DOUBLE_EQ(server_.workload_capture_interval(), 10);
  RunPointQueries(2);  // before the first deadline: no capture
  EXPECT_EQ(server_.workload().slices_captured(), 0);
  clock_.Advance(11);
  RunPointQueries(1);  // past the deadline: this statement triggers capture
  EXPECT_EQ(server_.workload().slices_captured(), 1);
  RunPointQueries(5);  // next deadline not reached yet
  EXPECT_EQ(server_.workload().slices_captured(), 1);
  clock_.Advance(11);
  RunPointQueries(1);
  EXPECT_EQ(server_.workload().slices_captured(), 2);
  // The cadence slice includes the statement that triggered it.
  std::vector<WorkloadSlice> slices = server_.workload().SnapshotSlices();
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].statements, 3);
  EXPECT_EQ(slices[1].statements, 6);
}

TEST_F(WorkloadRepositoryTest, WorkloadDmvsRenderTheRing) {
  RunPointQueries(3);
  clock_.Advance(2);
  server_.CaptureWorkloadSnapshot();
  RunPointQueries(2);
  clock_.Advance(2);
  server_.CaptureWorkloadSnapshot();

  auto snaps = server_.Execute("SELECT * FROM sys.dm_workload_snapshots");
  ASSERT_TRUE(snaps.ok()) << snaps.status().ToString();
  ASSERT_EQ(snaps->rows.size(), 2u);

  // Filter pushdown works on the new DMVs like any other virtual table.
  auto deltas = server_.Execute(
      "SELECT executions FROM sys.dm_workload_query_deltas "
      "WHERE slice_id = 2 AND statement = 'select id from t where id = ?'");
  ASSERT_TRUE(deltas.ok()) << deltas.status().ToString();
  ASSERT_EQ(deltas->rows.size(), 1u);
  EXPECT_EQ(deltas->rows[0][0].AsInt(), 2);

  // No cached views on a standalone server: offload DMV renders empty.
  auto offload = server_.Execute("SELECT * FROM sys.dm_mtcache_view_offload");
  ASSERT_TRUE(offload.ok());
  EXPECT_TRUE(offload->rows.empty());
}

// ---------------------------------------------------------------------------
// Offload attribution: cached-view matches, roundtrips avoided, estimated
// savings — against a real MTCache deployment.
// ---------------------------------------------------------------------------

class WorkloadOffloadTest : public ::testing::Test {
 protected:
  WorkloadOffloadTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache1", "dbo", {}}, &clock_, &links_),
        repl_(&clock_) {}

  void SetUp() override {
    ASSERT_TRUE(backend_
                    .ExecuteScript(
                        "CREATE TABLE customer (cid INT PRIMARY KEY, "
                        "cname VARCHAR(30))")
                    .ok());
    for (int i = 1; i <= 300; ++i) {
      ASSERT_TRUE(backend_
                      .ExecuteScript("INSERT INTO customer VALUES (" +
                                     std::to_string(i) + ", 'n" +
                                     std::to_string(i) + "')")
                      .ok());
    }
    backend_.RecomputeStats();
    auto setup = MTCache::Setup(&cache_, &backend_, &repl_);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    mtcache_ = setup.ConsumeValue();
    ASSERT_TRUE(mtcache_
                    ->CreateCachedView("cust200",
                                       "SELECT cid, cname FROM customer "
                                       "WHERE cid <= 200")
                    .ok());
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  std::unique_ptr<MTCache> mtcache_;
};

TEST_F(WorkloadOffloadTest, ViewMatchesAttributeSavingsAndRoundtrips) {
  // Three in-region queries run local off the cached view; one out-of-region
  // query ships to the backend and must not be attributed to the view.
  for (int cid : {10, 20, 30}) {
    ASSERT_TRUE(cache_
                    .Execute("SELECT cid, cname FROM customer WHERE cid = " +
                             std::to_string(cid))
                    .ok());
  }
  ASSERT_TRUE(
      cache_.Execute("SELECT cid, cname FROM customer WHERE cid = 250").ok());

  auto offload = cache_.metrics().SnapshotViewOffload();
  ASSERT_TRUE(offload.count("cust200"));
  EXPECT_EQ(offload["cust200"].matches, 3);
  EXPECT_EQ(offload["cust200"].roundtrips_avoided, 3);
  EXPECT_GT(offload["cust200"].est_saved_units, 0)
      << "local plan must be estimated cheaper than the remote original";

  // The slice carries the same attribution as a delta, converted to seconds
  // at the server's measured seconds per charged unit: the elapsed seconds
  // of its executions over the units they were charged.
  double seconds = 0;
  double units = 0;
  for (const auto& [key, rollup] : cache_.metrics().SnapshotRollups()) {
    seconds += rollup.elapsed_seconds;
    units += rollup.totals.local_cost + rollup.totals.remote_cost;
  }
  ASSERT_GT(units, 0);
  const double unit_seconds = seconds / units;
  EXPECT_GT(unit_seconds, 0);
  EXPECT_DOUBLE_EQ(MeasuredSecondsPerUnit(cache_.metrics().SnapshotRollups()),
                   unit_seconds);
  WorkloadSlice s = cache_.CaptureWorkloadSnapshot();
  ASSERT_EQ(s.views.size(), 1u);
  EXPECT_EQ(s.views[0].view, "cust200");
  EXPECT_EQ(s.views[0].matches, 3);
  EXPECT_EQ(s.offload_roundtrips_avoided, 3);
  EXPECT_DOUBLE_EQ(s.views[0].est_saved_seconds,
                   s.views[0].est_saved_units * unit_seconds);

  // The DMV view renders cumulative attribution.
  auto r = cache_.Execute(
      "SELECT matches, roundtrips_avoided, est_saved_units, est_saved_seconds "
      "FROM sys.dm_mtcache_view_offload WHERE view_name = 'cust200'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 3);
  EXPECT_EQ(r->rows[0][1].AsInt(), 3);
  EXPECT_DOUBLE_EQ(r->rows[0][3].AsDouble(),
                   r->rows[0][2].AsDouble() * unit_seconds);

  // A second capture with no traffic: the view is idle, no delta emitted.
  WorkloadSlice s2 = cache_.CaptureWorkloadSnapshot();
  EXPECT_TRUE(s2.views.empty());
  EXPECT_EQ(s2.offload_matches, 0);
}

TEST_F(WorkloadOffloadTest, DynamicPlanRemoteBranchIsNotARoundtripAvoided) {
  // Parameterized query compiles to a ChoosePlan; the remote arm (cid = 250)
  // still *matches* the view conditionally but pays the roundtrip.
  const std::string sql = "SELECT cid, cname FROM customer WHERE cid <= @cid";
  ParamMap params;
  params["@cid"] = Value::Int(100);
  ASSERT_TRUE(cache_.Execute(sql, params, nullptr).ok());
  params["@cid"] = Value::Int(250);
  ASSERT_TRUE(cache_.Execute(sql, params, nullptr).ok());

  auto offload = cache_.metrics().SnapshotViewOffload();
  ASSERT_TRUE(offload.count("cust200"));
  EXPECT_EQ(offload["cust200"].matches, 2);
  EXPECT_EQ(offload["cust200"].roundtrips_avoided, 1)
      << "only the local-branch execution avoided the backend";
}

}  // namespace
}  // namespace mtcache
