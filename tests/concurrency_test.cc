#include <atomic>
#include <barrier>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/consistency.h"
#include "common/random.h"
#include "engine/session.h"
#include "mtcache/mtcache.h"
#include "repl/fault.h"

namespace mtcache {
namespace {

/// Collects the first failure observed on a worker thread so it can be
/// reported from the main thread (gtest assertions are not thread-safe for
/// fatal failures off the main thread).
class ThreadErrors {
 public:
  void Record(const std::string& message) {
    std::lock_guard<std::mutex> guard(mu_);
    ++count_;
    if (first_.empty()) first_ = message;
  }
  int count() const {
    std::lock_guard<std::mutex> guard(mu_);
    return count_;
  }
  std::string first() const {
    std::lock_guard<std::mutex> guard(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  int count_ = 0;
  std::string first_;
};

/// Single-server concurrency: many sessions against one Server, hammering
/// the plan cache, the metrics registry, and the DMVs from parallel threads.
class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() : server_(ServerOptions{"backend", "dbo", {}}, &clock_) {}

  void SetUp() override {
    ASSERT_TRUE(server_
                    .ExecuteScript(
                        "CREATE TABLE item (i_id INT PRIMARY KEY, "
                        "i_title VARCHAR(30), i_cost FLOAT)")
                    .ok());
    for (int i = 1; i <= 100; ++i) {
      ASSERT_TRUE(server_
                      .ExecuteScript("INSERT INTO item VALUES (" +
                                     std::to_string(i) + ", 'title" +
                                     std::to_string(i) + "', " +
                                     std::to_string(i * 1.5) + ")")
                      .ok());
    }
    server_.RecomputeStats();
  }

  SimClock clock_;
  Server server_;
};

TEST_F(ConcurrencyTest, ExecuteConcurrentReturnsCorrectResultsInOrder) {
  // A mix of repeated texts (plan-cache hits under the shared lock) and
  // distinct texts (insert-or-discard races on the exclusive path).
  std::vector<std::string> statements;
  std::vector<int64_t> expected;
  Random rng(7);
  for (int i = 0; i < 64; ++i) {
    int64_t id = i % 2 == 0 ? 17 : rng.Uniform(1, 100);
    statements.push_back("SELECT i_id FROM item WHERE i_id = " +
                         std::to_string(id));
    expected.push_back(id);
  }
  std::vector<StatusOr<QueryResult>> results =
      server_.ExecuteConcurrent(statements, 8);
  ASSERT_EQ(results.size(), statements.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ASSERT_EQ(results[i]->rows.size(), 1u) << statements[i];
    EXPECT_EQ(results[i]->rows[0][0].AsInt(), expected[i]);
  }
  EXPECT_GT(server_.plan_cache_stats().hits, 0);
}

TEST_F(ConcurrencyTest, SessionStatePersistsAcrossBatchesOnOneWorker) {
  SessionPool pool(&server_, 1);
  ASSERT_TRUE(pool.Submit("SET @x = 41").get().ok());
  auto r = pool.Submit("SELECT @x + 1 AS x").get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 42);
}

TEST_F(ConcurrencyTest, PlanCacheSurvivesConcurrentEpochInvalidation) {
  // Readers keep executing while the main thread repeatedly changes
  // optimizer options — the epoch scheme must let in-flight statements
  // finish on their (now-invalidated) plans and later statements recompile,
  // with every answer staying correct throughout.
  ThreadErrors errors;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([this, t, &errors, &stop] {
      Random rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t id = rng.Uniform(1, 100);
        auto r = server_.Execute("SELECT i_cost FROM item WHERE i_id = " +
                                 std::to_string(id % 8 + 1));
        if (!r.ok()) {
          errors.Record(r.status().ToString());
          return;
        }
        if (r->rows.size() != 1 ||
            r->rows[0][0].AsDouble() != (id % 8 + 1) * 1.5) {
          errors.Record("wrong row for id " + std::to_string(id % 8 + 1));
          return;
        }
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    OptimizerOptions opts = server_.optimizer_options();
    opts.enable_view_matching = i % 2 == 0;
    server_.set_optimizer_options(opts);
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.count(), 0) << errors.first();
  EXPECT_GE(server_.plan_cache_stats().invalidations, 50);
}

TEST_F(ConcurrencyTest, ParseFreeHitsRaceInvalidation) {
  // Eight sessions run one text, so most executions are text-probe hits
  // that skip the parser, while another thread flushes the cache in a loop:
  // every hit must run a plan (and the AST it owns) that stays alive, and
  // every miss must re-plan and republish cleanly.
  const std::string text = "SELECT @c = i_cost FROM item WHERE i_id = @id";
  constexpr int kSessions = 8;
  constexpr int kIterations = 200;
  ThreadErrors errors;
  std::atomic<int> running{kSessions};
  std::vector<std::thread> sessions;
  for (int t = 0; t < kSessions; ++t) {
    sessions.emplace_back([this, t, &text, &errors, &running] {
      Session session;
      ExecStats stats;
      for (int i = 0; i < kIterations; ++i) {
        const int64_t id = (t * kIterations + i) % 100 + 1;
        session.vars["@id"] = Value::Int(id);
        auto r = server_.ExecuteOnSession(&session, text, &stats);
        if (!r.ok()) {
          errors.Record(r.status().ToString());
          break;
        }
        if (session.vars["@c"].AsDouble() != id * 1.5) {
          errors.Record("wrong @c for id " + std::to_string(id));
          break;
        }
      }
      running.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  int64_t flushes = 0;
  while (running.load(std::memory_order_relaxed) > 0) {
    server_.InvalidatePlanCache();
    ++flushes;
    std::this_thread::yield();
  }
  for (std::thread& t : sessions) t.join();
  EXPECT_EQ(errors.count(), 0) << errors.first();
  const PlanCacheStats& stats = server_.plan_cache_stats();
  EXPECT_GT(flushes, 0);
  EXPECT_GT(stats.misses, 0);
  EXPECT_EQ(stats.hits + stats.misses, kSessions * kIterations);
}

TEST_F(ConcurrencyTest, RecordedExecutionsAreExactUnderInvalidation) {
  // Four sessions each run kIterations cached point SELECTs and as many
  // cached point UPDATEs, on keys no other session touches, while the main
  // thread flushes the plan cache and reads the trace ring. Every execution
  // folds into its fingerprint's rollup exactly once, whichever plan (and
  // info) it ran under, and every ring row keeps its label and plan.
  const std::string kSelect = "SELECT i_cost FROM item WHERE i_id = @id";
  const std::string kUpdate =
      "UPDATE item SET i_cost = i_cost + 1 WHERE i_id = @id";
  constexpr int kSessions = 4;
  constexpr int kIterations = 100;
  constexpr int kKeysPerSession = 10;
  ThreadErrors errors;
  std::atomic<int> running{kSessions};
  std::vector<std::thread> sessions;
  for (int t = 0; t < kSessions; ++t) {
    sessions.emplace_back([&, t] {
      Session session;
      ExecStats stats;
      for (int i = 0; i < kIterations; ++i) {
        session.vars["@id"] =
            Value::Int(t * kKeysPerSession + i % kKeysPerSession + 1);
        for (const std::string* text : {&kSelect, &kUpdate}) {
          auto r = server_.ExecuteOnSession(&session, *text, &stats);
          if (!r.ok()) {
            errors.Record(r.status().ToString());
            break;
          }
        }
      }
      running.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  int64_t flushes = 0;
  while (running.load(std::memory_order_relaxed) > 0) {
    server_.InvalidatePlanCache();
    ++flushes;
    auto r = server_.Execute("SELECT statement, plan FROM sys.dm_exec_requests");
    if (!r.ok()) {
      errors.Record(r.status().ToString());
      break;
    }
    for (const Row& row : r->rows) {
      if (row[0].AsString().empty() || row[1].AsString().empty()) {
        errors.Record("a dm_exec_requests row lost its label or plan");
      }
    }
  }
  for (std::thread& t : sessions) t.join();
  EXPECT_EQ(errors.count(), 0) << errors.first();
  EXPECT_GT(flushes, 0);

  for (const std::string& fingerprint :
       {std::string("select i_cost from item where i_id = @id"),
        std::string("update item set i_cost = i_cost + ? where i_id = @id")}) {
    auto r = server_.Execute(
        "SELECT executions, rows_returned FROM sys.dm_exec_query_stats "
        "WHERE statement = '" + fingerprint + "'");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u) << fingerprint;
    EXPECT_EQ(r->rows[0][0].AsInt(), kSessions * kIterations) << fingerprint;
    // Each SELECT returns its one row and each UPDATE changes one.
    EXPECT_EQ(r->rows[0][1].AsInt(), kSessions * kIterations) << fingerprint;
  }
  // Every session's keys took exactly their share of the increments.
  for (int id = 1; id <= kSessions * kKeysPerSession; ++id) {
    auto r = server_.Execute("SELECT i_cost FROM item WHERE i_id = " +
                             std::to_string(id));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_DOUBLE_EQ(r->rows[0][0].AsDouble(),
                     id * 1.5 + kIterations / kKeysPerSession)
        << "i_id " << id;
  }
}

TEST_F(ConcurrencyTest, DmvReadsRaceWithStatementExecution) {
  ThreadErrors errors;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Two executors keep the metrics registry and trace ring churning...
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([this, t, &errors, &stop] {
      Random rng(2000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = server_.Execute("SELECT COUNT(*) FROM item WHERE i_id <= " +
                                 std::to_string(rng.Uniform(1, 100)));
        if (!r.ok()) {
          errors.Record(r.status().ToString());
          return;
        }
      }
    });
  }
  // ...while two observers scan every DMV through the ordinary query path.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([this, &errors, &stop] {
      const std::vector<std::string> dmvs = {
          "SELECT * FROM sys.dm_plan_cache",
          "SELECT * FROM sys.dm_exec_query_stats",
          "SELECT * FROM sys.dm_exec_requests",
      };
      size_t next = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = server_.Execute(dmvs[next++ % dmvs.size()]);
        if (!r.ok()) {
          errors.Record(r.status().ToString());
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.count(), 0) << errors.first();
}

TEST_F(ConcurrencyTest, ProfiledQueriesRaceProfileTogglesAndDmvReads) {
  // Profiling under contention: workers run profiled statements (per-session
  // SET STATISTICS PROFILE batches and EXPLAIN ANALYZE) while the main
  // thread flips the server-wide profiling switch and observers scan the
  // profile/wait-stats DMVs. TSan validates the relaxed profiling guard,
  // the profile ring's spinlock, and the wait-stats counters.
  ThreadErrors errors;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([this, t, &errors, &stop] {
      Random rng(4000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t id = rng.Uniform(1, 100);
        auto r = server_.Execute(
            t == 0 ? "SET STATISTICS PROFILE ON; "
                     "SELECT i_title FROM item WHERE i_id = " +
                         std::to_string(id) +
                         "; SET STATISTICS PROFILE OFF"
                   : "EXPLAIN ANALYZE SELECT i_cost FROM item WHERE i_id = " +
                         std::to_string(id));
        if (!r.ok()) {
          errors.Record(r.status().ToString());
          return;
        }
      }
    });
  }
  threads.emplace_back([this, &errors, &stop] {
    const std::vector<std::string> dmvs = {
        "SELECT COUNT(*) FROM sys.dm_exec_query_profiles",
        "SELECT * FROM sys.dm_os_wait_stats",
        "SELECT MAX(latency_p99) FROM sys.dm_exec_query_stats",
    };
    size_t next = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = server_.Execute(dmvs[next++ % dmvs.size()]);
      if (!r.ok()) {
        errors.Record(r.status().ToString());
        return;
      }
    }
  });
  for (int i = 0; i < 100; ++i) {
    server_.metrics().set_profiling_enabled(i % 2 == 0);
    std::this_thread::yield();
  }
  server_.metrics().set_profiling_enabled(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.count(), 0) << errors.first();
  EXPECT_FALSE(server_.metrics().SnapshotProfiles().empty());
}

TEST_F(ConcurrencyTest, WorkloadCaptureRacesStatementExecution) {
  // The workload repository under contention: executors churn the rollup map
  // (distinct fingerprints force new keys) while one thread captures
  // snapshots, one reads the workload DMVs, and the main thread flips the
  // capture cadence so the hot path's deadline CAS races real captures. TSan
  // validates the repository spinlock, the cadence atomics, and the
  // registry snapshot paths; the assertions pin that every observed slice is
  // internally consistent.
  ThreadErrors errors;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([this, t, &errors, &stop] {
      Random rng(6000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t id = rng.Uniform(1, 100);
        auto r = server_.Execute(
            t == 0 ? "SELECT i_cost FROM item WHERE i_id = " +
                         std::to_string(id)
                   : "SELECT COUNT(*) FROM item WHERE i_id <= " +
                         std::to_string(id));
        if (!r.ok()) {
          errors.Record(r.status().ToString());
          return;
        }
      }
    });
  }
  threads.emplace_back([this, &errors, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      WorkloadSlice s = server_.CaptureWorkloadSnapshot();
      // Deltas are non-negative and the per-fingerprint breakdown never
      // exceeds the slice total (a torn read would break either).
      int64_t breakdown = 0;
      for (const auto& d : s.queries) {
        if (d.executions <= 0) {
          errors.Record("non-positive delta for " + d.statement);
          return;
        }
        breakdown += d.executions;
      }
      if (s.statements < 0 || breakdown > s.statements) {
        errors.Record("slice breakdown " + std::to_string(breakdown) +
                      " exceeds total " + std::to_string(s.statements));
        return;
      }
      std::this_thread::yield();
    }
  });
  threads.emplace_back([this, &errors, &stop] {
    const std::vector<std::string> dmvs = {
        "SELECT COUNT(*) FROM sys.dm_workload_snapshots",
        "SELECT MAX(executions) FROM sys.dm_workload_query_deltas",
        "SELECT * FROM sys.dm_mtcache_view_offload",
    };
    size_t next = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto r = server_.Execute(dmvs[next++ % dmvs.size()]);
      if (!r.ok()) {
        errors.Record(r.status().ToString());
        return;
      }
    }
  });
  for (int i = 0; i < 100; ++i) {
    server_.set_workload_capture_interval(i % 2 == 0 ? 0.001 : 0);
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.count(), 0) << errors.first();
  EXPECT_GT(server_.workload().slices_captured(), 0);
}

TEST_F(ConcurrencyTest, SnapshotScansRaceDml) {
  // Copy-free scans vs. writers: scan threads hammer full-table and
  // selective (pushed-predicate) scans, holding refcounted row snapshots,
  // while writer threads update/insert/delete the same rows. TSan validates
  // the snapshot cache (build-once under the table latch, invalidate on
  // every mutation) and shared_ptr row lifetime; the invariant checked here
  // is that every scan sees a consistent point-in-time state — `i_cost` is
  // flipped between two values in one UPDATE, so a scan observing a mix of
  // old and new rows beyond a single transition proves a torn snapshot.
  ThreadErrors errors;
  std::atomic<bool> stop{false};
  std::vector<std::thread> scanners;
  for (int t = 0; t < 3; ++t) {
    scanners.emplace_back([this, t, &errors, &stop] {
      size_t iter = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = (t + iter++) % 2 == 0
                     ? server_.Execute("SELECT i_id, i_cost FROM item")
                     : server_.Execute(
                           "SELECT i_id FROM item WHERE i_cost < 0.0");
        if (!r.ok()) {
          errors.Record(r.status().ToString());
          return;
        }
        // Writers only ever flip costs between x*1.5 and x*1.5 + 1000 and
        // keep ids within [1, 200]; anything else is a torn row.
        for (const Row& row : r->rows) {
          int64_t id = row[0].AsInt();
          if (id < 1 || id > 200) {
            errors.Record("phantom id " + std::to_string(id));
            return;
          }
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([this, t, &errors, &stop] {
      Random rng(9000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t id = rng.Uniform(1, 100);
        std::string sql;
        switch (rng.Uniform(0, 3)) {
          case 0:
            sql = "UPDATE item SET i_cost = i_cost + 1000.0 WHERE i_id = " +
                  std::to_string(id);
            break;
          case 1:
            sql = "UPDATE item SET i_cost = " + std::to_string(id * 1.5) +
                  " WHERE i_id = " + std::to_string(id);
            break;
          case 2:
            sql = "INSERT INTO item VALUES (" + std::to_string(100 + id) +
                  ", 'hot', 1.0)";
            break;
          default:
            sql = "DELETE FROM item WHERE i_id = " + std::to_string(100 + id);
            break;
        }
        auto r = server_.Execute(sql);
        // Two writers racing on one row: a duplicate-key insert is an
        // expected outcome; a row another writer changed or removed after
        // this statement found it is skipped, not an error (DESIGN.md §8).
        if (!r.ok() && r.status().code() != StatusCode::kAlreadyExists) {
          errors.Record(r.status().ToString());
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : scanners) t.join();
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(errors.count(), 0) << errors.first();
  // Survivor sanity: the table is still scannable and keyed consistently.
  auto r = server_.Execute("SELECT COUNT(*) FROM item");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->rows[0][0].AsInt(), 100);
}

// The find-to-mutate window of UPDATE and DELETE, opened deterministically:
// the find hook runs `racing` (once) after the statement found its rows and
// released the latch, before it changes any of them.
class DmlWindowTest : public ConcurrencyTest {
 protected:
  void SetUp() override {
    ConcurrencyTest::SetUp();
    server_.set_dml_find_hook(
        [this](const std::string&, const std::vector<RowId>& rows) {
          if (racing_.empty()) return;
          found_ = rows;
          const std::string sql = std::move(racing_);
          racing_.clear();
          Status s = server_.ExecuteScript(sql);
          EXPECT_TRUE(s.ok()) << s.ToString();
        });
  }

  // The first two columns of item row `id`, or an empty row when absent.
  Row Item(int id) {
    auto r = server_.Execute("SELECT i_title, i_cost FROM item WHERE i_id = " +
                             std::to_string(id));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && !r->rows.empty() ? r->rows[0] : Row{};
  }

  std::string racing_;
  std::vector<RowId> found_;
};

TEST_F(DmlWindowTest, RowThatVanishedAfterTheFindIsSkipped) {
  racing_ = "DELETE FROM item WHERE i_id = 7";
  auto update = server_.Execute("UPDATE item SET i_cost = 0.0 WHERE i_id = 7");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update->rows_affected, 0);
  EXPECT_EQ(found_.size(), 1u);
  racing_ = "DELETE FROM item WHERE i_id = 8";
  auto del = server_.Execute("DELETE FROM item WHERE i_id = 8");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->rows_affected, 0);
  EXPECT_TRUE(Item(7).empty());
  EXPECT_EQ(server_.Execute("SELECT COUNT(*) FROM item")->rows[0][0].AsInt(),
            98);
}

TEST_F(DmlWindowTest, ReusedSlotWhoseRowFailsWhereIsUntouched) {
  // In the window the found row is deleted and its slot (the only free one)
  // taken by a new row the statement's WHERE does not match.
  const StoredTable& item = *server_.db().GetStoredTable("item");
  racing_ = "DELETE FROM item WHERE i_id = 9; "
            "INSERT INTO item VALUES (500, 'reused', 1.0)";
  auto update = server_.Execute(
      "UPDATE item SET i_cost = i_cost + 1000.0 WHERE i_id = 9");
  ASSERT_TRUE(update.ok()) << update.status().ToString();
  EXPECT_EQ(update->rows_affected, 0);
  ASSERT_EQ(found_.size(), 1u);
  EXPECT_EQ(item.heap().Get(found_[0])[0].AsInt(), 500);
  EXPECT_EQ(Item(500), (Row{Value::String("reused"), Value::Double(1.0)}));

  racing_ = "DELETE FROM item WHERE i_id = 10; "
            "INSERT INTO item VALUES (501, 'reused', 2.0)";
  auto del = server_.Execute("DELETE FROM item WHERE i_id = 10");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->rows_affected, 0);
  ASSERT_EQ(found_.size(), 1u);
  EXPECT_EQ(item.heap().Get(found_[0])[0].AsInt(), 501);
  EXPECT_EQ(Item(501), (Row{Value::String("reused"), Value::Double(2.0)}));
}

TEST_F(ConcurrencyTest, RacingUpdatesOfOneRowLoseNone) {
  // Each round, every thread's UPDATE finds the row, then waits in the find
  // window until all have found it, and all change it at once. Each SET is
  // evaluated from the row as it stands under the exclusive latch, so no
  // increment is lost: the cost ends exactly threads x rounds x 1000 higher.
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::barrier sync(kThreads);
  server_.set_dml_find_hook(
      [&sync](const std::string&, const std::vector<RowId>&) {
        sync.arrive_and_wait();
      });
  ThreadErrors errors;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &errors, &sync] {
      for (int round = 0; round < kRounds; ++round) {
        auto r = server_.Execute(
            "UPDATE item SET i_cost = i_cost + 1000.0 WHERE i_id = 1");
        if (!r.ok() || r->rows_affected != 1) {
          errors.Record(r.ok() ? "rows_affected " +
                                     std::to_string(r->rows_affected)
                               : r.status().ToString());
          sync.arrive_and_drop();  // release the others
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server_.set_dml_find_hook(nullptr);
  EXPECT_EQ(errors.count(), 0) << errors.first();
  auto r = server_.Execute("SELECT i_cost FROM item WHERE i_id = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->rows[0][0].AsDouble(),
                   1.5 + kThreads * kRounds * 1000.0);
}

TEST_F(ConcurrencyTest, SharedStringBuffersSurviveRacingCopiesAndDml) {
  // A string Value shares one immutable buffer with its copies; copying or
  // dropping one is an atomic refcount step. Writers store copies of one
  // buffer into heap rows (a parameter Value) and replace them again, while
  // scanners copy those rows out of snapshots and drop them, and copiers
  // copy and drop rows holding the same buffer. A non-atomic or unbalanced
  // refcount is a data race under TSan and a use-after-free under ASan; a
  // buffer freed and reused too early reads here as a torn title.
  const std::string kShared = "a title longer than any small-string buffer";
  const Row shared_row = {Value::Int(0), Value::String(kShared)};
  auto title_ok = [&kShared](const Value& title, int64_t id) {
    return title.AsString() == kShared ||
           title.AsString() == "title" + std::to_string(id);
  };
  ThreadErrors errors;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([this, &errors, &stop, &title_ok] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = server_.Execute("SELECT i_id, i_title FROM item");
        if (!r.ok()) {
          errors.Record(r.status().ToString());
          return;
        }
        std::vector<Row> kept(r->rows.begin(), r->rows.end());
        r->rows.clear();
        for (const Row& row : kept) {
          if (!title_ok(row[1], row[0].AsInt())) {
            errors.Record("torn title " + row[1].ToString());
            return;
          }
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&errors, &stop, &shared_row, &kShared] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<Row> copies(64, shared_row);
        Row moved = std::move(copies.back());
        copies.pop_back();
        copies.front() = moved;
        for (const Row& row : copies) {
          if (row[1].AsString() != kShared) {
            errors.Record("torn copy " + row[1].ToString());
            return;
          }
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([this, t, &errors, &stop, &shared_row] {
      Random rng(7000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const int64_t id = rng.Uniform(1, 100);
        const ParamMap params = {{"@t", shared_row[1]},
                                 {"@id", Value::Int(id)}};
        auto r = rng.Uniform(0, 1) == 0
                     ? server_.Execute(
                           "UPDATE item SET i_title = @t WHERE i_id = @id",
                           params, nullptr)
                     : server_.Execute("UPDATE item SET i_title = 'title" +
                                       std::to_string(id) +
                                       "' WHERE i_id = " + std::to_string(id));
        if (!r.ok() && r.status().code() != StatusCode::kNotFound) {
          errors.Record(r.status().ToString());
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.count(), 0) << errors.first();
  auto r = server_.Execute("SELECT i_id, i_title FROM item");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 100u);
  int shared_titles = 0;
  for (const Row& row : r->rows) {
    EXPECT_TRUE(title_ok(row[1], row[0].AsInt())) << row[1].ToString();
    if (row[1].AsString() == kShared) ++shared_titles;
  }
  EXPECT_GT(shared_titles, 0);  // the writers did store the shared buffer
  EXPECT_EQ(shared_row[1].AsString(), kShared);
}

/// Full-topology concurrency: replication pumping with injected faults on
/// the main thread while reader sessions query the cache in parallel.
class ReplicatedConcurrencyTest : public ::testing::Test {
 protected:
  ReplicatedConcurrencyTest()
      : backend_(ServerOptions{"backend", "dbo", {}}, &clock_, &links_),
        cache_(ServerOptions{"cache", "dbo", {}}, &clock_, &links_),
        repl_(&clock_) {}

  void SetUp() override {
    ASSERT_TRUE(backend_
                    .ExecuteScript(
                        "CREATE TABLE product (p_id INT PRIMARY KEY, "
                        "p_name VARCHAR(30), p_cat VARCHAR(10), "
                        "p_price FLOAT)")
                    .ok());
    for (int i = 1; i <= 40; ++i) {
      ASSERT_TRUE(InsertProduct(i).ok());
    }
    backend_.RecomputeStats();
    auto setup = MTCache::Setup(&cache_, &backend_, &repl_);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    mtcache_ = setup.ConsumeValue();
    ASSERT_TRUE(mtcache_
                    ->CreateCachedView("hot_products",
                                       "SELECT p_id, p_name FROM product "
                                       "WHERE p_cat = 'hot'")
                    .ok());
  }

  Status InsertProduct(int i) {
    std::string cat = i % 2 == 0 ? "hot" : "cold";
    return backend_.ExecuteScript(
        "INSERT INTO product VALUES (" + std::to_string(i) + ", 'p" +
        std::to_string(i) + "', '" + cat + "', " + std::to_string(i * 2.0) +
        ")");
  }

  SimClock clock_;
  LinkedServerRegistry links_;
  Server backend_;
  Server cache_;
  ReplicationSystem repl_;
  std::unique_ptr<MTCache> mtcache_;
};

TEST_F(ReplicatedConcurrencyTest, ReadersRaceReplicationApplyUnderFaults) {
  FaultPlan plan(11);
  plan.AddRandomRule(FaultSite::kDeliverTxn, FaultAction::kDrop, 0.2);
  plan.AddRandomRule(FaultSite::kApplyCommit, FaultAction::kCrash, 0.1);
  repl_.set_fault_plan(&plan);
  mtcache_->set_fault_plan(&plan);

  ThreadErrors errors;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  const int base_hot = 20;
  const int new_rows = 30;  // ids 41..70, half hot
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([this, t, &errors, &stop, base_hot, new_rows] {
      Random rng(3000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = cache_.Execute("SELECT COUNT(*) FROM hot_products");
        if (!r.ok()) {
          errors.Record(r.status().ToString());
          return;
        }
        int64_t count = r->rows[0][0].AsInt();
        // Monotonicity is not guaranteed mid-apply, but the count can never
        // leave the [initial, initial + all new hot rows] envelope.
        if (count < base_hot || count > base_hot + new_rows / 2) {
          errors.Record("hot count out of range: " + std::to_string(count));
          return;
        }
        if (rng.Bernoulli(0.3)) std::this_thread::yield();
      }
    });
  }

  // Main thread: interleave backend writes, faulty pipeline rounds, and
  // mid-flight ordering-invariant checks. The fault plan injects drops and
  // apply crashes; retries happen after simulated backoff.
  ConsistencyChecker checker(&repl_, &backend_, &cache_);
  ExecStats pub_stats, sub_stats;
  for (int i = 0; i < new_rows; ++i) {
    ASSERT_TRUE(InsertProduct(41 + i).ok());
    clock_.Advance(1.0);
    repl_.RunOnce(&pub_stats, &sub_stats).ok();  // faults => non-ok is fine
    if (i % 5 == 0) {
      ConsistencyReport mid = checker.CheckInvariants();
      EXPECT_TRUE(mid.ok()) << mid.ToString();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  ASSERT_EQ(errors.count(), 0) << errors.first();

  // Quiesce and prove full row-level convergence despite the faults.
  ASSERT_TRUE(DrainPipeline(&repl_, &clock_).ok());
  ConsistencyReport report = checker.Check();
  EXPECT_TRUE(report.ok()) << report.ToString() << "\n" << plan.ToString();
  auto final_count = cache_.Execute("SELECT COUNT(*) FROM hot_products");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->rows[0][0].AsInt(), base_hot + new_rows / 2);
}

TEST_F(ReplicatedConcurrencyTest, RandomizedInterleavingsStayConsistent) {
  // 50 deterministic seeds, each driving a different fault schedule and a
  // different interleaving of writes, pipeline rounds, and concurrent
  // reader batches — the PR-1 schedule machinery, now with real threads.
  for (uint64_t seed = 0; seed < 50; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FaultPlan plan(seed);
    plan.AddRandomRule(FaultSite::kDeliverTxn, FaultAction::kDrop, 0.15);
    plan.AddRandomRule(FaultSite::kApplyCommit, FaultAction::kCrash, 0.1);
    plan.AddRandomRule(FaultSite::kLogReadRecord, FaultAction::kCrash, 0.05);
    repl_.set_fault_plan(&plan);
    mtcache_->set_fault_plan(&plan);
    Random rng(seed * 7919 + 1);

    int id = 100 + static_cast<int>(seed) * 8;
    ExecStats pub_stats, sub_stats;
    for (int step = 0; step < 4; ++step) {
      ASSERT_TRUE(InsertProduct(id++).ok());
      clock_.Advance(rng.NextDouble() * 2.0);
      int rounds = static_cast<int>(rng.Uniform(0, 2));
      for (int r = 0; r < rounds; ++r) {
        repl_.RunOnce(&pub_stats, &sub_stats).ok();
      }
      // Concurrent reader batches racing whatever the pipeline left
      // in flight this round.
      std::vector<StatusOr<QueryResult>> results = cache_.ExecuteConcurrent(
          {"SELECT COUNT(*) FROM hot_products",
           "SELECT COUNT(*) FROM product",
           "SELECT * FROM sys.dm_mtcache_views"},
          2);
      for (const auto& r : results) {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
      ConsistencyReport mid =
          ConsistencyChecker(&repl_, &backend_, &cache_).CheckInvariants();
      ASSERT_TRUE(mid.ok()) << mid.ToString() << "\n" << plan.ToString();
    }
    ASSERT_TRUE(DrainPipeline(&repl_, &clock_).ok()) << plan.ToString();
    ConsistencyReport report =
        ConsistencyChecker(&repl_, &backend_, &cache_).Check();
    ASSERT_TRUE(report.ok()) << report.ToString() << "\n" << plan.ToString();
    repl_.set_fault_plan(nullptr);
    mtcache_->set_fault_plan(nullptr);
  }
}

TEST_F(ReplicatedConcurrencyTest, BatchedApplyRacesReadersAndDmvScans) {
  // The group-commit pipeline under fire: batches of 4 txns applied in
  // commit order while reader sessions hammer the cached view and scan the
  // replication DMVs, with faults injected at the delivery, mid-batch apply,
  // batch-boundary and ack sites. Runs in the TSan leg.
  repl_.set_distribution_batch_size(4);
  FaultPlan plan(29);
  plan.AddRandomRule(FaultSite::kDistributeBatch, FaultAction::kCrash, 0.05);
  plan.AddRandomRule(FaultSite::kDeliverTxn, FaultAction::kDrop, 0.1);
  plan.AddRandomRule(FaultSite::kApplyChange, FaultAction::kCrash, 0.05);
  plan.AddRandomRule(FaultSite::kBatchAck, FaultAction::kCrash, 0.05);
  repl_.set_fault_plan(&plan);
  mtcache_->set_fault_plan(&plan);

  ThreadErrors errors;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  const int base_hot = 20;
  const int new_rows = 32;  // ids 41..72, half hot
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([this, t, &errors, &stop, base_hot, new_rows] {
      Random rng(7000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        if (rng.Bernoulli(0.5)) {
          auto r = cache_.Execute("SELECT COUNT(*) FROM hot_products");
          if (!r.ok()) {
            errors.Record(r.status().ToString());
            return;
          }
          int64_t count = r->rows[0][0].AsInt();
          if (count < base_hot || count > base_hot + new_rows / 2) {
            errors.Record("hot count out of range: " + std::to_string(count));
            return;
          }
        } else {
          // DMV scans racing the apply and the batch acks.
          auto dmv = cache_.Execute(rng.Bernoulli(0.5)
                                        ? "SELECT * FROM sys.dm_repl_metrics"
                                        : "SELECT * FROM sys.dm_mtcache_views");
          if (!dmv.ok()) {
            errors.Record(dmv.status().ToString());
            return;
          }
        }
        if (rng.Bernoulli(0.3)) std::this_thread::yield();
      }
    });
  }

  ConsistencyChecker checker(&repl_, &backend_, &cache_);
  ExecStats pub_stats, sub_stats;
  for (int i = 0; i < new_rows; ++i) {
    ASSERT_TRUE(InsertProduct(41 + i).ok());
    clock_.Advance(1.0);
    repl_.RunOnce(&pub_stats, &sub_stats).ok();  // faults => non-ok is fine
    if (i % 4 == 0) {
      ConsistencyReport mid = checker.CheckInvariants();
      EXPECT_TRUE(mid.ok()) << mid.ToString();
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  ASSERT_EQ(errors.count(), 0) << errors.first();

  // Quiesce and prove full row-level convergence despite batching and
  // crash/drop faults at every injected site.
  ASSERT_TRUE(DrainPipeline(&repl_, &clock_).ok());
  ConsistencyReport report = checker.Check();
  EXPECT_TRUE(report.ok()) << report.ToString() << "\n" << plan.ToString();
  EXPECT_GT(plan.total_injected(), 0);
  EXPECT_GT(repl_.metrics().batches_distributed.load(), 0);
  auto final_count = cache_.Execute("SELECT COUNT(*) FROM hot_products");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->rows[0][0].AsInt(), base_hot + new_rows / 2);
}

TEST_F(ReplicatedConcurrencyTest, RacingDmlKeepsViewsEqualToTheirDefinitions) {
  // Writers race UPDATEs, DELETEs and re-INSERTs on the backend and through
  // the cache (which forwards them), and every third find window runs a
  // conflicting change to one of the writer's keys: a row moves out of or
  // into the views, or is deleted and re-inserted. Once the pipeline drains,
  // the cached view and a synchronously maintained view of the same
  // definition both equal it. Each writer owns its keys: two open
  // transactions changing one row can commit out of change order, which
  // this engine does not prevent (no row locks; DESIGN.md §8).
  ASSERT_TRUE(backend_
                  .ExecuteScript("CREATE MATERIALIZED VIEW hot_mv AS "
                                 "SELECT p_id, p_name FROM product "
                                 "WHERE p_cat = 'hot'")
                  .ok());
  constexpr int kWriters = 3;
  thread_local int writer = -1;  // the thread's writer index
  // The writer's four keys: writer + 1, then every kWriters-th id.
  auto key = [](int slot) {
    return std::to_string(writer + 1 + kWriters * slot);
  };
  std::atomic<int> finds{0};
  backend_.set_dml_find_hook(
      [this, &finds, &key](const std::string&, const std::vector<RowId>&) {
        thread_local bool in_hook = false;
        const int n = finds.fetch_add(1, std::memory_order_relaxed);
        if (in_hook || n % 3 != 0) return;
        in_hook = true;
        const std::string id = key(n / 3 % 4);
        Status s = backend_.ExecuteScript(
            n % 2 == 0 ? "UPDATE product SET p_cat = 'cold' WHERE p_id = " + id
                       : "DELETE FROM product WHERE p_id = " + id +
                             "; INSERT INTO product VALUES (" + id +
                             ", 'again', 'hot', 1.0)");
        EXPECT_TRUE(s.ok()) << s.ToString();
        in_hook = false;
      });
  ThreadErrors errors;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([this, t, &errors, &key] {
      writer = t;
      Server& server = t == 2 ? cache_ : backend_;
      Random rng(4200 + t);
      for (int i = 0; i < 60; ++i) {
        const std::string id = key(static_cast<int>(rng.Uniform(0, 3)));
        std::string sql;
        switch (rng.Uniform(0, 3)) {
          case 0:
            sql = "UPDATE product SET p_price = p_price + 1000.0, "
                  "p_name = 'moved' WHERE p_id = " + id + " AND p_cat = 'hot'";
            break;
          case 1:
            sql = "UPDATE product SET p_cat = 'hot' WHERE p_id = " + id;
            break;
          case 2:
            sql = "DELETE FROM product WHERE p_id = " + id +
                  " AND p_cat = 'cold'";
            break;
          default:
            sql = "INSERT INTO product VALUES (" + id + ", 'new', 'cold', 1.0)";
            break;
        }
        auto r = server.Execute(sql);
        if (!r.ok() && r.status().code() != StatusCode::kAlreadyExists) {
          errors.Record(sql + ": " + r.status().ToString());
          return;
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  backend_.set_dml_find_hook(nullptr);
  ASSERT_EQ(errors.count(), 0) << errors.first();
  EXPECT_GT(finds.load(), 0);

  ASSERT_TRUE(DrainPipeline(&repl_, &clock_).ok());
  ConsistencyReport report =
      ConsistencyChecker(&repl_, &backend_, &cache_).Check();
  EXPECT_TRUE(report.ok()) << report.ToString();
  // hot_mv against its definition, read from the base table (p_cat is not
  // in the view, so this read cannot be answered from it).
  auto base = backend_.Execute(
      "SELECT p_id, p_name, p_cat FROM product ORDER BY p_id");
  auto view = backend_.Execute("SELECT p_id, p_name FROM hot_mv ORDER BY p_id");
  ASSERT_TRUE(base.ok() && view.ok());
  std::vector<Row> expected;
  for (const Row& row : base->rows) {
    if (row[2].AsString() == "hot") expected.push_back({row[0], row[1]});
  }
  EXPECT_EQ(view->rows, expected);
}

TEST_F(ReplicatedConcurrencyTest, ResetMetricsRacesConcurrentDmvReaders) {
  // TSan regression for ReplicationMetrics::Reset(): field-wise atomic
  // stores must never tear against DMV readers snapshotting the counters.
  // Readers scan sys.dm_repl_metrics and the lag histogram in a tight loop
  // while one thread resets and the main thread keeps pumping the pipeline.
  repl_.set_distribution_batch_size(3);

  ThreadErrors errors;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([this, t, &errors, &stop] {
      Random rng(9000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = cache_.Execute(
            rng.Bernoulli(0.5)
                ? "SELECT txns_applied, batches_distributed, avg_batch_size, "
                  "changes_applied FROM sys.dm_repl_metrics"
                : "SELECT * FROM sys.dm_repl_lag_histogram");
        if (!r.ok()) {
          errors.Record(r.status().ToString());
          return;
        }
        // A mid-reset snapshot is fine; a torn or negative one is not.
        for (const auto& row : r->rows) {
          for (const auto& cell : row) {
            bool numeric = cell.type() == TypeId::kInt64 ||
                           cell.type() == TypeId::kDouble;
            if (numeric && !cell.is_null() && cell.AsDouble() < 0) {
              errors.Record("negative metric in DMV snapshot");
              return;
            }
          }
        }
      }
    });
  }
  threads.emplace_back([this, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      repl_.ResetMetrics();
      std::this_thread::yield();
    }
  });

  ExecStats pub_stats, sub_stats;
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(InsertProduct(41 + i).ok());
    clock_.Advance(0.5);
    ASSERT_TRUE(repl_.RunOnce(&pub_stats, &sub_stats).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(errors.count(), 0) << errors.first();

  // Metrics were wiped mid-run, but replicated state is untouched by resets:
  // the pipeline still converges to full row-level consistency.
  ASSERT_TRUE(DrainPipeline(&repl_, &clock_).ok());
  ConsistencyReport report =
      ConsistencyChecker(&repl_, &backend_, &cache_).Check();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace mtcache
