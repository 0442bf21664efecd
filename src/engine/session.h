#ifndef MTCACHE_ENGINE_SESSION_H_
#define MTCACHE_ENGINE_SESSION_H_

#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "exec/exec.h"
#include "expr/bound_expr.h"
#include "storage/table.h"

namespace mtcache {

class Server;

/// Per-connection execution state: local variables, the open explicit
/// transaction (if any), and the statement result buffer. Each concurrent
/// connection owns exactly one Session; the engine never shares one across
/// threads, which is what keeps result buffers and transaction state
/// race-free without any locking here.
struct Session {
  ParamMap vars;
  std::unique_ptr<Transaction> txn;  // explicit transaction, if open
  QueryResult result;
  bool has_result = false;
  bool return_requested = false;
  /// SET STATISTICS PROFILE ON: SELECTs on this session run under the
  /// per-operator profiler and publish into sys.dm_exec_query_profiles.
  /// Connection-scoped like `vars`, so it survives ResetForBatch.
  bool stats_profile = false;

  /// Clears the per-statement outputs before a new top-level batch; local
  /// variables and an open transaction survive across batches (that is the
  /// point of a connection).
  void ResetForBatch() {
    result = QueryResult();
    has_result = false;
    return_requested = false;
  }
};

/// A fixed pool of worker threads, each owning one Session (one simulated
/// connection) against a single Server. Submitted batches are executed by
/// whichever worker frees up first; per-worker session state (variables,
/// open transactions) persists across the batches that worker happens to
/// run, exactly like statements multiplexed over a connection pool.
class SessionPool {
 public:
  SessionPool(Server* server, int num_workers);
  /// Joins all workers; queued work is drained first.
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Enqueues one SQL batch. The future resolves with the batch's result
  /// once a worker has executed it.
  std::future<StatusOr<QueryResult>> Submit(std::string sql,
                                            ParamMap params = {});

 private:
  struct Task {
    std::string sql;
    ParamMap params;
    std::promise<StatusOr<QueryResult>> promise;
  };

  void WorkerLoop();

  Server* server_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mtcache

#endif  // MTCACHE_ENGINE_SESSION_H_
