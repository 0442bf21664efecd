#include "engine/session.h"

#include <utility>

#include "engine/server.h"

namespace mtcache {

SessionPool::SessionPool(Server* server, int num_workers) : server_(server) {
  if (num_workers < 1) num_workers = 1;
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SessionPool::~SessionPool() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::future<StatusOr<QueryResult>> SessionPool::Submit(std::string sql,
                                                       ParamMap params) {
  Task task;
  task.sql = std::move(sql);
  task.params = std::move(params);
  std::future<StatusOr<QueryResult>> future = task.promise.get_future();
  {
    std::lock_guard<std::mutex> guard(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void SessionPool::WorkerLoop() {
  Session session;  // this worker's connection state
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> guard(mu_);
      cv_.wait(guard, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Batch-scoped parameters overlay the worker's persistent variables.
    for (const auto& [name, value] : task.params) session.vars[name] = value;
    ExecStats stats;
    task.promise.set_value(
        server_->ExecuteOnSession(&session, task.sql, &stats));
  }
}

std::vector<StatusOr<QueryResult>> Server::ExecuteConcurrent(
    const std::vector<std::string>& statements, int num_workers) {
  std::vector<StatusOr<QueryResult>> results;
  results.reserve(statements.size());
  std::vector<std::future<StatusOr<QueryResult>>> futures;
  futures.reserve(statements.size());
  {
    SessionPool pool(this, num_workers);
    for (const std::string& sql : statements) {
      futures.push_back(pool.Submit(sql));
    }
    for (auto& f : futures) results.push_back(f.get());
  }
  return results;
}

}  // namespace mtcache
