#include "engine/metrics.h"

namespace mtcache {

StatementInfoPtr MetricsRegistry::BindCounters(
    StatementInfo info, const std::string& sample_text,
    const std::vector<std::string>& views) {
  std::lock_guard<SpinLock> guard(ring_lock_);
  auto [it, inserted] = rollups_.try_emplace(info.fingerprint);
  if (inserted) {
    it->second.query_hash = info.query_hash;
    it->second.sample_text = sample_text;
  }
  info.rollup = &it->second;
  for (const std::string& view : views) {
    info.views.push_back(&view_offload_[view]);
  }
  return std::make_shared<const StatementInfo>(std::move(info));
}

int64_t MetricsRegistry::RecordStatement(StatementInfoPtr info,
                                         const ExecStats& stats, int64_t rows,
                                         double elapsed_seconds) {
  std::lock_guard<SpinLock> guard(ring_lock_);
  StatementRollup& rollup = *info->rollup;
  ++rollup.executions;
  rollup.totals.Add(stats);
  rollup.rows_returned += rows;
  rollup.latency.Record(elapsed_seconds);
  rollup.elapsed_seconds += elapsed_seconds;
  for (ViewOffloadStats* view : info->views) {
    ++view->matches;
    if (stats.remote_queries == 0) ++view->roundtrips_avoided;
    view->est_saved_units += info->est_saved_units;
  }
  const int64_t id = next_query_id_++;
  trace_.push_back(QueryTrace{id, std::move(info), stats, rows,
                              elapsed_seconds});
  while (trace_.size() > trace_capacity_) {
    trace_.pop_front();
    ++entries_dropped_;
  }
  return id;
}

void MetricsRegistry::RecordProfile(QueryProfileRecord profile) {
  std::lock_guard<SpinLock> guard(ring_lock_);
  // EXPLAIN ANALYZE runs outside the statement trace ring and arrives with
  // no id; give it one from the same sequence so profiles stay ordered
  // against dm_exec_requests entries.
  if (profile.query_id == 0) profile.query_id = next_query_id_++;
  profiles_.push_back(std::move(profile));
  while (profiles_.size() > profile_capacity_) profiles_.pop_front();
}

}  // namespace mtcache
