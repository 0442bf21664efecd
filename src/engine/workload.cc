#include "engine/workload.h"

#include <cctype>
#include <cstdio>

#include "common/wait_stats.h"
#include "sql/lexer.h"

namespace mtcache {

namespace {

// Lower-case + whitespace-fold fallback for text the lexer rejects (e.g. an
// unterminated string in a failed statement still gets traced).
std::string FoldWhitespace(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_space = true;  // also trims leading whitespace
  for (char c : sql) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

}  // namespace

std::string NormalizeStatement(const std::string& sql) {
  auto tokens_or = Tokenize(sql);
  if (!tokens_or.ok()) return FoldWhitespace(sql);
  const std::vector<Token>& tokens = *tokens_or;
  std::string out;
  out.reserve(sql.size());
  for (const Token& t : tokens) {
    if (t.type == TokenType::kEnd) break;
    if (!out.empty()) out.push_back(' ');
    switch (t.type) {
      case TokenType::kInt:
      case TokenType::kFloat:
      case TokenType::kString:
        out.push_back('?');
        break;
      case TokenType::kParam:
        // Parameters are already placeholders; keep their identity (the
        // lexer's text includes the '@') so differently-named parameters
        // stay distinguishable.
        out += t.text;
        break;
      default:
        // Identifiers arrive lower-cased from the lexer; symbols verbatim.
        out += t.text;
        break;
    }
  }
  return out;
}

uint64_t FingerprintHash(const std::string& normalized) {
  // FNV-1a 64-bit.
  uint64_t h = 1469598103934665603ull;
  for (char c : normalized) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return h;
}

std::string FingerprintHex(uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return std::string(buf);
}

WorkloadSlice WorkloadRepository::Capture(const MetricsRegistry& metrics,
                                          double now) {
  // The whole capture — counter reads AND baseline advance — serializes on
  // the repository lock. Two racing captures must not both read totals and
  // then subtract the other's freshly advanced baseline (negative deltas).
  // Lock order is strictly repository -> registry (the snapshot calls below
  // take the registry's ring lock); nothing takes them in reverse.
  std::lock_guard<SpinLock> guard(mu_);
  const std::map<std::string, StatementRollup> rollups =
      metrics.SnapshotRollups();
  const std::map<std::string, ViewOffloadStats> offload =
      metrics.SnapshotViewOffload();
  const ReplMetricsSnapshot repl = metrics.repl_snapshot();

  const int64_t plan_hits = metrics.plan_cache.hits;
  const int64_t plan_misses = metrics.plan_cache.misses;
  const int64_t vm_hits = metrics.optimizer.view_match_hits;

  double wait_seconds = 0;
  int64_t wait_contentions = 0;
  const WaitStats& ws = GlobalWaitStats();
  for (int i = 0; i < static_cast<int>(WaitSite::kCount); ++i) {
    const WaitSiteStats& s = ws.at(static_cast<WaitSite>(i));
    wait_seconds += s.wait_seconds;
    wait_contentions += s.contentions;
  }

  int64_t statements = 0;
  int64_t remote_queries = 0;
  int64_t rows_transferred = 0;
  double bytes_transferred = 0;
  for (const auto& [key, rollup] : rollups) {
    statements += rollup.executions;
    remote_queries += rollup.totals.remote_queries;
    rows_transferred += rollup.totals.rows_transferred;
    bytes_transferred += rollup.totals.bytes_transferred;
  }

  const double unit_seconds = cost_unit_seconds_.load();

  WorkloadSlice slice;
  slice.slice_id = next_slice_id_++;
  slice.captured_at = now;
  slice.interval_seconds = baseline_.valid ? now - baseline_.captured_at : 0;
  slice.statements = statements - baseline_.statements;
  slice.plan_cache_hits = plan_hits - baseline_.plan_cache_hits;
  slice.plan_cache_misses = plan_misses - baseline_.plan_cache_misses;
  slice.view_match_hits = vm_hits - baseline_.view_match_hits;
  slice.remote_queries = remote_queries - baseline_.remote_queries;
  slice.rows_transferred = rows_transferred - baseline_.rows_transferred;
  slice.bytes_transferred = bytes_transferred - baseline_.bytes_transferred;
  slice.repl_changes_applied =
      repl.changes_applied - baseline_.repl_changes_applied;
  slice.repl_lag_p99 = repl.latency_p99;
  slice.wait_seconds = wait_seconds - baseline_.wait_seconds;
  slice.wait_contentions = wait_contentions - baseline_.wait_contentions;

  for (const auto& [key, rollup] : rollups) {
    const QueryBaseline& base = baseline_.queries[key];  // zero if new
    WorkloadQueryDelta d;
    d.executions = rollup.executions - base.executions;
    if (d.executions == 0) continue;  // fingerprint idle this slice
    d.query_hash = FingerprintHex(rollup.query_hash);
    d.statement = key;
    d.sample_text = rollup.sample_text;
    d.rows_returned = rollup.rows_returned - base.rows_returned;
    d.local_cost = rollup.totals.local_cost - base.local_cost;
    d.remote_cost = rollup.totals.remote_cost - base.remote_cost;
    d.remote_queries = rollup.totals.remote_queries - base.remote_queries;
    d.elapsed_seconds = rollup.elapsed_seconds - base.elapsed_seconds;
    slice.queries.push_back(std::move(d));
  }
  for (const auto& [view, stats] : offload) {
    const ViewBaseline& base = baseline_.views[view];
    WorkloadViewDelta d;
    d.matches = stats.matches - base.matches;
    if (d.matches == 0) continue;
    d.view = view;
    d.roundtrips_avoided = stats.roundtrips_avoided - base.roundtrips_avoided;
    d.est_saved_units = stats.est_saved_units - base.est_saved_units;
    d.est_saved_seconds = d.est_saved_units * unit_seconds;
    slice.offload_matches += d.matches;
    slice.offload_roundtrips_avoided += d.roundtrips_avoided;
    slice.offload_est_saved_units += d.est_saved_units;
    slice.offload_est_saved_seconds += d.est_saved_seconds;
    slice.views.push_back(std::move(d));
  }

  // Advance the baseline to the totals just read.
  baseline_.valid = true;
  baseline_.captured_at = now;
  baseline_.statements = statements;
  baseline_.plan_cache_hits = plan_hits;
  baseline_.plan_cache_misses = plan_misses;
  baseline_.view_match_hits = vm_hits;
  baseline_.remote_queries = remote_queries;
  baseline_.rows_transferred = rows_transferred;
  baseline_.bytes_transferred = bytes_transferred;
  baseline_.repl_changes_applied = repl.changes_applied;
  baseline_.wait_seconds = wait_seconds;
  baseline_.wait_contentions = wait_contentions;
  for (const auto& [key, rollup] : rollups) {
    QueryBaseline& base = baseline_.queries[key];
    base.executions = rollup.executions;
    base.rows_returned = rollup.rows_returned;
    base.local_cost = rollup.totals.local_cost;
    base.remote_cost = rollup.totals.remote_cost;
    base.remote_queries = rollup.totals.remote_queries;
    base.elapsed_seconds = rollup.elapsed_seconds;
  }
  for (const auto& [view, stats] : offload) {
    ViewBaseline& base = baseline_.views[view];
    base.matches = stats.matches;
    base.roundtrips_avoided = stats.roundtrips_avoided;
    base.est_saved_units = stats.est_saved_units;
  }

  ring_.push_back(slice);
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++slices_dropped_;
  }
  ++slices_captured_;
  return slice;
}

std::vector<WorkloadSlice> WorkloadRepository::SnapshotSlices() const {
  std::lock_guard<SpinLock> guard(mu_);
  return std::vector<WorkloadSlice>(ring_.begin(), ring_.end());
}

void WorkloadRepository::set_capacity(size_t n) {
  std::lock_guard<SpinLock> guard(mu_);
  capacity_ = n;
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++slices_dropped_;
  }
}

size_t WorkloadRepository::capacity() const {
  std::lock_guard<SpinLock> guard(mu_);
  return capacity_;
}

}  // namespace mtcache
