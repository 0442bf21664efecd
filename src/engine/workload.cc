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

double MeasuredSecondsPerUnit(
    const std::map<std::string, StatementRollup>& rollups) {
  double seconds = 0;
  double units = 0;
  for (const auto& [key, rollup] : rollups) {
    seconds += rollup.elapsed_seconds;
    units += rollup.totals.local_cost + rollup.totals.remote_cost;
  }
  return units > 0 ? seconds / units : 0;
}

WorkloadSlice WorkloadRepository::Capture(const MetricsRegistry& metrics,
                                          double now) {
  // The whole capture — counter reads AND baseline advance — serializes on
  // the repository lock. Two racing captures must not both read totals and
  // then subtract the other's freshly advanced baseline (negative deltas).
  // Lock order is strictly repository -> registry (the snapshot calls below
  // take the registry's ring lock); nothing takes them in reverse.
  std::lock_guard<SpinLock> guard(mu_);
  Totals cur;
  cur.captured_at = now;
  cur.rollups = metrics.SnapshotRollups();
  cur.views = metrics.SnapshotViewOffload();
  const ReplMetricsSnapshot repl = metrics.repl_snapshot();
  cur.plan_cache_hits = metrics.plan_cache.hits;
  cur.plan_cache_misses = metrics.plan_cache.misses;
  cur.view_match_hits = metrics.optimizer.view_match_hits;
  cur.repl_changes_applied = repl.changes_applied;
  const WaitStats& ws = GlobalWaitStats();
  for (int i = 0; i < static_cast<int>(WaitSite::kCount); ++i) {
    const WaitSiteStats& s = ws.at(static_cast<WaitSite>(i));
    cur.wait_seconds += s.wait_seconds;
    cur.wait_contentions += s.contentions;
  }

  const Totals& base = baseline_;
  WorkloadSlice slice;
  slice.slice_id = next_slice_id_++;
  slice.captured_at = now;
  slice.interval_seconds = base.captured_at >= 0 ? now - base.captured_at : 0;
  slice.plan_cache_hits = cur.plan_cache_hits - base.plan_cache_hits;
  slice.plan_cache_misses = cur.plan_cache_misses - base.plan_cache_misses;
  slice.view_match_hits = cur.view_match_hits - base.view_match_hits;
  slice.repl_changes_applied =
      cur.repl_changes_applied - base.repl_changes_applied;
  slice.repl_lag_p99 = repl.latency_p99;
  slice.wait_seconds = cur.wait_seconds - base.wait_seconds;
  slice.wait_contentions = cur.wait_contentions - base.wait_contentions;

  // Per-fingerprint and per-view deltas against the previous totals (zero
  // for a key that is new); a key idle this slice is omitted, and the
  // slice-wide sums add up the keys that moved.
  static const StatementRollup kNoRollup;
  for (const auto& [key, rollup] : cur.rollups) {
    auto it = base.rollups.find(key);
    const StatementRollup& prev = it != base.rollups.end() ? it->second
                                                           : kNoRollup;
    WorkloadQueryDelta d;
    d.executions = rollup.executions - prev.executions;
    if (d.executions == 0) continue;
    d.query_hash = FingerprintHex(rollup.query_hash);
    d.statement = key;
    d.sample_text = rollup.sample_text;
    d.rows_returned = rollup.rows_returned - prev.rows_returned;
    d.local_cost = rollup.totals.local_cost - prev.totals.local_cost;
    d.remote_cost = rollup.totals.remote_cost - prev.totals.remote_cost;
    d.remote_queries =
        rollup.totals.remote_queries - prev.totals.remote_queries;
    d.elapsed_seconds = rollup.elapsed_seconds - prev.elapsed_seconds;
    slice.statements += d.executions;
    slice.remote_queries += d.remote_queries;
    slice.rows_transferred +=
        rollup.totals.rows_transferred - prev.totals.rows_transferred;
    slice.bytes_transferred +=
        rollup.totals.bytes_transferred - prev.totals.bytes_transferred;
    slice.queries.push_back(std::move(d));
  }
  const double unit_seconds = MeasuredSecondsPerUnit(cur.rollups);
  for (const auto& [view, stats] : cur.views) {
    auto it = base.views.find(view);
    const ViewOffloadStats prev =
        it != base.views.end() ? it->second : ViewOffloadStats{};
    WorkloadViewDelta d;
    d.matches = stats.matches - prev.matches;
    if (d.matches == 0) continue;
    d.view = view;
    d.roundtrips_avoided = stats.roundtrips_avoided - prev.roundtrips_avoided;
    d.est_saved_units = stats.est_saved_units - prev.est_saved_units;
    d.est_saved_seconds = d.est_saved_units * unit_seconds;
    slice.offload_matches += d.matches;
    slice.offload_roundtrips_avoided += d.roundtrips_avoided;
    slice.offload_est_saved_units += d.est_saved_units;
    slice.offload_est_saved_seconds += d.est_saved_seconds;
    slice.views.push_back(std::move(d));
  }
  baseline_ = std::move(cur);

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
