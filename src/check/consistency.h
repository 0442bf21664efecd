#ifndef MTCACHE_CHECK_CONSISTENCY_H_
#define MTCACHE_CHECK_CONSISTENCY_H_

#include <string>
#include <vector>

#include "repl/replication.h"

namespace mtcache {

/// Result of a cache-consistency check. Empty diffs + violations == the
/// cache provably matches the backend at this quiesce point.
struct ConsistencyReport {
  struct TargetDiff {
    int64_t subscription_id = 0;
    std::string target_table;
    std::vector<std::string> missing;  // in the backend recompute, not cached
    std::vector<std::string> extra;    // cached, not in the backend recompute
  };
  std::vector<TargetDiff> diffs;
  /// Broken invariants (commit-order prefix, dead subscriptions, ...).
  std::vector<std::string> violations;

  bool ok() const { return diffs.empty() && violations.empty(); }
  /// Human-readable summary for test failure output.
  std::string ToString() const;
};

/// Recomputes ground truth and diffs it against the caches. Two invariant
/// families:
///   1. Row-level: for every subscription, the target table's contents equal
///      the article's select-project recomputed against the publisher's base
///      table (meaningful only when the pipeline is quiesced — see
///      DrainPipeline). The row diff is reported row by row.
///   2. Ordering: the transactions ACKED at each subscriber are a prefix of
///      the transactions distributed to it, in commit order — holds at ALL
///      times, faults or not, so it is checked mid-flight too. Batched
///      distribution keeps this invariant because the applied history is
///      recorded at batch-ack time in commit order;
///      txns locally committed ahead of their batch's ack are accounted by
///      the in-flight watermark (SubscriptionInfo::inflight_applied), which
///      must never exceed the queued txn count. Bounded histories
///      (set_history_limit) trim the same settled prefix from both sides,
///      so the prefix check runs unchanged on the retained suffixes.
class ConsistencyChecker {
 public:
  /// Checks every live subscription in `repl`. If `cache` is non-null, also
  /// checks every cached view in its catalog (catching views whose
  /// subscription died, which the subscription walk alone would miss);
  /// their definitions are recomputed against `backend`.
  explicit ConsistencyChecker(ReplicationSystem* repl,
                              Server* backend = nullptr,
                              Server* cache = nullptr)
      : repl_(repl), backend_(backend), cache_(cache) {}

  /// Full check: row-level diffs + ordering invariants. Call at a quiesce
  /// point (after DrainPipeline) — otherwise in-flight txns show up as
  /// row diffs.
  ConsistencyReport Check() const;

  /// Ordering invariants only; safe to call mid-flight, with faults live.
  ConsistencyReport CheckInvariants() const;

 private:
  ReplicationSystem* repl_;
  Server* backend_;
  Server* cache_;
};

/// Drives the pipeline to a quiesce point: disables the fault plan (and
/// re-enables it before returning), then repeatedly runs full rounds,
/// advancing `clock` past any retry backoff, until ReplicationSystem::
/// Quiesced() or `max_rounds` is exhausted (kUnavailable in that case —
/// something is wedged, not just slow).
Status DrainPipeline(ReplicationSystem* repl, SimClock* clock,
                     int max_rounds = 200);

}  // namespace mtcache

#endif  // MTCACHE_CHECK_CONSISTENCY_H_
