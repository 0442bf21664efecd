#ifndef MTCACHE_REPL_FAULT_H_
#define MTCACHE_REPL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/atomics.h"
#include "common/random.h"
#include "storage/wal.h"

namespace mtcache {

/// Injection points threaded through the replication pipeline and the cached
/// view snapshot path. Each site is visited once per unit of work (record,
/// transaction, row), so scripted rules can target "the Nth apply" exactly.
enum class FaultSite {
  kLogReadStall,    // storage seam: WAL page read fails mid-scan (kDelay)
  kLogReadRecord,   // log reader processing a scanned record
  kDistributeTxn,   // distributor filtering/enqueueing a committed txn
  kDeliverTxn,      // delivery of a PendingTxn to a subscriber (drop/delay)
  kApplyChange,     // subscriber applying one change inside the local txn
  kApplyCommit,     // after the local commit, before the delivery is acked
  kSnapshotRow,     // copying one row of a cached-view snapshot
  // Batched-distribution sites (appended so older scripted schedules keep
  // their site identities):
  kDistributeBatch,  // log reader committing one formed batch to a queue
  kBatchAck,         // after every txn applied, before the batch is acked
};

enum class FaultAction {
  kNone,   // proceed normally
  kCrash,  // the component dies mid-operation and loses its volatile state
  kDrop,   // the delivery is lost in transit (stays durable at the source)
  kDelay,  // the component stalls; work resumes on a later poll
};

const char* FaultSiteName(FaultSite site);
const char* FaultActionName(FaultAction action);

/// A deterministic fault schedule. Two kinds of rules compose:
///   - scripted: fire on the Nth..(N+count-1)th visit to a site;
///   - probabilistic: fire with probability p per visit, drawn from the
///     plan's seeded RNG (same seed => identical fault schedule).
/// The ReplicationSystem and MTCache consult the plan at each FaultSite; a
/// null plan (the default) means no faults, and a disabled plan counts visits
/// but injects nothing (used while draining the pipeline for a consistency
/// check).
///
/// Thread-safety: Decide and the counter accessors take an internal spinlock,
/// so one plan can be shared by components driven from different threads:
/// the replication driver, a session snapshotting a cached view
/// (kSnapshotRow), and a reader of the counters. The pipeline visits its
/// sites only from the thread that polls it, so scripted Nth-visit rules
/// stay deterministic.
class FaultPlan {
 public:
  FaultPlan() : rng_(1) {}
  explicit FaultPlan(uint64_t seed) : rng_(seed) {}

  /// Scripted rule: on visits [nth, nth+count) to `site`, return `action`.
  /// Visits are 1-based and counted across the plan's lifetime.
  void AddRule(FaultSite site, FaultAction action, int64_t nth,
               int64_t count = 1);

  /// Probabilistic rule: each visit to `site` fires `action` with
  /// probability `p` (evaluated after scripted rules).
  void AddRandomRule(FaultSite site, FaultAction action, double p);

  /// Called by the pipeline at each injection point. Always counts the
  /// visit; returns kNone when disabled.
  FaultAction Decide(FaultSite site);

  /// Disabling stops injection without losing visit counters; DrainPipeline
  /// uses this to quiesce the system before a consistency check.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  int64_t visits(FaultSite site) const;
  int64_t injected(FaultSite site) const;
  int64_t total_injected() const;

  /// One line per rule plus counters — pasted into test failure output so a
  /// failing seed's schedule can be reproduced from the log alone.
  std::string ToString() const;

 private:
  struct Rule {
    FaultSite site;
    FaultAction action;
    int64_t nth = 0;    // scripted when > 0
    int64_t count = 1;
    double probability = 0;  // probabilistic when > 0
  };

  /// Guards rules_, visits_, injected_, total_injected_, rng_. enabled_ is
  /// a relaxed atomic so DrainPipeline can flip it without the lock.
  mutable SpinLock mu_;
  std::vector<Rule> rules_;
  std::map<FaultSite, int64_t> visits_;
  std::map<FaultSite, int64_t> injected_;
  int64_t total_injected_ = 0;
  std::atomic<bool> enabled_{true};
  Random rng_;
};

/// Adapts a plan to the LogManager's read-fault seam: the hook stalls the
/// WAL scan (a failed log page read) whenever the plan fires kLogReadStall.
/// Install with `log.set_read_fault_hook(MakeLogReadStallHook(&plan))`; the
/// plan must outlive the log manager's use of the hook.
LogManager::ReadFaultHook MakeLogReadStallHook(FaultPlan* plan);

}  // namespace mtcache

#endif  // MTCACHE_REPL_FAULT_H_
