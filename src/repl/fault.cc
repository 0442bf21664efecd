#include "repl/fault.h"

#include <mutex>

namespace mtcache {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kLogReadStall:
      return "log_read_stall";
    case FaultSite::kLogReadRecord:
      return "log_read_record";
    case FaultSite::kDistributeTxn:
      return "distribute_txn";
    case FaultSite::kDeliverTxn:
      return "deliver_txn";
    case FaultSite::kApplyChange:
      return "apply_change";
    case FaultSite::kApplyCommit:
      return "apply_commit";
    case FaultSite::kSnapshotRow:
      return "snapshot_row";
    case FaultSite::kDistributeBatch:
      return "distribute_batch";
    case FaultSite::kBatchAck:
      return "batch_ack";
  }
  return "unknown";
}

const char* FaultActionName(FaultAction action) {
  switch (action) {
    case FaultAction::kNone:
      return "none";
    case FaultAction::kCrash:
      return "crash";
    case FaultAction::kDrop:
      return "drop";
    case FaultAction::kDelay:
      return "delay";
  }
  return "unknown";
}

void FaultPlan::AddRule(FaultSite site, FaultAction action, int64_t nth,
                        int64_t count) {
  Rule rule;
  rule.site = site;
  rule.action = action;
  rule.nth = nth;
  rule.count = count;
  std::lock_guard<SpinLock> lock(mu_);
  rules_.push_back(rule);
}

void FaultPlan::AddRandomRule(FaultSite site, FaultAction action, double p) {
  Rule rule;
  rule.site = site;
  rule.action = action;
  rule.probability = p;
  std::lock_guard<SpinLock> lock(mu_);
  rules_.push_back(rule);
}

FaultAction FaultPlan::Decide(FaultSite site) {
  std::lock_guard<SpinLock> lock(mu_);
  int64_t visit = ++visits_[site];
  if (!enabled()) return FaultAction::kNone;
  for (const Rule& rule : rules_) {
    if (rule.site != site) continue;
    bool fire = false;
    if (rule.nth > 0) {
      fire = visit >= rule.nth && visit < rule.nth + rule.count;
    } else if (rule.probability > 0) {
      fire = rng_.Bernoulli(rule.probability);
    }
    if (fire) {
      ++injected_[site];
      ++total_injected_;
      return rule.action;
    }
  }
  return FaultAction::kNone;
}

int64_t FaultPlan::visits(FaultSite site) const {
  std::lock_guard<SpinLock> lock(mu_);
  auto it = visits_.find(site);
  return it == visits_.end() ? 0 : it->second;
}

int64_t FaultPlan::injected(FaultSite site) const {
  std::lock_guard<SpinLock> lock(mu_);
  auto it = injected_.find(site);
  return it == injected_.end() ? 0 : it->second;
}

int64_t FaultPlan::total_injected() const {
  std::lock_guard<SpinLock> lock(mu_);
  return total_injected_;
}

std::string FaultPlan::ToString() const {
  std::lock_guard<SpinLock> lock(mu_);
  std::string out = "FaultPlan{";
  for (const Rule& rule : rules_) {
    out += "\n  ";
    out += FaultSiteName(rule.site);
    out += " -> ";
    out += FaultActionName(rule.action);
    if (rule.nth > 0) {
      out += " @visit " + std::to_string(rule.nth);
      if (rule.count != 1) out += "+" + std::to_string(rule.count);
    } else {
      out += " p=" + std::to_string(rule.probability);
    }
  }
  for (const auto& [site, visits] : visits_) {
    auto inj = injected_.find(site);
    out += "\n  " + std::string(FaultSiteName(site)) + ": " +
           std::to_string(visits) + " visits, " +
           std::to_string(inj == injected_.end() ? 0 : inj->second) +
           " injected";
  }
  out += "\n}";
  return out;
}

LogManager::ReadFaultHook MakeLogReadStallHook(FaultPlan* plan) {
  return [plan](Lsn) {
    return plan->Decide(FaultSite::kLogReadStall) != FaultAction::kNone;
  };
}

}  // namespace mtcache
