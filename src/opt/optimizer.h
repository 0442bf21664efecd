#ifndef MTCACHE_OPT_OPTIMIZER_H_
#define MTCACHE_OPT_OPTIMIZER_H_

#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/status.h"
#include "opt/logical.h"
#include "opt/optimizer_stats.h"
#include "opt/physical.h"

namespace mtcache {

/// Optimizer configuration. The defaults reproduce the paper's MTCache
/// behaviour; the flags exist for the ablation experiments.
struct OptimizerOptions {
  /// Consider materialized/cached views as substitutes for table accesses.
  bool enable_view_matching = true;
  /// Generate ChoosePlan dynamic plans for parameterized conditional matches
  /// (§5.1). When off, conditional matches are simply not used.
  bool enable_dynamic_plans = true;
  /// Cost-based local/remote decision (§5). When off, mimic DBCache-style
  /// heuristics: always use a matching cached view, never compare against
  /// executing on the backend.
  bool cost_based_routing = true;
  /// Pull ChoosePlan operators to the top of the plan (§5.1.2). Expands the
  /// remote branch (bigger remote pushdown) at the price of optimization
  /// time and plan size.
  bool pull_up_chooseplan = true;
  /// Allow mixed-result plans for regular materialized views (§5.1.1).
  /// Cached views never produce mixed results (transactional consistency).
  bool allow_mixed_results = true;
  /// Linked-server name of the backend that owns the shadow tables. Empty on
  /// a standalone/backend server (no shadow tables resolve anywhere).
  std::string backend_server;
  /// Freshness requirement (§7 extension): when >= 0, cached views staler
  /// than this many seconds (relative to `current_time`) are not eligible
  /// for view matching; the backend always qualifies. -1 = any staleness.
  double max_staleness = -1;
  double current_time = 0;
  /// When non-null, Optimize() records its view-matching / routing decisions
  /// here (the engine points this at its MetricsRegistry). Not owned.
  OptimizerDecisionStats* decision_stats = nullptr;
};

struct OptimizeResult {
  PhysicalPtr plan;
  double est_cost = 0;
  double est_rows = 0;
  int plan_size = 0;
  /// Plan alternatives costed (optimization effort; ablation A3).
  int alternatives_considered = 0;
  /// Microseconds spent in Optimize().
  int64_t optimize_micros = 0;
  /// True if the final plan contains a RemoteQuery operator.
  bool uses_remote = false;
  /// True if the final plan contains a dynamic (startup-predicate) branch.
  bool dynamic_plan = false;
  /// Names of cached/materialized views substituted into the plan by view
  /// matching (pass-1 unconditional and pass-2 dynamic-plan matches). The
  /// engine attributes per-view offload from these at execution time.
  std::vector<std::string> matched_views;
  /// DeliveredCost(original) - DeliveredCost(substituted), summed over the
  /// matched sites, in optimizer cost units: the estimated work the matched
  /// views absorb per execution. 0 under heuristic (non-cost-based) routing,
  /// where the comparison cost is never computed.
  double est_saved_units = 0;
};

/// Cost-based optimizer with the MTCache extensions: a DataLocation physical
/// property enforced by DataTransfer (realized as RemoteQuery nodes carrying
/// unparsed SQL), cached-view matching with conditional (guarded) matches,
/// and dynamic plans implemented as UnionAll + startup predicates.
class Optimizer {
 public:
  /// `catalog` must outlive the optimizer.
  Optimizer(const Catalog* catalog, OptimizerOptions options)
      : catalog_(catalog), options_(options) {}

  /// Optimizes a bound logical query. The root's required DataLocation is
  /// Local (results must arrive at this server).
  StatusOr<OptimizeResult> Optimize(const LogicalOp& query) const;

  const OptimizerOptions& options() const { return options_; }

 private:
  const Catalog* catalog_;
  OptimizerOptions options_;
};

}  // namespace mtcache

#endif  // MTCACHE_OPT_OPTIMIZER_H_
