#include "opt/optimizer.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "opt/cardinality.h"
#include "opt/cost_model.h"
#include "opt/join_outputs.h"
#include "opt/unparse.h"
#include "opt/view_matching.h"

namespace mtcache {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double EstimateRowBytes(const Schema& schema) {
  double bytes = 4;
  for (const ColumnInfo& col : schema.columns()) {
    bytes += col.type == TypeId::kString ? 24 : 8;
  }
  return bytes;
}

// Bytes per stored row of `def`, from its statistics; 0 without them
// (virtual tables).
double StoredRowBytes(const TableDef* def) {
  return def != nullptr && !def->stats.empty() ? def->stats.avg_row_bytes : 0;
}

// A column remap: every expression is a column ref or a literal. View
// substitution's compensation (BuildSubstitute) has this shape.
bool IsColumnRemap(const std::vector<BExprPtr>& exprs) {
  for (const auto& e : exprs) {
    if (e->kind != BoundExprKind::kColumnRef &&
        e->kind != BoundExprKind::kLiteral) {
      return false;
    }
  }
  return true;
}

// Every expression is a bare column reference.
bool IsColumnSelection(const std::vector<BExprPtr>& exprs) {
  for (const auto& e : exprs) {
    if (e->kind != BoundExprKind::kColumnRef) return false;
  }
  return true;
}

// The identity over `input`: output column i is input column i, same type,
// over the full width. It plans as no projection at all, so the input's rows
// pass through by reference.
bool IsIdentityProjection(const std::vector<BExprPtr>& exprs,
                          const Schema& input) {
  if (static_cast<int>(exprs.size()) != input.num_columns()) return false;
  for (int i = 0; i < input.num_columns(); ++i) {
    const BoundExpr& e = *exprs[i];
    if (e.kind != BoundExprKind::kColumnRef ||
        static_cast<const BoundColumnRef&>(e).ordinal != i ||
        e.type != input.column(i).type) {
      return false;
    }
  }
  return true;
}

LogicalPtr WrapFilter(LogicalPtr node, std::vector<BExprPtr> conjuncts) {
  if (conjuncts.empty()) return node;
  auto filter = std::make_unique<LogicalFilter>();
  filter->predicate = AndTogether(std::move(conjuncts));
  filter->schema = node->schema;
  filter->children.push_back(std::move(node));
  return filter;
}

// Substitutes project expressions into a predicate that references project
// *outputs*, producing a predicate over the project's *input*.
BExprPtr SubstituteThroughProject(const BoundExpr& pred,
                                  const std::vector<BExprPtr>& exprs,
                                  bool* ok) {
  switch (pred.kind) {
    case BoundExprKind::kColumnRef: {
      int ord = static_cast<const BoundColumnRef&>(pred).ordinal;
      if (ord < 0 || ord >= static_cast<int>(exprs.size())) {
        *ok = false;
        return CloneBound(pred);
      }
      return CloneBound(*exprs[ord]);
    }
    case BoundExprKind::kLiteral:
    case BoundExprKind::kParam:
      return CloneBound(pred);
    case BoundExprKind::kUnary: {
      const auto& e = static_cast<const BoundUnary&>(pred);
      return std::make_unique<BoundUnary>(
          e.op, SubstituteThroughProject(*e.operand, exprs, ok), e.type);
    }
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(pred);
      return std::make_unique<BoundBinary>(
          e.op, SubstituteThroughProject(*e.left, exprs, ok),
          SubstituteThroughProject(*e.right, exprs, ok), e.type);
    }
    case BoundExprKind::kLike: {
      const auto& e = static_cast<const BoundLike&>(pred);
      return std::make_unique<BoundLike>(
          SubstituteThroughProject(*e.input, exprs, ok),
          SubstituteThroughProject(*e.pattern, exprs, ok), e.negated);
    }
    case BoundExprKind::kIsNull: {
      const auto& e = static_cast<const BoundIsNull&>(pred);
      return std::make_unique<BoundIsNull>(
          SubstituteThroughProject(*e.input, exprs, ok), e.negated);
    }
    case BoundExprKind::kFunction: {
      const auto& e = static_cast<const BoundFunction&>(pred);
      std::vector<BExprPtr> args;
      for (const auto& a : e.args) {
        args.push_back(SubstituteThroughProject(*a, exprs, ok));
      }
      return std::make_unique<BoundFunction>(e.fn, std::move(args), e.type);
    }
    case BoundExprKind::kCase: {
      const auto& e = static_cast<const BoundCase&>(pred);
      std::vector<std::pair<BExprPtr, BExprPtr>> branches;
      for (const auto& [when, then] : e.branches) {
        branches.emplace_back(SubstituteThroughProject(*when, exprs, ok),
                              SubstituteThroughProject(*then, exprs, ok));
      }
      return std::make_unique<BoundCase>(
          std::move(branches),
          e.else_expr ? SubstituteThroughProject(*e.else_expr, exprs, ok)
                      : nullptr,
          e.type);
    }
  }
  *ok = false;
  return CloneBound(pred);
}

// ---------------------------------------------------------------------------
// Normalization: split filters into conjuncts and push them to the leaves.
// ---------------------------------------------------------------------------

LogicalPtr Normalize(LogicalPtr node, std::vector<BExprPtr> inherited) {
  switch (node->kind) {
    case LogicalKind::kFilter: {
      auto* filter = static_cast<LogicalFilter*>(node.get());
      std::vector<const BoundExpr*> parts;
      CollectConjuncts(*filter->predicate, &parts);
      for (const BoundExpr* p : parts) inherited.push_back(CloneBound(*p));
      LogicalPtr child = std::move(node->children[0]);
      return Normalize(std::move(child), std::move(inherited));
    }
    case LogicalKind::kJoin: {
      auto* join = static_cast<LogicalJoin*>(node.get());
      int left_width = node->children[0]->schema.num_columns();
      std::vector<BExprPtr> left_down;
      std::vector<BExprPtr> right_down;
      std::vector<BExprPtr> stay;
      bool inner = join->join_kind == JoinKind::kInner;
      // For inner joins the ON condition joins the pool; for outer joins it
      // must stay attached to the join.
      std::vector<BExprPtr> pool = std::move(inherited);
      if (inner && join->condition != nullptr) {
        std::vector<const BoundExpr*> parts;
        CollectConjuncts(*join->condition, &parts);
        for (const BoundExpr* p : parts) pool.push_back(CloneBound(*p));
        join->condition = nullptr;
      }
      std::vector<BExprPtr> above;
      for (auto& c : pool) {
        std::vector<int> refs;
        CollectColumnRefs(*c, &refs);
        bool all_left = true;
        bool all_right = true;
        for (int r : refs) {
          if (r >= left_width) all_left = false;
          if (r < left_width) all_right = false;
        }
        if (refs.empty()) {
          // Row-free conjunct: keep at the join (cheap either way).
          stay.push_back(std::move(c));
        } else if (all_left) {
          left_down.push_back(std::move(c));
        } else if (all_right && inner) {
          ShiftColumnRefs(c.get(), -left_width);
          right_down.push_back(std::move(c));
        } else if (inner) {
          stay.push_back(std::move(c));
        } else {
          // Left outer: predicates touching the right side stay above.
          above.push_back(std::move(c));
        }
      }
      node->children[0] =
          Normalize(std::move(node->children[0]), std::move(left_down));
      node->children[1] =
          Normalize(std::move(node->children[1]), std::move(right_down));
      if (inner) {
        join->condition = AndTogether(std::move(stay));
      } else {
        // Re-attach row-free conjuncts above for outer joins.
        for (auto& c : stay) above.push_back(std::move(c));
      }
      return WrapFilter(std::move(node), std::move(above));
    }
    case LogicalKind::kProject: {
      auto* project = static_cast<LogicalProject*>(node.get());
      std::vector<BExprPtr> down;
      std::vector<BExprPtr> above;
      for (auto& c : inherited) {
        bool ok = true;
        BExprPtr pushed = SubstituteThroughProject(*c, project->exprs, &ok);
        if (ok) {
          down.push_back(std::move(pushed));
        } else {
          above.push_back(std::move(c));
        }
      }
      node->children[0] =
          Normalize(std::move(node->children[0]), std::move(down));
      return WrapFilter(std::move(node), std::move(above));
    }
    case LogicalKind::kSort:
    case LogicalKind::kDistinct: {
      node->children[0] =
          Normalize(std::move(node->children[0]), std::move(inherited));
      return node;
    }
    case LogicalKind::kGet:
      return WrapFilter(std::move(node), std::move(inherited));
    default: {
      // Limit, Aggregate, ChoosePlan, UnionAll: conjuncts cannot (or should
      // not) move past this operator.
      for (auto& child : node->children) {
        child = Normalize(std::move(child), {});
      }
      return WrapFilter(std::move(node), std::move(inherited));
    }
  }
}

// ---------------------------------------------------------------------------
// Used-column analysis (drives view matching's column coverage).
// ---------------------------------------------------------------------------

using UsedMap = std::map<const LogicalOp*, std::set<int>>;

void AddRefs(const BoundExpr& expr, std::set<int>* out) {
  std::vector<int> refs;
  CollectColumnRefs(expr, &refs);
  out->insert(refs.begin(), refs.end());
}

void ComputeUsed(const LogicalOp& node, const std::set<int>& used_out,
                 UsedMap* map) {
  switch (node.kind) {
    case LogicalKind::kGet:
      (*map)[&node].insert(used_out.begin(), used_out.end());
      return;
    case LogicalKind::kFilter: {
      std::set<int> used = used_out;
      AddRefs(*static_cast<const LogicalFilter&>(node).predicate, &used);
      ComputeUsed(*node.children[0], used, map);
      return;
    }
    case LogicalKind::kProject: {
      std::set<int> used;
      for (const auto& e : static_cast<const LogicalProject&>(node).exprs) {
        AddRefs(*e, &used);
      }
      ComputeUsed(*node.children[0], used, map);
      return;
    }
    case LogicalKind::kJoin: {
      const auto& join = static_cast<const LogicalJoin&>(node);
      int left_width = node.children[0]->schema.num_columns();
      std::set<int> combined = used_out;
      if (join.condition != nullptr) AddRefs(*join.condition, &combined);
      std::set<int> left;
      std::set<int> right;
      for (int o : combined) {
        if (o < left_width) {
          left.insert(o);
        } else {
          right.insert(o - left_width);
        }
      }
      ComputeUsed(*node.children[0], left, map);
      ComputeUsed(*node.children[1], right, map);
      return;
    }
    case LogicalKind::kAggregate: {
      const auto& agg = static_cast<const LogicalAggregate&>(node);
      std::set<int> used;
      for (const auto& g : agg.group_by) AddRefs(*g, &used);
      for (const auto& a : agg.aggs) {
        if (a.arg != nullptr) AddRefs(*a.arg, &used);
      }
      ComputeUsed(*node.children[0], used, map);
      return;
    }
    case LogicalKind::kSort: {
      std::set<int> used = used_out;
      for (const auto& k : static_cast<const LogicalSort&>(node).keys) {
        AddRefs(*k.expr, &used);
      }
      ComputeUsed(*node.children[0], used, map);
      return;
    }
    default:
      for (const auto& child : node.children) {
        ComputeUsed(*child, used_out, map);
      }
      return;
  }
}

std::set<int> AllColumns(const Schema& schema) {
  std::set<int> out;
  for (int i = 0; i < schema.num_columns(); ++i) out.insert(i);
  return out;
}

// ---------------------------------------------------------------------------
// Planner: top-down physical planning with the DataLocation property.
// ---------------------------------------------------------------------------

struct PlanChoice {
  PhysicalPtr plan;
  double cost = kInf;
};

struct PlanResult {
  PhysicalPtr local_plan;  // best plan producing the result on this server
  double local_cost = kInf;
  bool remote_ok = false;  // subtree may execute wholly on `remote_server`
  std::string remote_server;
  double remote_exec_cost = kInf;  // execution cost there (factor applied)
  double rows = 1;
  double row_bytes = 32;
  const LogicalOp* logical = nullptr;  // for unparsing when shipped
};

// The most leaves of an inner-join chain whose order is chosen by cost; a
// longer chain joins pairwise in FROM order until its sub-chains fit.
constexpr size_t kMaxOrderedJoinLeaves = 8;

std::vector<const BoundExpr*> Pointers(const std::vector<BExprPtr>& exprs) {
  std::vector<const BoundExpr*> out;
  for (const auto& e : exprs) out.push_back(e.get());
  return out;
}

// The equi-join keys among a join's conjuncts: `column = column` with one
// column on each input, where `is_right(o)` tells whether ordinal o belongs
// to the right input. Ordinals are returned as the conjuncts hold them.
struct JoinKeys {
  std::vector<int> left;
  std::vector<int> right;
  std::vector<size_t> conjunct;  // the conjunct each key comes from
};

template <typename IsRight>
JoinKeys SplitJoinKeys(const std::vector<const BoundExpr*>& conjuncts,
                       IsRight is_right) {
  JoinKeys keys;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const BoundExpr& c = *conjuncts[i];
    if (c.kind != BoundExprKind::kBinary) continue;
    const auto& bin = static_cast<const BoundBinary&>(c);
    if (bin.op != BinaryOp::kEq ||
        bin.left->kind != BoundExprKind::kColumnRef ||
        bin.right->kind != BoundExprKind::kColumnRef) {
      continue;
    }
    int a = static_cast<const BoundColumnRef&>(*bin.left).ordinal;
    int b = static_cast<const BoundColumnRef&>(*bin.right).ordinal;
    if (is_right(a) == is_right(b)) continue;
    if (is_right(a)) std::swap(a, b);
    keys.left.push_back(a);
    keys.right.push_back(b);
    keys.conjunct.push_back(i);
  }
  return keys;
}

// A join's right input as an index nested-loop inner: a stored table this
// server can seek, seen through a filter and a column remap (view
// substitution's compensation; the identity needs no inner projection).
struct InnerAccess {
  const LogicalGet* get = nullptr;
  const BoundExpr* predicate = nullptr;
  const LogicalProject* project = nullptr;
  std::vector<int> out_to_inner;  // project output -> inner ordinal
};

enum class JoinMethod { kHash, kHashCommuted, kIndexNL, kNestedLoop };

// The cheapest way to join two inputs, and its cumulative cost.
struct JoinStep {
  JoinMethod method = JoinMethod::kNestedLoop;
  double cost = kInf;
  int index = 0;    // kIndexNL: the inner's index
  size_t key = 0;   // kIndexNL: the key it seeks
};

struct JoinInput {
  double cost = 0;  // delivered cost
  double rows = 0;
};

// Builds the join `step` chose. `conjuncts` are over concat(left, right),
// and the join emits that concatenation (a commuted hash join through its
// output list); `right` is unused by an index nested-loop join.
PhysicalPtr BuildJoin(const JoinStep& step, JoinKind kind,
                      std::vector<BExprPtr> conjuncts, PhysicalPtr left,
                      PhysicalPtr right, const InnerAccess& inner,
                      Schema schema, double rows) {
  const int left_width = left->schema.num_columns();
  const int right_width = schema.num_columns() - left_width;
  JoinKeys keys = SplitJoinKeys(Pointers(conjuncts), [&](int o) {
    return o >= left_width;
  });
  for (int& k : keys.right) k -= left_width;
  // The conjuncts that are not hash keys.
  auto residual = [&] {
    std::vector<BExprPtr> out;
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      if (std::find(keys.conjunct.begin(), keys.conjunct.end(), i) ==
          keys.conjunct.end()) {
        out.push_back(std::move(conjuncts[i]));
      }
    }
    return AndTogether(std::move(out));
  };
  PhysicalPtr out;
  switch (step.method) {
    case JoinMethod::kIndexNL: {
      auto phys = std::make_unique<PhysIndexNLJoin>();
      phys->join_kind = kind;
      phys->inner_def = inner.get->def;
      phys->inner_row_bytes = StoredRowBytes(inner.get->def);
      phys->index_ordinal = step.index;
      phys->outer_key = keys.left[step.key];
      phys->inner_predicate = inner.predicate != nullptr
                                  ? CloneBound(*inner.predicate)
                                  : nullptr;
      if (inner.project != nullptr) {
        for (const auto& e : inner.project->exprs) {
          phys->inner_projection.push_back(CloneBound(*e));
        }
      }
      // Every other conjunct, other key equalities included, is evaluated
      // over the concatenated row.
      conjuncts.erase(conjuncts.begin() + keys.conjunct[step.key]);
      phys->residual = AndTogether(std::move(conjuncts));
      phys->children.push_back(std::move(left));
      out = std::move(phys);
      break;
    }
    case JoinMethod::kHash: {
      auto phys = std::make_unique<PhysHashJoin>();
      phys->join_kind = kind;
      phys->probe_keys = keys.left;
      phys->build_keys = keys.right;
      phys->residual = residual();
      phys->children.push_back(std::move(left));
      phys->children.push_back(std::move(right));
      out = std::move(phys);
      break;
    }
    case JoinMethod::kHashCommuted: {
      // Probe with the right input, build on the left: keys swap roles, the
      // residual's ordinals move to (right, left) order, and the output list
      // restores (left, right) order.
      auto phys = std::make_unique<PhysHashJoin>();
      phys->join_kind = JoinKind::kInner;
      phys->probe_keys = keys.right;
      phys->build_keys = keys.left;
      std::vector<int> mapping(left_width + right_width);
      for (int o = 0; o < left_width; ++o) mapping[o] = o + right_width;
      for (int o = 0; o < right_width; ++o) mapping[left_width + o] = o;
      phys->residual = residual();
      if (phys->residual != nullptr) {
        RemapColumnRefs(phys->residual.get(), mapping);
      }
      for (int o = 0; o < left_width; ++o) {
        phys->output.push_back(right_width + o);
      }
      for (int o = 0; o < right_width; ++o) phys->output.push_back(o);
      phys->children.push_back(std::move(right));  // probe
      phys->children.push_back(std::move(left));   // build
      out = std::move(phys);
      break;
    }
    case JoinMethod::kNestedLoop: {
      auto phys = std::make_unique<PhysNLJoin>();
      phys->join_kind = kind;
      phys->condition = AndTogether(std::move(conjuncts));
      phys->children.push_back(std::move(left));
      phys->children.push_back(std::move(right));
      out = std::move(phys);
      break;
    }
  }
  out->schema = std::move(schema);
  out->est_rows = rows;
  out->est_cost = step.cost;
  return out;
}

class Planner {
 public:
  Planner(const Catalog* catalog, const OptimizerOptions& options,
          bool pretend_local, int* alternatives)
      : catalog_(catalog), options_(options), pretend_local_(pretend_local),
        alternatives_(alternatives) {}

  StatusOr<PlanResult> Plan(const LogicalOp& node);

  /// Enforces DataLocation = Local: picks the cheaper of the local plan and
  /// shipping the whole subtree (RemoteQuery + transfer cost).
  StatusOr<PlanChoice> DeliverLocal(PlanResult result) {
    double remote_total = kInf;
    if (result.remote_ok) {
      remote_total = result.remote_exec_cost +
                     CostModel::TransferCost(result.rows, result.row_bytes);
    }
    if (result.local_cost <= remote_total) {
      if (result.local_plan == nullptr) {
        return Status::Internal("no viable plan for subexpression");
      }
      return PlanChoice{std::move(result.local_plan), result.local_cost};
    }
    auto remote = std::make_unique<PhysRemoteQuery>();
    remote->server = result.remote_server;
    MT_ASSIGN_OR_RETURN(remote->sql, LogicalToSql(*result.logical));
    remote->schema = result.logical->schema;
    remote->est_rows = result.rows;
    remote->est_cost = remote_total;
    return PlanChoice{std::move(remote), remote_total};
  }

  StatusOr<double> DeliveredCost(const LogicalOp& node) {
    MT_ASSIGN_OR_RETURN(PlanResult result, Plan(node));
    MT_ASSIGN_OR_RETURN(PlanChoice choice, DeliverLocal(std::move(result)));
    return choice.cost;
  }

 private:
  // Whether this Get can be scanned on this server.
  bool LocallyPlannable(const LogicalGet& get) const {
    if (get.table.empty()) return true;  // dual
    if (get.def == nullptr) return false;
    if (pretend_local_) return true;
    return get.server.empty() && !get.def->shadow;
  }

  // If the whole subtree can execute on one remote server, returns its name.
  std::optional<std::string> ShipServer(const LogicalOp& node) const {
    if (pretend_local_) return std::nullopt;
    if (!IsUnparsable(node)) return std::nullopt;
    std::optional<std::string> server;
    bool ok = true;
    CollectShipServer(node, &server, &ok);
    if (!ok || !server.has_value()) return std::nullopt;
    return server;
  }

  void CollectShipServer(const LogicalOp& node,
                         std::optional<std::string>* server, bool* ok) const {
    if (!*ok) return;
    if (node.kind == LogicalKind::kGet) {
      const auto& get = static_cast<const LogicalGet&>(node);
      std::string target;
      if (!get.server.empty()) {
        target = get.server;
      } else if (get.def != nullptr && get.def->shadow &&
                 !get.def->home_server.empty()) {
        // A cache server may shadow tables from several backends (§3);
        // each shadow table knows its home.
        target = get.def->home_server;
      } else if (get.def != nullptr && get.def->shadow &&
                 !options_.backend_server.empty()) {
        target = options_.backend_server;
      } else {
        *ok = false;  // local-only data source
        return;
      }
      if (server->has_value() && **server != target) {
        *ok = false;
        return;
      }
      *server = target;
    }
    for (const auto& child : node.children) CollectShipServer(*child, server, ok);
  }

  StatusOr<double> PretendCost(const LogicalOp& node) {
    Planner remote_planner(catalog_, options_, /*pretend_local=*/true,
                           alternatives_);
    MT_ASSIGN_OR_RETURN(PlanResult result, remote_planner.Plan(node));
    if (result.local_plan == nullptr) {
      return Status::Internal("remote cost estimation failed");
    }
    return result.local_cost;
  }

  StatusOr<PlanChoice> ScanAlternatives(const LogicalGet& get,
                                        const BoundExpr* predicate);
  InnerAccess InnerAccessOf(const LogicalOp& right) const;
  JoinStep CheapestJoin(JoinKind kind, const std::vector<int>& right_keys,
                        const InnerAccess& inner, JoinInput left,
                        JoinInput right, double out_rows);
  StatusOr<PlanResult> PlanJoinOrder(const InnerJoinChain& chain,
                                     PlanResult result);

  const Catalog* catalog_;
  const OptimizerOptions& options_;
  bool pretend_local_;
  int* alternatives_;
  // The limit of a Limit being planned, for the Sort directly below it (or
  // below a projection under it), which then plans as a Top-N sort. Each
  // Plan call takes it on entry, so it never reaches any other operator.
  int64_t top_n_ = 0;
};

StatusOr<PlanChoice> Planner::ScanAlternatives(const LogicalGet& get,
                                               const BoundExpr* predicate) {
  RelStats stats = EstimateLogical(get);
  double rows = stats.rows;
  const double row_bytes = StoredRowBytes(get.def);
  double total_sel =
      predicate != nullptr ? EstimateSelectivity(*predicate, stats) : 1.0;
  double out_rows = std::max(rows * total_sel, 0.5);

  std::vector<const BoundExpr*> conjuncts;
  if (predicate != nullptr) CollectConjuncts(*predicate, &conjuncts);

  // --- Alternative 1: sequential scan with the filter folded in. ---
  PlanChoice best;
  {
    auto scan = std::make_unique<PhysSeqScan>();
    scan->def = get.def;
    scan->schema = get.schema;
    scan->est_rows = rows;
    scan->row_bytes = row_bytes;
    double cost =
        rows * CostModel::ReadRowCost(CostModel::kSeqRowCost, row_bytes);
    if (predicate != nullptr) {
      // Same cost formula as the unfused Filter(SeqScan) pair, but
      // non-qualifying rows are rejected inside the scan (batchwise on the
      // batch path) and never materialized or emitted.
      cost += rows * CostModel::kFilterRowCost;
      scan->pushed_predicate = CloneBound(*predicate);
      scan->est_rows = out_rows;
    }
    scan->est_cost = cost;
    best.plan = std::move(scan);
    best.cost = cost;
    ++*alternatives_;
  }

  // --- Alternative 2..n: index seeks. ---
  // An equality on every key column of a unique index finds at most one
  // row: one descent whatever the table's size, where a scan grows with the
  // table. So such a point lookup is taken even where statistics taken
  // while the table was near empty (a shopping cart) price the scan lower.
  bool best_is_point = false;
  if (get.def != nullptr) {
    std::vector<SimpleConjunct> simple;
    for (const BoundExpr* c : conjuncts) {
      SimpleConjunct sc;
      if (ExtractSimpleConjunct(*c, &sc)) simple.push_back(sc);
    }
    for (size_t idx = 0; idx < get.def->indexes.size(); ++idx) {
      const IndexDef& index = get.def->indexes[idx];
      std::vector<const SimpleConjunct*> used;
      std::vector<BExprPtr> eq_prefix;
      BExprPtr lo;
      BExprPtr hi;
      bool lo_incl = true;
      bool hi_incl = true;
      for (size_t k = 0; k < index.key_columns.size(); ++k) {
        int col = index.key_columns[k];
        const SimpleConjunct* eq = nullptr;
        for (const SimpleConjunct& sc : simple) {
          if (sc.column == col && sc.op == CompareOp::kEq) {
            eq = &sc;
            break;
          }
        }
        if (eq != nullptr) {
          const auto& bin = static_cast<const BoundBinary&>(*eq->source);
          // Clone the non-column side.
          const BoundExpr* rhs =
              bin.left->kind == BoundExprKind::kColumnRef ? bin.right.get()
                                                          : bin.left.get();
          if (!IsRowFree(*rhs)) break;
          eq_prefix.push_back(CloneBound(*rhs));
          used.push_back(eq);
          continue;
        }
        // Range on this column ends the prefix.
        for (const SimpleConjunct& sc : simple) {
          if (sc.column != col) continue;
          const auto& bin = static_cast<const BoundBinary&>(*sc.source);
          const BoundExpr* rhs =
              bin.left->kind == BoundExprKind::kColumnRef ? bin.right.get()
                                                          : bin.left.get();
          if (!IsRowFree(*rhs)) continue;
          if ((sc.op == CompareOp::kGt || sc.op == CompareOp::kGe) && !lo) {
            lo = CloneBound(*rhs);
            lo_incl = sc.op == CompareOp::kGe;
            used.push_back(&sc);
          } else if ((sc.op == CompareOp::kLt || sc.op == CompareOp::kLe) &&
                     !hi) {
            hi = CloneBound(*rhs);
            hi_incl = sc.op == CompareOp::kLe;
            used.push_back(&sc);
          }
        }
        break;
      }
      if (eq_prefix.empty() && !lo && !hi) continue;
      const bool point =
          index.unique && eq_prefix.size() == index.key_columns.size();

      double seek_sel = 1.0;
      for (const SimpleConjunct* sc : used) {
        seek_sel *= EstimateSelectivity(*sc->source, stats);
      }
      double fetched = std::max(rows * seek_sel, 0.5);
      double cost = CostModel::kIndexSeekCost +
                    fetched * CostModel::ReadRowCost(CostModel::kIndexRowCost,
                                                     row_bytes);

      auto seek = std::make_unique<PhysIndexSeek>();
      seek->def = get.def;
      seek->index_ordinal = static_cast<int>(idx);
      seek->eq_prefix = std::move(eq_prefix);
      seek->lo = std::move(lo);
      seek->hi = std::move(hi);
      seek->lo_inclusive = lo_incl;
      seek->hi_inclusive = hi_incl;
      seek->schema = get.schema;
      seek->est_rows = fetched;
      seek->row_bytes = row_bytes;

      // Residual conjuncts (not used by the seek) fold into the seek too.
      std::vector<BExprPtr> residual;
      for (const BoundExpr* c : conjuncts) {
        bool was_used = false;
        for (const SimpleConjunct* sc : used) {
          if (sc->source == c) {
            was_used = true;
            break;
          }
        }
        if (!was_used) residual.push_back(CloneBound(*c));
      }
      if (!residual.empty()) {
        cost += fetched * CostModel::kFilterRowCost;
        seek->pushed_predicate = AndTogether(std::move(residual));
        seek->est_rows = out_rows;
      }
      seek->est_cost = cost;
      ++*alternatives_;
      // A point lookup beats any other access; between equals, the cheaper.
      if (point != best_is_point ? point : cost < best.cost) {
        best.plan = std::move(seek);
        best.cost = cost;
        best_is_point = point;
      }
    }
  }
  return best;
}

InnerAccess Planner::InnerAccessOf(const LogicalOp& right) const {
  InnerAccess inner;
  const LogicalOp* node = &right;
  if (node->kind == LogicalKind::kProject &&
      IsColumnRemap(static_cast<const LogicalProject&>(*node).exprs)) {
    const auto* project = static_cast<const LogicalProject*>(node);
    node = node->children[0].get();
    if (!IsIdentityProjection(project->exprs, node->schema)) {
      inner.project = project;
      for (const auto& e : project->exprs) {
        inner.out_to_inner.push_back(
            e->kind == BoundExprKind::kColumnRef
                ? static_cast<const BoundColumnRef&>(*e).ordinal
                : -1);
      }
    }
  }
  if (node->kind == LogicalKind::kFilter &&
      node->children[0]->kind == LogicalKind::kGet) {
    inner.predicate = static_cast<const LogicalFilter*>(node)->predicate.get();
    node = node->children[0].get();
  }
  if (node->kind == LogicalKind::kGet) {
    const auto& get = static_cast<const LogicalGet&>(*node);
    if (!get.table.empty() && LocallyPlannable(get) && get.def != nullptr) {
      inner.get = &get;
    }
  }
  return inner;
}

// Prices today's join alternatives: an index nested-loop join into a
// seekable right input with an index led by a join key (how point joins
// such as item -> author run), a hash join building on either input, and a
// nested loop without equi-keys. `right_keys` are the equi-keys' ordinals in
// the right input.
JoinStep Planner::CheapestJoin(JoinKind kind,
                               const std::vector<int>& right_keys,
                               const InnerAccess& inner, JoinInput left,
                               JoinInput right, double out_rows) {
  JoinStep inlj;
  inlj.method = JoinMethod::kIndexNL;
  if (inner.get != nullptr && !right_keys.empty()) {
    const RelStats inner_stats = EstimateLogical(*inner.get);
    const double inner_bytes = StoredRowBytes(inner.get->def);
    for (size_t idx = 0; idx < inner.get->def->indexes.size(); ++idx) {
      const IndexDef& index = inner.get->def->indexes[idx];
      for (size_t k = 0; k < right_keys.size(); ++k) {
        // Map the join key through the projection, if any.
        int inner_key = right_keys[k];
        if (inner.project != nullptr) {
          if (inner_key >= static_cast<int>(inner.out_to_inner.size()) ||
              inner.out_to_inner[inner_key] < 0) {
            continue;
          }
          inner_key = inner.out_to_inner[inner_key];
        }
        if (index.key_columns.empty() || index.key_columns[0] != inner_key) {
          continue;
        }
        double ndv = 1;
        if (inner_key >= 0 &&
            inner_key < static_cast<int>(inner_stats.cols.size())) {
          ndv = std::max(inner_stats.cols[inner_key].ndv, 1.0);
        }
        const double per_probe = inner_stats.rows / ndv;
        const double cost =
            left.cost +
            left.rows *
                (CostModel::kIndexSeekCost +
                 per_probe * (CostModel::ReadRowCost(CostModel::kIndexRowCost,
                                                     inner_bytes) +
                              CostModel::kFilterRowCost));
        ++*alternatives_;
        if (cost >= inlj.cost) continue;
        inlj.cost = cost;
        inlj.index = static_cast<int>(idx);
        inlj.key = k;
        break;
      }
    }
  }

  ++*alternatives_;
  if (right_keys.empty()) {
    JoinStep nl;
    nl.cost = left.cost + right.cost +
              left.rows * right.rows * CostModel::kNLInnerRowCost;
    return nl;
  }
  JoinStep hash;
  hash.method = JoinMethod::kHash;
  hash.cost = left.cost + right.cost +
              right.rows * CostModel::kHashBuildRowCost +
              left.rows * CostModel::kHashProbeRowCost +
              out_rows * CostModel::kFilterRowCost;
  // Commuted (inner joins only): build on the left input and probe with the
  // right; its output list restores (left, right) column order.
  JoinStep commuted;
  commuted.method = JoinMethod::kHashCommuted;
  if (kind == JoinKind::kInner) {
    ++*alternatives_;
    commuted.cost = left.cost + right.cost +
                    left.rows * CostModel::kHashBuildRowCost +
                    right.rows * CostModel::kHashProbeRowCost +
                    out_rows * CostModel::kFilterRowCost;
  }
  if (inlj.cost < hash.cost && inlj.cost < commuted.cost) return inlj;
  return commuted.cost < hash.cost ? commuted : hash;
}

// Left-deep orders of an inner-join chain, by dynamic programming over
// subsets of its leaves (bit i = leaf i), each extended only by a leaf a
// conjunct connects it to (any leaf, when none is: a cross product). Every
// leaf is planned once; each step takes the cheapest of CheapestJoin's
// alternatives. A subset's rows are estimated once, from its leaves and the
// conjuncts within it, so every order of the same set gets the same
// estimate, and the full set's equals EstimateLogical's.
StatusOr<PlanResult> Planner::PlanJoinOrder(const InnerJoinChain& chain,
                                            PlanResult result) {
  const int n = static_cast<int>(chain.leaves.size());
  const uint32_t full = (1u << n) - 1;
  std::vector<PlanChoice> leaf_plans;
  std::vector<InnerAccess> inner;
  std::vector<int> leaf_of;  // chain column -> leaf
  for (int i = 0; i < n; ++i) {
    MT_ASSIGN_OR_RETURN(PlanResult r, Plan(*chain.leaves[i]));
    MT_ASSIGN_OR_RETURN(PlanChoice c, DeliverLocal(std::move(r)));
    leaf_plans.push_back(std::move(c));
    inner.push_back(InnerAccessOf(*chain.leaves[i]));
    leaf_of.insert(leaf_of.end(), chain.leaves[i]->schema.num_columns(), i);
  }
  std::vector<uint32_t> reads;  // leaves each conjunct reads
  for (const BExprPtr& c : chain.conjuncts) {
    std::vector<int> refs;
    CollectColumnRefs(*c, &refs);
    uint32_t mask = 0;
    for (int r : refs) mask |= 1u << leaf_of[r];
    reads.push_back(mask);
  }
  // A join of two or more leaves has applied every conjunct within them.
  auto applied = [&](uint32_t set, size_t c) {
    return std::popcount(set) >= 2 && (reads[c] & ~set) == 0;
  };
  std::vector<double> rows(full + 1, -1);
  auto rows_of = [&](uint32_t set) {
    if (rows[set] < 0) {
      std::vector<double> factors;
      for (int i = 0; i < n; ++i) {
        if (set >> i & 1) factors.push_back(chain.leaf_stats[i].rows);
      }
      for (size_t c = 0; c < reads.size(); ++c) {
        if (applied(set, c)) factors.push_back(chain.selectivity[c]);
      }
      rows[set] = InnerJoinRows(std::move(factors));
    }
    return rows[set];
  };
  // The conjuncts the step joining `leaf` to `set` evaluates.
  auto step_conjuncts = [&](uint32_t set, int leaf) {
    std::vector<size_t> out;
    for (size_t c = 0; c < reads.size(); ++c) {
      if (applied(set | 1u << leaf, c) && !applied(set, c)) out.push_back(c);
    }
    return out;
  };

  struct Best {
    double cost = kInf;
    int last = -1;  // the leaf the cheapest plan of the set joins last
    JoinStep step;
  };
  std::vector<Best> best(full + 1);
  for (int i = 0; i < n; ++i) best[1u << i].cost = leaf_plans[i].cost;
  for (uint32_t set = 1; set < full; ++set) {
    if (best[set].cost == kInf) continue;
    uint32_t connected = 0;
    for (uint32_t r : reads) {
      if ((r & set) != 0 && std::popcount(r & ~set) == 1) connected |= r & ~set;
    }
    const uint32_t candidates = connected != 0 ? connected : full & ~set;
    for (int j = 0; j < n; ++j) {
      if ((candidates >> j & 1) == 0) continue;
      const uint32_t next = set | 1u << j;
      std::vector<const BoundExpr*> conjuncts;
      for (size_t c : step_conjuncts(set, j)) {
        conjuncts.push_back(chain.conjuncts[c].get());
      }
      JoinKeys keys = SplitJoinKeys(
          conjuncts, [&](int o) { return leaf_of[o] == j; });
      for (int& k : keys.right) k -= chain.offsets[j];
      const JoinStep step = CheapestJoin(
          JoinKind::kInner, keys.right, inner[j],
          {best[set].cost, rows_of(set)},
          {leaf_plans[j].cost, rows_of(1u << j)}, rows_of(next));
      if (step.cost < best[next].cost) best[next] = {step.cost, j, step};
    }
  }
  if (best[full].cost == kInf) {
    return Status::Internal("no viable join order");
  }

  // Replay the cheapest order. `layout` lists the chain columns the plan so
  // far emits, in its order.
  std::vector<int> order;
  uint32_t set = full;
  while (std::popcount(set) > 1) {
    order.insert(order.begin(), best[set].last);
    set &= ~(1u << best[set].last);
  }
  const int first = std::countr_zero(set);
  auto leaf_columns = [&](int leaf) {
    std::vector<int> cols(chain.leaves[leaf]->schema.num_columns());
    std::iota(cols.begin(), cols.end(), chain.offsets[leaf]);
    return cols;
  };
  PhysicalPtr plan = std::move(leaf_plans[first].plan);
  std::vector<int> layout = leaf_columns(first);
  std::vector<int> position(leaf_of.size(), -1);  // chain column -> layout
  for (int j : order) {
    const std::vector<int> right_cols = leaf_columns(j);
    for (size_t p = 0; p < layout.size(); ++p) position[layout[p]] = p;
    for (size_t p = 0; p < right_cols.size(); ++p) {
      position[right_cols[p]] = static_cast<int>(layout.size() + p);
    }
    std::vector<BExprPtr> conjuncts;
    for (size_t c : step_conjuncts(set, j)) {
      conjuncts.push_back(CloneBound(*chain.conjuncts[c]));
      RemapColumnRefs(conjuncts.back().get(), position);
    }
    Schema schema = Schema::Concat(plan->schema, chain.leaves[j]->schema);
    set |= 1u << j;
    plan = BuildJoin(best[set].step, JoinKind::kInner, std::move(conjuncts),
                     std::move(plan), std::move(leaf_plans[j].plan), inner[j],
                     std::move(schema), rows_of(set));
    layout.insert(layout.end(), right_cols.begin(), right_cols.end());
  }
  // The top join emits the columns the query's join tree does, in its
  // order.
  for (size_t p = 0; p < layout.size(); ++p) position[layout[p]] = p;
  std::vector<int>& output = *JoinOutput(plan.get());
  std::vector<int> restored;
  for (int c : chain.columns) {
    restored.push_back(output.empty() ? position[c] : output[position[c]]);
  }
  std::vector<int> identity(layout.size());
  std::iota(identity.begin(), identity.end(), 0);
  output = restored == identity ? std::vector<int>{} : std::move(restored);
  plan->schema = result.logical->schema;
  result.local_cost = best[full].cost;
  result.local_plan = std::move(plan);
  return result;
}

StatusOr<PlanResult> Planner::Plan(const LogicalOp& node) {
  const int64_t top_n = std::exchange(top_n_, 0);
  PlanResult result;
  result.logical = &node;
  RelStats stats = EstimateLogical(node);
  result.rows = stats.rows;
  result.row_bytes = EstimateRowBytes(node.schema);
  if (node.kind == LogicalKind::kGet) {
    double stored = StoredRowBytes(static_cast<const LogicalGet&>(node).def);
    if (stored > 0) result.row_bytes = stored;
  }

  // Remote option: the whole subtree executes on one remote server. Cost is
  // what that server's optimizer would estimate — we shadow its catalog and
  // statistics, so we estimate by planning "pretend local" (§5: local
  // optimization instead of remote optimization), scaled by the load factor.
  std::optional<std::string> ship = ShipServer(node);
  if (ship.has_value()) {
    auto cost = PretendCost(node);
    if (cost.ok()) {
      result.remote_ok = true;
      result.remote_server = *ship;
      result.remote_exec_cost = *cost * CostModel::kRemoteCostFactor;
    }
  }

  // Local option.
  switch (node.kind) {
    case LogicalKind::kGet: {
      const auto& get = static_cast<const LogicalGet&>(node);
      if (get.table.empty()) {
        auto dual = std::make_unique<PhysDualScan>();
        dual->schema = node.schema;
        dual->est_rows = 1;
        dual->est_cost = 1;
        result.local_plan = std::move(dual);
        result.local_cost = 1;
        return result;
      }
      if (!LocallyPlannable(get)) return result;  // remote only
      MT_ASSIGN_OR_RETURN(PlanChoice choice, ScanAlternatives(get, nullptr));
      result.local_plan = std::move(choice.plan);
      result.local_cost = choice.cost;
      return result;
    }
    case LogicalKind::kFilter: {
      const auto& filter = static_cast<const LogicalFilter&>(node);
      // Access-path selection when filtering directly over a scannable Get.
      if (node.children[0]->kind == LogicalKind::kGet) {
        const auto& get = static_cast<const LogicalGet&>(*node.children[0]);
        if (!get.table.empty() && LocallyPlannable(get)) {
          MT_ASSIGN_OR_RETURN(PlanChoice choice,
                              ScanAlternatives(get, filter.predicate.get()));
          result.local_plan = std::move(choice.plan);
          result.local_cost = choice.cost;
          return result;
        }
      }
      MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[0]));
      double child_rows = child.rows;
      MT_ASSIGN_OR_RETURN(PlanChoice delivered, DeliverLocal(std::move(child)));
      double cost = delivered.cost + child_rows * CostModel::kFilterRowCost;
      auto phys = std::make_unique<PhysFilter>();
      phys->predicate = CloneBound(*filter.predicate);
      phys->schema = node.schema;
      phys->est_rows = result.rows;
      phys->est_cost = cost;
      phys->children.push_back(std::move(delivered.plan));
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      return result;
    }
    case LogicalKind::kProject: {
      const auto& project = static_cast<const LogicalProject&>(node);
      std::vector<BExprPtr> exprs;
      for (const auto& e : project.exprs) exprs.push_back(CloneBound(*e));
      // Compose through a column remap directly below (a view substitution's
      // compensation): substituting this projection's expressions through it
      // leaves one projection of only the consumed columns. A remap over a
      // subtree that can ship whole stays, so it may ship with that subtree.
      const LogicalOp* input = node.children[0].get();
      while (input->kind == LogicalKind::kProject &&
             IsColumnRemap(static_cast<const LogicalProject&>(*input).exprs) &&
             !ShipServer(*input).has_value()) {
        const auto& remap = static_cast<const LogicalProject&>(*input);
        bool ok = true;
        std::vector<BExprPtr> composed;
        for (const auto& e : exprs) {
          composed.push_back(SubstituteThroughProject(*e, remap.exprs, &ok));
        }
        if (!ok) break;
        exprs = std::move(composed);
        input = input->children[0].get();
      }
      top_n_ = top_n;  // a projection keeps one row per input row
      MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*input));
      MT_ASSIGN_OR_RETURN(PlanChoice delivered, DeliverLocal(std::move(child)));
      if (IsIdentityProjection(exprs, input->schema)) {
        delivered.plan->schema = node.schema;
        result.local_plan = std::move(delivered.plan);
        result.local_cost = delivered.cost;
        return result;
      }
      // A column selection over a join composes into the join's output
      // list: the join builds the selected columns and nothing else, with
      // no projection (and no projection charge) above it.
      if (std::vector<int>* output = JoinOutput(delivered.plan.get());
          output != nullptr && IsColumnSelection(exprs)) {
        std::vector<int> composed;
        for (const auto& e : exprs) {
          int ord = static_cast<const BoundColumnRef&>(*e).ordinal;
          composed.push_back(output->empty() ? ord : (*output)[ord]);
        }
        *output = std::move(composed);
        delivered.plan->schema = node.schema;
        result.local_plan = std::move(delivered.plan);
        result.local_cost = delivered.cost;
        return result;
      }
      double cost = delivered.cost + result.rows * CostModel::kProjectRowCost;
      // Fold the projection into a local scan directly below: qualifying
      // rows are rewritten at the scan and intermediate full-width rows are
      // never produced. Expressions stay valid because a (possibly
      // predicate-folded) scan still exposes the table schema.
      PhysicalOp* dp = delivered.plan.get();
      std::vector<BExprPtr>* slot =
          dp->kind == PhysicalKind::kSeqScan ||
                  dp->kind == PhysicalKind::kIndexSeek
              ? &static_cast<PhysTableAccess*>(dp)->pushed_projection
              : nullptr;
      if (slot != nullptr && slot->empty()) {
        *slot = std::move(exprs);
        dp->schema = node.schema;
        dp->est_rows = result.rows;
        dp->est_cost = cost;
        result.local_plan = std::move(delivered.plan);
        result.local_cost = cost;
        return result;
      }
      auto phys = std::make_unique<PhysProject>();
      phys->exprs = std::move(exprs);
      phys->schema = node.schema;
      phys->est_rows = result.rows;
      phys->est_cost = cost;
      phys->children.push_back(std::move(delivered.plan));
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      return result;
    }
    case LogicalKind::kJoin: {
      const auto& join = static_cast<const LogicalJoin&>(node);
      if (join.join_kind == JoinKind::kInner) {
        InnerJoinChain chain = FlattenInnerJoins(node);
        if (chain.leaves.size() <= kMaxOrderedJoinLeaves &&
            std::none_of(chain.leaves.begin(), chain.leaves.end(),
                         [this](const LogicalOp* leaf) {
                           return ShipServer(*leaf).has_value();
                         })) {
          return PlanJoinOrder(chain, std::move(result));
        }
      }
      // Outer joins keep their position, and an inner chain with a remote
      // leaf joins in FROM order, so what ships to the backend is what the
      // query wrote: a pair of remote inputs ships as one remote join.
      MT_ASSIGN_OR_RETURN(PlanResult left, Plan(*node.children[0]));
      MT_ASSIGN_OR_RETURN(PlanResult right, Plan(*node.children[1]));
      const double left_rows = left.rows;
      const double right_rows = right.rows;
      MT_ASSIGN_OR_RETURN(PlanChoice lplan, DeliverLocal(std::move(left)));
      MT_ASSIGN_OR_RETURN(PlanChoice rplan, DeliverLocal(std::move(right)));
      const int left_width = node.children[0]->schema.num_columns();
      std::vector<BExprPtr> conjuncts;
      if (join.condition != nullptr) {
        std::vector<const BoundExpr*> parts;
        CollectConjuncts(*join.condition, &parts);
        for (const BoundExpr* part : parts) {
          conjuncts.push_back(CloneBound(*part));
        }
      }
      const InnerAccess inner = InnerAccessOf(*node.children[1]);
      JoinKeys keys = SplitJoinKeys(Pointers(conjuncts), [&](int o) {
        return o >= left_width;
      });
      for (int& k : keys.right) k -= left_width;
      const JoinStep step =
          CheapestJoin(join.join_kind, keys.right, inner,
                       {lplan.cost, left_rows}, {rplan.cost, right_rows},
                       result.rows);
      result.local_plan = BuildJoin(step, join.join_kind, std::move(conjuncts),
                                    std::move(lplan.plan),
                                    std::move(rplan.plan), inner, node.schema,
                                    result.rows);
      result.local_cost = step.cost;
      return result;
    }
    case LogicalKind::kAggregate: {
      const auto& agg = static_cast<const LogicalAggregate&>(node);
      MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[0]));
      double child_rows = child.rows;
      MT_ASSIGN_OR_RETURN(PlanChoice delivered, DeliverLocal(std::move(child)));
      double cost = delivered.cost + child_rows * CostModel::kAggRowCost;
      auto phys = std::make_unique<PhysHashAggregate>();
      for (const auto& g : agg.group_by) {
        phys->group_by.push_back(CloneBound(*g));
      }
      for (const auto& a : agg.aggs) {
        AggItem item;
        item.func = a.func;
        item.arg = a.arg ? CloneBound(*a.arg) : nullptr;
        phys->aggs.push_back(std::move(item));
      }
      phys->schema = node.schema;
      phys->est_rows = result.rows;
      phys->est_cost = cost;
      phys->children.push_back(std::move(delivered.plan));
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      return result;
    }
    case LogicalKind::kSort: {
      const auto& sort = static_cast<const LogicalSort&>(node);
      MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[0]));
      double child_rows = child.rows;
      MT_ASSIGN_OR_RETURN(PlanChoice delivered, DeliverLocal(std::move(child)));
      double cost = delivered.cost +
                    CostModel::SortCost(child_rows, static_cast<double>(top_n));
      auto phys = std::make_unique<PhysSort>();
      phys->limit = top_n;
      for (const auto& k : sort.keys) {
        SortKey key;
        key.expr = CloneBound(*k.expr);
        key.desc = k.desc;
        phys->keys.push_back(std::move(key));
      }
      phys->schema = node.schema;
      phys->est_rows = result.rows;
      phys->est_cost = cost;
      phys->children.push_back(std::move(delivered.plan));
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      return result;
    }
    case LogicalKind::kLimit: {
      const auto& limit = static_cast<const LogicalLimit&>(node);
      top_n_ = limit.limit;
      MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[0]));
      MT_ASSIGN_OR_RETURN(PlanChoice delivered, DeliverLocal(std::move(child)));
      auto phys = std::make_unique<PhysLimit>();
      phys->limit = limit.limit;
      phys->schema = node.schema;
      phys->est_rows = result.rows;
      phys->est_cost = delivered.cost;
      phys->children.push_back(std::move(delivered.plan));
      result.local_plan = std::move(phys);
      result.local_cost = delivered.cost;
      return result;
    }
    case LogicalKind::kDistinct: {
      MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[0]));
      double child_rows = child.rows;
      MT_ASSIGN_OR_RETURN(PlanChoice delivered, DeliverLocal(std::move(child)));
      double cost = delivered.cost + child_rows * CostModel::kDistinctRowCost;
      auto phys = std::make_unique<PhysDistinct>();
      phys->schema = node.schema;
      phys->est_rows = result.rows;
      phys->est_cost = cost;
      phys->children.push_back(std::move(delivered.plan));
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      return result;
    }
    case LogicalKind::kChoosePlan: {
      const auto& choose = static_cast<const LogicalChoosePlan&>(node);
      MT_ASSIGN_OR_RETURN(PlanResult left, Plan(*node.children[0]));
      MT_ASSIGN_OR_RETURN(PlanResult right, Plan(*node.children[1]));
      double rows_l = left.rows;
      double rows_r = right.rows;
      MT_ASSIGN_OR_RETURN(PlanChoice lplan, DeliverLocal(std::move(left)));
      MT_ASSIGN_OR_RETURN(PlanChoice rplan, DeliverLocal(std::move(right)));
      double p = choose.guard_prob;
      // §5.1: "the cost of the combined plan is computed as Fl*Cl + (1-Fl)*Cr".
      double cost = p * lplan.cost + (1 - p) * rplan.cost;

      auto phys = std::make_unique<PhysUnionAll>();
      phys->schema = node.schema;
      phys->est_rows = p * rows_l + (1 - p) * rows_r;
      phys->est_cost = cost;
      {
        auto guard_filter = std::make_unique<PhysFilter>();
        guard_filter->predicate = CloneBound(*choose.guard);
        guard_filter->startup = true;
        guard_filter->schema = node.schema;
        guard_filter->est_rows = rows_l;
        guard_filter->est_cost = lplan.cost;
        guard_filter->children.push_back(std::move(lplan.plan));
        phys->children.push_back(std::move(guard_filter));
      }
      {
        auto guard_filter = std::make_unique<PhysFilter>();
        guard_filter->predicate = std::make_unique<BoundUnary>(
            UnaryOp::kNot, CloneBound(*choose.guard), TypeId::kBool);
        guard_filter->startup = true;
        guard_filter->schema = node.schema;
        guard_filter->est_rows = rows_r;
        guard_filter->est_cost = rplan.cost;
        guard_filter->children.push_back(std::move(rplan.plan));
        phys->children.push_back(std::move(guard_filter));
      }
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      return result;
    }
    case LogicalKind::kUnionAll: {
      const auto& u = static_cast<const LogicalUnionAll&>(node);
      auto phys = std::make_unique<PhysUnionAll>();
      phys->schema = node.schema;
      double cost = 0;
      double rows = 0;
      for (size_t i = 0; i < node.children.size(); ++i) {
        MT_ASSIGN_OR_RETURN(PlanResult child, Plan(*node.children[i]));
        double child_rows = child.rows;
        MT_ASSIGN_OR_RETURN(PlanChoice delivered,
                            DeliverLocal(std::move(child)));
        double prob = i < u.startup_probs.size() ? u.startup_probs[i] : 1.0;
        cost += prob * delivered.cost;
        rows += prob * child_rows;
        if (i < u.startup_preds.size() && u.startup_preds[i] != nullptr) {
          auto guard_filter = std::make_unique<PhysFilter>();
          guard_filter->predicate = CloneBound(*u.startup_preds[i]);
          guard_filter->startup = true;
          guard_filter->schema = node.schema;
          guard_filter->est_rows = child_rows;
          guard_filter->est_cost = delivered.cost;
          guard_filter->children.push_back(std::move(delivered.plan));
          phys->children.push_back(std::move(guard_filter));
        } else {
          phys->children.push_back(std::move(delivered.plan));
        }
      }
      phys->est_rows = rows;
      phys->est_cost = cost;
      result.local_plan = std::move(phys);
      result.local_cost = cost;
      result.rows = rows;
      return result;
    }
  }
  return Status::Internal("unhandled logical operator");
}

// ---------------------------------------------------------------------------
// View-matching rewrite driver.
// ---------------------------------------------------------------------------

// Collects rewrite sites: slots holding Filter(Get) or bare Get. When
// `under_project` is given, it receives for each site whether its parent is
// a Project, into which a view substitute's compensation composes.
void CollectSites(LogicalPtr* slot, std::vector<LogicalPtr*>* sites,
                  std::vector<bool>* under_project = nullptr,
                  bool parent_is_project = false) {
  LogicalOp* node = slot->get();
  if (node->kind == LogicalKind::kGet ||
      (node->kind == LogicalKind::kFilter &&
       node->children[0]->kind == LogicalKind::kGet)) {
    sites->push_back(slot);
    if (under_project != nullptr) under_project->push_back(parent_is_project);
    return;
  }
  for (auto& child : node->children) {
    CollectSites(&child, sites, under_project,
                 node->kind == LogicalKind::kProject);
  }
}

struct SiteInfo {
  LogicalGet* get = nullptr;
  const BoundExpr* predicate = nullptr;  // may be null
  std::vector<const BoundExpr*> conjuncts;
};

SiteInfo InspectSite(LogicalPtr* slot) {
  SiteInfo info;
  LogicalOp* node = slot->get();
  if (node->kind == LogicalKind::kGet) {
    info.get = static_cast<LogicalGet*>(node);
  } else {
    auto* filter = static_cast<LogicalFilter*>(node);
    info.get = static_cast<LogicalGet*>(node->children[0].get());
    info.predicate = filter->predicate.get();
    CollectConjuncts(*filter->predicate, &info.conjuncts);
  }
  return info;
}

}  // namespace

StatusOr<OptimizeResult> Optimizer::Optimize(const LogicalOp& query) const {
  auto start = std::chrono::steady_clock::now();
  OptimizeResult out;
  int alternatives = 0;

  LogicalPtr work = CloneLogical(query);
  work = Normalize(std::move(work), {});

  if (options_.enable_view_matching) {
    // Pass 1: unconditional substitutions, chosen cost-based (or forced when
    // mimicking DBCache-style routing).
    Planner cmp(catalog_, options_, /*pretend_local=*/false, &alternatives);
    std::vector<LogicalPtr*> sites;
    std::vector<bool> under_project;
    CollectSites(&work, &sites, &under_project);
    UsedMap used;
    ComputeUsed(*work, AllColumns(work->schema), &used);
    for (size_t site = 0; site < sites.size(); ++site) {
      LogicalPtr* slot = sites[site];
      SiteInfo info = InspectSite(slot);
      auto it = used.find(info.get);
      std::set<int> used_cols =
          it != used.end() ? it->second : AllColumns(info.get->schema);
      std::vector<ViewMatch> matches =
          MatchViews(*info.get, info.conjuncts, used_cols, *catalog_,
                     options_.allow_mixed_results, options_.max_staleness,
                     options_.current_time, options_.decision_stats);
      const ViewMatch* chosen = nullptr;
      double best_cost = kInf;
      // Retained past the substitution so the chosen view's estimated
      // saving (original minus substitute delivered cost) can be recorded.
      double original_cost_units = -1;
      if (options_.cost_based_routing) {
        auto original_cost = cmp.DeliveredCost(**slot);
        if (original_cost.ok()) {
          best_cost = *original_cost;
          original_cost_units = *original_cost;
        }
      }
      for (const ViewMatch& m : matches) {
        if (m.guard != nullptr) continue;  // conditional: pass 2
        ++alternatives;
        if (!options_.cost_based_routing) {
          chosen = &m;
          break;
        }
        // A compensation is priced only where it runs: under a Project it
        // composes into the consumer's projection (and an identity never
        // runs), so there the view access alone is compared.
        const LogicalOp& priced = under_project[site]
                                      ? *m.substitute->children[0]
                                      : *m.substitute;
        auto cost = cmp.DeliveredCost(priced);
        if (cost.ok() && *cost < best_cost) {
          best_cost = *cost;
          chosen = &m;
        }
      }
      // Decide whether this site counts toward the view-match stats before
      // substituting: the substitution frees the subtree info.get points to.
      const bool count_site =
          options_.decision_stats != nullptr && info.get->def != nullptr &&
          !info.get->def->virtual_table &&
          !catalog_->ViewsOver(info.get->table).empty();
      if (chosen != nullptr) {
        if (chosen->view != nullptr) {
          out.matched_views.push_back(chosen->view->name);
        }
        if (original_cost_units >= 0 && best_cost < original_cost_units) {
          out.est_saved_units += original_cost_units - best_cost;
        }
        *slot = CloneLogical(*chosen->substitute);
      }
      if (count_site) {
        bool has_conditional = false;
        for (const ViewMatch& m : matches) {
          if (m.guard != nullptr) has_conditional = true;
        }
        if (chosen != nullptr) {
          ++options_.decision_stats->view_match_hits;
        } else if (!has_conditional || !options_.enable_dynamic_plans) {
          // Conditional-only sites are decided in pass 2 (counted there).
          ++options_.decision_stats->view_match_misses;
        }
      }
    }

    // Pass 2: the first conditional (parameterized) match whose dynamic plan
    // beats the plan it guards becomes that dynamic plan (§5.1: ChoosePlan
    // is one costed alternative, priced Fl*Cl + (1-Fl)*Cr). A site whose
    // guard-true branch costs more than shipping the query leaves the tree
    // unchanged and counts as a miss.
    if (options_.enable_dynamic_plans) {
      sites.clear();
      CollectSites(&work, &sites);
      used.clear();
      ComputeUsed(*work, AllColumns(work->schema), &used);
      // Whole-tree delivered cost without a dynamic plan, priced at the
      // first conditional match; the difference against an adopted variant
      // is its estimated per-execution saving. Heuristic routing never
      // prices it, and adopts the first match.
      std::optional<double> pass2_base_cost;
      for (size_t site = 0; site < sites.size(); ++site) {
        SiteInfo info = InspectSite(sites[site]);
        auto it = used.find(info.get);
        std::set<int> used_cols =
            it != used.end() ? it->second : AllColumns(info.get->schema);
        // No decision_stats here: pass 1 already counted this site's
        // currency checks, and conditional usage is counted below.
        std::vector<ViewMatch> matches =
            MatchViews(*info.get, info.conjuncts, used_cols, *catalog_,
                       options_.allow_mixed_results, options_.max_staleness,
                       options_.current_time);
        const ViewMatch* conditional = nullptr;
        for (const ViewMatch& m : matches) {
          if (m.guard != nullptr) {
            conditional = &m;
            break;
          }
        }
        if (conditional == nullptr) continue;
        ++alternatives;

        // A copy of the tree with this site replaced by `replacement`; the
        // same traversal finds the same site in the copy.
        auto with_site = [&](LogicalPtr replacement) {
          LogicalPtr tree = CloneLogical(*work);
          std::vector<LogicalPtr*> copy_sites;
          CollectSites(&tree, &copy_sites);
          *copy_sites[site] = std::move(replacement);
          return tree;
        };
        auto choose_plan = [&](LogicalPtr guarded, LogicalPtr fallback) {
          auto cp = std::make_unique<LogicalChoosePlan>();
          cp->guard = CloneBound(*conditional->guard);
          cp->guard_prob = conditional->guard_prob;
          cp->schema = guarded->schema;
          cp->children.push_back(std::move(guarded));
          cp->children.push_back(std::move(fallback));
          return cp;
        };
        // Candidate A: ChoosePlan. With pull-up, the ChoosePlan floats to
        // the root so each branch is optimized independently and the remote
        // branch can ship the largest possible query (§5.1.2).
        LogicalPtr cp_variant =
            options_.pull_up_chooseplan
                ? choose_plan(with_site(CloneLogical(*conditional->substitute)),
                              CloneLogical(*work))
                : with_site(
                      choose_plan(CloneLogical(*conditional->substitute),
                                  CloneLogical(*sites[site]->get())));
        double variant_cost = kInf;
        if (options_.cost_based_routing) {
          if (!pass2_base_cost.has_value()) {
            auto base = cmp.DeliveredCost(*work);
            pass2_base_cost = base.ok() ? *base : kInf;
          }
          auto cost = cmp.DeliveredCost(*cp_variant);
          if (cost.ok()) variant_cost = *cost;
          // Candidate B: mixed-result plan (regular matviews only).
          if (conditional->mixed != nullptr) {
            LogicalPtr mixed = with_site(CloneLogical(*conditional->mixed));
            auto mixed_cost = cmp.DeliveredCost(*mixed);
            if (mixed_cost.ok() && *mixed_cost < variant_cost) {
              cp_variant = std::move(mixed);
              variant_cost = *mixed_cost;
            }
          }
          if (!(variant_cost < *pass2_base_cost)) {
            if (options_.decision_stats != nullptr) {
              ++options_.decision_stats->view_match_misses;
            }
            continue;
          }
          // Without a priced base (its planning failed) nothing is saved.
          if (*pass2_base_cost < kInf) {
            out.est_saved_units += *pass2_base_cost - variant_cost;
          }
        }
        if (options_.decision_stats != nullptr) {
          ++options_.decision_stats->view_match_conditional;
        }
        if (conditional->view != nullptr) {
          out.matched_views.push_back(conditional->view->name);
        }
        work = std::move(cp_variant);
        break;  // one dynamic site per query
      }
    }
  }

  Planner planner(catalog_, options_, /*pretend_local=*/false, &alternatives);
  MT_ASSIGN_OR_RETURN(PlanResult root, planner.Plan(*work));
  double root_rows = root.rows;
  MT_ASSIGN_OR_RETURN(PlanChoice choice, planner.DeliverLocal(std::move(root)));
  NarrowJoinOutputs(choice.plan.get());

  out.plan = std::move(choice.plan);
  out.est_cost = choice.cost;
  out.est_rows = root_rows;
  out.plan_size = PhysicalPlanSize(*out.plan);
  out.alternatives_considered = alternatives;

  // Scan for RemoteQuery / startup predicates.
  std::vector<const PhysicalOp*> stack = {out.plan.get()};
  while (!stack.empty()) {
    const PhysicalOp* op = stack.back();
    stack.pop_back();
    if (op->kind == PhysicalKind::kRemoteQuery) out.uses_remote = true;
    if (op->kind == PhysicalKind::kFilter &&
        static_cast<const PhysFilter*>(op)->startup) {
      out.dynamic_plan = true;
    }
    for (const auto& child : op->children) stack.push_back(child.get());
  }
  if (options_.decision_stats != nullptr) {
    if (out.uses_remote) ++options_.decision_stats->remote_plans;
    if (out.dynamic_plan) ++options_.decision_stats->dynamic_plans;
  }

  out.optimize_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  return out;
}

}  // namespace mtcache
