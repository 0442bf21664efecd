#include "opt/physical.h"

namespace mtcache {

namespace {

// " [pred: ...] [proj: ...]" annotations for scans with folded-in filter /
// projection; appended after the base label so plan-shape matching on
// "SeqScan(name)" / "IndexSeek(name.idx)" keeps working.
std::string PushdownSuffix(const BExprPtr& pred,
                           const std::vector<BExprPtr>& proj) {
  std::string out;
  if (pred != nullptr) out += " [pred: " + BoundToSql(*pred) + "]";
  if (!proj.empty()) {
    out += " [proj: ";
    for (size_t i = 0; i < proj.size(); ++i) {
      if (i > 0) out += ", ";
      out += BoundToSql(*proj[i]);
    }
    out += "]";
  }
  return out;
}

}  // namespace

std::vector<int>* JoinOutput(PhysicalOp* op) {
  switch (op->kind) {
    case PhysicalKind::kNLJoin:
      return &static_cast<PhysNLJoin*>(op)->output;
    case PhysicalKind::kIndexNLJoin:
      return &static_cast<PhysIndexNLJoin*>(op)->output;
    case PhysicalKind::kHashJoin:
      return &static_cast<PhysHashJoin*>(op)->output;
    default:
      return nullptr;
  }
}

std::string PhysicalOpLabel(const PhysicalOp& op) {
  switch (op.kind) {
    case PhysicalKind::kDualScan:
      return "DualScan";
    case PhysicalKind::kSeqScan: {
      const auto& o = static_cast<const PhysSeqScan&>(op);
      return "SeqScan(" + o.def->name + ")" +
             PushdownSuffix(o.pushed_predicate, o.pushed_projection);
    }
    case PhysicalKind::kIndexSeek: {
      const auto& o = static_cast<const PhysIndexSeek&>(op);
      return "IndexSeek(" + o.def->name + "." +
             o.def->indexes[o.index_ordinal].name + ")" +
             PushdownSuffix(o.pushed_predicate, o.pushed_projection);
    }
    case PhysicalKind::kFilter: {
      const auto& o = static_cast<const PhysFilter&>(op);
      return std::string(o.startup ? "StartupFilter(" : "Filter(") +
             BoundToSql(*o.predicate) + ")";
    }
    case PhysicalKind::kProject:
      return "Project";
    case PhysicalKind::kNLJoin: {
      const auto& o = static_cast<const PhysNLJoin&>(op);
      return o.join_kind == JoinKind::kInner ? "NLJoin" : "NLJoin[left outer]";
    }
    case PhysicalKind::kIndexNLJoin: {
      const auto& o = static_cast<const PhysIndexNLJoin&>(op);
      std::string label = "IndexNLJoin(" + o.inner_def->name + "." +
                          o.inner_def->indexes[o.index_ordinal].name + ")";
      if (o.join_kind == JoinKind::kLeftOuter) label += "[left outer]";
      return label;
    }
    case PhysicalKind::kHashJoin: {
      const auto& o = static_cast<const PhysHashJoin&>(op);
      return o.join_kind == JoinKind::kInner ? "HashJoin"
                                             : "HashJoin[left outer]";
    }
    case PhysicalKind::kHashAggregate:
      return "HashAggregate";
    case PhysicalKind::kSort: {
      const int64_t limit = static_cast<const PhysSort&>(op).limit;
      return limit > 0 ? "Sort(top " + std::to_string(limit) + ")" : "Sort";
    }
    case PhysicalKind::kLimit:
      return "Limit(" +
             std::to_string(static_cast<const PhysLimit&>(op).limit) + ")";
    case PhysicalKind::kDistinct:
      return "Distinct";
    case PhysicalKind::kUnionAll:
      return "UnionAll";
    case PhysicalKind::kRemoteQuery: {
      const auto& o = static_cast<const PhysRemoteQuery&>(op);
      return "RemoteQuery[" + o.server + "](" + o.sql + ")";
    }
  }
  return "?";
}

std::string PhysicalToString(const PhysicalOp& op, int indent) {
  std::string out(indent * 2, ' ');
  out += PhysicalOpLabel(op);
  out += "  rows=" + std::to_string(static_cast<int64_t>(op.est_rows));
  out += " cost=" + std::to_string(op.est_cost);
  out += "\n";
  for (const auto& child : op.children) {
    out += PhysicalToString(*child, indent + 1);
  }
  return out;
}

int PhysicalPlanSize(const PhysicalOp& op) {
  int n = 1;
  for (const auto& child : op.children) n += PhysicalPlanSize(*child);
  return n;
}

}  // namespace mtcache
