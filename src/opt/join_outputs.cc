#include "opt/join_outputs.h"

#include <numeric>

namespace mtcache {

namespace {

// Old output ordinal -> new output ordinal; -1 = no longer produced.
using Mapping = std::vector<int>;

Mapping Identity(int width) {
  Mapping m(static_cast<size_t>(width));
  std::iota(m.begin(), m.end(), 0);
  return m;
}

void AddRefs(const BoundExpr& expr, std::vector<bool>* required) {
  std::vector<int> refs;
  CollectColumnRefs(expr, &refs);
  for (int r : refs) (*required)[r] = true;
}

// Marks the columns `expr` (bound over concat(left, right)) reads in the
// left and right requirement sets.
void AddJoinRefs(const BoundExpr& expr, std::vector<bool>* left,
                 std::vector<bool>* right) {
  std::vector<int> refs;
  CollectColumnRefs(expr, &refs);
  const int left_width = static_cast<int>(left->size());
  for (int r : refs) {
    if (r < left_width) {
      (*left)[r] = true;
    } else {
      (*right)[r - left_width] = true;
    }
  }
}

// Positions marked in `required`; at least one, so no operator is left
// producing zero-width rows.
std::vector<int> Kept(const std::vector<bool>& required) {
  std::vector<int> kept;
  for (size_t i = 0; i < required.size(); ++i) {
    if (required[i]) kept.push_back(static_cast<int>(i));
  }
  if (kept.empty() && !required.empty()) kept.push_back(0);
  return kept;
}

// old position -> index in `kept`.
Mapping KeptMapping(const std::vector<int>& kept, int width) {
  Mapping m(static_cast<size_t>(width), -1);
  for (size_t i = 0; i < kept.size(); ++i) m[kept[i]] = static_cast<int>(i);
  return m;
}

Schema KeptSchema(const Schema& schema, const std::vector<int>& kept) {
  std::vector<ColumnInfo> cols;
  for (int k : kept) cols.push_back(schema.column(k));
  return Schema(std::move(cols));
}

// The schema of an operator that passes its input's rows through, after
// the input was renumbered by `m`: each kept column keeps the operator's own
// name and qualifier for it.
Schema MappedSchema(const Schema& schema, const Mapping& m) {
  std::vector<ColumnInfo> cols;
  for (size_t i = 0; i < m.size(); ++i) {
    if (m[i] < 0) continue;
    if (cols.size() <= static_cast<size_t>(m[i])) cols.resize(m[i] + 1);
    cols[m[i]] = schema.column(static_cast<int>(i));
  }
  return Schema(std::move(cols));
}

Mapping Narrow(PhysicalOp* op, std::vector<bool> required);

// A join: keeps the output columns in `required`, asks its inputs for
// those plus the keys and conditions it evaluates, and renumbers all of
// them against the narrowed inputs.
Mapping NarrowJoin(PhysicalOp* op, const std::vector<bool>& required) {
  const bool index_nl = op->kind == PhysicalKind::kIndexNLJoin;
  const int left_width = op->children[0]->schema.num_columns();
  const int right_width =
      index_nl ? static_cast<const PhysIndexNLJoin&>(*op).InnerWidth()
               : op->children[1]->schema.num_columns();
  std::vector<int>& output = *JoinOutput(op);
  if (output.empty()) output = Identity(left_width + right_width);

  const std::vector<int> kept = Kept(required);
  std::vector<bool> left_req(static_cast<size_t>(left_width), false);
  std::vector<bool> right_req(static_cast<size_t>(right_width), false);
  for (int pos : kept) {
    const int o = output[pos];
    if (o < left_width) {
      left_req[o] = true;
    } else {
      right_req[o - left_width] = true;
    }
  }
  BExprPtr* condition = nullptr;
  switch (op->kind) {
    case PhysicalKind::kHashJoin: {
      auto* j = static_cast<PhysHashJoin*>(op);
      for (int k : j->probe_keys) left_req[k] = true;
      for (int k : j->build_keys) right_req[k] = true;
      condition = &j->residual;
      break;
    }
    case PhysicalKind::kNLJoin:
      condition = &static_cast<PhysNLJoin*>(op)->condition;
      break;
    default: {
      auto* j = static_cast<PhysIndexNLJoin*>(op);
      left_req[j->outer_key] = true;
      condition = &j->residual;
      break;
    }
  }
  if (*condition != nullptr) AddJoinRefs(**condition, &left_req, &right_req);

  const Mapping left_map = Narrow(op->children[0].get(), std::move(left_req));
  // The index-NL inner is a table access inside the join, not a child: its
  // width is fixed.
  const Mapping right_map =
      index_nl ? Identity(right_width)
               : Narrow(op->children[1].get(), std::move(right_req));
  const int new_left_width = op->children[0]->schema.num_columns();
  const int new_right_width =
      index_nl ? right_width : op->children[1]->schema.num_columns();
  Mapping concat(static_cast<size_t>(left_width + right_width), -1);
  for (int o = 0; o < left_width; ++o) concat[o] = left_map[o];
  for (int o = 0; o < right_width; ++o) {
    if (right_map[o] >= 0) {
      concat[left_width + o] = right_map[o] + new_left_width;
    }
  }

  switch (op->kind) {
    case PhysicalKind::kHashJoin: {
      auto* j = static_cast<PhysHashJoin*>(op);
      for (int& k : j->probe_keys) k = left_map[k];
      for (int& k : j->build_keys) k = right_map[k];
      break;
    }
    case PhysicalKind::kIndexNLJoin: {
      auto* j = static_cast<PhysIndexNLJoin*>(op);
      j->outer_key = left_map[j->outer_key];
      break;
    }
    default:
      break;
  }
  if (*condition != nullptr) RemapColumnRefs(condition->get(), concat);

  std::vector<int> narrowed;
  for (int pos : kept) narrowed.push_back(concat[output[pos]]);
  if (narrowed == Identity(new_left_width + new_right_width)) {
    output.clear();
  } else {
    output = std::move(narrowed);
  }
  op->schema = KeptSchema(op->schema, kept);
  return KeptMapping(kept, static_cast<int>(required.size()));
}

// Narrows `op`'s output to the ordinals marked in `required` where `op` is
// an operator that builds its rows (a join or a projection); every other
// operator keeps its columns and passes the requirement down, plus what it
// reads itself. Returns the old -> new mapping of `op`'s output ordinals.
Mapping Narrow(PhysicalOp* op, std::vector<bool> required) {
  const int width = op->schema.num_columns();
  switch (op->kind) {
    case PhysicalKind::kDualScan:
    case PhysicalKind::kSeqScan:
    case PhysicalKind::kIndexSeek:
    case PhysicalKind::kRemoteQuery:
      // Scans hand out snapshot rows by reference; narrowing them would
      // build one row per qualifying row instead.
      return Identity(width);
    case PhysicalKind::kNLJoin:
    case PhysicalKind::kIndexNLJoin:
    case PhysicalKind::kHashJoin:
      return NarrowJoin(op, required);
    case PhysicalKind::kProject: {
      auto* p = static_cast<PhysProject*>(op);
      const std::vector<int> kept = Kept(required);
      PhysicalOp* child = op->children[0].get();
      std::vector<bool> child_req(
          static_cast<size_t>(child->schema.num_columns()), false);
      for (int k : kept) AddRefs(*p->exprs[k], &child_req);
      const Mapping child_map = Narrow(child, std::move(child_req));
      std::vector<BExprPtr> exprs;
      for (int k : kept) {
        RemapColumnRefs(p->exprs[k].get(), child_map);
        exprs.push_back(std::move(p->exprs[k]));
      }
      p->exprs = std::move(exprs);
      op->schema = KeptSchema(op->schema, kept);
      return KeptMapping(kept, width);
    }
    case PhysicalKind::kFilter: {
      auto* f = static_cast<PhysFilter*>(op);
      AddRefs(*f->predicate, &required);
      const Mapping m = Narrow(op->children[0].get(), std::move(required));
      RemapColumnRefs(f->predicate.get(), m);
      op->schema = MappedSchema(op->schema, m);
      return m;
    }
    case PhysicalKind::kSort: {
      auto* s = static_cast<PhysSort*>(op);
      for (const SortKey& k : s->keys) AddRefs(*k.expr, &required);
      const Mapping m = Narrow(op->children[0].get(), std::move(required));
      for (SortKey& k : s->keys) RemapColumnRefs(k.expr.get(), m);
      op->schema = MappedSchema(op->schema, m);
      return m;
    }
    case PhysicalKind::kLimit: {
      const Mapping m = Narrow(op->children[0].get(), std::move(required));
      op->schema = MappedSchema(op->schema, m);
      return m;
    }
    case PhysicalKind::kHashAggregate: {
      auto* a = static_cast<PhysHashAggregate*>(op);
      PhysicalOp* child = op->children[0].get();
      std::vector<bool> child_req(
          static_cast<size_t>(child->schema.num_columns()), false);
      for (const auto& g : a->group_by) AddRefs(*g, &child_req);
      for (const AggItem& item : a->aggs) {
        if (item.arg != nullptr) AddRefs(*item.arg, &child_req);
      }
      const Mapping m = Narrow(child, std::move(child_req));
      for (auto& g : a->group_by) RemapColumnRefs(g.get(), m);
      for (AggItem& item : a->aggs) {
        if (item.arg != nullptr) RemapColumnRefs(item.arg.get(), m);
      }
      return Identity(width);
    }
    case PhysicalKind::kDistinct:
    case PhysicalKind::kUnionAll:
      // Every column takes part in duplicate elimination, and union
      // branches must keep the union's row shape: inputs stay full width.
      for (auto& child : op->children) {
        Narrow(child.get(),
               std::vector<bool>(
                   static_cast<size_t>(child->schema.num_columns()), true));
      }
      return Identity(width);
  }
  return Identity(width);
}

}  // namespace

void NarrowJoinOutputs(PhysicalOp* root) {
  Narrow(root, std::vector<bool>(
                   static_cast<size_t>(root->schema.num_columns()), true));
}

}  // namespace mtcache
