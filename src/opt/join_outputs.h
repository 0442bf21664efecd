#ifndef MTCACHE_OPT_JOIN_OUTPUTS_H_
#define MTCACHE_OPT_JOIN_OUTPUTS_H_

#include "opt/physical.h"

namespace mtcache {

/// The required-columns pass over a finished physical plan. Top-down, each
/// join (HashJoin, NLJoin, IndexNLJoin) is narrowed to the columns the plan
/// above it consumes, plus its own keys and conditions, and projections
/// drop the expressions nobody reads; every operator in between is
/// renumbered against its narrowed input. The plan's output schema is
/// unchanged. Scans are never narrowed: they hand out snapshot rows by
/// reference, and a pushed projection would build one row per qualifying
/// row instead. Charges are unchanged, since neither operator is charged by
/// row width.
void NarrowJoinOutputs(PhysicalOp* root);

}  // namespace mtcache

#endif  // MTCACHE_OPT_JOIN_OUTPUTS_H_
