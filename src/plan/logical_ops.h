#ifndef MONSOON_PLAN_LOGICAL_OPS_H_
#define MONSOON_PLAN_LOGICAL_OPS_H_

#include <cstdint>
#include <vector>

#include "plan/plan_node.h"
#include "query/query_spec.h"

namespace monsoon {

/// Builds the leaf plan for relation `rel`: a scan of the base table with
/// every selection predicate on that relation applied inline (selections
/// are always pushed to leaves in this repo; the paper restricts its MDP
/// to the join-ordering problem).
PlanNode::Ptr MakeLeaf(const QuerySpec& query, int rel);

/// Relation mask of every predicate, indexed by pred_id. Hot paths build
/// it once per query and pass it to ApplicableJoinPredMask.
std::vector<uint64_t> PredicateRelMasks(const QuerySpec& query);

/// Mask (bit i = pred_id i) of the join predicates that become applicable
/// when an expression with signature `left` is joined with one with
/// signature `right`: predicates not yet applied on either side whose
/// relations are covered by the union but by neither input alone.
/// `pred_rels` is PredicateRelMasks(query).
uint64_t ApplicableJoinPredMask(const std::vector<uint64_t>& pred_rels,
                                const ExprSig& left, const ExprSig& right);

/// ApplicableJoinPredMask as ascending predicate ids.
std::vector<int> ApplicableJoinPreds(const QuerySpec& query, const ExprSig& left,
                                     const ExprSig& right);

/// True if at least one applicable predicate connects the two inputs
/// (joining them is not a bare cross product).
bool AreConnected(const QuerySpec& query, const ExprSig& left, const ExprSig& right);

/// For every relation, the mask of the relations in its connected
/// component of the query's predicate graph.
std::vector<uint64_t> ComponentMasks(const QuerySpec& query);

/// Union of the components (per ComponentMasks) of the relations in `rels`.
inline uint64_t ComponentOf(const std::vector<uint64_t>& components, RelSet rels) {
  uint64_t out = 0;
  for (uint64_t m = rels.mask(); m != 0; m &= m - 1) {
    out |= components[__builtin_ctzll(m)];
  }
  return out;
}

/// True if the relations of `a` and `b` lie in different connected
/// components of the query's predicate graph — i.e. a cross product
/// between them is unavoidable at some point.
bool CrossProductUnavoidable(const QuerySpec& query, RelSet a, RelSet b);

}  // namespace monsoon

#endif  // MONSOON_PLAN_LOGICAL_OPS_H_
