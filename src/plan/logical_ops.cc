#include "plan/logical_ops.h"

namespace monsoon {

PlanNode::Ptr MakeLeaf(const QuerySpec& query, int rel) {
  return PlanNode::Leaf(ExprSig::Of(RelSet::Single(rel), 0),
                        query.SelectionPredicatesOn(rel));
}

std::vector<uint64_t> PredicateRelMasks(const QuerySpec& query) {
  std::vector<uint64_t> out;
  out.reserve(query.predicates().size());
  for (const Predicate& pred : query.predicates()) out.push_back(pred.rels().mask());
  return out;
}

uint64_t ApplicableJoinPredMask(const std::vector<uint64_t>& pred_rels,
                                const ExprSig& left, const ExprSig& right) {
  uint64_t union_rels = left.rels | right.rels;
  uint64_t applied = left.preds | right.preds;
  uint64_t out = 0;
  for (size_t id = 0; id < pred_rels.size(); ++id) {
    if ((applied >> id) & 1) continue;
    uint64_t prels = pred_rels[id];
    if ((prels & ~union_rels) != 0) continue;
    if ((prels & ~left.rels) == 0 || (prels & ~right.rels) == 0) continue;
    out |= uint64_t{1} << id;
  }
  return out;
}

std::vector<int> ApplicableJoinPreds(const QuerySpec& query, const ExprSig& left,
                                     const ExprSig& right) {
  std::vector<int> out;
  for (uint64_t m = ApplicableJoinPredMask(PredicateRelMasks(query), left, right);
       m != 0; m &= m - 1) {
    out.push_back(__builtin_ctzll(m));
  }
  return out;
}

bool AreConnected(const QuerySpec& query, const ExprSig& left, const ExprSig& right) {
  return ApplicableJoinPredMask(PredicateRelMasks(query), left, right) != 0;
}

std::vector<uint64_t> ComponentMasks(const QuerySpec& query) {
  // Each relation starts alone; every predicate merges the components of
  // the relations it touches, and every member of a merged component
  // points at the merged mask.
  std::vector<uint64_t> components(query.num_relations());
  for (int i = 0; i < query.num_relations(); ++i) components[i] = uint64_t{1} << i;
  for (const Predicate& pred : query.predicates()) {
    uint64_t merged = ComponentOf(components, pred.rels());
    for (uint64_t m = merged; m != 0; m &= m - 1) {
      components[__builtin_ctzll(m)] = merged;
    }
  }
  return components;
}

bool CrossProductUnavoidable(const QuerySpec& query, RelSet a, RelSet b) {
  return (ComponentOf(ComponentMasks(query), a) & b.mask()) == 0;
}

}  // namespace monsoon
