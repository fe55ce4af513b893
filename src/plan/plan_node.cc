#include "plan/plan_node.h"

#include <sstream>

namespace monsoon {

std::string ExprSig::ToString() const {
  std::ostringstream out;
  out << "[rels=" << RelSet(rels).ToString() << " preds=0x" << std::hex << preds << "]";
  return out.str();
}

PlanNode::Ptr PlanNode::Leaf(ExprSig source, std::vector<int> selection_preds) {
  auto node = std::shared_ptr<PlanNode>(new PlanNode());  // NOLINT(monsoon-raw-new): private ctor
  node->kind_ = Kind::kLeaf;
  node->source_ = source;
  node->pred_ids_ = std::move(selection_preds);
  node->output_sig_ = ExprSig{source.rels, source.preds | PredMask(node->pred_ids_)};
  return node;
}

PlanNode::Ptr PlanNode::Join(Ptr left, Ptr right, std::vector<int> pred_ids) {
  auto node = std::shared_ptr<PlanNode>(new PlanNode());  // NOLINT(monsoon-raw-new): private ctor
  node->kind_ = Kind::kJoin;
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  node->pred_ids_ = std::move(pred_ids);
  node->output_sig_ =
      ExprSig{node->left_->output_sig().rels | node->right_->output_sig().rels,
              node->left_->output_sig().preds | node->right_->output_sig().preds |
                  PredMask(node->pred_ids_)};
  node->has_stats_collect_ =
      node->left_->has_stats_collect_ || node->right_->has_stats_collect_;
  return node;
}

PlanNode::Ptr PlanNode::StatsCollect(Ptr child) {
  auto node = std::shared_ptr<PlanNode>(new PlanNode());  // NOLINT(monsoon-raw-new): private ctor
  node->kind_ = Kind::kStatsCollect;
  node->left_ = std::move(child);
  node->output_sig_ = node->left_->output_sig();
  node->has_stats_collect_ = true;
  return node;
}

std::string PlanNode::ToString(const QuerySpec& query) const {
  switch (kind_) {
    case Kind::kLeaf: {
      std::string out;
      RelSet rels(source_.rels);
      auto indices = rels.Indices();
      if (indices.size() == 1) {
        out = query.relation(indices[0]).alias;
      } else {
        out = "expr" + rels.ToString();
      }
      if (!pred_ids_.empty()) out = "σ(" + out + ")";
      return out;
    }
    case Kind::kJoin: {
      std::string op = " ⋈ ";
      // A join with no equi predicate is a cross product / filter.
      bool has_equi = false;
      for (int id : pred_ids_) {
        if (query.predicate(id).IsEquiJoin()) has_equi = true;
      }
      if (!has_equi) op = " × ";
      return "(" + left_->ToString(query) + op + right_->ToString(query) + ")";
    }
    case Kind::kStatsCollect:
      return "Σ(" + left_->ToString(query) + ")";
  }
  return "?";
}

}  // namespace monsoon
