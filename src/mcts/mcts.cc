#include "mcts/mcts.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace monsoon {

const char* SelectionStrategyToString(SelectionStrategy strategy) {
  switch (strategy) {
    case SelectionStrategy::kUct:
      return "UCT";
    case SelectionStrategy::kEpsilonGreedy:
      return "eps-greedy";
  }
  return "?";
}

struct MctsSearch::Edge {
  MdpAction action;
  int visits = 0;
  double total_return = 0;
  // Deterministic actions have a single child keyed 0; EXECUTE children
  // are keyed by the fingerprint of the hardened statistics (chance
  // outcomes).
  std::unordered_map<uint64_t, std::unique_ptr<Node>> children;

  double MeanReturn() const { return visits > 0 ? total_return / visits : 0; }
};

struct MctsSearch::Node {
  MdpState state;
  bool terminal = false;
  std::vector<MdpAction> untried;
  std::vector<Edge> edges;
  int visits = 0;
};

MctsSearch::MctsSearch(const QueryMdp* mdp, Options options)
    : mdp_(mdp), options_(options), rng_(options.seed) {}

MctsSearch::~MctsSearch() = default;

namespace {

// Weighted rollout-policy choice: joins are preferred over statistics
// collection, and EXECUTE fires often enough to keep rollouts short.
int RolloutWeight(const MdpAction& action) {
  switch (action.type) {
    case MdpAction::Type::kExecute:
      return 4;
    case MdpAction::Type::kJoinExecExec:
    case MdpAction::Type::kJoinPlanPlan:
    case MdpAction::Type::kJoinExecPlan:
      return 3;
    case MdpAction::Type::kAddStatsPlan:
    case MdpAction::Type::kTopWithStats:
      return 1;
  }
  return 1;
}

}  // namespace

StatusOr<double> MctsSearch::Rollout(const MdpState& from) {
  // One copy per rollout; every step then mutates the scratch state.
  // Planning steps leave R_e and S alone, so what enumeration derived from
  // them stays cached until the next EXECUTE.
  MdpState& state = scratch_;
  state = from;
  rollout_cache_.Invalidate();
  double cost = 0;
  for (int depth = 0; depth < options_.max_rollout_depth; ++depth) {
    if (mdp_->IsTerminal(state)) return cost;
    mdp_->LegalActions(state, &actions_, &rollout_cache_);
    if (actions_.empty()) {
      return Status::Internal("rollout reached a dead-end non-terminal state");
    }
    int total_weight = 0;
    for (const auto& action : actions_) total_weight += RolloutWeight(action);
    int pick = static_cast<int>(rng_.NextBounded(static_cast<uint32_t>(total_weight)));
    const MdpAction* chosen = &actions_.back();
    for (const auto& action : actions_) {
      pick -= RolloutWeight(action);
      if (pick < 0) {
        chosen = &action;
        break;
      }
    }
    double step_cost = 0;
    if (chosen->IsExecute()) rollout_cache_.Invalidate();
    MONSOON_RETURN_IF_ERROR(mdp_->Apply(&state, *chosen, rng_, &step_cost));
    cost += step_cost;
  }
  // Depth exhausted: score as the worst return observed so far (a strong
  // discouragement without poisoning the normalization bounds).
  double worst_cost = bounds_init_ ? -min_return_ : cost;
  return std::max(cost, worst_cost) * 2 + 1;
}

double MctsSearch::NormalizeReturn(double ret) const {
  if (!bounds_init_ || max_return_ <= min_return_) return 0.5;
  double x = (ret - min_return_) / (max_return_ - min_return_);
  return std::min(1.0, std::max(0.0, x));
}

size_t MctsSearch::SelectEdge(const Node& node) {
  if (options_.strategy == SelectionStrategy::kUct) {
    double best_score = -std::numeric_limits<double>::infinity();
    size_t best = 0;
    for (size_t i = 0; i < node.edges.size(); ++i) {
      const Edge& edge = node.edges[i];
      double exploit = NormalizeReturn(edge.MeanReturn());
      double explore = options_.uct_weight *
                       std::sqrt(std::log(std::max(1, node.visits)) /
                                 std::max(1, edge.visits));
      double score = exploit + explore;
      if (score > best_score) {
        best_score = score;
        best = i;
      }
    }
    return best;
  }
  // Adaptive ε-greedy: ε decays linearly from 1 to the floor.
  double frac = options_.iterations > 0
                    ? static_cast<double>(iteration_) / options_.iterations
                    : 1.0;
  double epsilon = std::max(options_.epsilon_min, 1.0 - frac);
  if (rng_.NextDouble() < epsilon) {
    return rng_.NextBounded(static_cast<uint32_t>(node.edges.size()));
  }
  size_t best = 0;
  double best_mean = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.edges.size(); ++i) {
    double mean = node.edges[i].MeanReturn();
    if (mean > best_mean) {
      best_mean = mean;
      best = i;
    }
  }
  return best;
}

MctsSearch::Node* MctsSearch::AddChild(Edge* edge, uint64_t key, MdpState state) {
  auto child = std::make_unique<Node>();
  child->state = std::move(state);
  child->terminal = mdp_->IsTerminal(child->state);
  if (!child->terminal) mdp_->LegalActions(child->state, &child->untried);
  Node* child_ptr = child.get();
  edge->children.emplace(key, std::move(child));
  return child_ptr;
}

Status MctsSearch::RunIteration(Node* root) {
  // Path of (node, edge index) pairs traversed this iteration.
  path_.clear();
  Node* node = root;
  double path_cost = 0;
  double rollout_cost = 0;

  // One span per phase (Sec. 5.1's selection → expansion → simulation →
  // backpropagation); span ids come from the lane's stream, so tracing
  // never draws from rng_ and cannot perturb the search.
  obs::TraceSpan select_span("mcts", "select");
  int depth = 0;

  // Closes the expansion span, then rolls out from the new leaf `child`.
  auto roll_out_new_leaf = [&](Node* child, obs::TraceSpan* expand_span) -> Status {
    expand_span->End();
    if (!child->terminal) {
      obs::TraceSpan rollout_span("mcts", "rollout");
      MONSOON_ASSIGN_OR_RETURN(rollout_cost, Rollout(child->state));
      rollout_span.Arg("cost", rollout_cost);
    }
    // Count the visit on the new leaf as well.
    child->visits += 1;
    return Status::OK();
  };

  for (;;) {
    if (node->terminal) break;

    if (!node->untried.empty()) {
      select_span.Arg("depth", depth);
      select_span.End();
      obs::TraceSpan expand_span("mcts", "expand");
      expand_span.Arg("chance", false);
      // Expansion: take one untried action.
      size_t pick = rng_.NextBounded(static_cast<uint32_t>(node->untried.size()));
      MdpAction action = node->untried[pick];
      node->untried.erase(node->untried.begin() + pick);

      MdpState next = node->state;
      double step_cost = 0;
      MONSOON_RETURN_IF_ERROR(mdp_->Apply(&next, action, rng_, &step_cost));
      path_cost += step_cost;
      uint64_t key = action.IsExecute() ? next.stats.Fingerprint() : 0;
      node->edges.push_back(Edge{});
      Edge& edge = node->edges.back();
      edge.action = action;
      path_.emplace_back(node, node->edges.size() - 1);
      MONSOON_RETURN_IF_ERROR(
          roll_out_new_leaf(AddChild(&edge, key, std::move(next)), &expand_span));
      break;
    }

    if (node->edges.empty()) {
      // Non-terminal with no actions should not happen (LegalActions
      // guarantees EXECUTE when R_p is non-empty and joins otherwise).
      return Status::Internal("MCTS reached a dead-end node");
    }

    // Selection.
    ++depth;
    size_t edge_idx = SelectEdge(*node);
    Edge& edge = node->edges[edge_idx];
    path_.emplace_back(node, edge_idx);

    if (!edge.action.IsExecute()) {
      // A planning action is deterministic, draws nothing and costs 0: its
      // one child (key 0) was built when the edge was expanded, so the
      // transition is not run again.
      MONSOON_DCHECK(edge.children.size() == 1 && edge.children.count(0) == 1);
      node = edge.children.begin()->second.get();
      node->visits += 1;
      continue;
    }

    // EXECUTE draws from the prior: simulate it to find the chance child.
    scratch_ = node->state;
    double step_cost = 0;
    MONSOON_RETURN_IF_ERROR(mdp_->Apply(&scratch_, edge.action, rng_, &step_cost));
    path_cost += step_cost;
    uint64_t key = scratch_.stats.Fingerprint();
    auto it = edge.children.find(key);
    if (it == edge.children.end()) {
      select_span.Arg("depth", depth);
      select_span.End();
      // A chance outcome we have not seen before: expand it here.
      obs::TraceSpan expand_span("mcts", "expand");
      expand_span.Arg("chance", true);
      MONSOON_RETURN_IF_ERROR(roll_out_new_leaf(
          AddChild(&edge, key, std::move(scratch_)), &expand_span));
      break;
    }
    node = it->second.get();
    node->visits += 1;
  }

  select_span.Arg("depth", depth);  // terminal-hit descent: not ended above
  select_span.End();

  // Backpropagation.
  obs::TraceSpan backprop_span("mcts", "backprop");
  double ret = -(path_cost + rollout_cost);
  if (!bounds_init_) {
    min_return_ = max_return_ = ret;
    bounds_init_ = true;
  } else {
    min_return_ = std::min(min_return_, ret);
    max_return_ = std::max(max_return_, ret);
  }
  root->visits += 1;
  for (auto& [pnode, edge_idx] : path_) {
    Edge& edge = pnode->edges[edge_idx];
    edge.visits += 1;
    edge.total_return += ret;
  }
  backprop_span.Arg("return", ret).Arg("path", static_cast<uint64_t>(path_.size()));
  return Status::OK();
}

StatusOr<MdpAction> MctsSearch::SearchBestAction(const MdpState& root_state) {
  if (mdp_->IsTerminal(root_state)) {
    return Status::InvalidArgument("search from a terminal state");
  }
  root_ = std::make_unique<Node>();
  root_->state = root_state;
  mdp_->LegalActions(root_state, &root_->untried);
  if (root_->untried.empty()) {
    return Status::Internal("no legal action from the current state");
  }

  static obs::Counter* const searches_metric =
      obs::Registry::Global().GetCounter("mcts.searches");
  static obs::Counter* const iterations_metric =
      obs::Registry::Global().GetCounter("mcts.iterations");
  searches_metric->Add(1);

  info_ = SearchInfo{};
  bounds_init_ = false;
  for (iteration_ = 0; iteration_ < options_.iterations; ++iteration_) {
    if (options_.cancel_token != nullptr) {
      MONSOON_RETURN_IF_ERROR(options_.cancel_token->Check());
    }
    // Coordinate = (seed, iteration): each root-parallel worker draws its
    // own deterministic firing schedule from its seed stream.
    MONSOON_FAULT_POINT("mcts.rollout",
                        options_.seed + static_cast<uint64_t>(iteration_));
    MONSOON_RETURN_IF_ERROR(RunIteration(root_.get()));
    ++info_.iterations_run;
  }
  iterations_metric->Add(static_cast<uint64_t>(info_.iterations_run));

  // Commit the most-visited root action (robust child).
  const Edge* best = nullptr;
  for (const Edge& edge : root_->edges) {
    if (best == nullptr || edge.visits > best->visits ||
        (edge.visits == best->visits && edge.MeanReturn() > best->MeanReturn())) {
      best = &edge;
    }
  }
  if (best == nullptr) return Status::Internal("MCTS produced no edges");
  info_.best_mean_return = best->MeanReturn();
  info_.best_visits = best->visits;
  for (const Edge& edge : root_->edges) {
    info_.root_edges.push_back(
        RootEdgeInfo{edge.action, edge.visits, edge.MeanReturn()});
  }

  // Approximate tree size for diagnostics.
  size_t nodes = 0;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    ++nodes;
    for (const Edge& e : n->edges) {
      for (const auto& [key, child] : e.children) stack.push_back(child.get());
    }
  }
  info_.tree_nodes = nodes;

  return best->action;
}

}  // namespace monsoon
