#ifndef MONSOON_MCTS_MCTS_H_
#define MONSOON_MCTS_MCTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "fault/cancellation.h"
#include "mdp/mdp.h"

namespace monsoon {

/// Child-selection strategies from Sec. 5.1.
enum class SelectionStrategy {
  /// Upper Confidence bounds applied to Trees (Kocsis & Szepesvári):
  /// pick argmax over  r̄_c + w · sqrt(log(v_p) / v_c)  with rewards
  /// normalized to [0, 1] using the running min/max return at the root.
  kUct,
  /// ε-greedy with adaptively decreasing ε (Tokic-style schedule): start
  /// fully exploratory (ε = 1), decay with iteration count, floor at 0.1.
  kEpsilonGreedy,
};

const char* SelectionStrategyToString(SelectionStrategy strategy);

/// Monte-Carlo tree search over the QueryMdp. Online planner: call
/// SearchBestAction from the current real-world state before every action,
/// as Sec. 5.1 describes (selection → expansion → simulation →
/// backpropagation, then commit the highest-value root action).
class MctsSearch {
 public:
  struct Options {
    SelectionStrategy strategy = SelectionStrategy::kUct;
    /// Rollouts per decision.
    int iterations = 400;
    /// UCT exploration weight w (the paper uses sqrt(2)).
    double uct_weight = 1.4142135623730951;
    /// ε-greedy floor.
    double epsilon_min = 0.1;
    /// Safety bound on rollout length; rollouts that fail to reach a
    /// terminal state are scored with the worst return seen so far.
    int max_rollout_depth = 96;
    uint64_t seed = 0xf00d;
    /// When non-null, polled once per iteration: a tripped token aborts
    /// the search with its Cancelled / DeadlineExceeded status. Root-
    /// parallel workers share the query's token, so a deadline (or a
    /// failing sibling) stops every worker at its next rollout boundary.
    /// Not owned.
    fault::CancellationToken* cancel_token = nullptr;
  };

  /// Per-root-action statistics after a search (for tests, diagnostics
  /// and the example MDP walk-through).
  struct RootEdgeInfo {
    MdpAction action;
    int visits = 0;
    double mean_return = 0;
  };

  struct SearchInfo {
    int iterations_run = 0;
    size_t tree_nodes = 0;
    double best_mean_return = 0;
    int best_visits = 0;
    std::vector<RootEdgeInfo> root_edges;
  };

  MctsSearch(const QueryMdp* mdp, Options options);
  ~MctsSearch();

  MctsSearch(const MctsSearch&) = delete;
  MctsSearch& operator=(const MctsSearch&) = delete;

  /// Runs the configured number of rollouts from `root` and returns the
  /// action with the most visits. Fails if the state is terminal or has
  /// no legal action.
  StatusOr<MdpAction> SearchBestAction(const MdpState& root);

  const SearchInfo& last_info() const { return info_; }

 private:
  struct Node;
  struct Edge;

  Status RunIteration(Node* root);
  /// Makes a tree node for `state` under `edge` at chance key `key`.
  Node* AddChild(Edge* edge, uint64_t key, MdpState state);
  /// Plays random-but-biased actions to a terminal state; returns the
  /// total cost accumulated.
  StatusOr<double> Rollout(const MdpState& from);
  double NormalizeReturn(double ret) const;
  size_t SelectEdge(const Node& node);

  const QueryMdp* mdp_;
  Options options_;
  Pcg32 rng_;
  SearchInfo info_;
  // Running bounds on observed returns, for UCT normalization.
  double min_return_ = 0;
  double max_return_ = 0;
  bool bounds_init_ = false;
  int iteration_ = 0;
  std::unique_ptr<Node> root_;
  // Buffers reused across iterations, so stepping the MDP allocates only
  // for states the tree keeps. Each root-parallel worker owns its own
  // MctsSearch, so these are never shared between threads.
  MdpState scratch_;                           // rollouts, EXECUTE outcomes
  std::vector<MdpAction> actions_;             // rollout legal actions
  ActionCache rollout_cache_;                  // R_e/S-derived, per rollout
  std::vector<std::pair<Node*, size_t>> path_;  // (node, edge) this iteration
};

}  // namespace monsoon

#endif  // MONSOON_MCTS_MCTS_H_
