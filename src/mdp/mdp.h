#ifndef MONSOON_MDP_MDP_H_
#define MONSOON_MDP_MDP_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/stats_store.h"
#include "common/random.h"
#include "common/status.h"
#include "plan/plan_node.h"
#include "priors/prior.h"
#include "query/query_spec.h"

namespace monsoon {

/// One action of the query-optimization MDP (Sec. 4.2).
struct MdpAction {
  enum class Type {
    /// Copy r from R_e into R_p, topped with Σ (statistics collection).
    kAddStatsPlan,
    /// Replace r ∈ R_p with Σ(r): materialize it AND collect statistics.
    kTopWithStats,
    /// Join two materialized expressions: add (r1 ⋈ r2) to R_p.
    kJoinExecExec,
    /// Join two planned expressions: replace both with (r1 ⋈ r2).
    kJoinPlanPlan,
    /// Join a materialized expression into a planned one.
    kJoinExecPlan,
    /// Execute and materialize everything in R_p (the stochastic action).
    kExecute,
  };

  Type type = Type::kExecute;
  ExprSig exec_a;      // kAddStatsPlan / kJoinExecExec / kJoinExecPlan
  ExprSig exec_b;      // kJoinExecExec
  int plan_a = -1;     // kTopWithStats / kJoinPlanPlan / kJoinExecPlan
  int plan_b = -1;     // kJoinPlanPlan

  bool IsExecute() const { return type == Type::kExecute; }

  /// Structural identity; root-parallel MCTS merges per-worker root edges
  /// by this.
  bool operator==(const MdpAction& other) const {
    return type == other.type && exec_a == other.exec_a &&
           exec_b == other.exec_b && plan_a == other.plan_a &&
           plan_b == other.plan_b;
  }
  bool operator!=(const MdpAction& other) const { return !(*this == other); }

  std::string ToString(const QuerySpec& query) const;
};

/// The MDP state (Sec. 4.1): planned expressions R_p, executed and
/// materialized expressions R_e (signature → known cardinality), and the
/// statistics S. QueryMdp::Apply mutates a state in place; MCTS copies a
/// state only where it keeps one (a tree node, or the one scratch state a
/// rollout steps). Plan trees are immutable and shared between copies.
struct MdpState {
  std::vector<PlanNode::Ptr> planned;   // R_p
  std::map<ExprSig, double> executed;   // R_e with c(r)
  StatsStore stats;                     // S

  std::string ToString(const QuerySpec& query) const;
};

/// The query-optimization MDP: action enumeration, deterministic planning
/// transitions, and the stochastic EXECUTE transition simulated by
/// sampling unknown statistics from the prior (Sec. 4.3). This object is
/// the "simulator" MCTS plans against; the Monsoon driver mirrors EXECUTE
/// in the real world through the Executor.
class QueryMdp {
 public:
  struct Options {
    /// Cap on |R_p| to bound the branching factor.
    int max_planned = 3;
    /// Propose joins with no connecting predicate. Off by default (the
    /// paper's optimizer avoids bare cross products); disconnected
    /// queries enable it per pair when no predicate path exists.
    bool allow_unconstrained_cross_products = false;
    /// Offer the Σ actions. Disabling them ablates Monsoon down to a
    /// prior-guided guess-and-execute optimizer (bench_ablation_monsoon
    /// measures what the statistics-collection actions are worth).
    bool enable_stats_actions = true;
  };

  QueryMdp(const QuerySpec& query, const Prior* prior, Options options);

  /// The start state: R_p empty, R_e = base relations with their sizes,
  /// S = `initial_stats` plus those sizes.
  MdpState InitialState(const StatsStore& initial_stats,
                        const std::map<ExprSig, double>& base_counts) const;

  /// Terminal once R_e contains the full query result (every relation,
  /// every predicate applied).
  bool IsTerminal(const MdpState& state) const;

  /// Legal actions with the pruning described in DESIGN.md (Σ only where
  /// statistics are still unknown, joins only between connected,
  /// non-overlapping expressions, no duplicate expressions), written into
  /// `*actions` (cleared first, so a caller can reuse one buffer).
  void LegalActions(const MdpState& state, std::vector<MdpAction>* actions) const;
  std::vector<MdpAction> LegalActions(const MdpState& state) const;

  /// The transition: applies `action` to `*state` in place and sets
  /// `*cost` to the objects it processes (Sec. 4.4; reward = -cost).
  /// Planning actions are deterministic, cost 0 and draw nothing from
  /// `rng`; EXECUTE hardens statistics by sampling the prior, costs the
  /// planned trees, and moves R_p into R_e. A bad plan index or an EXECUTE
  /// with empty R_p fails with InvalidArgument and leaves the state as it
  /// was; any other failure leaves it unspecified.
  Status Apply(MdpState* state, const MdpAction& action, Pcg32& rng,
               double* cost) const;

  struct TransitionResult {
    MdpState state;
    /// Objects processed (Sec. 4.4). Reward = -cost.
    double cost = 0;
  };

  /// Value-returning forms of Apply: each copies `state` and applies one
  /// action to the copy. ApplyPlanAction fails on kExecute;
  /// SimulateExecute applies kExecute.
  StatusOr<MdpState> ApplyPlanAction(const MdpState& state,
                                     const MdpAction& action) const;
  StatusOr<TransitionResult> SimulateExecute(const MdpState& state, Pcg32& rng) const;
  StatusOr<TransitionResult> Step(const MdpState& state, const MdpAction& action,
                                  Pcg32& rng) const;

  const QuerySpec& query() const { return query_; }
  const Prior* prior() const { return prior_; }
  const Options& options() const { return options_; }

  /// The signature of the completed query.
  const ExprSig& GoalSig() const { return goal_; }

  /// Builds the leaf plan for joining `sig` (a member of R_e), applying
  /// any still-unapplied selection predicates over its relations.
  PlanNode::Ptr LeafFor(const ExprSig& sig) const;

  /// Output signatures of LeafFor / a join of two R_e members, computed
  /// without allocating plan nodes (hot path of LegalActions).
  ExprSig LeafSigFor(const ExprSig& sig) const;
  ExprSig JoinSigFor(const ExprSig& a, const ExprSig& b) const;

 private:
  bool JoinProposalOk(const ExprSig& a, const ExprSig& b) const;
  /// Join of two plans applying every predicate that becomes applicable.
  PlanNode::Ptr JoinOf(PlanNode::Ptr a, PlanNode::Ptr b) const;

  struct TermRels {
    int term_id;
    uint64_t rels;
  };

  const QuerySpec& query_;
  const Prior* prior_;
  Options options_;
  // Query-invariant tables built once by the constructor, so action
  // enumeration allocates nothing.
  ExprSig goal_;
  /// Every UDF term, in QuerySpec::AllTerms() order.
  std::vector<TermRels> terms_;
  /// PredicateRelMasks(query).
  std::vector<uint64_t> pred_rels_;
  /// ComponentMasks(query).
  std::vector<uint64_t> components_;
  /// Per-relation mask of selection predicate ids.
  std::vector<uint64_t> selection_masks_;
};

}  // namespace monsoon

#endif  // MONSOON_MDP_MDP_H_
