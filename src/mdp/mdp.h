#ifndef MONSOON_MDP_MDP_H_
#define MONSOON_MDP_MDP_H_

#include <map>
#include <string>
#include <utility>
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

/// R_e: materialized expression signatures with their cardinalities, in
/// one vector sorted by ExprSig. It iterates in the order a
/// std::map<ExprSig, double> would, which fixes the order LegalActions
/// emits R_e actions in, and copying it is one allocation (none when the
/// target's buffer is large enough, as for MCTS's rollout scratch state).
class ExecutedExprs {
 public:
  using Entry = std::pair<ExprSig, double>;
  using const_iterator = std::vector<Entry>::const_iterator;

  /// The cardinality of `sig`, inserted in order as 0 if absent.
  double& operator[](const ExprSig& sig);
  size_t count(const ExprSig& sig) const;
  size_t size() const { return entries_.size(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  bool operator==(const ExecutedExprs&) const = default;

 private:
  std::vector<Entry> entries_;
};

/// The MDP state (Sec. 4.1): planned expressions R_p, executed and
/// materialized expressions R_e (signature → known cardinality), and the
/// statistics S. QueryMdp::Apply mutates a state in place; MCTS copies a
/// state only where it keeps one (a tree node, or the one scratch state a
/// rollout steps). Plan trees are immutable and shared between copies.
struct MdpState {
  std::vector<PlanNode::Ptr> planned;   // R_p
  ExecutedExprs executed;               // R_e with c(r)
  StatsStore stats;                     // S

  std::string ToString(const QuerySpec& query) const;
};

/// What QueryMdp::LegalActions derives from R_e and S alone: per-entry
/// signatures and masks, which entries still have unknown statistics, and
/// the R_e pairs that may be joined. A caller that steps one state through
/// several planning actions (an MCTS rollout) passes one cache to every
/// LegalActions call on it and calls Invalidate() whenever R_e or S may
/// have changed: after an EXECUTE, or when it assigns another state.
/// Planning actions change only R_p, so they keep it valid. The cache
/// never changes which actions are emitted or their order.
class ActionCache {
 public:
  void Invalidate() { entries_ready_ = sigma_ready_ = pairs_ready_ = false; }

 private:
  friend class QueryMdp;

  struct Entry {
    ExprSig sig;
    ExprSig leaf;            // LeafSigFor(sig)
    uint64_t neighbors;      // relations adjacent to sig's (neighbors_)
    uint64_t component;      // ComponentOf(sig.rels)
    bool stats_unknown;      // Σ pruning verdict; valid once sigma_ready_
  };
  /// An R_e pair that is disjoint, may be joined, and whose result is not
  /// materialized yet; still to be filtered against R_p.
  struct Pair {
    uint32_t a;
    uint32_t b;
    ExprSig join;
  };

  std::vector<Entry> entries_;
  std::vector<Pair> pairs_;
  bool entries_ready_ = false;
  bool sigma_ready_ = false;
  bool pairs_ready_ = false;
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
  /// `*actions` (cleared first, so a caller can reuse one buffer). Safe to
  /// call concurrently on one QueryMdp: its per-call scratch is
  /// thread-local.
  void LegalActions(const MdpState& state, std::vector<MdpAction>* actions) const;
  std::vector<MdpAction> LegalActions(const MdpState& state) const;
  /// The same list, reusing what `*cache` holds about R_e and S (see
  /// ActionCache for when the caller must invalidate it).
  void LegalActions(const MdpState& state, std::vector<MdpAction>* actions,
                    ActionCache* cache) const;

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

  /// Output signature of LeafFor, computed without allocating plan nodes
  /// (hot path of LegalActions).
  ExprSig LeafSigFor(const ExprSig& sig) const;

 private:
  bool JoinProposalOk(const ExprSig& a, const ExprSig& b) const;
  /// JoinProposalOk for disjoint sides once the applicable join predicates
  /// are known: `a_component` is ComponentOf(a), `join_preds` the
  /// ApplicableJoinPredMask of the pair.
  bool JoinProposalOk(uint64_t a_component, uint64_t b_rels,
                      uint64_t join_preds) const;
  /// Union of neighbors_ over the relations in `rels`.
  uint64_t NeighborsOf(uint64_t rels) const;
  /// Fill the parts of an ActionCache that are not ready yet.
  void FillEntries(const MdpState& state, ActionCache* cache) const;
  void FillStatsUnknown(const MdpState& state, ActionCache* cache) const;
  void FillPairs(const MdpState& state, ActionCache* cache) const;
  /// Σ pruning: does an expression over `rels` have an evaluable term
  /// whose statistics are still unknown?
  bool StatsUnknownFor(const StatsStore& stats, uint64_t rels) const;
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
  /// Per-relation mask of the other relations it shares a multi-relation
  /// predicate with. A join predicate becomes applicable only between
  /// sides where one side's neighbors meet the other side, so a pair
  /// that fails this test skips ApplicableJoinPredMask (its mask is 0).
  std::vector<uint64_t> neighbors_;
  /// Per-relation mask of selection predicate ids.
  std::vector<uint64_t> selection_masks_;
};

}  // namespace monsoon

#endif  // MONSOON_MDP_MDP_H_
