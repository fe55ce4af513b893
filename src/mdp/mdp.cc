#include "mdp/mdp.h"

#include <algorithm>
#include <sstream>

#include "cost/cardinality.h"
#include "plan/logical_ops.h"

namespace monsoon {

std::string MdpAction::ToString(const QuerySpec& query) const {
  auto rels_name = [&](const ExprSig& sig) {
    std::string out;
    for (int idx : RelSet(sig.rels).Indices()) {
      if (!out.empty()) out += "⋈";
      out += query.relation(idx).alias;
    }
    return out;
  };
  switch (type) {
    case Type::kAddStatsPlan:
      return "plan Σ(" + rels_name(exec_a) + ")";
    case Type::kTopWithStats:
      return "top plan #" + std::to_string(plan_a) + " with Σ";
    case Type::kJoinExecExec:
      return "plan (" + rels_name(exec_a) + " ⋈ " + rels_name(exec_b) + ")";
    case Type::kJoinPlanPlan:
      return "join plans #" + std::to_string(plan_a) + ", #" + std::to_string(plan_b);
    case Type::kJoinExecPlan:
      return "join " + rels_name(exec_a) + " into plan #" + std::to_string(plan_a);
    case Type::kExecute:
      return "EXECUTE";
  }
  return "?";
}

namespace {

bool EntryBefore(const ExecutedExprs::Entry& entry, const ExprSig& sig) {
  return entry.first < sig;
}

}  // namespace

double& ExecutedExprs::operator[](const ExprSig& sig) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), sig, EntryBefore);
  if (it == entries_.end() || it->first != sig) it = entries_.insert(it, Entry{sig, 0.0});
  return it->second;
}

size_t ExecutedExprs::count(const ExprSig& sig) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), sig, EntryBefore);
  return it != entries_.end() && it->first == sig ? 1 : 0;
}

std::string MdpState::ToString(const QuerySpec& query) const {
  std::ostringstream out;
  out << "R_p = {";
  for (size_t i = 0; i < planned.size(); ++i) {
    if (i > 0) out << ", ";
    out << planned[i]->ToString(query);
  }
  out << "}  R_e = {";
  bool first = true;
  for (const auto& [sig, count] : executed) {
    if (!first) out << ", ";
    first = false;
    out << sig.ToString() << ":" << count;
  }
  out << "}  |S| = " << stats.num_counts() << "+" << stats.num_distincts();
  return out.str();
}

QueryMdp::QueryMdp(const QuerySpec& query, const Prior* prior, Options options)
    : query_(query),
      prior_(prior),
      options_(options),
      goal_(ExprSig::Of(query.AllRelations(), query.AllPredicatesMask())),
      pred_rels_(PredicateRelMasks(query)),
      components_(ComponentMasks(query)) {
  for (const UdfTerm* term : query.AllTerms()) {
    terms_.push_back(TermRels{term->term_id, term->rels.mask()});
  }
  neighbors_.resize(query.num_relations(), 0);
  for (uint64_t prels : pred_rels_) {
    for (uint64_t m = prels; m != 0; m &= m - 1) {
      neighbors_[__builtin_ctzll(m)] |= prels & ~(m & -m);
    }
  }
  selection_masks_.resize(query.num_relations(), 0);
  for (int rel = 0; rel < query.num_relations(); ++rel) {
    for (int pred_id : query.SelectionPredicatesOn(rel)) {
      selection_masks_[rel] |= uint64_t{1} << pred_id;
    }
  }
}

MdpState QueryMdp::InitialState(const StatsStore& initial_stats,
                                const std::map<ExprSig, double>& base_counts) const {
  MdpState state;
  state.stats = initial_stats;
  for (const auto& [sig, count] : base_counts) {
    state.executed[sig] = count;
    state.stats.SetCount(sig, count);
  }
  return state;
}

bool QueryMdp::IsTerminal(const MdpState& state) const {
  return state.executed.count(goal_) > 0;
}

PlanNode::Ptr QueryMdp::LeafFor(const ExprSig& sig) const {
  // Relations ascending, then predicate ids ascending within a relation:
  // the order the cardinality model resolves (and samples) selections in.
  std::vector<int> unapplied;
  for (uint64_t rels = sig.rels; rels != 0; rels &= rels - 1) {
    for (uint64_t m = selection_masks_[__builtin_ctzll(rels)] & ~sig.preds; m != 0;
         m &= m - 1) {
      unapplied.push_back(__builtin_ctzll(m));
    }
  }
  return PlanNode::Leaf(sig, std::move(unapplied));
}

ExprSig QueryMdp::LeafSigFor(const ExprSig& sig) const {
  uint64_t preds = sig.preds;
  uint64_t rels = sig.rels;
  while (rels != 0) {
    int rel = __builtin_ctzll(rels);
    rels &= rels - 1;
    preds |= selection_masks_[rel];
  }
  return ExprSig{sig.rels, preds};
}

PlanNode::Ptr QueryMdp::JoinOf(PlanNode::Ptr a, PlanNode::Ptr b) const {
  std::vector<int> preds;
  for (uint64_t m = ApplicableJoinPredMask(pred_rels_, a->output_sig(), b->output_sig());
       m != 0; m &= m - 1) {
    preds.push_back(__builtin_ctzll(m));
  }
  return PlanNode::Join(std::move(a), std::move(b), std::move(preds));
}

uint64_t QueryMdp::NeighborsOf(uint64_t rels) const {
  uint64_t out = 0;
  for (; rels != 0; rels &= rels - 1) out |= neighbors_[__builtin_ctzll(rels)];
  return out;
}

bool QueryMdp::JoinProposalOk(uint64_t a_component, uint64_t b_rels,
                              uint64_t join_preds) const {
  if (join_preds != 0) return true;
  if (options_.allow_unconstrained_cross_products) return true;
  // A cross product is still proposed when the query graph itself leaves
  // the two sides disconnected (it has to happen eventually).
  return (a_component & b_rels) == 0;
}

bool QueryMdp::JoinProposalOk(const ExprSig& a, const ExprSig& b) const {
  if ((a.rels & b.rels) != 0) return false;
  return JoinProposalOk(ComponentOf(components_, RelSet(a.rels)), b.rels,
                        ApplicableJoinPredMask(pred_rels_, a, b));
}

std::vector<MdpAction> QueryMdp::LegalActions(const MdpState& state) const {
  std::vector<MdpAction> actions;
  LegalActions(state, &actions);
  return actions;
}

void QueryMdp::LegalActions(const MdpState& state,
                            std::vector<MdpAction>* actions) const {
  // Root-parallel workers enumerate concurrently, so the scratch cache is
  // thread-local; it keeps its capacity across calls.
  static thread_local ActionCache cache;
  cache.Invalidate();
  LegalActions(state, actions, &cache);
}

bool QueryMdp::StatsUnknownFor(const StatsStore& stats, uint64_t rels) const {
  for (const TermRels& term : terms_) {
    if ((term.rels & ~rels) != 0) continue;
    if (!stats.HasDistinctInfo(term.term_id, RelSet(rels))) return true;
  }
  return false;
}

void QueryMdp::FillEntries(const MdpState& state, ActionCache* cache) const {
  cache->entries_.clear();
  for (const auto& [sig, count] : state.executed) {
    cache->entries_.push_back(ActionCache::Entry{
        sig, LeafSigFor(sig), NeighborsOf(sig.rels),
        ComponentOf(components_, RelSet(sig.rels)), false});
  }
  cache->entries_ready_ = true;
}

void QueryMdp::FillStatsUnknown(const MdpState& state, ActionCache* cache) const {
  for (ActionCache::Entry& entry : cache->entries_) {
    entry.stats_unknown = StatsUnknownFor(state.stats, entry.sig.rels);
  }
  cache->sigma_ready_ = true;
}

void QueryMdp::FillPairs(const MdpState& state, ActionCache* cache) const {
  // A pair whose neighbor masks do not meet has no applicable join
  // predicate, so it skips ApplicableJoinPredMask; only the cross-product
  // rule can still admit it.
  const std::vector<ActionCache::Entry>& entries = cache->entries_;
  cache->pairs_.clear();
  for (size_t i = 0; i < entries.size(); ++i) {
    const ActionCache::Entry& a = entries[i];
    for (size_t k = i + 1; k < entries.size(); ++k) {
      const ActionCache::Entry& b = entries[k];
      if ((a.sig.rels & b.sig.rels) != 0) continue;
      uint64_t join_preds = (a.neighbors & b.sig.rels) != 0
                                ? ApplicableJoinPredMask(pred_rels_, a.leaf, b.leaf)
                                : 0;
      if (!JoinProposalOk(a.component, b.sig.rels, join_preds)) continue;
      ExprSig join{a.sig.rels | b.sig.rels, a.leaf.preds | b.leaf.preds | join_preds};
      if (state.executed.count(join) > 0) continue;
      cache->pairs_.push_back(
          ActionCache::Pair{static_cast<uint32_t>(i), static_cast<uint32_t>(k), join});
    }
  }
  cache->pairs_ready_ = true;
}

void QueryMdp::LegalActions(const MdpState& state, std::vector<MdpAction>* actions,
                            ActionCache* cache) const {
  actions->clear();
  if (IsTerminal(state)) return;
  if (!cache->entries_ready_) FillEntries(state, cache);
  const std::vector<ActionCache::Entry>& entries = cache->entries_;

  int max_planned = options_.max_planned;
  bool planned_full = static_cast<int>(state.planned.size()) >= max_planned;

  auto planned_sig_except = [&](const ExprSig& out_sig, int exclude_idx) {
    for (size_t k = 0; k < state.planned.size(); ++k) {
      if (static_cast<int>(k) == exclude_idx) continue;
      if (state.planned[k]->output_sig() == out_sig) return true;
    }
    return false;
  };

  // Two Σ-less planned trees with overlapping relation sets can never
  // both feed the final expression (joins require disjoint inputs), so
  // one of them would be wasted work. Join proposals whose result would
  // overlap another Σ-less planned tree are dominated and pruned.
  // Σ-topped trees are exempt: they exist to gather statistics. This is
  // the relations of the Σ-less trees other than `exclude_idx`.
  auto plain_planned_rels = [&](int exclude_idx) {
    uint64_t rels = 0;
    for (size_t i = 0; i < state.planned.size(); ++i) {
      if (static_cast<int>(i) == exclude_idx) continue;
      if (state.planned[i]->HasStatsCollect()) continue;
      rels |= state.planned[i]->output_sig().rels;
    }
    return rels;
  };

  // A Σ plan creates statistics, not a new expression, so its duplicate
  // check only looks for an identical Σ already planned (its output
  // signature may legitimately already be materialized).
  auto sigma_dup = [&](const ExprSig& out_sig) {
    for (const auto& tree : state.planned) {
      if (tree->kind() == PlanNode::Kind::kStatsCollect &&
          tree->output_sig() == out_sig) {
        return true;
      }
    }
    return false;
  };

  // (1) Copy r ∈ R_e topped with Σ.
  if (!planned_full && options_.enable_stats_actions) {
    if (!cache->sigma_ready_) FillStatsUnknown(state, cache);
    for (const ActionCache::Entry& entry : entries) {
      if (!entry.stats_unknown) continue;
      if (sigma_dup(entry.leaf)) continue;
      MdpAction action;
      action.type = MdpAction::Type::kAddStatsPlan;
      action.exec_a = entry.sig;
      actions->push_back(action);
    }
  }

  // (2) Top a planned expression with Σ.
  for (size_t i = 0; options_.enable_stats_actions && i < state.planned.size();
       ++i) {
    const PlanNode::Ptr& tree = state.planned[i];
    if (tree->HasStatsCollect()) continue;
    if (!StatsUnknownFor(state.stats, tree->output_sig().rels)) continue;
    MdpAction action;
    action.type = MdpAction::Type::kTopWithStats;
    action.plan_a = static_cast<int>(i);
    actions->push_back(action);
  }

  // (3) Join two materialized expressions: the cached candidate pairs,
  // filtered against R_p.
  if (!planned_full) {
    if (!cache->pairs_ready_) FillPairs(state, cache);
    uint64_t plain_rels = plain_planned_rels(-1);
    for (const ActionCache::Pair& pair : cache->pairs_) {
      if ((pair.join.rels & plain_rels) != 0) continue;
      if (planned_sig_except(pair.join, -1)) continue;
      MdpAction action;
      action.type = MdpAction::Type::kJoinExecExec;
      action.exec_a = entries[pair.a].sig;
      action.exec_b = entries[pair.b].sig;
      actions->push_back(action);
    }
  }

  // (4) Join two planned expressions (neither contains Σ).
  for (size_t i = 0; i < state.planned.size(); ++i) {
    if (state.planned[i]->HasStatsCollect()) continue;
    for (size_t j = i + 1; j < state.planned.size(); ++j) {
      if (state.planned[j]->HasStatsCollect()) continue;
      if (!JoinProposalOk(state.planned[i]->output_sig(),
                          state.planned[j]->output_sig())) {
        continue;
      }
      MdpAction action;
      action.type = MdpAction::Type::kJoinPlanPlan;
      action.plan_a = static_cast<int>(i);
      action.plan_b = static_cast<int>(j);
      actions->push_back(action);
    }
  }

  // (5) Join a materialized expression into a planned one, with the same
  // neighbor-mask filter as the R_e pairs.
  for (size_t j = 0; j < state.planned.size(); ++j) {
    if (state.planned[j]->HasStatsCollect()) continue;
    const ExprSig& b = state.planned[j]->output_sig();
    uint64_t other_rels = plain_planned_rels(static_cast<int>(j));
    for (const ActionCache::Entry& a : entries) {
      if ((a.sig.rels & b.rels) != 0) continue;
      uint64_t join_preds = (a.neighbors & b.rels) != 0
                                ? ApplicableJoinPredMask(pred_rels_, a.leaf, b)
                                : 0;
      if (!JoinProposalOk(a.component, b.rels, join_preds)) continue;
      if (((a.sig.rels | b.rels) & other_rels) != 0) continue;
      ExprSig join_sig{a.leaf.rels | b.rels, a.leaf.preds | b.preds | join_preds};
      if (state.executed.count(join_sig) > 0) continue;
      if (planned_sig_except(join_sig, static_cast<int>(j))) continue;
      MdpAction action;
      action.type = MdpAction::Type::kJoinExecPlan;
      action.exec_a = a.sig;
      action.plan_a = static_cast<int>(j);
      actions->push_back(action);
    }
  }

  // (6) EXECUTE.
  if (!state.planned.empty()) {
    MdpAction action;
    action.type = MdpAction::Type::kExecute;
    actions->push_back(action);
  }
}

namespace {

// After a simulated Σ over `expr` (cardinality c_expr), harden a distinct
// count for every UDF term evaluable over it, against every "useful"
// partner: the relation set on the other side of each predicate the term
// participates in (Sec. 4.3).
void SimulateStatsCollection(const QuerySpec& query, const ExprSig& expr,
                             double c_expr, const Prior& prior, Pcg32& rng,
                             StatsStore* stats) {
  RelSet expr_rels(expr.rels);
  std::vector<int> seen_terms;
  for (const Predicate& pred : query.predicates()) {
    const UdfTerm* terms[2] = {&pred.left,
                               pred.right.has_value() ? &*pred.right : nullptr};
    for (int side = 0; side < 2; ++side) {
      const UdfTerm* term = terms[side];
      if (term == nullptr) continue;
      if (!expr_rels.ContainsAll(term->rels)) continue;
      const UdfTerm* other = terms[1 - side];
      if (other != nullptr && !expr_rels.ContainsAll(other->rels)) {
        // Join predicate with an external partner.
        ExprSig partner = ExprSig::Of(other->rels, 0);
        if (stats->LookupDistinct(term->term_id, expr, partner).has_value()) continue;
        double c_partner;
        if (auto known = stats->LookupCountByRels(other->rels)) {
          c_partner = *known;
        } else {
          // Partner not materialized: bound by the product of its base
          // relation sizes.
          c_partner = 1;
          for (int rel : other->rels.Indices()) {
            auto base = stats->LookupCount(ExprSig::Of(RelSet::Single(rel), 0));
            c_partner *= base.value_or(1.0);
          }
        }
        double d = prior.Sample(rng, c_expr, c_partner);
        stats->SetDistinct(term->term_id, expr, partner, d);
      } else {
        // Selection predicate, or a join predicate fully inside the
        // expression: harden a partner-independent value once.
        if (std::find(seen_terms.begin(), seen_terms.end(), term->term_id) !=
            seen_terms.end()) {
          continue;
        }
        seen_terms.push_back(term->term_id);
        if (stats->LookupDistinct(term->term_id, expr, ExprSig::Any()).has_value()) {
          continue;
        }
        double d = prior.Sample(rng, c_expr, c_expr);
        stats->SetDistinctObserved(term->term_id, expr, d);
      }
    }
  }
}

}  // namespace

Status QueryMdp::Apply(MdpState* state, const MdpAction& action, Pcg32& rng,
                       double* cost) const {
  *cost = 0;
  std::vector<PlanNode::Ptr>& planned = state->planned;
  auto plan_index_ok = [&](int i) {
    return i >= 0 && i < static_cast<int>(planned.size());
  };
  switch (action.type) {
    case MdpAction::Type::kAddStatsPlan:
      planned.push_back(PlanNode::StatsCollect(LeafFor(action.exec_a)));
      return Status::OK();
    case MdpAction::Type::kTopWithStats:
      if (!plan_index_ok(action.plan_a)) {
        return Status::InvalidArgument("bad plan index in kTopWithStats");
      }
      planned[action.plan_a] = PlanNode::StatsCollect(std::move(planned[action.plan_a]));
      return Status::OK();
    case MdpAction::Type::kJoinExecExec:
      planned.push_back(JoinOf(LeafFor(action.exec_a), LeafFor(action.exec_b)));
      return Status::OK();
    case MdpAction::Type::kJoinPlanPlan: {
      int i = action.plan_a;
      int j = action.plan_b;
      if (i < 0 || j <= i || !plan_index_ok(j)) {
        return Status::InvalidArgument("bad plan indices in kJoinPlanPlan");
      }
      PlanNode::Ptr a = std::move(planned[i]);
      PlanNode::Ptr b = std::move(planned[j]);
      planned.erase(planned.begin() + j);
      planned.erase(planned.begin() + i);
      planned.push_back(JoinOf(std::move(a), std::move(b)));
      return Status::OK();
    }
    case MdpAction::Type::kJoinExecPlan: {
      int j = action.plan_a;
      if (!plan_index_ok(j)) {
        return Status::InvalidArgument("bad plan index in kJoinExecPlan");
      }
      planned[j] = JoinOf(LeafFor(action.exec_a), std::move(planned[j]));
      return Status::OK();
    }
    case MdpAction::Type::kExecute: {
      if (planned.empty()) return Status::InvalidArgument("EXECUTE with empty R_p");

      CardinalityModel::Options model_options;
      model_options.missing_policy = MissingStatPolicy::kSampleFromPrior;
      model_options.prior = prior_;
      model_options.rng = &rng;
      model_options.record_counts = true;
      CardinalityModel model(query_, &state->stats, model_options);

      double total_cost = 0;
      for (const PlanNode::Ptr& tree : planned) {
        MONSOON_ASSIGN_OR_RETURN(CardinalityModel::PlanEstimate est,
                                 model.EstimatePlan(tree));
        total_cost += est.cost;
        ExprSig sig = tree->output_sig();
        state->executed[sig] = est.cardinality;
        state->stats.SetCount(sig, est.cardinality);
        if (tree->kind() == PlanNode::Kind::kStatsCollect) {
          SimulateStatsCollection(query_, sig, est.cardinality, *prior_, rng,
                                  &state->stats);
        }
      }
      planned.clear();
      *cost = total_cost;
      return Status::OK();
    }
  }
  return Status::Internal("unknown action type");
}

StatusOr<QueryMdp::TransitionResult> QueryMdp::Step(const MdpState& state,
                                                    const MdpAction& action,
                                                    Pcg32& rng) const {
  TransitionResult result;
  result.state = state;
  MONSOON_RETURN_IF_ERROR(Apply(&result.state, action, rng, &result.cost));
  return result;
}

StatusOr<QueryMdp::TransitionResult> QueryMdp::SimulateExecute(const MdpState& state,
                                                               Pcg32& rng) const {
  MdpAction execute;
  execute.type = MdpAction::Type::kExecute;
  return Step(state, execute, rng);
}

StatusOr<MdpState> QueryMdp::ApplyPlanAction(const MdpState& state,
                                             const MdpAction& action) const {
  if (action.IsExecute()) {
    return Status::InvalidArgument("kExecute is not a planning action");
  }
  Pcg32 no_draws;  // planning actions draw nothing
  MONSOON_ASSIGN_OR_RETURN(TransitionResult result, Step(state, action, no_draws));
  return std::move(result.state);
}

}  // namespace monsoon
