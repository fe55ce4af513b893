#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "cost/cardinality.h"
#include "mdp/mdp.h"
#include "monsoon/monsoon_optimizer.h"
#include "plan/logical_ops.h"
#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

namespace monsoon {
namespace {

// The Sec. 2.3 example: R(1M), S(10k), T(10k), F1(R)=F2(S), F3(R)=F4(T).
class MdpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(query_.AddRelation("r", "rt").ok());
    ASSERT_TRUE(query_.AddRelation("s", "st").ok());
    ASSERT_TRUE(query_.AddRelation("t", "tt").ok());
    auto f1 = query_.MakeTerm("f1", {"r.a"});
    auto f2 = query_.MakeTerm("f2", {"s.b"});
    ASSERT_TRUE(query_.AddJoinPredicate(std::move(*f1), std::move(*f2)).ok());
    auto f3 = query_.MakeTerm("f3", {"r.a"});
    auto f4 = query_.MakeTerm("f4", {"t.c"});
    ASSERT_TRUE(query_.AddJoinPredicate(std::move(*f3), std::move(*f4)).ok());

    prior_ = MakePrior(PriorKind::kUniform);
    mdp_ = std::make_unique<QueryMdp>(query_, prior_.get(), QueryMdp::Options());

    base_counts_[ExprSig::Of(RelSet::Single(0), 0)] = 1e6;
    base_counts_[ExprSig::Of(RelSet::Single(1), 0)] = 1e4;
    base_counts_[ExprSig::Of(RelSet::Single(2), 0)] = 1e4;
  }

  MdpState Initial() const { return mdp_->InitialState(StatsStore(), base_counts_); }

  static int CountType(const std::vector<MdpAction>& actions, MdpAction::Type type) {
    return static_cast<int>(std::count_if(
        actions.begin(), actions.end(),
        [type](const MdpAction& a) { return a.type == type; }));
  }

  const MdpAction* FindType(const std::vector<MdpAction>& actions,
                            MdpAction::Type type) const {
    for (const auto& action : actions) {
      if (action.type == type) return &action;
    }
    return nullptr;
  }

  QuerySpec query_;
  std::unique_ptr<Prior> prior_;
  std::unique_ptr<QueryMdp> mdp_;
  std::map<ExprSig, double> base_counts_;
};

TEST_F(MdpTest, InitialStateHasBaseRelationsAndCounts) {
  MdpState state = Initial();
  EXPECT_TRUE(state.planned.empty());
  EXPECT_EQ(state.executed.size(), 3u);
  EXPECT_DOUBLE_EQ(*state.stats.LookupCount(ExprSig::Of(RelSet::Single(0), 0)), 1e6);
  EXPECT_FALSE(mdp_->IsTerminal(state));
}

TEST_F(MdpTest, GoalSignatureCoversEverything) {
  ExprSig goal = mdp_->GoalSig();
  EXPECT_EQ(goal.rels, 0b111u);
  EXPECT_EQ(goal.preds, 0b11u);
}

TEST_F(MdpTest, RootActionEnumeration) {
  MdpState state = Initial();
  std::vector<MdpAction> actions = mdp_->LegalActions(state);
  // Σ on each of R, S, T (all terms unknown) plus joins R-S and R-T.
  // S-T is neither connected nor forced, and R_p is empty so no EXECUTE.
  EXPECT_EQ(CountType(actions, MdpAction::Type::kAddStatsPlan), 3);
  EXPECT_EQ(CountType(actions, MdpAction::Type::kJoinExecExec), 2);
  EXPECT_EQ(CountType(actions, MdpAction::Type::kExecute), 0);
  EXPECT_EQ(actions.size(), 5u);
}

TEST_F(MdpTest, ActionToStringIsReadable) {
  MdpState state = Initial();
  for (const MdpAction& action : mdp_->LegalActions(state)) {
    EXPECT_FALSE(action.ToString(query_).empty());
  }
}

TEST_F(MdpTest, JoinActionAddsPlanAndUnlocksExecute) {
  MdpState state = Initial();
  std::vector<MdpAction> actions = mdp_->LegalActions(state);
  const MdpAction* join = FindType(actions, MdpAction::Type::kJoinExecExec);
  ASSERT_NE(join, nullptr);
  auto next = mdp_->ApplyPlanAction(state, *join);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->planned.size(), 1u);

  std::vector<MdpAction> after = mdp_->LegalActions(*next);
  EXPECT_EQ(CountType(after, MdpAction::Type::kExecute), 1);
  // The planned join can be topped with Σ.
  EXPECT_GE(CountType(after, MdpAction::Type::kTopWithStats), 1);
  // The remaining base relation can join into the plan.
  EXPECT_GE(CountType(after, MdpAction::Type::kJoinExecPlan), 1);
}

TEST_F(MdpTest, NoDuplicatePlans) {
  MdpState state = Initial();
  std::vector<MdpAction> join_legal = mdp_->LegalActions(state);
  const MdpAction* join = FindType(join_legal, MdpAction::Type::kJoinExecExec);
  ASSERT_NE(join, nullptr);
  auto next = mdp_->ApplyPlanAction(state, *join);
  ASSERT_TRUE(next.ok());
  // The same pair must not be proposable again.
  for (const MdpAction& action : mdp_->LegalActions(*next)) {
    if (action.type == MdpAction::Type::kJoinExecExec) {
      EXPECT_FALSE(action.exec_a == join->exec_a && action.exec_b == join->exec_b);
    }
  }
}

TEST_F(MdpTest, SimulateExecuteMaterializesAndCosts) {
  Pcg32 rng(31);
  MdpState state = Initial();
  std::vector<MdpAction> join_legal = mdp_->LegalActions(state);
  const MdpAction* join = FindType(join_legal, MdpAction::Type::kJoinExecExec);
  auto planned = mdp_->ApplyPlanAction(state, *join);
  ASSERT_TRUE(planned.ok());
  PlanNode::Ptr tree = planned->planned[0];

  auto result = mdp_->SimulateExecute(*planned, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->state.planned.empty());
  EXPECT_EQ(result->state.executed.size(), 4u);
  EXPECT_GT(result->cost, 0);
  // The new expression's cardinality is recorded in S.
  EXPECT_TRUE(result->state.stats.LookupCount(tree->output_sig()).has_value());
}

TEST_F(MdpTest, SimulatedStatisticsStayConsistent) {
  // Two consecutive EXECUTEs referencing the same statistic must agree:
  // the sample hardened by the first is reused by the second.
  Pcg32 rng(32);
  MdpState state = Initial();
  std::vector<MdpAction> join_legal = mdp_->LegalActions(state);
  const MdpAction* join = FindType(join_legal, MdpAction::Type::kJoinExecExec);
  auto planned = mdp_->ApplyPlanAction(state, *join);
  auto exec1 = mdp_->SimulateExecute(*planned, rng);
  ASSERT_TRUE(exec1.ok());
  double c_first = *exec1->state.stats.LookupCount(planned->planned[0]->output_sig());

  // Re-plan the same join in the post-execution state: the cardinality
  // model must return the recorded value, not a fresh sample.
  CardinalityModel::Options options;
  options.missing_policy = MissingStatPolicy::kSampleFromPrior;
  options.prior = prior_.get();
  Pcg32 rng2(99);
  options.rng = &rng2;
  StatsStore stats_copy = exec1->state.stats;
  CardinalityModel model(query_, &stats_copy, options);
  auto estimate = model.EstimatePlan(planned->planned[0]);
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(estimate->cardinality, c_first);
}

TEST_F(MdpTest, StatsPlanCollectsPerPartnerSamples) {
  Pcg32 rng(33);
  MdpState state = Initial();
  const MdpAction* sigma_s = nullptr;
  std::vector<MdpAction> legal = mdp_->LegalActions(state);
  for (const MdpAction& action : legal) {
    if (action.type == MdpAction::Type::kAddStatsPlan &&
        action.exec_a == ExprSig::Of(RelSet::Single(1), 0)) {
      sigma_s = &action;
    }
  }
  ASSERT_NE(sigma_s, nullptr);
  auto planned = mdp_->ApplyPlanAction(state, *sigma_s);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned->planned[0]->kind(), PlanNode::Kind::kStatsCollect);

  auto result = mdp_->SimulateExecute(*planned, rng);
  ASSERT_TRUE(result.ok());
  // F2's statistic over S with partner R must now be hardened.
  const Predicate& pred0 = query_.predicate(0);
  ExprSig s_sig = ExprSig::Of(RelSet::Single(1), 0);
  ExprSig r_sig = ExprSig::Of(RelSet::Single(0), 0);
  EXPECT_TRUE(result->state.stats
                  .LookupDistinct(pred0.right->term_id, s_sig, r_sig)
                  .has_value());
  // Σ costs two passes over S: scan + collect.
  EXPECT_DOUBLE_EQ(result->cost, 2e4);
}

TEST_F(MdpTest, SigmaPrunedOnceStatisticsKnown) {
  MdpState state = Initial();
  // Observe everything about S's term (F2, term id from pred 0 right).
  state.stats.SetDistinctObserved(query_.predicate(0).right->term_id,
                                  ExprSig::Of(RelSet::Single(1), 0), 123);
  int sigma_s = 0;
  for (const MdpAction& action : mdp_->LegalActions(state)) {
    if (action.type == MdpAction::Type::kAddStatsPlan &&
        action.exec_a == ExprSig::Of(RelSet::Single(1), 0)) {
      ++sigma_s;
    }
  }
  EXPECT_EQ(sigma_s, 0) << "Σ(S) learns nothing once d(F2, S) is known";
}

TEST_F(MdpTest, FullEpisodeReachesTerminal) {
  Pcg32 rng(34);
  MdpState state = Initial();
  // Join R-S, join T into the plan, EXECUTE.
  const MdpAction* join_rs = nullptr;
  std::vector<MdpAction> legal = mdp_->LegalActions(state);
  for (const MdpAction& action : legal) {
    if (action.type == MdpAction::Type::kJoinExecExec &&
        action.exec_a == ExprSig::Of(RelSet::Single(0), 0) &&
        action.exec_b == ExprSig::Of(RelSet::Single(1), 0)) {
      join_rs = &action;
    }
  }
  ASSERT_NE(join_rs, nullptr);
  auto s1 = mdp_->ApplyPlanAction(state, *join_rs);
  ASSERT_TRUE(s1.ok());

  std::vector<MdpAction> join_t_legal = mdp_->LegalActions(*s1);
  const MdpAction* join_t = FindType(join_t_legal, MdpAction::Type::kJoinExecPlan);
  ASSERT_NE(join_t, nullptr);
  auto s2 = mdp_->ApplyPlanAction(*s1, *join_t);
  ASSERT_TRUE(s2.ok());
  ASSERT_EQ(s2->planned.size(), 1u);
  EXPECT_EQ(s2->planned[0]->output_sig(), mdp_->GoalSig());

  auto done = mdp_->SimulateExecute(*s2, rng);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(mdp_->IsTerminal(done->state));
  EXPECT_TRUE(mdp_->LegalActions(done->state).empty());
}

TEST_F(MdpTest, ExecuteOnEmptyPlanFails) {
  Pcg32 rng(35);
  MdpState state = Initial();
  EXPECT_EQ(mdp_->SimulateExecute(state, rng).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MdpTest, StepRoutesActions) {
  Pcg32 rng(36);
  MdpState state = Initial();
  std::vector<MdpAction> join_legal = mdp_->LegalActions(state);
  const MdpAction* join = FindType(join_legal, MdpAction::Type::kJoinExecExec);
  auto planning = mdp_->Step(state, *join, rng);
  ASSERT_TRUE(planning.ok());
  EXPECT_DOUBLE_EQ(planning->cost, 0) << "planning actions are free";

  MdpAction execute;
  execute.type = MdpAction::Type::kExecute;
  auto executed = mdp_->Step(planning->state, execute, rng);
  ASSERT_TRUE(executed.ok());
  EXPECT_GT(executed->cost, 0);
}

TEST_F(MdpTest, StatsActionsCanBeDisabled) {
  QueryMdp::Options options;
  options.enable_stats_actions = false;
  QueryMdp mdp(query_, prior_.get(), options);
  MdpState state = mdp.InitialState(StatsStore(), base_counts_);
  for (const MdpAction& action : mdp.LegalActions(state)) {
    EXPECT_NE(action.type, MdpAction::Type::kAddStatsPlan);
    EXPECT_NE(action.type, MdpAction::Type::kTopWithStats);
  }
  // Joins are still available, so the query remains completable.
  EXPECT_EQ(mdp.LegalActions(state).size(), 2u);
}

TEST_F(MdpTest, OverlappingPlainPlansArePruned) {
  // After planning (R ⋈ S), proposing (R ⋈ T) as a second Σ-less plan is
  // dominated (the trees can never merge) and must not be offered.
  MdpState state = Initial();
  const MdpAction* join_rs = nullptr;
  std::vector<MdpAction> legal = mdp_->LegalActions(state);
  for (const MdpAction& action : legal) {
    if (action.type == MdpAction::Type::kJoinExecExec) {
      join_rs = &action;
      break;
    }
  }
  ASSERT_NE(join_rs, nullptr);
  auto next = mdp_->ApplyPlanAction(state, *join_rs);
  ASSERT_TRUE(next.ok());
  for (const MdpAction& action : mdp_->LegalActions(*next)) {
    EXPECT_NE(action.type, MdpAction::Type::kJoinExecExec)
        << "every remaining pair overlaps the planned join";
  }
}

TEST_F(MdpTest, DisconnectedRelationsGetForcedCrossProduct) {
  QuerySpec query;
  ASSERT_TRUE(query.AddRelation("a", "at").ok());
  ASSERT_TRUE(query.AddRelation("b", "bt").ok());
  // No predicates: the only way forward is a cross product.
  auto prior = MakePrior(PriorKind::kUniform);
  QueryMdp mdp(query, prior.get(), QueryMdp::Options());
  std::map<ExprSig, double> counts;
  counts[ExprSig::Of(RelSet::Single(0), 0)] = 10;
  counts[ExprSig::Of(RelSet::Single(1), 0)] = 10;
  MdpState state = mdp.InitialState(StatsStore(), counts);
  std::vector<MdpAction> actions = mdp.LegalActions(state);
  bool has_join = false;
  for (const MdpAction& action : actions) {
    if (action.type == MdpAction::Type::kJoinExecExec) has_join = true;
  }
  EXPECT_TRUE(has_join);
}

// ---------------------------------------------------------------------------
// In-place transition ≡ value transition, over every query of the four
// generated suites. MCTS rollouts step one long-lived scratch state in
// place (its containers keep their history across walks) and enumerate
// actions into one reused buffer; the value path steps a fresh copy each
// time. Every step must agree on the state, the cost and the RNG stream.
// ---------------------------------------------------------------------------

std::vector<Workload> AllSuites() {
  std::vector<Workload> out;
  auto add = [&out](StatusOr<Workload> w) {
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    if (w.ok()) out.push_back(std::move(*w));
  };
  TpchOptions tpch;
  tpch.scale = 0.01;
  add(MakeTpchWorkload(tpch));
  ImdbOptions imdb;
  imdb.scale = 0.02;
  add(MakeImdbWorkload(imdb));
  OttOptions ott;
  ott.rows_per_table = 400;
  ott.key_cardinality = 30;
  add(MakeOttWorkload(ott));
  UdfBenchOptions udf;
  udf.scale = 0.02;
  add(MakeUdfBenchWorkload(udf));
  return out;
}

std::vector<std::string> PlannedTrees(const MdpState& state, const QuerySpec& query) {
  std::vector<std::string> out;
  for (const PlanNode::Ptr& tree : state.planned) {
    out.push_back(tree->ToString(query) + " " + tree->output_sig().ToString());
  }
  return out;
}

// Two generators are in the same state iff they draw the same values.
bool SameStream(const Pcg32& a, const Pcg32& b) {
  Pcg32 ca = a;
  Pcg32 cb = b;
  for (int i = 0; i < 4; ++i) {
    if (ca.Next() != cb.Next()) return false;
  }
  return true;
}

TEST(MdpInPlaceTest, ApplyMatchesValueTransitionOnRandomWalks) {
  std::vector<Workload> suites = AllSuites();
  ASSERT_EQ(suites.size(), 4u);
  MdpState scratch;  // stepped in place, reused across every walk
  std::vector<MdpAction> buffer;
  int steps = 0;
  int executes = 0;
  for (const Workload& workload : suites) {
    auto prior = MakePrior(PriorKind::kSpikeAndSlab);
    for (const BenchQuery& query : workload.queries) {
      SCOPED_TRACE(workload.name + "/" + query.name);
      std::map<ExprSig, double> base_counts;
      for (int i = 0; i < query.spec.num_relations(); ++i) {
        auto rows = workload.catalog->RowCount(query.spec.relation(i).table_name);
        ASSERT_TRUE(rows.ok());
        base_counts[ExprSig::Of(RelSet::Single(i), 0)] = static_cast<double>(*rows);
      }
      QueryMdp mdp(query.spec, prior.get(), QueryMdp::Options());
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        MdpState value = mdp.InitialState(StatsStore(), base_counts);
        scratch = value;
        Pcg32 walk(seed, 7);
        Pcg32 rng_in_place(seed);
        Pcg32 rng_value(seed);
        for (int depth = 0; depth < 96 && !mdp.IsTerminal(value); ++depth) {
          mdp.LegalActions(scratch, &buffer);
          std::vector<MdpAction> fresh = mdp.LegalActions(value);
          ASSERT_EQ(buffer, fresh) << "depth " << depth;
          ASSERT_FALSE(fresh.empty());
          const MdpAction& action =
              buffer[walk.NextBounded(static_cast<uint32_t>(buffer.size()))];

          double cost = -1;
          ASSERT_TRUE(mdp.Apply(&scratch, action, rng_in_place, &cost).ok());
          auto step = mdp.Step(value, action, rng_value);
          ASSERT_TRUE(step.ok()) << step.status().ToString();
          value = std::move(step->state);
          ++steps;
          if (action.IsExecute()) ++executes;

          EXPECT_EQ(cost, step->cost) << action.ToString(query.spec);
          EXPECT_TRUE(SameStream(rng_in_place, rng_value));
          EXPECT_EQ(scratch.executed, value.executed);
          EXPECT_EQ(PlannedTrees(scratch, query.spec), PlannedTrees(value, query.spec));
          EXPECT_EQ(scratch.stats.Fingerprint(), value.stats.Fingerprint());
          EXPECT_EQ(scratch.stats.num_counts(), value.stats.num_counts());
          EXPECT_EQ(scratch.stats.num_distincts(), value.stats.num_distincts());
          EXPECT_EQ(mdp.IsTerminal(scratch), mdp.IsTerminal(value));
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
  // Guard against a vacuous pass.
  EXPECT_GT(steps, 1000);
  EXPECT_GT(executes, 100);
}

TEST_F(MdpTest, ApplyRejectsBadActionsWithoutTouchingTheState) {
  MdpState state = Initial();
  Pcg32 rng(5);
  double cost = -1;
  MdpAction bad;
  bad.type = MdpAction::Type::kJoinPlanPlan;
  bad.plan_a = 0;
  bad.plan_b = 1;
  EXPECT_EQ(mdp_->Apply(&state, bad, rng, &cost).code(), StatusCode::kInvalidArgument);
  MdpAction execute;
  execute.type = MdpAction::Type::kExecute;
  EXPECT_EQ(mdp_->Apply(&state, execute, rng, &cost).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mdp_->ApplyPlanAction(state, execute).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(state.planned.empty());
  EXPECT_EQ(state.executed, Initial().executed);
  EXPECT_EQ(state.stats.Fingerprint(), Initial().stats.Fingerprint());
  EXPECT_TRUE(SameStream(rng, Pcg32(5)));
}

// The predicate-scan and union-find definitions the mask tables replaced,
// kept here as oracles.
std::vector<int> ScanApplicableJoinPreds(const QuerySpec& query, const ExprSig& left,
                                         const ExprSig& right) {
  std::vector<int> out;
  RelSet lrels(left.rels);
  RelSet rrels(right.rels);
  RelSet union_rels = lrels.Union(rrels);
  uint64_t applied = left.preds | right.preds;
  for (const Predicate& pred : query.predicates()) {
    if ((applied >> pred.pred_id) & 1) continue;
    RelSet prels = pred.rels();
    if (!union_rels.ContainsAll(prels)) continue;
    if (lrels.ContainsAll(prels) || rrels.ContainsAll(prels)) continue;
    out.push_back(pred.pred_id);
  }
  return out;
}

bool UnionFindCrossProductUnavoidable(const QuerySpec& query, RelSet a, RelSet b) {
  int n = query.num_relations();
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Predicate& pred : query.predicates()) {
    auto indices = pred.rels().Indices();
    for (size_t i = 1; i < indices.size(); ++i) {
      int ra = find(indices[0]);
      int rb = find(indices[i]);
      if (ra != rb) parent[ra] = rb;
    }
  }
  for (int ia : a.Indices()) {
    for (int ib : b.Indices()) {
      if (find(ia) == find(ib)) return false;
    }
  }
  return true;
}

TEST(MdpInPlaceTest, MaskTablesMatchTheScanDefinitions) {
  int pairs = 0;
  for (const Workload& workload : AllSuites()) {
    for (const BenchQuery& query : workload.queries) {
      SCOPED_TRACE(workload.name + "/" + query.name);
      const QuerySpec& spec = query.spec;
      std::vector<uint64_t> pred_rels = PredicateRelMasks(spec);
      std::vector<uint64_t> components = ComponentMasks(spec);
      int n = spec.num_relations();
      ASSERT_LE(n, 12) << "enumeration below is exponential in n";
      uint64_t all = (uint64_t{1} << n) - 1;
      // Predicates applied inside an expression over `rels`: none, or all
      // that it covers (as after a fully-filtered join).
      auto inside = [&](uint64_t rels) {
        uint64_t preds = 0;
        for (size_t id = 0; id < pred_rels.size(); ++id) {
          if ((pred_rels[id] & ~rels) == 0) preds |= uint64_t{1} << id;
        }
        return preds;
      };
      for (uint64_t a = 1; a <= all; ++a) {
        for (uint64_t b = 1; b <= all; ++b) {
          RelSet ra(a);
          RelSet rb(b);
          ASSERT_EQ((ComponentOf(components, ra) & b) == 0,
                    UnionFindCrossProductUnavoidable(spec, ra, rb));
          if ((a & b) != 0) continue;
          for (uint64_t pa : {uint64_t{0}, inside(a)}) {
            for (uint64_t pb : {uint64_t{0}, inside(b)}) {
              ExprSig left{a, pa};
              ExprSig right{b, pb};
              std::vector<int> expected = ScanApplicableJoinPreds(spec, left, right);
              ASSERT_EQ(ApplicableJoinPredMask(pred_rels, left, right),
                        PredMask(expected));
              ASSERT_EQ(ApplicableJoinPreds(spec, left, right), expected);
              ++pairs;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(pairs, 10000);
}

// ---------------------------------------------------------------------------
// The scan-based enumerator that the term index, the neighbor masks, the
// flat R_e and the ActionCache replaced, kept as the oracle for
// LegalActions: every pair of R_e entries goes through the full
// join-predicate check, Σ pruning scans every distinct entry, and
// HasStatsCollect walks the tree. Both the uncached call and a cache kept
// across a walk's planning steps must match it action for action.
// ---------------------------------------------------------------------------

bool TreeHasStatsCollect(const PlanNode& node) {
  if (node.kind() == PlanNode::Kind::kStatsCollect) return true;
  if (node.left() && TreeHasStatsCollect(*node.left())) return true;
  if (node.right() && TreeHasStatsCollect(*node.right())) return true;
  return false;
}

bool ScanHasDistinctInfo(const StatsStore& stats, int term_id, RelSet rels) {
  bool found = false;
  stats.ForEachDistinct([&](int term, const ExprSig& expr, const ExprSig&, double) {
    if (term == term_id && rels.ContainsAll(RelSet(expr.rels))) found = true;
  });
  return found;
}

std::vector<MdpAction> ScanLegalActions(const QueryMdp& mdp, const MdpState& state) {
  const QuerySpec& query = mdp.query();
  const QueryMdp::Options& options = mdp.options();
  std::vector<MdpAction> actions;
  if (mdp.IsTerminal(state)) return actions;
  bool planned_full = static_cast<int>(state.planned.size()) >= options.max_planned;

  auto join_ok = [&](const ExprSig& a, const ExprSig& b) {
    if ((a.rels & b.rels) != 0) return false;
    if (!ScanApplicableJoinPreds(query, a, b).empty()) return true;
    if (options.allow_unconstrained_cross_products) return true;
    return UnionFindCrossProductUnavoidable(query, RelSet(a.rels), RelSet(b.rels));
  };
  auto join_sig = [&](const ExprSig& a, const ExprSig& b) {
    ExprSig la = mdp.LeafSigFor(a);
    ExprSig lb = mdp.LeafSigFor(b);
    return ExprSig{la.rels | lb.rels,
                   la.preds | lb.preds | PredMask(ScanApplicableJoinPreds(query, la, lb))};
  };
  auto planned_dup = [&](const ExprSig& out_sig) {
    for (const auto& tree : state.planned) {
      if (tree->output_sig() == out_sig) return true;
    }
    for (const auto& [sig, count] : state.executed) {
      if (sig == out_sig) return true;
    }
    return false;
  };
  auto stats_unknown_for = [&](uint64_t rels) {
    for (const UdfTerm* term : query.AllTerms()) {
      if (!RelSet(rels).ContainsAll(term->rels)) continue;
      if (!ScanHasDistinctInfo(state.stats, term->term_id, RelSet(rels))) return true;
    }
    return false;
  };
  auto overlaps_planned = [&](uint64_t rels, int exclude_idx) {
    for (size_t i = 0; i < state.planned.size(); ++i) {
      if (static_cast<int>(i) == exclude_idx) continue;
      if (TreeHasStatsCollect(*state.planned[i])) continue;
      if ((state.planned[i]->output_sig().rels & rels) != 0) return true;
    }
    return false;
  };
  auto sigma_dup = [&](const ExprSig& out_sig) {
    for (const auto& tree : state.planned) {
      if (tree->kind() == PlanNode::Kind::kStatsCollect &&
          tree->output_sig() == out_sig) {
        return true;
      }
    }
    return false;
  };
  auto push = [&](MdpAction::Type type, ExprSig exec_a, ExprSig exec_b, int plan_a,
                  int plan_b) {
    MdpAction action;
    action.type = type;
    action.exec_a = exec_a;
    action.exec_b = exec_b;
    action.plan_a = plan_a;
    action.plan_b = plan_b;
    actions.push_back(action);
  };

  if (!planned_full && options.enable_stats_actions) {
    for (const auto& [sig, count] : state.executed) {
      if (!stats_unknown_for(sig.rels)) continue;
      if (sigma_dup(mdp.LeafSigFor(sig))) continue;
      push(MdpAction::Type::kAddStatsPlan, sig, {}, -1, -1);
    }
  }
  for (size_t i = 0; options.enable_stats_actions && i < state.planned.size(); ++i) {
    if (TreeHasStatsCollect(*state.planned[i])) continue;
    if (!stats_unknown_for(state.planned[i]->output_sig().rels)) continue;
    push(MdpAction::Type::kTopWithStats, {}, {}, static_cast<int>(i), -1);
  }
  if (!planned_full) {
    for (auto it_a = state.executed.begin(); it_a != state.executed.end(); ++it_a) {
      for (auto it_b = std::next(it_a); it_b != state.executed.end(); ++it_b) {
        const ExprSig& a = it_a->first;
        const ExprSig& b = it_b->first;
        if (!join_ok(a, b)) continue;
        if (overlaps_planned(a.rels | b.rels, -1)) continue;
        if (planned_dup(join_sig(a, b))) continue;
        push(MdpAction::Type::kJoinExecExec, a, b, -1, -1);
      }
    }
  }
  for (size_t i = 0; i < state.planned.size(); ++i) {
    if (TreeHasStatsCollect(*state.planned[i])) continue;
    for (size_t j = i + 1; j < state.planned.size(); ++j) {
      if (TreeHasStatsCollect(*state.planned[j])) continue;
      if (!join_ok(state.planned[i]->output_sig(), state.planned[j]->output_sig())) {
        continue;
      }
      push(MdpAction::Type::kJoinPlanPlan, {}, {}, static_cast<int>(i),
           static_cast<int>(j));
    }
  }
  for (size_t j = 0; j < state.planned.size(); ++j) {
    if (TreeHasStatsCollect(*state.planned[j])) continue;
    const ExprSig& b = state.planned[j]->output_sig();
    for (const auto& [sig, count] : state.executed) {
      ExprSig leaf_sig = mdp.LeafSigFor(sig);
      if (!join_ok(leaf_sig, b)) continue;
      if (overlaps_planned(sig.rels | b.rels, static_cast<int>(j))) continue;
      ExprSig out{leaf_sig.rels | b.rels,
                  leaf_sig.preds | b.preds |
                      PredMask(ScanApplicableJoinPreds(query, leaf_sig, b))};
      if (state.executed.count(out) > 0) continue;
      bool dup = false;
      for (size_t k = 0; k < state.planned.size(); ++k) {
        if (k != j && state.planned[k]->output_sig() == out) dup = true;
      }
      if (dup) continue;
      push(MdpAction::Type::kJoinExecPlan, sig, {}, static_cast<int>(j), -1);
    }
  }
  if (!state.planned.empty()) push(MdpAction::Type::kExecute, {}, {}, -1, -1);
  return actions;
}

// Learned statistics of one real Monsoon run per query, as the server's
// memo would hand them to the next run of the same query (empty when the
// run did not finish).
StatsStore LearnedStats(const Workload& workload, const BenchQuery& query) {
  MonsoonOptimizer::Options options;
  options.mcts.iterations = 24;
  options.mcts_workers = 1;
  options.work_budget = 3000000;
  StatsStore learned;
  options.learned_stats_out = &learned;
  MonsoonOptimizer monsoon(workload.catalog.get(), options);
  monsoon.Run(query.spec);
  return learned;
}

TEST(MdpEnumerationOracleTest, LegalActionsMatchTheScanEnumerator) {
  std::vector<Workload> suites = AllSuites();
  ASSERT_EQ(suites.size(), 4u);
  QueryMdp::Options cross_products;
  cross_products.allow_unconstrained_cross_products = true;
  QueryMdp::Options no_stats;
  no_stats.enable_stats_actions = false;
  no_stats.max_planned = 4;
  const QueryMdp::Options variants[] = {QueryMdp::Options(), cross_products, no_stats};
  std::vector<MdpAction> buffer;
  std::vector<MdpAction> cached;
  ActionCache cache;  // kept across a walk's planning steps, as in a rollout
  int steps = 0;
  int warm_steps = 0;
  int joins = 0;
  for (const Workload& workload : suites) {
    auto prior = MakePrior(PriorKind::kSpikeAndSlab);
    for (const BenchQuery& query : workload.queries) {
      SCOPED_TRACE(workload.name + "/" + query.name);
      std::map<ExprSig, double> base_counts;
      for (int i = 0; i < query.spec.num_relations(); ++i) {
        auto rows = workload.catalog->RowCount(query.spec.relation(i).table_name);
        ASSERT_TRUE(rows.ok());
        base_counts[ExprSig::Of(RelSet::Single(i), 0)] = static_cast<double>(*rows);
      }
      const StatsStore warm = LearnedStats(workload, query);
      for (size_t v = 0; v < std::size(variants); ++v) {
        QueryMdp mdp(query.spec, prior.get(), variants[v]);
        for (uint64_t seed = 1; seed <= 4; ++seed) {
          // Even seeds start from the warm memo, odd seeds cold.
          bool warm_start = seed % 2 == 0;
          MdpState state =
              mdp.InitialState(warm_start ? warm : StatsStore(), base_counts);
          Pcg32 walk(seed, 3 + v);
          Pcg32 rng(seed);
          cache.Invalidate();
          for (int depth = 0; depth < 96 && !mdp.IsTerminal(state); ++depth) {
            mdp.LegalActions(state, &buffer);
            ASSERT_EQ(buffer, ScanLegalActions(mdp, state))
                << "variant " << v << " seed " << seed << " depth " << depth << "\n"
                << state.ToString(query.spec);
            mdp.LegalActions(state, &cached, &cache);
            ASSERT_EQ(cached, buffer) << "variant " << v << " seed " << seed
                                      << " depth " << depth << " (cached)";
            ASSERT_FALSE(buffer.empty());
            for (const MdpAction& action : buffer) {
              if (action.type == MdpAction::Type::kJoinExecExec ||
                  action.type == MdpAction::Type::kJoinExecPlan) {
                ++joins;
              }
            }
            MdpAction action =
                buffer[walk.NextBounded(static_cast<uint32_t>(buffer.size()))];
            double cost = 0;
            if (action.IsExecute()) cache.Invalidate();
            ASSERT_TRUE(mdp.Apply(&state, action, rng, &cost).ok());
            ++steps;
            if (warm_start && warm.num_distincts() > 0) ++warm_steps;
          }
        }
      }
    }
  }
  // Guard against a vacuous pass.
  EXPECT_GT(steps, 5000);
  EXPECT_GT(warm_steps, 1000);
  EXPECT_GT(joins, 10000);
}

}  // namespace
}  // namespace monsoon
