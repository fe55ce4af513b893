// Cross-run determinism under real thread parallelism: the paper's
// experiments are only comparable when the same seed reproduces the same
// optimizer decisions and the same execution statistics regardless of how
// the OS schedules the pool's workers. Two same-seed runs at threads = 4
// must match bit-for-bit — on the merged MCTS root statistics and on the
// parallel Σ / execution results.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "catalog/stats_store.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/materialized_store.h"
#include "mcts/root_parallel.h"
#include "monsoon/monsoon_optimizer.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "parallel/runtime.h"
#include "parallel/thread_pool.h"
#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

namespace monsoon {
namespace {

// ---------------------------------------------------------------------------
// Root-parallel MCTS: merged root edges are a deterministic function of
// (seed, workers), independent of scheduling — see mcts/root_parallel.h.
// ---------------------------------------------------------------------------

class TwoPointPrior : public Prior {
 public:
  PriorKind kind() const override { return PriorKind::kUniform; }  // unused
  double Sample(Pcg32& rng, double c_r, double c_s) const override {
    (void)c_s;
    if (c_r == 1e4) return rng.NextDouble() < 0.5 ? 1.0 : 1e4;
    return 1000.0;
  }
};

class MctsDeterminismTest : public ::testing::Test {
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
    mdp_ = std::make_unique<QueryMdp>(query_, &prior_, QueryMdp::Options());
    base_counts_[ExprSig::Of(RelSet::Single(0), 0)] = 1e6;
    base_counts_[ExprSig::Of(RelSet::Single(1), 0)] = 1e4;
    base_counts_[ExprSig::Of(RelSet::Single(2), 0)] = 1e4;
  }

  MdpState Initial() const { return mdp_->InitialState(StatsStore(), base_counts_); }

  struct RootRun {
    MdpAction action;
    MctsSearch::SearchInfo info;
  };

  RootRun Run(parallel::ThreadPool* pool, uint64_t seed) {
    RootParallelMcts::Options options;
    options.search.iterations = 1200;
    options.search.seed = seed;
    options.workers = 4;
    RootParallelMcts search(mdp_.get(), options, pool);
    auto action = search.SearchBestAction(Initial());
    EXPECT_TRUE(action.ok()) << action.status().ToString();
    return {action.ok() ? *action : MdpAction{}, search.last_info()};
  }

  static void ExpectIdentical(const RootRun& a, const RootRun& b) {
    EXPECT_EQ(a.action.type, b.action.type);
    EXPECT_EQ(a.action.exec_a, b.action.exec_a);
    EXPECT_EQ(a.action.exec_b, b.action.exec_b);
    EXPECT_EQ(a.info.iterations_run, b.info.iterations_run);
    ASSERT_EQ(a.info.root_edges.size(), b.info.root_edges.size());
    for (size_t i = 0; i < a.info.root_edges.size(); ++i) {
      const auto& ea = a.info.root_edges[i];
      const auto& eb = b.info.root_edges[i];
      EXPECT_EQ(ea.action.type, eb.action.type) << "edge " << i;
      EXPECT_EQ(ea.action.exec_a, eb.action.exec_a) << "edge " << i;
      EXPECT_EQ(ea.visits, eb.visits) << "edge " << i;
      // Bit-identical, not approximately equal: the merge combines worker
      // results in worker order, so the float ops happen in one order.
      EXPECT_EQ(ea.mean_return, eb.mean_return) << "edge " << i;
    }
  }

  QuerySpec query_;
  TwoPointPrior prior_;
  std::unique_ptr<QueryMdp> mdp_;
  std::map<ExprSig, double> base_counts_;
};

TEST_F(MctsDeterminismTest, SameSeedSameMergeAcrossPoolRuns) {
  parallel::ThreadPool pool(4);
  RootRun first = Run(&pool, 991);
  RootRun second = Run(&pool, 991);
  ExpectIdentical(first, second);
  // A different seed must be allowed to disagree on the statistics (the
  // chosen action may coincide); this guards against the runs comparing
  // trivially-equal constants.
  RootRun other = Run(&pool, 17);
  bool any_diff = other.info.root_edges.size() != first.info.root_edges.size();
  for (size_t i = 0; !any_diff && i < first.info.root_edges.size(); ++i) {
    any_diff = first.info.root_edges[i].visits != other.info.root_edges[i].visits ||
               first.info.root_edges[i].mean_return !=
                   other.info.root_edges[i].mean_return;
  }
  EXPECT_TRUE(any_diff) << "seed is not reaching the per-worker searches";
}

// ---------------------------------------------------------------------------
// Trace determinism: span ids and sequence numbers come from per-lane
// Pcg32 streams reset by StartTracing — never from the clock — so two
// same-seed serial runs must produce byte-identical trace files once the
// two wall-clock fields (ts, dur) are zeroed out.
// ---------------------------------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void ZeroWallClockFields(obs::JsonValue* doc) {
  obs::JsonValue* events = doc->FindMutable("traceEvents");
  ASSERT_NE(events, nullptr);
  for (obs::JsonValue& event : events->array) {
    for (const char* field : {"ts", "dur"}) {
      obs::JsonValue* value = event.FindMutable(field);
      if (value != nullptr) {
        value->number = 0;
        value->number_text = "0";
      }
    }
  }
}

TEST_F(MctsDeterminismTest, SameSeedTracesAreByteIdenticalModuloTime) {
  // pool = nullptr runs the 4 logical MCTS workers inline on this thread,
  // in worker order, so lane contents (not just per-lane streams) are
  // reproducible. Parallel runs keep per-lane determinism; cross-lane
  // interleaving is scheduling-dependent, which is why the byte-level
  // guarantee is stated for serial runs.
  std::vector<std::string> serialized;
  for (const char* tag : {"a", "b"}) {
    std::string path =
        ::testing::TempDir() + "/determinism_trace_" + tag + ".json";
    ASSERT_TRUE(obs::StartTracing(path, /*seed=*/0xfeed).ok());
    Run(nullptr, 991);
    ASSERT_TRUE(obs::StopTracing().ok());
    auto doc = obs::JsonParse(ReadWholeFile(path));
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    ZeroWallClockFields(&*doc);
    serialized.push_back(doc->Serialize());
  }
  // Guard against the comparison passing vacuously on empty traces.
  EXPECT_NE(serialized[0].find("\"cat\":\"mcts\""), std::string::npos);
  EXPECT_EQ(serialized[0], serialized[1]);
}

TEST_F(MctsDeterminismTest, PoolAndSequentialWorkersAgree) {
  // Null pool runs the same 4 logical workers on the caller thread; the
  // merged statistics must not depend on where the workers ran.
  parallel::ThreadPool pool(4);
  RootRun threaded = Run(&pool, 2024);
  RootRun sequential = Run(nullptr, 2024);
  ExpectIdentical(threaded, sequential);
}

// ---------------------------------------------------------------------------
// Parallel execution + Σ: same plan, same pool width, two runs -> identical
// row sets, accounting totals, observed counts and HLL distinct estimates.
// ---------------------------------------------------------------------------

struct ExecRun {
  uint64_t rows = 0;
  uint64_t work_units = 0;
  uint64_t objects = 0;
  std::vector<std::string> fingerprints;
  std::vector<std::pair<ExprSig, uint64_t>> counts;
  std::vector<DistinctObservation> distincts;
};

std::vector<std::string> RowFingerprints(const Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    std::string fp;
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      fp += table.row(i).GetValue(c).ToString();
      fp += '\x1f';
    }
    rows.push_back(std::move(fp));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

StatusOr<ExecRun> RunOnce(const Workload& workload, const BenchQuery& query,
                          const PlanNode::Ptr& plan, parallel::ThreadPool* pool) {
  MONSOON_ASSIGN_OR_RETURN(
      MaterializedStore store,
      MaterializedStore::ForQuery(*workload.catalog, query.spec));
  Executor executor(query.spec, &UdfRegistry::Global());
  ExecContext ctx;
  ctx.SetParallel(pool, /*morsel_size=*/37);
  MONSOON_ASSIGN_OR_RETURN(ExecResult exec, executor.Execute(plan, &store, &ctx));
  ExecRun run;
  run.rows = exec.output.table->num_rows();
  run.work_units = ctx.work_units();
  run.objects = ctx.objects_processed();
  run.fingerprints = RowFingerprints(*exec.output.table);
  run.counts = exec.observed_counts;
  std::sort(run.counts.begin(), run.counts.end());
  run.distincts = exec.observed_distincts;
  std::sort(run.distincts.begin(), run.distincts.end(),
            [](const DistinctObservation& a, const DistinctObservation& b) {
              return a.term_id != b.term_id ? a.term_id < b.term_id
                                            : a.expr < b.expr;
            });
  return run;
}

TEST(ExecDeterminismTest, SameSeedSameSigmaResultsAcrossRuns) {
  TpchOptions options;
  options.scale = 0.05;
  options.skew = SkewProfile::kHigh;
  auto workload = MakeTpchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  parallel::ThreadPool pool(4);
  size_t checked = 0;
  for (const BenchQuery& query : workload->queries) {
    if (checked++ >= 3) break;
    SCOPED_TRACE(query.name);
    PlanNode::Ptr plan = query.hand_plan;
    if (plan == nullptr) {
      StatsStore stats;
      for (int i = 0; i < query.spec.num_relations(); ++i) {
        auto rows = workload->catalog->RowCount(query.spec.relation(i).table_name);
        ASSERT_TRUE(rows.ok());
        stats.SetCount(ExprSig::Of(RelSet::Single(i), 0),
                       static_cast<double>(*rows));
      }
      auto plan_or = GreedyOptimizer().Optimize(query.spec, stats);
      ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
      plan = *plan_or;
    }
    plan = PlanNode::StatsCollect(plan);  // Σ pass exercises the HLL merge

    auto first = RunOnce(*workload, query, plan, &pool);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    auto second = RunOnce(*workload, query, plan, &pool);
    ASSERT_TRUE(second.ok()) << second.status().ToString();

    EXPECT_EQ(first->rows, second->rows);
    EXPECT_EQ(first->fingerprints, second->fingerprints);
    EXPECT_EQ(first->work_units, second->work_units);
    EXPECT_EQ(first->objects, second->objects);
    ASSERT_EQ(first->counts.size(), second->counts.size());
    for (size_t i = 0; i < first->counts.size(); ++i) {
      EXPECT_EQ(first->counts[i], second->counts[i]);
    }
    ASSERT_EQ(first->distincts.size(), second->distincts.size());
    for (size_t i = 0; i < first->distincts.size(); ++i) {
      EXPECT_EQ(first->distincts[i].term_id, second->distincts[i].term_id);
      EXPECT_EQ(first->distincts[i].expr, second->distincts[i].expr);
      EXPECT_EQ(first->distincts[i].distinct_count,
                second->distincts[i].distinct_count);
    }
  }
  EXPECT_GT(checked, 0u);
}

// ---------------------------------------------------------------------------
// Cross-version plan identity: the committed MCTS action sequence and the
// work accounting of every query in the four generated suites, pinned as
// constants. The same-seed pins above compare two runs of one build, so
// they cannot see a change in action enumeration order or in the RNG draw
// sequence; these constants can. A planner change that is meant to be
// behaviour-preserving (a faster MDP transition, a cheaper LegalActions)
// must leave every line unchanged.
// ---------------------------------------------------------------------------

struct PlanPin {
  const char* query;
  uint64_t actions_hash;  // FNV-1a over RunResult::action_log
  uint64_t objects;
  uint64_t work_units;
};

uint64_t HashActionLog(const std::vector<std::string>& log) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& entry : log) {
    for (unsigned char c : entry) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;  // entry separator
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<Workload> PinWorkloads() {
  std::vector<Workload> out;
  TpchOptions tpch;
  tpch.scale = 0.03;
  ImdbOptions imdb;
  imdb.scale = 0.05;
  OttOptions ott;
  ott.rows_per_table = 1200;
  ott.key_cardinality = 40;
  UdfBenchOptions udf;
  udf.scale = 0.05;
  auto add = [&out](StatusOr<Workload> w) {
    EXPECT_TRUE(w.ok()) << w.status().ToString();
    if (w.ok()) out.push_back(std::move(*w));
  };
  add(MakeTpchWorkload(tpch));
  add(MakeImdbWorkload(imdb));
  add(MakeOttWorkload(ott));
  add(MakeUdfBenchWorkload(udf));
  return out;
}

// Runs Monsoon over every pinned query at `threads` (root-parallel MCTS
// with that many workers, execution on a pool of that width) and compares
// against `expected`. On mismatch it prints the full observed table in
// source form. A query that exhausts its work budget on a pool pins only
// its action log (objects and work_units read 0): how far the parallel
// operators overshoot the budget depends on which morsels finished before
// the check saw it.
void ExpectPlansMatchPins(int threads, const std::vector<PlanPin>& expected) {
  parallel::Config saved = parallel::DefaultConfig();
  parallel::Config config = saved;
  config.num_threads = threads;
  config.mcts_workers = threads;
  parallel::SetDefaultConfig(config);

  MonsoonOptimizer::Options options;
  options.mcts.iterations = 48;
  options.work_budget = 3000000;
  options.seed = 0x5eed;
  std::vector<PlanPin> observed;
  std::vector<std::string> names;
  for (const Workload& workload : PinWorkloads()) {
    for (const BenchQuery& query : workload.queries) {
      MonsoonOptimizer monsoon(workload.catalog.get(), options);
      RunResult result = monsoon.Run(query.spec);
      names.push_back(workload.name + "/" + query.name);
      bool partial = threads > 1 && result.timed_out();
      observed.push_back(PlanPin{nullptr, HashActionLog(result.action_log),
                                 partial ? 0 : result.objects_processed,
                                 partial ? 0 : result.work_units});
    }
  }
  parallel::SetDefaultConfig(saved);

  std::ostringstream table;
  for (size_t i = 0; i < observed.size(); ++i) {
    table << "      {\"" << names[i] << "\", 0x" << std::hex
          << observed[i].actions_hash << std::dec << "ULL, "
          << observed[i].objects << "u, " << observed[i].work_units << "u},\n";
  }
  ASSERT_EQ(observed.size(), expected.size()) << "observed pins:\n" << table.str();
  for (size_t i = 0; i < observed.size(); ++i) {
    SCOPED_TRACE(names[i]);
    EXPECT_EQ(names[i], expected[i].query);
    EXPECT_EQ(observed[i].actions_hash, expected[i].actions_hash);
    EXPECT_EQ(observed[i].objects, expected[i].objects);
    EXPECT_EQ(observed[i].work_units, expected[i].work_units);
  }
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << "observed pins:\n" << table.str();
  }
}

TEST(PlanIdentityTest, SerialPlansMatchPinnedConstants) {
  ExpectPlansMatchPins(1, {
      {"tpch-uniform/tpch-q1", 0xcb15d5f5ff8e861aULL, 3742u, 7417u},
      {"tpch-uniform/tpch-q2", 0x92cfce0dbd87e3feULL, 1113u, 2591u},
      {"tpch-uniform/tpch-q3", 0xb71663e1b6dce29cULL, 4303u, 7297u},
      {"tpch-uniform/tpch-q4", 0x19ca34bb69deabddULL, 693u, 1384u},
      {"tpch-uniform/tpch-q5", 0xc696bf179f44eb55ULL, 8288u, 14755u},
      {"tpch-uniform/tpch-q6", 0xf30ac0405b302ce3ULL, 4934u, 7890u},
      {"tpch-uniform/tpch-q7", 0xfb323b17b4e95f23ULL, 128u, 254u},
      {"tpch-uniform/tpch-q8", 0x753ef993e57f8fd9ULL, 3461u, 5900u},
      {"imdb/imdb-q1", 0x83ce082128e33cb5ULL, 2553u, 5553u},
      {"imdb/imdb-q2", 0x83ce082128e33cb5ULL, 1695u, 3411u},
      {"imdb/imdb-q3", 0x83ce082128e33cb5ULL, 1550u, 3050u},
      {"imdb/imdb-q4", 0x9b7814139323e7f3ULL, 2201u, 4442u},
      {"imdb/imdb-q5", 0x9b7814139323e7f3ULL, 2199u, 4437u},
      {"imdb/imdb-q6", 0x9b7814139323e7f3ULL, 2179u, 4387u},
      {"imdb/imdb-q7", 0x99262b51a053a177ULL, 11284u, 24821u},
      {"imdb/imdb-q8", 0x99262b51a053a177ULL, 10568u, 23053u},
      {"imdb/imdb-q9", 0x99262b51a053a177ULL, 9345u, 19991u},
      {"imdb/imdb-q10", 0xdc37dc7347569908ULL, 10010u, 17815u},
      {"imdb/imdb-q11", 0xdc37dc7347569908ULL, 8363u, 14420u},
      {"imdb/imdb-q12", 0xdc37dc7347569908ULL, 8145u, 13971u},
      {"imdb/imdb-q13", 0xc5e898a44d696bdeULL, 84952u, 171883u},
      {"imdb/imdb-q14", 0xc5e898a44d696bdeULL, 75526u, 152003u},
      {"imdb/imdb-q15", 0x4b507bb39e3ebbf6ULL, 4503u, 8006u},
      {"imdb/imdb-q16", 0x4b507bb39e3ebbf6ULL, 5831u, 10662u},
      {"imdb/imdb-q17", 0x4b507bb39e3ebbf6ULL, 4545u, 8090u},
      {"imdb/imdb-q18", 0x4489d128578db1b0ULL, 24751u, 49493u},
      {"imdb/imdb-q19", 0x4489d128578db1b0ULL, 8828u, 17180u},
      {"imdb/imdb-q20", 0xe865bcfca3c53b61ULL, 9012u, 15793u},
      {"imdb/imdb-q21", 0xe865bcfca3c53b61ULL, 8999u, 15472u},
      {"imdb/imdb-q22", 0xf060f874ad7cc054ULL, 10213u, 16893u},
      {"imdb/imdb-q23", 0xaeddca09271e424ULL, 18210u, 35992u},
      {"imdb/imdb-q24", 0xaeddca09271e424ULL, 10977u, 21526u},
      {"imdb/imdb-q25", 0x8736a71e5ecf2e6ULL, 33631u, 74819u},
      {"imdb/imdb-q26", 0x55a2c95487e74640ULL, 1410557u, 3563294u},
      {"imdb/imdb-q27", 0xf6a18f8a78edfa39ULL, 1981u, 3320u},
      {"imdb/imdb-q28", 0xf6a18f8a78edfa39ULL, 1975u, 3300u},
      {"imdb/imdb-q29", 0x73a3a7d8317fa683ULL, 7405u, 13077u},
      {"imdb/imdb-q30", 0x73a3a7d8317fa683ULL, 5386u, 8543u},
      {"ott/ott-q1", 0x7a138bb7b0e8c0eeULL, 39600u, 115200u},
      {"ott/ott-q2", 0x4d3288602bd03a1cULL, 39600u, 115200u},
      {"ott/ott-q3", 0x4d3288602bd03a1cULL, 3600u, 7200u},
      {"ott/ott-q4", 0x4d3288602bd03a1cULL, 39600u, 115200u},
      {"ott/ott-q5", 0xbb10dc8d4ef95783ULL, 40800u, 117600u},
      {"ott/ott-q6", 0xbb10dc8d4ef95783ULL, 40800u, 117600u},
      {"ott/ott-q7", 0xb9eba9ac8ccacdbfULL, 50400u, 93600u},
      {"ott/ott-q8", 0xfb69023dcfc22e83ULL, 1161600u, 3000001u},
      {"ott/ott-q9", 0xb8351fcdb224483fULL, 76800u, 225600u},
      {"ott/ott-q10", 0xb8351fcdb224483fULL, 40800u, 117600u},
      {"ott/ott-q11", 0xbb10dc8d4ef95783ULL, 1120800u, 3000001u},
      {"ott/ott-q12", 0x6f4d1fd37837937bULL, 1160400u, 3000001u},
      {"ott/ott-q13", 0x6ad1d7773911ccdcULL, 82800u, 127200u},
      {"ott/ott-q14", 0x39772c791303fec8ULL, 80400u, 3000001u},
      {"ott/ott-q15", 0x297a7969855904afULL, 42000u, 120000u},
      {"ott/ott-q16", 0xd7e11f34d732e8b7ULL, 80400u, 3000001u},
      {"ott/ott-q17", 0x993f30e589414a98ULL, 1124400u, 3000001u},
      {"ott/ott-q18", 0x993f30e589414a98ULL, 1160400u, 3000001u},
      {"ott/ott-q19", 0xd31a9b0de7a505b9ULL, 1160400u, 3000001u},
      {"ott/ott-q20", 0x137a3537a27724b6ULL, 1122000u, 3000001u},
      {"udf/udf-q1", 0xf9061a73205ab88cULL, 2553u, 4292u},
      {"udf/udf-q2", 0x40b9a8db66ac7340ULL, 639u, 842u},
      {"udf/udf-q3", 0x40b9a8db66ac7340ULL, 631u, 819u},
      {"udf/udf-q4", 0x29c10d95d3721650ULL, 2424u, 3460u},
      {"udf/udf-q5", 0xa2e23be70d043312ULL, 2615u, 3656u},
      {"udf/udf-q6", 0x7305301c004d2c67ULL, 1134u, 2008u},
      {"udf/udf-q7", 0x7aae39454e5b0794ULL, 1502u, 2404u},
      {"udf/udf-q8", 0x7aae39454e5b0794ULL, 1509u, 2420u},
      {"udf/udf-q9", 0xa1c47d422c9cfcdULL, 4043u, 9570u},
      {"udf/udf-q10", 0xa44d9c80f9150d23ULL, 1152u, 1877u},
      {"udf/udf-q11", 0x85cb3b9bcbbf4555ULL, 2387u, 3505u},
      {"udf/udf-q12", 0x828a15d652006676ULL, 968u, 1167u},
      {"udf/udf-q13", 0x67417093f1eb45dULL, 1292u, 2188u},
      {"udf/udf-q14", 0xda22e25b72b65545ULL, 1108u, 1919u},
      {"udf/udf-q15", 0xf9b46d57faedd3e9ULL, 4956u, 9672u},
      {"udf/udf-q16", 0xf1eb441754287666ULL, 2905u, 5485u},
      {"udf/udf-q17", 0xe3824feba0adcdc3ULL, 3185u, 7775u},
      {"udf/udf-q18", 0x8ad10c604ea98d74ULL, 5912u, 14767u},
      {"udf/udf-q19", 0x7a489a1282bc31a2ULL, 1345u, 2656u},
      {"udf/udf-q20", 0xb55a58dd649ded83ULL, 2350u, 3950u},
      {"udf/udf-q21", 0x69e7237f447ea929ULL, 1368u, 2228u},
      {"udf/udf-q22", 0x6eec783e271e116ULL, 3825u, 7650u},
      {"udf/udf-q23", 0x29df2d5256a1dcc5ULL, 2705u, 4610u},
      {"udf/udf-q24", 0x6f531891f6a853fbULL, 1822u, 4235u},
      {"udf/udf-q25", 0xc78745274e990d6bULL, 3831u, 7322u},
  });
}

TEST(PlanIdentityTest, RootParallelPlansMatchPinnedConstants) {
  ExpectPlansMatchPins(2, {
      {"tpch-uniform/tpch-q1", 0xc0b96937b43f8eaULL, 3504u, 7179u},
      {"tpch-uniform/tpch-q2", 0x92cfce0dbd87e3feULL, 1113u, 2591u},
      {"tpch-uniform/tpch-q3", 0x82a4a74be60f8b5aULL, 3943u, 7475u},
      {"tpch-uniform/tpch-q4", 0xaa8581992ed23846ULL, 1838u, 4423u},
      {"tpch-uniform/tpch-q5", 0xd19b08dba864c422ULL, 8368u, 22059u},
      {"tpch-uniform/tpch-q6", 0xde7e2f058024825bULL, 3010u, 5966u},
      {"tpch-uniform/tpch-q7", 0xb36f5687413d3503ULL, 134u, 272u},
      {"tpch-uniform/tpch-q8", 0xce273f10aeec3b96ULL, 4788u, 10519u},
      {"imdb/imdb-q1", 0x7c3368947e7c487dULL, 2519u, 5519u},
      {"imdb/imdb-q2", 0x7c3368947e7c487dULL, 1667u, 3383u},
      {"imdb/imdb-q3", 0x7c3368947e7c487dULL, 1525u, 3025u},
      {"imdb/imdb-q4", 0xb95e785e35ebfffbULL, 2180u, 4421u},
      {"imdb/imdb-q5", 0xb95e785e35ebfffbULL, 2178u, 4416u},
      {"imdb/imdb-q6", 0xb95e785e35ebfffbULL, 2158u, 4366u},
      {"imdb/imdb-q7", 0x8f94e83c3dc0064bULL, 10712u, 24249u},
      {"imdb/imdb-q8", 0x8f94e83c3dc0064bULL, 9996u, 22481u},
      {"imdb/imdb-q9", 0x8f94e83c3dc0064bULL, 8774u, 19420u},
      {"imdb/imdb-q10", 0x91032e574da4f00bULL, 5455u, 10998u},
      {"imdb/imdb-q11", 0x91032e574da4f00bULL, 3707u, 7300u},
      {"imdb/imdb-q12", 0x91032e574da4f00bULL, 3476u, 6812u},
      {"imdb/imdb-q13", 0xb46bdf15f4026236ULL, 232113u, 398574u},
      {"imdb/imdb-q14", 0x533641b3c37109e7ULL, 79228u, 157624u},
      {"imdb/imdb-q15", 0x56ba8cba5a2dc3faULL, 4002u, 7505u},
      {"imdb/imdb-q16", 0x56ba8cba5a2dc3faULL, 5325u, 10156u},
      {"imdb/imdb-q17", 0x56ba8cba5a2dc3faULL, 4037u, 7582u},
      {"imdb/imdb-q18", 0xe73ffa12117ada5fULL, 28394u, 54630u},
      {"imdb/imdb-q19", 0x4992e4e21c57547dULL, 8123u, 16475u},
      {"imdb/imdb-q20", 0xf316aeda5298b659ULL, 7100u, 12951u},
      {"imdb/imdb-q21", 0xf316aeda5298b659ULL, 6855u, 12434u},
      {"imdb/imdb-q22", 0xf316aeda5298b659ULL, 7091u, 12899u},
      {"imdb/imdb-q23", 0x1a5256c40238bb01ULL, 14942u, 29102u},
      {"imdb/imdb-q24", 0x1a5256c40238bb01ULL, 10793u, 20804u},
      {"imdb/imdb-q25", 0xfe768147c1eeb2a2ULL, 59535u, 153164u},
      {"imdb/imdb-q26", 0xaac2aacd4a755a7fULL, 717150u, 1481898u},
      {"imdb/imdb-q27", 0x669ff7b87897df6ULL, 3733u, 7566u},
      {"imdb/imdb-q28", 0x669ff7b87897df6ULL, 3725u, 7550u},
      {"imdb/imdb-q29", 0xc748b20d4b88eb08ULL, 6150u, 11822u},
      {"imdb/imdb-q30", 0xc748b20d4b88eb08ULL, 3636u, 6793u},
      {"ott/ott-q1", 0x7a138bb7b0e8c0eeULL, 39600u, 115200u},
      {"ott/ott-q2", 0x4d3288602bd03a1cULL, 39600u, 115200u},
      {"ott/ott-q3", 0x4d3288602bd03a1cULL, 3600u, 7200u},
      {"ott/ott-q4", 0x4d3288602bd03a1cULL, 39600u, 115200u},
      {"ott/ott-q5", 0xbb10dc8d4ef95783ULL, 40800u, 117600u},
      {"ott/ott-q6", 0x6ac704ef0181cbf5ULL, 40800u, 117600u},
      {"ott/ott-q7", 0x82dec7510217eb65ULL, 50400u, 93600u},
      {"ott/ott-q8", 0xca8a2f2e08522e5dULL, 0u, 0u},
      {"ott/ott-q9", 0x4ca1ac3aa4848727ULL, 4800u, 9600u},
      {"ott/ott-q10", 0x4ca1ac3aa4848727ULL, 0u, 0u},
      {"ott/ott-q11", 0xbb10dc8d4ef95783ULL, 0u, 0u},
      {"ott/ott-q12", 0x33aea2667e8ed7afULL, 0u, 0u},
      {"ott/ott-q13", 0xba01993fa93ba1fbULL, 10800u, 16800u},
      {"ott/ott-q14", 0xdec9a72cbbbcdca7ULL, 85200u, 201600u},
      {"ott/ott-q15", 0x19a8aef71292d676ULL, 0u, 0u},
      {"ott/ott-q16", 0xd0e4abc4c47a5540ULL, 0u, 0u},
      {"ott/ott-q17", 0x62553700eead3e74ULL, 0u, 0u},
      {"ott/ott-q18", 0x62553700eead3e74ULL, 0u, 0u},
      {"ott/ott-q19", 0x79254bc50f6d2e32ULL, 80400u, 230400u},
      {"ott/ott-q20", 0x137a3537a27724b6ULL, 0u, 0u},
      {"udf/udf-q1", 0x808f61b4736f62d3ULL, 1339u, 3078u},
      {"udf/udf-q2", 0x56f05f8215743106ULL, 639u, 842u},
      {"udf/udf-q3", 0x56f05f8215743106ULL, 632u, 822u},
      {"udf/udf-q4", 0x29c10d95d3721650ULL, 2424u, 3460u},
      {"udf/udf-q5", 0x959a606fb7e3ac2ULL, 2206u, 3215u},
      {"udf/udf-q6", 0x26137f775c046be0ULL, 1438u, 2312u},
      {"udf/udf-q7", 0x8e36ebc6210f43bULL, 2000u, 2902u},
      {"udf/udf-q8", 0x8e36ebc6210f43bULL, 2005u, 2916u},
      {"udf/udf-q9", 0x123b290044205c54ULL, 2909u, 6168u},
      {"udf/udf-q10", 0x272df62a6c0fa25eULL, 1816u, 2553u},
      {"udf/udf-q11", 0x85cb3b9bcbbf4555ULL, 2387u, 3505u},
      {"udf/udf-q12", 0x828a15d652006676ULL, 968u, 1167u},
      {"udf/udf-q13", 0x67417093f1eb45dULL, 1292u, 2188u},
      {"udf/udf-q14", 0xda22e25b72b65545ULL, 1108u, 1919u},
      {"udf/udf-q15", 0x6b4a56f8bb452436ULL, 5574u, 9765u},
      {"udf/udf-q16", 0x700cd767673eef59ULL, 3195u, 5775u},
      {"udf/udf-q17", 0x5bae8b8206059f42ULL, 3300u, 7890u},
      {"udf/udf-q18", 0x9a4d43076ccc9508ULL, 7402u, 16257u},
      {"udf/udf-q19", 0x56f43d6b3bbb0171ULL, 1130u, 2436u},
      {"udf/udf-q20", 0xea21d73bace5c9c2ULL, 3300u, 4900u},
      {"udf/udf-q21", 0x1fb2f1733d0a8710ULL, 1216u, 1924u},
      {"udf/udf-q22", 0x71d9a3353318be42ULL, 3075u, 6900u},
      {"udf/udf-q23", 0xafb8afc65ce225d2ULL, 2305u, 5010u},
      {"udf/udf-q24", 0xe205edd264ddb106ULL, 1015u, 1846u},
      {"udf/udf-q25", 0xccdd97e313a80f72ULL, 4328u, 7819u},
  });
}

}  // namespace
}  // namespace monsoon
