// Vectorized-execution tests: selection-vector edge cases, the join Bloom
// filter, and batch/row equivalence. The batch pipeline's contract is that
// it is a pure execution-speed change — rows, observed counts, Σ distincts,
// work_units and objects_processed are bit-identical to the row-at-a-time
// path (batch_size=1) at every thread count and cache setting, because
// accounting is charged per logical row, never per batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/bloom.h"
#include "exec/executor.h"
#include "exec/selection.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "parallel/thread_pool.h"
#include "plan/logical_ops.h"
#include "sql/parser.h"
#include "workloads/imdb.h"
#include "workloads/ott.h"
#include "workloads/tpch.h"
#include "workloads/udfbench.h"

namespace monsoon {
namespace {

// ---------------------------------------------------------------------------
// SelectionVector
// ---------------------------------------------------------------------------

TEST(SelectionVectorTest, AppendKeepsAbsoluteAscendingRows) {
  SelectionVector sel;
  EXPECT_TRUE(sel.empty());
  sel.Reserve(4);
  sel.Append(3);
  sel.Append(5);
  sel.Append(9);
  ASSERT_EQ(sel.size(), 3u);
  EXPECT_EQ(sel[0], 3u);
  EXPECT_EQ(sel[2], 9u);
  EXPECT_EQ(sel.data()[1], 5u);
}

TEST(SelectionVectorTest, InPlaceCompactionViaMutableDataAndTruncate) {
  // Later filters refine an existing selection by compacting survivors to
  // the front and truncating — mirror that exact access pattern.
  SelectionVector sel;
  for (uint32_t row = 0; row < 8; ++row) sel.Append(row);
  uint32_t* data = sel.mutable_data();
  size_t kept = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    if (data[i] % 3 == 0) data[kept++] = data[i];
  }
  sel.Truncate(kept);
  ASSERT_EQ(sel.size(), 3u);
  EXPECT_EQ(sel[0], 0u);
  EXPECT_EQ(sel[1], 3u);
  EXPECT_EQ(sel[2], 6u);
  sel.Clear();
  EXPECT_TRUE(sel.empty());
}

// ---------------------------------------------------------------------------
// JoinBloomFilter
// ---------------------------------------------------------------------------

TEST(JoinBloomFilterTest, NoFalseNegatives) {
  JoinBloomFilter bloom(1000);
  std::vector<uint64_t> hashes;
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 1000; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    hashes.push_back(h);
    bloom.AddHash(h);
  }
  for (uint64_t inserted : hashes) {
    EXPECT_TRUE(bloom.MayContain(inserted));
  }
}

TEST(JoinBloomFilterTest, RejectsMostAbsentKeysAtOneWordPerKey) {
  JoinBloomFilter bloom(1024);
  uint64_t h = 0x853c49e6748fea9bULL;
  for (int i = 0; i < 1024; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    bloom.AddHash(h);
  }
  // Disjoint probe stream: with one word and two bits per key the false
  // positive rate is a few percent; anything under 50% proves the filter
  // is live, and exactness is irrelevant (false positives fall through to
  // the index and behave like any probe).
  int false_positives = 0;
  uint64_t p = 0xda942042e4dd58b5ULL;
  for (int i = 0; i < 1024; ++i) {
    p ^= p << 13;
    p ^= p >> 7;
    p ^= p << 17;
    if (bloom.MayContain(p)) ++false_positives;
  }
  EXPECT_LT(false_positives, 512);
}

TEST(JoinBloomFilterTest, SizesRoundToPowerOfTwoWords) {
  EXPECT_EQ(JoinBloomFilter(0).ApproxBytes(), 16u * sizeof(uint64_t));
  EXPECT_EQ(JoinBloomFilter(17).ApproxBytes(), 32u * sizeof(uint64_t));
  EXPECT_EQ(JoinBloomFilter(1024).ApproxBytes(), 1024u * sizeof(uint64_t));
  EXPECT_EQ(JoinBloomFilter(1025).ApproxBytes(), 2048u * sizeof(uint64_t));
}

// ---------------------------------------------------------------------------
// Leaf-filter selection edge cases. A 10-row table scanned with
// batch_size=4 splits into batches [0,4) [4,8) [8,10); the fixtures place
// survivors to hit empty, full, single-survivor, and boundary-straddling
// selections, and every run must match the row-at-a-time (batch_size=1)
// execution on rows AND accounting.
// ---------------------------------------------------------------------------

class BatchExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto customers = std::make_shared<Table>(
        Schema({{"id", ValueType::kInt64},
                {"city", ValueType::kString},
                {"country", ValueType::kString}}));
    for (int64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(customers
                      ->AppendRow({Value(i), Value("city" + std::to_string(i % 3)),
                                   Value("zz")})
                      .ok());
    }
    ASSERT_TRUE(catalog_.AddTable("customers", customers).ok());

    auto orders = std::make_shared<Table>(
        Schema({{"cust", ValueType::kInt64}, {"amount", ValueType::kInt64}}));
    // Customer i has i orders (0 has none): 45 orders total.
    for (int64_t i = 0; i < 10; ++i) {
      for (int64_t j = 0; j < i; ++j) {
        ASSERT_TRUE(orders->AppendRow({Value(i), Value(j * 10)}).ok());
      }
    }
    ASSERT_TRUE(catalog_.AddTable("orders", orders).ok());
  }

  StatusOr<QuerySpec> Parse(const std::string& sql) {
    return SqlParser(&catalog_).Parse(sql);
  }

  struct RunStats {
    uint64_t rows = 0;
    uint64_t work_units = 0;
    uint64_t objects = 0;
    std::vector<std::string> fingerprints;
  };

  RunStats Run(const QuerySpec& query, const PlanNode::Ptr& plan,
               size_t batch_size) {
    auto store = MaterializedStore::ForQuery(catalog_, query);
    EXPECT_TRUE(store.ok());
    Executor executor(query, &UdfRegistry::Global());
    ExecContext ctx;
    ctx.SetBatchSize(batch_size);
    auto result = executor.Execute(plan, &*store, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    RunStats stats;
    stats.rows = result->output.table->num_rows();
    stats.work_units = ctx.work_units();
    stats.objects = ctx.objects_processed();
    for (size_t i = 0; i < result->output.table->num_rows(); ++i) {
      std::string fp;
      for (size_t c = 0; c < result->output.schema.num_columns(); ++c) {
        fp += result->output.table->row(i).GetValue(c).ToString();
        fp += '\x1f';
      }
      stats.fingerprints.push_back(std::move(fp));
    }
    std::sort(stats.fingerprints.begin(), stats.fingerprints.end());
    return stats;
  }

  // Runs the leaf plan at batch sizes 1 (row-at-a-time reference), 4
  // (several small batches over 10 rows), and 1024 (one batch) and demands
  // identical rows and accounting everywhere.
  void ExpectLeafRows(const std::string& sql, uint64_t expect_rows) {
    auto query = Parse(sql);
    ASSERT_TRUE(query.ok());
    PlanNode::Ptr plan = MakeLeaf(*query, 0);
    RunStats reference = Run(*query, plan, 1);
    EXPECT_EQ(reference.rows, expect_rows);
    for (size_t batch_size : {size_t{4}, size_t{1024}}) {
      SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
      RunStats run = Run(*query, plan, batch_size);
      EXPECT_EQ(run.rows, reference.rows);
      EXPECT_EQ(run.fingerprints, reference.fingerprints);
      EXPECT_EQ(run.work_units, reference.work_units);
      EXPECT_EQ(run.objects, reference.objects);
    }
  }

  Catalog catalog_;
};

TEST_F(BatchExecTest, EmptySelection) {
  ExpectLeafRows("SELECT * FROM customers c WHERE c.city = 'nowhere'", 0);
}

TEST_F(BatchExecTest, FullSelection) {
  // Every row survives: both batch boundaries fall inside the run.
  ExpectLeafRows("SELECT * FROM customers c WHERE c.country = 'zz'", 10);
}

TEST_F(BatchExecTest, SingleSurvivor) {
  // id 5 lives in the middle batch [4,8).
  ExpectLeafRows("SELECT * FROM customers c WHERE c.id = 5", 1);
}

TEST_F(BatchExecTest, SurvivorsStraddleBatchBoundaries) {
  // city1 = ids {1, 4, 7}: one survivor in each of the three batches at
  // batch_size=4, with the 3->4 and 7->8 boundaries between them.
  ExpectLeafRows("SELECT * FROM customers c WHERE c.city = 'city1'", 3);
}

TEST_F(BatchExecTest, ConjunctiveFiltersRefineSelection) {
  // First filter keeps all 10 rows; the second compacts its selection
  // vector in place down to the 3 city1 survivors.
  ExpectLeafRows(
      "SELECT * FROM customers c WHERE c.country = 'zz' AND c.city = 'city1'",
      3);
}

// ---------------------------------------------------------------------------
// Bloom-filtered hash join: batched probes must reject build-side misses
// (counter moves) without changing rows or accounting relative to the
// unfiltered row-at-a-time probe.
// ---------------------------------------------------------------------------

TEST_F(BatchExecTest, BloomRejectsProbeMissesWithoutChangingResults) {
  // customer 0 has no orders; orders probe the 10-key build side, so every
  // probe key is present — flip sides by filtering customers to a single
  // city so most order keys miss the build.
  auto query = Parse(
      "SELECT * FROM customers c, orders o "
      "WHERE c.id = o.cust AND c.city = 'city1'");
  ASSERT_TRUE(query.ok());
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});

  obs::Counter* checks = obs::Registry::Global().GetCounter("exec.bloom_checks");
  obs::Counter* rejects = obs::Registry::Global().GetCounter("exec.bloom_rejects");

  // Row-at-a-time reference: the bloom filter is disabled at batch_size=1,
  // so the counters must not move.
  uint64_t checks_before = checks->Value();
  RunStats reference = Run(*query, plan, 1);
  EXPECT_EQ(reference.rows, 12u);  // customers 1,4,7 -> 1 + 4 + 7 orders
  EXPECT_EQ(checks->Value(), checks_before);

  // Batched probe: every probe row is checked; orders of customers outside
  // city1 (45 - 12 = 33 rows) miss the 3-key build side and most are
  // rejected before the hash table (some may slip through as bloom false
  // positives and fall through to an empty equal_range — also correct).
  checks_before = checks->Value();
  uint64_t rejects_before = rejects->Value();
  RunStats batched = Run(*query, plan, 1024);
  EXPECT_EQ(checks->Value() - checks_before, 45u);
  uint64_t rejected = rejects->Value() - rejects_before;
  EXPECT_GT(rejected, 0u);
  EXPECT_LE(rejected, 33u);

  // The filter is invisible to results and to the cost model: a reject
  // means equal_range would have found nothing, so zero candidates are
  // charged either way.
  EXPECT_EQ(batched.rows, reference.rows);
  EXPECT_EQ(batched.fingerprints, reference.fingerprints);
  EXPECT_EQ(batched.work_units, reference.work_units);
  EXPECT_EQ(batched.objects, reference.objects);
}

TEST_F(BatchExecTest, AllProbeKeysPresentMeansNoRejects) {
  auto query =
      Parse("SELECT * FROM customers c, orders o WHERE c.id = o.cust");
  ASSERT_TRUE(query.ok());
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});
  obs::Counter* rejects = obs::Registry::Global().GetCounter("exec.bloom_rejects");
  uint64_t rejects_before = rejects->Value();
  RunStats reference = Run(*query, plan, 1);
  RunStats batched = Run(*query, plan, 1024);
  EXPECT_EQ(rejects->Value(), rejects_before)
      << "every order's key is in the build side; nothing may be rejected";
  EXPECT_EQ(batched.rows, reference.rows);
  EXPECT_EQ(batched.rows, 45u);
  EXPECT_EQ(batched.work_units, reference.work_units);
  EXPECT_EQ(batched.objects, reference.objects);
}

// ---------------------------------------------------------------------------
// Workload-level equivalence: batch on/off × serial/parallel × cache
// on/off over every generator, pinning the full observable surface against
// the row-at-a-time serial cache-off reference.
// ---------------------------------------------------------------------------

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

struct EquivalenceRun {
  uint64_t rows = 0;
  uint64_t work_units = 0;
  uint64_t objects = 0;
  std::vector<std::string> fingerprints;
  std::vector<std::pair<ExprSig, uint64_t>> counts;
  std::vector<DistinctObservation> distincts;
};

StatusOr<EquivalenceRun> RunPlan(const Workload& workload,
                                 const BenchQuery& query,
                                 const PlanNode::Ptr& plan,
                                 parallel::ThreadPool* pool, size_t morsel_size,
                                 size_t batch_size, bool cache_on) {
  MONSOON_ASSIGN_OR_RETURN(
      MaterializedStore store,
      MaterializedStore::ForQuery(*workload.catalog, query.spec));
  store.udf_cache()->set_byte_budget(cache_on ? size_t{256} << 20 : 0);
  Executor executor(query.spec, &UdfRegistry::Global());
  ExecContext ctx;
  ctx.SetParallel(pool, morsel_size);
  ctx.SetBatchSize(batch_size);
  MONSOON_ASSIGN_OR_RETURN(ExecResult exec, executor.Execute(plan, &store, &ctx));
  EquivalenceRun run;
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

void ExpectBatchEquivalence(const Workload& workload, size_t max_queries) {
  parallel::ThreadPool pool(4);
  constexpr size_t kMorsel = 37;
  size_t checked = 0;
  for (const BenchQuery& query : workload.queries) {
    if (checked++ >= max_queries) break;
    SCOPED_TRACE(workload.name + " / " + query.name);

    PlanNode::Ptr plan = query.hand_plan;
    if (plan == nullptr) {
      StatsStore stats;
      for (int i = 0; i < query.spec.num_relations(); ++i) {
        auto rows =
            workload.catalog->RowCount(query.spec.relation(i).table_name);
        ASSERT_TRUE(rows.ok());
        stats.SetCount(ExprSig::Of(RelSet::Single(i), 0),
                       static_cast<double>(*rows));
      }
      auto plan_or = GreedyOptimizer().Optimize(query.spec, stats);
      ASSERT_TRUE(plan_or.ok()) << plan_or.status().ToString();
      plan = *plan_or;
    }
    // Σ on top so the batched stats-collection pass is exercised too.
    plan = PlanNode::StatsCollect(plan);

    // Reference: row-at-a-time, serial, cache off — the seed's original
    // execution path, with the batch machinery driven at width 1.
    auto reference =
        RunPlan(workload, query, plan, nullptr, kMorsel, 1, false);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();

    struct Config {
      const char* name;
      parallel::ThreadPool* pool;
      size_t batch_size;
      bool cache_on;
    };
    for (const Config& config :
         {Config{"batch=1024 serial", nullptr, 1024, false},
          Config{"batch=1024 serial cache", nullptr, 1024, true},
          Config{"batch=1024 parallel", &pool, 1024, false},
          Config{"batch=1024 parallel cache", &pool, 1024, true},
          Config{"batch=7 serial", nullptr, 7, false}}) {
      SCOPED_TRACE(config.name);
      auto run = RunPlan(workload, query, plan, config.pool, kMorsel,
                         config.batch_size, config.cache_on);
      ASSERT_TRUE(run.ok()) << run.status().ToString();

      EXPECT_EQ(reference->rows, run->rows);
      EXPECT_EQ(reference->fingerprints, run->fingerprints);
      // Batching is invisible to the cost model: accounting is charged per
      // logical row, so totals are bit-identical, not merely close.
      EXPECT_EQ(reference->work_units, run->work_units);
      EXPECT_EQ(reference->objects, run->objects);
      ASSERT_EQ(reference->counts.size(), run->counts.size());
      for (size_t i = 0; i < reference->counts.size(); ++i) {
        EXPECT_EQ(reference->counts[i].first, run->counts[i].first);
        EXPECT_EQ(reference->counts[i].second, run->counts[i].second);
      }
      ASSERT_EQ(reference->distincts.size(), run->distincts.size());
      for (size_t i = 0; i < reference->distincts.size(); ++i) {
        EXPECT_EQ(reference->distincts[i].term_id, run->distincts[i].term_id);
        EXPECT_EQ(reference->distincts[i].expr, run->distincts[i].expr);
        EXPECT_EQ(reference->distincts[i].distinct_count,
                  run->distincts[i].distinct_count);
      }
    }
  }
  EXPECT_GT(checked, 0u) << "workload produced no queries";
}

TEST(BatchEquivalenceTest, Tpch) {
  TpchOptions options;
  options.scale = 0.05;
  options.skew = SkewProfile::kHigh;
  auto workload = MakeTpchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectBatchEquivalence(*workload, 4);
}

TEST(BatchEquivalenceTest, Imdb) {
  ImdbOptions options;
  options.scale = 0.05;
  auto workload = MakeImdbWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectBatchEquivalence(*workload, 4);
}

TEST(BatchEquivalenceTest, Ott) {
  OttOptions options;
  options.rows_per_table = 400;
  options.key_cardinality = 25;
  auto workload = MakeOttWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectBatchEquivalence(*workload, 4);
}

TEST(BatchEquivalenceTest, UdfBench) {
  UdfBenchOptions options;
  options.scale = 0.05;
  auto workload = MakeUdfBenchWorkload(options);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  ExpectBatchEquivalence(*workload, 4);
}

// ---------------------------------------------------------------------------
// Hash-probe emission: the probe lists accepted (left, right) row pairs and
// gathers them into the output once per range, after the range's budget
// check. Output rows and the charge sequence must not depend on batch
// width, thread count or shard count — including for residual survivors
// and for a probe that trips the budget mid-range.
// ---------------------------------------------------------------------------

class JoinEmissionTest : public ::testing::Test {
 protected:
  // l(k, x, s) and r(k, y, t). Uniform: key i % 20 on both sides. Skewed:
  // nearly every row carries key 0, so one probe row meets a long run of
  // build candidates.
  void AddTables(bool skewed, size_t left_rows, size_t right_rows) {
    auto key = [skewed](size_t i) {
      return static_cast<int64_t>(skewed ? (i % 10 == 9 ? i : 0) : i % 20);
    };
    auto l = std::make_shared<Table>(Schema({{"k", ValueType::kInt64},
                                             {"x", ValueType::kInt64},
                                             {"s", ValueType::kString}}));
    for (size_t i = 0; i < left_rows; ++i) {
      ASSERT_TRUE(l->AppendRow({Value(key(i)), Value(static_cast<int64_t>(i)),
                                Value("l" + std::to_string(i))})
                      .ok());
    }
    auto r = std::make_shared<Table>(Schema({{"k", ValueType::kInt64},
                                             {"y", ValueType::kInt64},
                                             {"t", ValueType::kString}}));
    for (size_t i = 0; i < right_rows; ++i) {
      ASSERT_TRUE(r->AppendRow({Value(key(i)),
                                Value(static_cast<int64_t>(i * 7)),
                                Value("r" + std::to_string(i))})
                      .ok());
    }
    ASSERT_TRUE(catalog_.AddTable("l", l).ok());
    ASSERT_TRUE(catalog_.AddTable("r", r).ok());
  }

  struct Outcome {
    Status status;
    uint64_t work_units = 0;
    uint64_t objects = 0;
    std::vector<std::string> fingerprints;
  };

  Outcome Run(const QuerySpec& query, const PlanNode::Ptr& plan,
              uint64_t work_budget, parallel::ThreadPool* pool,
              size_t batch_size, size_t shards) {
    auto store = MaterializedStore::ForQuery(catalog_, query);
    EXPECT_TRUE(store.ok());
    Executor executor(query, &UdfRegistry::Global());
    ExecContext ctx(work_budget);
    ctx.SetParallel(pool, /*morsel_size=*/37);
    ctx.SetBatchSize(batch_size);
    ctx.SetShards(shards);
    auto result = executor.Execute(plan, &*store, &ctx);
    Outcome out;
    out.status = result.status();
    out.work_units = ctx.work_units();
    out.objects = ctx.objects_processed();
    if (result.ok()) out.fingerprints = RowFingerprints(*result->output.table);
    return out;
  }

  Catalog catalog_;
};

TEST_F(JoinEmissionTest, ResidualSurvivorsMatchAcrossBatchThreadsAndShards) {
  // 300 x 500 rows over 20 keys: 7500 key matches, of which the residual
  // UDF filter keeps about nine in ten — several output batches' worth.
  AddTables(/*skewed=*/false, 300, 500);
  auto query = SqlParser(&catalog_).Parse(
      "SELECT * FROM l a, r b "
      "WHERE a.k = b.k AND bucket10(a.x) <> bucket10(b.y)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0, 1});

  parallel::ThreadPool pool(4);
  const Outcome reference = Run(*query, plan, 0, nullptr, 1, 1);
  ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();
  EXPECT_GT(reference.fingerprints.size(), 2 * size_t{1024});
  EXPECT_LT(reference.fingerprints.size(), size_t{7500})
      << "the residual filter must reject some key matches";
  parallel::ThreadPool* serial = nullptr;
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    for (parallel::ThreadPool* threads : {serial, &pool}) {
      for (size_t shards : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE("batch=" + std::to_string(batch_size) +
                     " threads=" + (threads == nullptr ? "1" : "4") +
                     " shards=" + std::to_string(shards));
        const Outcome run = Run(*query, plan, 0, threads, batch_size, shards);
        ASSERT_TRUE(run.status.ok()) << run.status.ToString();
        EXPECT_EQ(run.fingerprints, reference.fingerprints);
        EXPECT_EQ(run.work_units, reference.work_units);
        EXPECT_EQ(run.objects, reference.objects);
      }
    }
  }
}

TEST_F(JoinEmissionTest, SkewedSerialProbeTripsBudgetOnTheSameWorkUnit) {
  // Key 0 on 45 build rows and 360 probe rows: 16200 candidate pairs, far
  // past the budget, so the serial probe trips mid-range.
  AddTables(/*skewed=*/true, 50, 400);
  auto query =
      SqlParser(&catalog_).Parse("SELECT * FROM l a, r b WHERE a.k = b.k");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  PlanNode::Ptr plan =
      PlanNode::Join(MakeLeaf(*query, 0), MakeLeaf(*query, 1), {0});

  constexpr uint64_t kBudget = 5000;
  const Outcome reference = Run(*query, plan, kBudget, nullptr, 1, 1);
  ASSERT_EQ(reference.status.code(), StatusCode::kResourceExhausted)
      << reference.status.ToString();
  // Serial charging trips on the first unit past the budget.
  EXPECT_EQ(reference.work_units, kBudget + 1);
  for (size_t batch_size : {size_t{7}, size_t{1024}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch_size));
    const Outcome run = Run(*query, plan, kBudget, nullptr, batch_size, 1);
    EXPECT_EQ(run.status.code(), StatusCode::kResourceExhausted)
        << run.status.ToString();
    EXPECT_EQ(run.work_units, reference.work_units);
    EXPECT_EQ(run.objects, reference.objects);
  }
}

}  // namespace
}  // namespace monsoon
