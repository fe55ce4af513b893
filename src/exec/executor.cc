#include "exec/executor.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/check.h"
#include "common/hash.h"
#include "exec/batch.h"
#include "exec/bloom.h"
#include "exec/pipeline.h"
#include "exec/selection.h"
#include "fault/injector.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "shard/shard.h"
#include "sketch/hyperloglog.h"

namespace monsoon {

StatusOr<BoundTerm> BoundTerm::Bind(const UdfTerm& term, const Schema& schema,
                                    const UdfRegistry& registry) {
  BoundTerm bound;
  MONSOON_ASSIGN_OR_RETURN(bound.fn_, registry.Lookup(term.function));
  bound.arg_cols_.reserve(term.args.size());
  for (const auto& arg : term.args) {
    MONSOON_ASSIGN_OR_RETURN(size_t col, schema.ColumnIndex(arg));
    bound.arg_cols_.push_back(col);
  }
  return bound;
}

namespace {

/// A predicate bound against a single (possibly concatenated) schema,
/// evaluated as a residual filter. Leaf scans attach evaluate-once cached
/// columns (the filter then never calls the UDF per row); join residuals
/// evaluate against transient concatenated rows and stay uncached.
struct BoundResidual {
  enum class Kind { kJoinEq, kJoinNeq, kSelectionEq };
  Kind kind;
  BoundTerm left;
  BoundTerm right;  // join kinds only
  Value constant;   // selection only
  CachedUdfColumnPtr left_col;   // indexes the leaf's source table
  CachedUdfColumnPtr right_col;  // join kinds only
  // Index of absolute row 0 in the cached columns: 0 for whole-table
  // columns, the shard's first row for shard-scoped columns (which store
  // their range at local slots — see UdfColumnCache::GetOrBuildShard).
  size_t col_base = 0;

  bool Eval(const Table& table, size_t row) const {
    if (left_col != nullptr) {
      const size_t i = row - col_base;
      switch (kind) {
        case Kind::kJoinEq:
          return CachedUdfColumn::Equal(*left_col, i, *right_col, i);
        case Kind::kJoinNeq:
          return !CachedUdfColumn::Equal(*left_col, i, *right_col, i);
        case Kind::kSelectionEq:
          return left_col->EqualsValue(i, constant);
      }
      return false;
    }
    Value l = left.Eval(table, row);
    switch (kind) {
      case Kind::kJoinEq:
        return l == right.Eval(table, row);
      case Kind::kJoinNeq:
        return l != right.Eval(table, row);
      case Kind::kSelectionEq:
        return l == constant;
    }
    return false;
  }
};

StatusOr<BoundResidual> BindResidual(const Predicate& pred, const Schema& schema,
                                     const UdfRegistry& registry) {
  BoundResidual residual;
  MONSOON_ASSIGN_OR_RETURN(residual.left, BoundTerm::Bind(pred.left, schema, registry));
  if (pred.kind == Predicate::Kind::kSelection) {
    residual.kind = BoundResidual::Kind::kSelectionEq;
    residual.constant = pred.constant;
  } else {
    residual.kind = pred.equality ? BoundResidual::Kind::kJoinEq
                                  : BoundResidual::Kind::kJoinNeq;
    MONSOON_ASSIGN_OR_RETURN(residual.right,
                             BoundTerm::Bind(*pred.right, schema, registry));
  }
  return residual;
}

/// Appends the concatenation of lt[li] and rt[ri] to `out` unless a
/// residual filter rejects it (the candidate is appended first so filters
/// can evaluate against the concatenated schema, then retracted).
void EmitIfPasses(Table* out, const Table& lt, size_t li, const Table& rt,
                  size_t ri, const std::vector<BoundResidual>& residual) {
  MONSOON_DCHECK(li < lt.num_rows() && ri < rt.num_rows())
      << "join candidate (" << li << ", " << ri << ") out of bounds";
  out->AppendConcatRow(lt, li, rt, ri);
  size_t row = out->num_rows() - 1;
  for (const auto& filter : residual) {
    if (!filter.Eval(*out, row)) {
      out->PopRow();
      return;
    }
  }
}

/// Morsel-driven operators run when a pool is attached and the input is
/// big enough that splitting pays for the merge.
bool WorthParallel(const ExecContext* ctx, size_t rows) {
  return ctx->pool() != nullptr && rows > ctx->morsel_size();
}

/// A cached UDF column only pays off when the expression can be scanned
/// again — i.e. its exact physical table is registered in the store (base
/// relations and previously materialized expressions that later plan
/// trees reference as leaves). A fresh intermediate (a filtered leaf or a
/// join output consumed inline) exists only for the current operator, so
/// building a column over it would be a pure extra pass that can never
/// hit; those read paths fall back to per-row evaluation.
bool StoreResident(const MaterializedStore& store, const MaterializedExpr& expr) {
  auto stored = store.Lookup(expr.sig);
  return stored.ok() && (*stored)->table.get() == expr.table.get();
}

/// A transient fault while building an evaluate-once column is not fatal
/// to the query: the caller falls back to per-row evaluation, which is
/// accounting-identical (the cache is invisible to the cost model). Hard
/// errors (type mismatches, budget) still propagate, as does any error
/// once the query's cancellation token has tripped — a deadline must
/// abort, not degrade.
StatusOr<CachedUdfColumnPtr> TolerateCacheFault(
    ExecContext* ctx, StatusOr<CachedUdfColumnPtr> col) {
  static obs::Counter* const dropped_metric =
      obs::Registry::Global().GetCounter("faults.cache_fills_dropped");
  if (col.ok()) return col;
  bool query_dead =
      ctx->cancel_token() != nullptr && ctx->cancel_token()->cancelled();
  if (query_dead || !col.status().IsTransient()) return col;
  dropped_metric->Add(1);
  return CachedUdfColumnPtr();
}

/// Resolves the shard layout a pass iterates for an input of `rows` rows:
/// the materialized expression's own hash-range map when it matches both
/// the table and the configured shard count, else an even contiguous
/// split. The per-shard accounting invariant holds for ANY contiguous
/// decomposition (DESIGN.md §15), so the fallback is always correct — it
/// only loses hash-range placement.
shard::ShardMapPtr ResolveShardMap(const shard::ShardMapPtr& hint, size_t rows,
                                   size_t num_shards) {
  if (hint != nullptr && hint->num_shards() == num_shards &&
      hint->total_rows() == rows) {
    return hint;
  }
  return shard::EvenMap(rows, num_shards);
}

/// Shard map describing the output a sharded pass merged: offsets are the
/// cumulative per-shard output sizes, so downstream sharded passes split
/// the intermediate along the boundaries its producer emitted (a function
/// of shard contents only — independent of thread count and recovery).
shard::ShardMapPtr MapFromShardOutputs(const std::vector<Table>& locals) {
  auto map = std::make_shared<shard::ShardMap>();
  map->offsets.reserve(locals.size() + 1);
  map->offsets.push_back(0);
  for (const Table& local : locals) {
    map->offsets.push_back(map->offsets.back() + local.num_rows());
  }
  return map;
}

constexpr uint64_t kJoinHashSeed = 0xabcdef0123456789ULL;
/// Partition count for the parallel hash join's partitioned build. Fixed
/// (not thread-derived) so the output is bit-identical across thread
/// counts; selected from the hash's top bits, which the per-partition
/// unordered_multimap (bottom-bit based) does not reuse.
constexpr size_t kBuildPartitions = 64;
constexpr int kBuildPartitionShift = 58;  // 64 - log2(kBuildPartitions)

// ---------------------------------------------------------------------------
// Batch pipeline operators (DESIGN.md §12). batch_size == 1 drives the same
// operators with one-row batches, which reproduces the row-at-a-time seed
// executor exactly — there is no separate legacy code path to diverge from.
// ---------------------------------------------------------------------------

/// Narrows the batch to rows satisfying `pass` (absolute row ids). The
/// first filter scans the whole range and materializes the selection;
/// later filters compact the selection in place, so a conjunction touches
/// each row once per filter it survives to — the row path's short-circuit
/// evaluation set, just column-at-a-time.
template <typename Pred>
void RefineSelection(Batch* batch, Pred&& pass) {
  if (!batch->filtered) {
    batch->sel.Reserve(batch->end - batch->begin);
    for (size_t row = batch->begin; row < batch->end; ++row) {
      if (pass(row)) batch->sel.Append(static_cast<uint32_t>(row));
    }
    batch->filtered = true;
    return;
  }
  uint32_t* rows = batch->sel.mutable_data();
  const size_t n = batch->sel.size();
  size_t w = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = rows[i];
    if (pass(row)) rows[w++] = row;
  }
  batch->sel.Truncate(w);
}

/// Applies one bound residual to the batch's selection. Cached filters run
/// type-specialized loops over the flat columns (mirroring EqualsValue /
/// CachedUdfColumn::Equal exactly, hash-first for strings); uncached
/// filters fall back to per-row evaluation.
void ApplyResidualBatch(const BoundResidual& f, Batch* batch) {
  const Table& in = *batch->table;
  if (f.left_col == nullptr) {
    RefineSelection(batch, [&](size_t row) { return f.Eval(in, row); });
    return;
  }
  const CachedUdfColumn& lcol = *f.left_col;
  // Shard-scoped columns store their range at local slots; `base` shifts
  // the batch's absolute rows into them (0 for whole-table columns).
  const size_t base = f.col_base;
  if (f.kind == BoundResidual::Kind::kSelectionEq) {
    if (f.constant.type() != lcol.type()) {
      RefineSelection(batch, [](size_t) { return false; });
      return;
    }
    switch (lcol.type()) {
      case ValueType::kInt64: {
        const int64_t want = f.constant.AsInt64();
        const int64_t* data = lcol.Int64Data();
        RefineSelection(batch,
                        [&](size_t row) { return data[row - base] == want; });
        return;
      }
      case ValueType::kDouble: {
        const double want = f.constant.AsDouble();
        const double* data = lcol.DoubleData();
        RefineSelection(batch,
                        [&](size_t row) { return data[row - base] == want; });
        return;
      }
      case ValueType::kString: {
        const std::string& want = f.constant.AsString();
        const uint64_t want_hash = HashString(want);
        const uint64_t* hashes = lcol.HashData();
        const std::string* strs = lcol.StringData();
        RefineSelection(batch, [&](size_t row) {
          return hashes[row - base] == want_hash && strs[row - base] == want;
        });
        return;
      }
    }
    return;
  }
  const bool keep_equal = f.kind == BoundResidual::Kind::kJoinEq;
  const CachedUdfColumn& rcol = *f.right_col;
  if (lcol.type() != rcol.type()) {
    // Equal() is false across types on every row.
    RefineSelection(batch, [keep_equal](size_t) { return !keep_equal; });
    return;
  }
  switch (lcol.type()) {
    case ValueType::kInt64: {
      const int64_t* a = lcol.Int64Data();
      const int64_t* b = rcol.Int64Data();
      RefineSelection(batch, [&](size_t row) {
        return (a[row - base] == b[row - base]) == keep_equal;
      });
      return;
    }
    case ValueType::kDouble: {
      const double* a = lcol.DoubleData();
      const double* b = rcol.DoubleData();
      RefineSelection(batch, [&](size_t row) {
        return (a[row - base] == b[row - base]) == keep_equal;
      });
      return;
    }
    case ValueType::kString: {
      const uint64_t* ha = lcol.HashData();
      const uint64_t* hb = rcol.HashData();
      const std::string* sa = lcol.StringData();
      const std::string* sb = rcol.StringData();
      RefineSelection(batch, [&](size_t row) {
        return (ha[row - base] == hb[row - base] &&
                sa[row - base] == sb[row - base]) == keep_equal;
      });
      return;
    }
  }
}

/// Stateless filter stage, shared across morsels. Fires the per-row fault
/// point over the whole range first (firing is a pure function of the
/// coordinate, so hoisting it out of the filter loops leaves fault
/// behavior identical to the row path), then refines the selection one
/// filter at a time.
class FilterOperator : public PipelineOperator {
 public:
  explicit FilterOperator(const std::vector<BoundResidual>* filters)
      : filters_(filters) {}
  const char* name() const override { return "filter"; }

  Status ProcessBatch(Batch* batch, ExecContext* /*ctx*/) override {
    for (size_t row = batch->begin; row < batch->end; ++row) {
      MONSOON_FAULT_POINT("exec.udf_eval.filter", row);
    }
    for (const auto& filter : *filters_) {
      ApplyResidualBatch(filter, batch);
      if (batch->sel.empty()) break;
    }
    return Status::OK();
  }

 private:
  const std::vector<BoundResidual>* filters_;
};

/// Sink stage: gathers the batch's surviving rows into a Table — the whole
/// range column-wise when no filter ran, a selection-vector gather
/// otherwise. One per morsel (the destination is morsel-local).
class GatherOperator : public PipelineOperator {
 public:
  explicit GatherOperator(Table* dst) : dst_(dst) {}
  const char* name() const override { return "gather"; }

  Status ProcessBatch(Batch* batch, ExecContext* /*ctx*/) override {
    // The leaf charges the scan's whole input range before the pipeline
    // runs (work == rows examined, not rows kept), so the sink appends
    // without touching the counters: charging here would double-count.
    if (!batch->filtered) {
      dst_->AppendRangeFrom(*batch->table, batch->begin,  // NOLINT(monsoon-analyze-accounting)
                            batch->end);
    } else if (!batch->sel.empty()) {
      dst_->AppendSelectedFrom(*batch->table, batch->sel.data(),  // NOLINT(monsoon-analyze-accounting)
                               batch->sel.size());
    }
    return Status::OK();
  }

 private:
  Table* dst_;
};

/// Σ sink: folds the batch's rows into one HLL per term — precomputed
/// hashes from the evaluate-once column when available, per-row evaluation
/// otherwise (each value is consumed exactly once, so there is nothing to
/// unbox ahead of time).
class SigmaOperator : public PipelineOperator {
 public:
  /// `col_base` is the cached columns' index of absolute row 0 (the
  /// shard's first row for shard-scoped columns, 0 for whole-table ones).
  SigmaOperator(const std::vector<std::pair<int, BoundTerm>>* terms,
                const std::vector<CachedUdfColumnPtr>* cols,
                std::vector<HyperLogLog>* sketches, size_t col_base = 0)
      : terms_(terms), cols_(cols), sketches_(sketches), col_base_(col_base) {}
  const char* name() const override { return "sigma"; }

  Status ProcessBatch(Batch* batch, ExecContext* /*ctx*/) override {
    const Table& table = *batch->table;
    const size_t b = batch->begin;
    const size_t e = batch->end;
    for (size_t row = b; row < e; ++row) {
      MONSOON_FAULT_POINT("exec.udf_eval.sigma", row);
    }
    for (size_t t = 0; t < terms_->size(); ++t) {
      HyperLogLog& sketch = (*sketches_)[t];
      const CachedUdfColumnPtr& col = (*cols_)[t];
      if (col != nullptr) {
        const FlatView v = FlatView::Of(*col);
        for (size_t row = b; row < e; ++row) {
          sketch.AddHash(v.HashAt(row - col_base_));
        }
      } else {
        const BoundTerm& bound = (*terms_)[t].second;
        for (size_t row = b; row < e; ++row) {
          sketch.AddHash(bound.Eval(table, row).Hash());
        }
      }
    }
    return Status::OK();
  }

 private:
  const std::vector<std::pair<int, BoundTerm>>* terms_;
  const std::vector<CachedUdfColumnPtr>* cols_;
  std::vector<HyperLogLog>* sketches_;
  size_t col_base_;
};

/// acc[i] = HashCombine(acc[i], hash of view[(begin + i) - base]) for i in
/// [0, end - begin). `base` is the view's index of absolute row 0: 0 for
/// whole-side views, batch->begin for batch-local fills. Callers invoke
/// this once per key column in k-ascending order, which reproduces the row
/// path's per-row HashCombine chain bit-for-bit.
void CombineKeyHashes(const FlatView& v, size_t begin, size_t end, size_t base,
                      uint64_t* acc) {
  switch (v.type) {
    case ValueType::kInt64:
      for (size_t row = begin; row < end; ++row) {
        acc[row - begin] =
            HashCombine(acc[row - begin], HashInt64Value(v.i64[row - base]));
      }
      return;
    case ValueType::kDouble:
      for (size_t row = begin; row < end; ++row) {
        acc[row - begin] =
            HashCombine(acc[row - begin], HashDoubleValue(v.dbl[row - base]));
      }
      return;
    case ValueType::kString:
      for (size_t row = begin; row < end; ++row) {
        acc[row - begin] = HashCombine(acc[row - begin], v.str_hash[row - base]);
      }
      return;
  }
}

/// Build-side key stage of the hash join: fires the join_build fault point
/// for the batch, fills uncached key columns, and writes each row's
/// composite key hash. Shared across morsels — morsels write disjoint row
/// ranges of the same whole-side arrays.
class HashBuildOperator : public PipelineOperator {
 public:
  HashBuildOperator(const std::vector<const BoundTerm*>* terms,
                    bool keys_cached, std::vector<FlatColumn>* flat,
                    const std::vector<FlatView>* views,
                    std::vector<uint64_t>* hashes)
      : terms_(terms),
        keys_cached_(keys_cached),
        flat_(flat),
        views_(views),
        hashes_(hashes) {}
  const char* name() const override { return "hash-build"; }

  Status ProcessBatch(Batch* batch, ExecContext* /*ctx*/) override {
    const size_t b = batch->begin;
    const size_t e = batch->end;
    for (size_t row = b; row < e; ++row) {
      MONSOON_FAULT_POINT("exec.udf_eval.join_build", row);
    }
    if (!keys_cached_) {
      for (size_t k = 0; k < terms_->size(); ++k) {
        MONSOON_RETURN_IF_ERROR(
            (*flat_)[k].Fill(*(*terms_)[k], *batch->table, b, e, b));
      }
    }
    uint64_t* acc = hashes_->data() + b;
    std::fill(acc, acc + (e - b), kJoinHashSeed);
    for (size_t k = 0; k < views_->size(); ++k) {
      CombineKeyHashes((*views_)[k], b, e, /*base=*/0, acc);
    }
    return Status::OK();
  }

 private:
  const std::vector<const BoundTerm*>* terms_;
  bool keys_cached_;
  std::vector<FlatColumn>* flat_;
  const std::vector<FlatView>* views_;
  std::vector<uint64_t>* hashes_;
};

/// Serial build sink: appends (hash, row) pairs in row order, preserving
/// the row path's multimap insertion order — and therefore the candidate
/// enumeration order the probe observes.
class IndexInsertOperator : public PipelineOperator {
 public:
  IndexInsertOperator(const std::vector<uint64_t>* hashes,
                      std::unordered_multimap<uint64_t, size_t>* index)
      : hashes_(hashes), index_(index) {}
  const char* name() const override { return "hash-insert"; }

  Status ProcessBatch(Batch* batch, ExecContext* /*ctx*/) override {
    for (size_t row = batch->begin; row < batch->end; ++row) {
      index_->emplace((*hashes_)[row], row);
    }
    return Status::OK();
  }

 private:
  const std::vector<uint64_t>* hashes_;
  std::unordered_multimap<uint64_t, size_t>* index_;
};

/// Probe stage of the hash join. Per batch: fills uncached probe-key
/// columns, computes composite hashes column-wise, probes per row (fault
/// point, work charge, Bloom pre-check, per-candidate charge and
/// hash-confirm), and records each matched (left row, right row) pair in
/// an operator-owned pair list — through a residual staging table when
/// residual filters apply, so only survivors stay listed. Flush() gathers
/// the whole list into the output once, after the caller's budget check
/// for the range passed: a probe that trips the budget never copies rows
/// it would throw away. The per-row charge sequence is exactly the row
/// path's, so budget trips land on the same work unit; the Bloom filter
/// stores exactly the hashes in the index, so a reject only skips an
/// equal_range that would have found nothing — zero candidates charged
/// either way.
class HashProbeOperator : public PipelineOperator {
 public:
  struct Spec {
    const Table* lt = nullptr;
    const Table* rt = nullptr;
    bool build_left = false;
    bool keys_cached = false;
    const std::vector<const BoundTerm*>* probe_terms = nullptr;
    const std::vector<FlatView>* build_views = nullptr;
    const std::vector<FlatView>* probe_views = nullptr;  // cached keys only
    // Exactly one of the two index shapes is set (serial / partitioned).
    const std::unordered_multimap<uint64_t, size_t>* index = nullptr;
    const std::vector<std::unordered_multimap<uint64_t, size_t>>* partitions =
        nullptr;
    const JoinBloomFilter* bloom = nullptr;  // null when batching is off
    const std::vector<BoundResidual>* residual = nullptr;
    const Schema* out_schema = nullptr;
  };

  /// `work_tally` null = serial mode (every unit charged through ctx, so
  /// the budget trips mid-probe exactly as the row path does); non-null =
  /// parallel mode (units accumulate morsel-locally, the morsel loop
  /// flushes to the shared tally at its barrier).
  HashProbeOperator(const Spec& spec, Table* dst, uint64_t* work_tally)
      : s_(spec),
        dst_(dst),
        work_tally_(work_tally),
        candidates_(*s_.out_schema) {}
  const char* name() const override { return "hash-probe"; }

  Status ProcessBatch(Batch* batch, ExecContext* ctx) override {
    static obs::Counter* const bloom_checks_metric =
        obs::Registry::Global().GetCounter("exec.bloom_checks");
    static obs::Counter* const bloom_rejects_metric =
        obs::Registry::Global().GetCounter("exec.bloom_rejects");

    const Table& probe = *batch->table;
    const size_t begin = batch->begin;
    const size_t end = batch->end;
    const size_t n = end - begin;
    const size_t nkeys = s_.probe_terms->size();

    // Composite key hashes for the whole batch, column-wise.
    const std::vector<FlatView>* views;
    size_t base;
    if (s_.keys_cached) {
      views = s_.probe_views;
      base = 0;
    } else {
      probe_flat_.resize(nkeys);
      probe_flat_views_.clear();
      for (size_t k = 0; k < nkeys; ++k) {
        const BoundTerm& term = *(*s_.probe_terms)[k];
        probe_flat_[k].Resize(term.result_type(), n);
        MONSOON_RETURN_IF_ERROR(probe_flat_[k].Fill(term, probe, begin, end, 0));
        probe_flat_views_.push_back(FlatView::Of(probe_flat_[k]));
      }
      views = &probe_flat_views_;
      base = begin;
    }
    hashes_.assign(n, kJoinHashSeed);
    for (size_t k = 0; k < nkeys; ++k) {
      CombineKeyHashes((*views)[k], begin, end, base, hashes_.data());
    }

    const size_t first = left_rows_.size();
    uint64_t bloom_checked = 0;
    uint64_t bloom_rejected = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t row = begin + i;
      MONSOON_FAULT_POINT("exec.udf_eval.join_probe", row);
      if (work_tally_ != nullptr) {
        ++*work_tally_;
      } else {
        MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));
      }
      const uint64_t h = hashes_[i];
      if (s_.bloom != nullptr) {
        ++bloom_checked;
        if (!s_.bloom->MayContain(h)) {
          ++bloom_rejected;
          continue;
        }
      }
      const auto& index = s_.partitions != nullptr
                              ? (*s_.partitions)[h >> kBuildPartitionShift]
                              : *s_.index;
      auto [it, last] = index.equal_range(h);
      for (; it != last; ++it) {
        if (work_tally_ != nullptr) {
          ++*work_tally_;
        } else {
          MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));
        }
        const size_t build_row = it->second;
        bool match = true;
        for (size_t k = 0; k < nkeys; ++k) {
          if (!FlatView::Equal((*s_.build_views)[k], build_row, (*views)[k],
                               row - base)) {
            match = false;
            break;
          }
        }
        if (match) {
          left_rows_.push_back(
              static_cast<uint32_t>(s_.build_left ? build_row : row));
          right_rows_.push_back(
              static_cast<uint32_t>(s_.build_left ? row : build_row));
        }
      }
    }
    if (bloom_checked != 0) {
      bloom_checks_metric->Add(bloom_checked);
      bloom_rejects_metric->Add(bloom_rejected);
    }

    const size_t nmatch = left_rows_.size() - first;
    if (nmatch == 0 || s_.residual->empty()) return Status::OK();
    // Residual filters see the concatenated schema: this batch's
    // candidates stage in a scratch table (allocation reused across
    // batches) and only the survivors' pairs stay listed. The row path
    // appended then retracted; the accepted row sequence and filter
    // evaluation set are identical.
    const uint32_t* lrows = left_rows_.data() + first;
    const uint32_t* rrows = right_rows_.data() + first;
    candidates_.ClearRows();
    candidates_.AppendConcatSelected(*s_.lt, lrows, *s_.rt, rrows,  // NOLINT(monsoon-analyze-accounting): scratch staging, charged with the probe rows above
                                     nmatch);
    size_t kept = first;
    for (size_t i = 0; i < nmatch; ++i) {
      bool pass = true;
      for (const auto& filter : *s_.residual) {
        if (!filter.Eval(candidates_, i)) {
          pass = false;
          break;
        }
      }
      if (pass) {
        left_rows_[kept] = left_rows_[first + i];
        right_rows_[kept] = right_rows_[first + i];
        ++kept;
      }
    }
    left_rows_.resize(kept);
    right_rows_.resize(kept);
    return Status::OK();
  }

  /// Gathers every listed pair into the output in probe order — one exact
  /// Reserve, one column-wise gather — and empties the list. Callers run
  /// it only once the range's work is charged and its budget check passed.
  void Flush() {
    if (left_rows_.empty()) return;
    dst_->Reserve(dst_->num_rows() + left_rows_.size());
    dst_->AppendConcatSelected(*s_.lt, left_rows_.data(), *s_.rt,  // NOLINT(monsoon-analyze-accounting): pairs charged in the probe loop
                               right_rows_.data(), left_rows_.size());
    left_rows_.clear();
    right_rows_.clear();
  }

 private:
  Spec s_;
  Table* dst_;
  uint64_t* work_tally_;
  std::vector<FlatColumn> probe_flat_;       // uncached batch-local keys
  std::vector<FlatView> probe_flat_views_;
  std::vector<uint64_t> hashes_;
  // Accepted (left row, right row) pairs, in output order, until Flush().
  std::vector<uint32_t> left_rows_;
  std::vector<uint32_t> right_rows_;
  Table candidates_;
};

}  // namespace

Executor::Executor(const QuerySpec& query, const UdfRegistry* registry,
                   Options options)
    : query_(query), registry_(registry), options_(options) {}

StatusOr<ExecResult> Executor::Execute(const PlanNode::Ptr& plan,
                                       MaterializedStore* store,
                                       ExecContext* ctx) const {
  static obs::Counter* const cache_hits_metric =
      obs::Registry::Global().GetCounter("exec.udf_cache_hits");
  static obs::Counter* const cache_misses_metric =
      obs::Registry::Global().GetCounter("exec.udf_cache_misses");

  obs::TraceSpan span("exec", "execute");
  const UdfCacheStats before = store->udf_cache()->stats();
  ExecResult result;
  StatusOr<MaterializedExpr> output = ExecuteNode(plan, store, ctx, &result);
  // Cache counter deltas survive even failed runs (timeouts report the
  // partial cache activity alongside the partial work accounting).
  const UdfCacheStats after = store->udf_cache()->stats();
  ctx->AddUdfCacheDelta(after.hits - before.hits, after.misses - before.misses,
                        after.evictions - before.evictions, after.bytes_in_use);
  cache_hits_metric->Add(after.hits - before.hits);
  cache_misses_metric->Add(after.misses - before.misses);
  if (span.enabled()) {
    uint64_t hits = after.hits - before.hits;
    uint64_t lookups = hits + (after.misses - before.misses);
    span.Arg("udf_cache_hits", hits)
        .Arg("udf_cache_hit_ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups))
        .Arg("ok", output.ok());
  }
  MONSOON_RETURN_IF_ERROR(output.status());
  result.output = std::move(output).value();
  store->Put(result.output);
  return result;
}

StatusOr<MaterializedExpr> Executor::ExecuteNode(const PlanNode::Ptr& node,
                                                 MaterializedStore* store,
                                                 ExecContext* ctx,
                                                 ExecResult* result) const {
  switch (node->kind()) {
    case PlanNode::Kind::kLeaf: {
      MONSOON_ASSIGN_OR_RETURN(MaterializedExpr out, ExecuteLeaf(node, store, ctx));
      result->observed_counts.emplace_back(out.sig, out.table->num_rows());
      return out;
    }
    case PlanNode::Kind::kJoin: {
      MONSOON_ASSIGN_OR_RETURN(MaterializedExpr left,
                               ExecuteNode(node->left(), store, ctx, result));
      MONSOON_ASSIGN_OR_RETURN(MaterializedExpr right,
                               ExecuteNode(node->right(), store, ctx, result));
      MONSOON_ASSIGN_OR_RETURN(
          MaterializedExpr out,
          ExecuteJoin(node, std::move(left), std::move(right), store, ctx));
      result->observed_counts.emplace_back(out.sig, out.table->num_rows());
      return out;
    }
    case PlanNode::Kind::kStatsCollect: {
      static obs::Counter* const degraded_metric =
          obs::Registry::Global().GetCounter("faults.degraded_sigma");
      MONSOON_ASSIGN_OR_RETURN(MaterializedExpr child,
                               ExecuteNode(node->child(), store, ctx, result));
      Status sigma =
          CollectStats(child, store, ctx, &result->observed_distincts);
      if (!sigma.ok()) {
        // Graceful degradation: a Σ pass lost to a transient fault or a
        // per-UDF timeout is skipped, not fatal — the MDP simply plans
        // that d(F, r|_s) from the spike-and-slab prior. Budget trips,
        // hard errors, and anything after the query deadline/cancel
        // tripped still abort (CollectStats charges at its end, so a
        // failed pass deterministically charges nothing).
        bool query_dead = ctx->cancel_token() != nullptr &&
                          ctx->cancel_token()->cancelled();
        if (query_dead || !sigma.IsTransient()) return sigma;
        degraded_metric->Add(1);
        result->degraded.push_back(
            std::move(sigma).WithContext("collecting Σ statistics")
                .ToString());
      }
      return child;
    }
  }
  return Status::Internal("unknown plan node kind");
}

StatusOr<MaterializedExpr> Executor::ExecuteLeaf(const PlanNode::Ptr& node,
                                                 MaterializedStore* store,
                                                 ExecContext* ctx) const {
  static obs::Counter* const scan_ops_metric =
      obs::Registry::Global().GetCounter("exec.scan_ops");
  static obs::Histogram* const scan_rows_metric =
      obs::Registry::Global().GetHistogram("exec.scan_rows_in");

  MONSOON_ASSIGN_OR_RETURN(const MaterializedExpr* source,
                           store->Lookup(node->source()));
  scan_ops_metric->Add(1);
  scan_rows_metric->Observe(source->table->num_rows());
  obs::TraceSpan span("exec", "scan");
  span.Arg("rows_in", static_cast<uint64_t>(source->table->num_rows()))
      .Arg("preds", static_cast<uint64_t>(node->pred_ids().size()));
  // Reading the materialized input costs c(source) objects (Sec. 4.4).
  MONSOON_RETURN_IF_ERROR(ctx->Charge(source->table->num_rows()));
  if (node->pred_ids().empty()) {
    span.Arg("rows_out", static_cast<uint64_t>(source->table->num_rows()));
    return *source;
  }

  const bool sharded = ctx->num_shards() > 1;
  std::vector<BoundResidual> filters;
  filters.reserve(node->pred_ids().size());
  // (left, right-or--1) term ids per filter: the sharded path looks up
  // shard-scoped cached columns inside each shard body.
  std::vector<std::pair<int, int>> filter_terms;
  filter_terms.reserve(node->pred_ids().size());
  for (int pred_id : node->pred_ids()) {
    const Predicate& pred = query_.predicate(pred_id);
    MONSOON_ASSIGN_OR_RETURN(BoundResidual residual,
                             BindResidual(pred, source->schema, *registry_));
    filter_terms.emplace_back(
        pred.left.term_id,
        pred.kind == Predicate::Kind::kSelection ? -1 : pred.right->term_id);
    // Leaf residuals evaluate over the source expression itself, so the
    // store's evaluate-once columns apply positionally. Join-kind filters
    // need both sides cached to skip per-row evaluation. Sharded scans
    // bind their columns per shard instead (inside the supervised body,
    // so a killed attempt's partial fills are discarded with it).
    UdfColumnCache* cache = store->udf_cache();
    if (!sharded && cache->enabled()) {
      MONSOON_ASSIGN_OR_RETURN(
          residual.left_col,
          TolerateCacheFault(
              ctx, cache->GetOrBuild(source->sig, pred.left.term_id,
                                     residual.left, source->table, ctx->pool(),
                                     ctx->morsel_size(), ctx->cancel_token())));
      if (residual.kind != BoundResidual::Kind::kSelectionEq &&
          residual.left_col != nullptr) {
        MONSOON_ASSIGN_OR_RETURN(
            residual.right_col,
            TolerateCacheFault(
                ctx, cache->GetOrBuild(source->sig, pred.right->term_id,
                                       residual.right, source->table,
                                       ctx->pool(), ctx->morsel_size(),
                                       ctx->cancel_token())));
        if (residual.right_col == nullptr) residual.left_col = nullptr;
      }
    }
    filters.push_back(std::move(residual));
  }

  auto out = std::make_shared<Table>(source->schema);
  const Table& in = *source->table;
  // FilterOperator fires the per-row fault point with the global input
  // index as its coordinate, so the firing site is the same at every
  // thread count and batch size.
  FilterOperator filter_op(&filters);
  shard::ShardMapPtr out_map;
  if (sharded) {
    // Sharded scan under the shard supervisor: each shard drives its own
    // pipeline (with shard-scoped evaluate-once columns) into a local
    // table committed only when the attempt succeeds. Locals merge in
    // shard order, so the output is a fixed function of shard contents —
    // independent of thread count and of any recovered kill.
    shard::ShardMapPtr map =
        ResolveShardMap(source->shards, in.num_rows(), ctx->num_shards());
    std::vector<Table> locals(map->num_shards(), Table(source->schema));
    UdfColumnCache* cache = store->udf_cache();
    shard::ShardRunStats stats;
    Status run = shard::RunSharded(
        ctx->pool(), ctx->cancel_token(), *map, shard::kShardExecPoint,
        [&](size_t s, size_t begin, size_t end, uint32_t attempt) -> Status {
          std::vector<BoundResidual> local_filters = filters;
          if (cache->enabled()) {
            for (size_t f = 0; f < local_filters.size(); ++f) {
              BoundResidual& lf = local_filters[f];
              MONSOON_ASSIGN_OR_RETURN(
                  lf.left_col,
                  TolerateCacheFault(
                      ctx, cache->GetOrBuildShard(
                               source->sig, filter_terms[f].first, lf.left,
                               source->table, begin, end, ctx->cancel_token())));
              if (lf.kind != BoundResidual::Kind::kSelectionEq &&
                  lf.left_col != nullptr) {
                MONSOON_ASSIGN_OR_RETURN(
                    lf.right_col,
                    TolerateCacheFault(
                        ctx, cache->GetOrBuildShard(source->sig,
                                                    filter_terms[f].second,
                                                    lf.right, source->table,
                                                    begin, end,
                                                    ctx->cancel_token())));
                if (lf.right_col == nullptr) lf.left_col = nullptr;
              }
              lf.col_base = begin;
            }
          }
          FilterOperator shard_filter_op(&local_filters);
          Table attempt_local(source->schema);
          GatherOperator gather(&attempt_local);
          Pipeline pipeline;
          pipeline.Add(&shard_filter_op).Add(&gather);
          const size_t mid = begin + (end - begin) / 2;
          MONSOON_RETURN_IF_ERROR(pipeline.Run(in, begin, mid, ctx));
          // Mid-pass kill site: a fired fault discards attempt_local (and
          // the attempt's un-published cache fills) before anything
          // commits, so the retry re-reads exactly this shard.
          MONSOON_RETURN_IF_ERROR(
              fault::FireAttempt(shard::kShardExecPoint, s, attempt));
          MONSOON_RETURN_IF_ERROR(pipeline.Run(in, mid, end, ctx));
          locals[s] = std::move(attempt_local);
          return Status::OK();
        },
        &stats);
    ctx->AddShardStats(stats);
    MONSOON_RETURN_IF_ERROR(run);
    out_map = MapFromShardOutputs(locals);
    for (Table& local : locals) out->TakeRowsFrom(&local);
  } else if (WorthParallel(ctx, in.num_rows())) {
    // Morsel-driven scan: each morsel drives its own pipeline into a local
    // table; the barrier concatenates them in morsel order, so the output
    // row order is identical to the serial scan's.
    size_t num_morsels = parallel::NumMorsels(in.num_rows(), ctx->morsel_size());
    std::vector<Table> locals(num_morsels, Table(source->schema));
    MONSOON_RETURN_IF_ERROR(parallel::ParallelFor(
        ctx->pool(), in.num_rows(), ctx->morsel_size(), ctx->cancel_token(),
        [&](size_t m, size_t begin, size_t end) {
          MONSOON_DCHECK(m < locals.size());
          GatherOperator gather(&locals[m]);
          return Pipeline().Add(&filter_op).Add(&gather).Run(in, begin, end,
                                                             ctx);
        }));
    for (Table& local : locals) out->TakeRowsFrom(&local);
  } else {
    GatherOperator gather(out.get());
    MONSOON_RETURN_IF_ERROR(
        Pipeline().Add(&filter_op).Add(&gather).Run(in, 0, in.num_rows(), ctx));
  }

  span.Arg("rows_out", static_cast<uint64_t>(out->num_rows()));
  MaterializedExpr result;
  result.sig = node->output_sig();
  result.schema = source->schema;
  result.table = std::move(out);
  result.shards = std::move(out_map);
  return result;
}

StatusOr<MaterializedExpr> Executor::ExecuteJoin(const PlanNode::Ptr& node,
                                                 MaterializedExpr left,
                                                 MaterializedExpr right,
                                                 MaterializedStore* store,
                                                 ExecContext* ctx) const {
  static obs::Counter* const join_ops_metric =
      obs::Registry::Global().GetCounter("exec.join_ops");
  static obs::Histogram* const join_rows_metric =
      obs::Registry::Global().GetHistogram("exec.join_rows_out");

  join_ops_metric->Add(1);
  obs::TraceSpan span("exec", "join");
  span.Arg("rows_left", static_cast<uint64_t>(left.table->num_rows()))
      .Arg("rows_right", static_cast<uint64_t>(right.table->num_rows()));
  const char* algo = "cross";

  RelSet left_rels(left.sig.rels);
  RelSet right_rels(right.sig.rels);
  Schema out_schema = Schema::Concat(left.schema, right.schema);

  // Split node predicates into hash-joinable pairs and residual filters.
  struct EquiPair {
    BoundTerm left_key;     // bound against the LEFT child schema
    BoundTerm right_key;    // bound against the RIGHT child schema
    int left_term_id = -1;  // cache keys for the two sides
    int right_term_id = -1;
  };
  std::vector<EquiPair> equi;
  std::vector<BoundResidual> residual;
  for (int pred_id : node->pred_ids()) {
    const Predicate& pred = query_.predicate(pred_id);
    bool separable = false;
    if (pred.IsEquiJoin()) {
      const UdfTerm* lterm = nullptr;
      const UdfTerm* rterm = nullptr;
      if (left_rels.ContainsAll(pred.left.rels) &&
          right_rels.ContainsAll(pred.right->rels)) {
        lterm = &pred.left;
        rterm = &*pred.right;
      } else if (right_rels.ContainsAll(pred.left.rels) &&
                 left_rels.ContainsAll(pred.right->rels)) {
        lterm = &*pred.right;
        rterm = &pred.left;
      }
      if (lterm != nullptr) {
        EquiPair pair;
        MONSOON_ASSIGN_OR_RETURN(pair.left_key,
                                 BoundTerm::Bind(*lterm, left.schema, *registry_));
        MONSOON_ASSIGN_OR_RETURN(pair.right_key,
                                 BoundTerm::Bind(*rterm, right.schema, *registry_));
        pair.left_term_id = lterm->term_id;
        pair.right_term_id = rterm->term_id;
        equi.push_back(std::move(pair));
        separable = true;
      }
    }
    if (!separable) {
      MONSOON_ASSIGN_OR_RETURN(BoundResidual filter,
                               BindResidual(pred, out_schema, *registry_));
      residual.push_back(std::move(filter));
    }
  }

  // Evaluate-once key columns over both children. When every key of every
  // equi pair is cached, build/probe read flat columns and compare cached
  // hashes first — no per-row Value allocation for string keys. Any miss
  // (cache disabled / oversized column) falls back to per-row evaluation
  // for the whole join, keeping the two paths easy to ablate.
  std::vector<CachedUdfColumnPtr> left_cols(equi.size());
  std::vector<CachedUdfColumnPtr> right_cols(equi.size());
  bool keys_cached = store->udf_cache()->enabled() && !equi.empty() &&
                     StoreResident(*store, left) && StoreResident(*store, right);
  if (keys_cached) {
    UdfColumnCache* cache = store->udf_cache();
    for (size_t k = 0; k < equi.size(); ++k) {
      MONSOON_ASSIGN_OR_RETURN(
          left_cols[k],
          TolerateCacheFault(
              ctx, cache->GetOrBuild(left.sig, equi[k].left_term_id,
                                     equi[k].left_key, left.table, ctx->pool(),
                                     ctx->morsel_size(), ctx->cancel_token())));
      MONSOON_ASSIGN_OR_RETURN(
          right_cols[k],
          TolerateCacheFault(
              ctx, cache->GetOrBuild(right.sig, equi[k].right_term_id,
                                     equi[k].right_key, right.table,
                                     ctx->pool(), ctx->morsel_size(),
                                     ctx->cancel_token())));
      if (left_cols[k] == nullptr || right_cols[k] == nullptr) {
        keys_cached = false;
        break;
      }
      // Positional reads against the wrong table are the cache's one fatal
      // failure mode; the staleness check makes this structurally true.
      MONSOON_DCHECK(left_cols[k]->size() == left.table->num_rows() &&
                     right_cols[k]->size() == right.table->num_rows())
          << "cached join key column size diverged from its table";
    }
  }

  auto out = std::make_shared<Table>(out_schema);
  const Table& lt = *left.table;
  const Table& rt = *right.table;
  shard::ShardMapPtr out_map;

  if (equi.empty()) {
    // Cross product with residual filters (multi-table UDF predicates and
    // genuine cross products both land here).
    if (WorthParallel(ctx, lt.num_rows()) && rt.num_rows() > 0) {
      // Morsels over the left input; every morsel pairs its left rows with
      // the whole right side into a local table. Work (candidate pairs) is
      // tallied in a shared atomic bounded by the remaining budget, so a
      // runaway product still trips ResourceExhausted — at left-row
      // granularity instead of per pair.
      size_t morsel = ctx->morsel_size();
      size_t num_morsels = parallel::NumMorsels(lt.num_rows(), morsel);
      std::vector<Table> locals(num_morsels, Table(out_schema));
      std::atomic<uint64_t> shared_work{0};
      const uint64_t work_limit = ctx->RemainingWork();
      Status loop = parallel::ParallelFor(
          ctx->pool(), lt.num_rows(), morsel, ctx->cancel_token(),
          [&](size_t m, size_t begin, size_t end) -> Status {
            MONSOON_DCHECK(m < locals.size());
            Table& local = locals[m];
            for (size_t li = begin; li < end; ++li) {
              // Each left row expands to |rt| pairs, so a morsel can dwarf
              // the between-morsel poll interval: poll per left row.
              MONSOON_RETURN_IF_ERROR(ctx->CheckCancelled());
              MONSOON_FAULT_POINT("exec.udf_eval.cross", li);
              for (size_t ri = 0; ri < rt.num_rows(); ++ri) {
                EmitIfPasses(&local, lt, li, rt, ri, residual);
              }
              uint64_t before = shared_work.fetch_add(rt.num_rows());
              if (before + rt.num_rows() > work_limit) {
                return Status::ResourceExhausted("work budget exceeded");
              }
            }
            return Status::OK();
          });
      Status charged = ctx->ChargeWork(shared_work.load());
      MONSOON_RETURN_IF_ERROR(loop);
      MONSOON_RETURN_IF_ERROR(charged);
      for (Table& local : locals) out->TakeRowsFrom(&local);
    } else {
      for (size_t li = 0; li < lt.num_rows(); ++li) {
        MONSOON_RETURN_IF_ERROR(ctx->CheckCancelled());
        MONSOON_FAULT_POINT("exec.udf_eval.cross", li);
        for (size_t ri = 0; ri < rt.num_rows(); ++ri) {
          MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));
          EmitIfPasses(out.get(), lt, li, rt, ri, residual);
        }
      }
    }
  } else if (options_.join_algorithm == JoinAlgorithm::kSortMerge) {
    // Sort-merge join: materialize composite keys, sort row ids on both
    // sides, then merge runs of equal keys. Stays serial — it exists as
    // bench_micro's ablation of the (default, parallelized) hash join.
    algo = "sort-merge";
    size_t nkeys = equi.size();
    const size_t key_batch = std::max<size_t>(1, ctx->batch_size());
    // Keys live in flat typed columns (cached columns viewed in place,
    // uncached terms filled batch-wise) instead of a boxed Value per row
    // per key; sort and merge compare flat entries via FlatView, whose
    // ordering matches Value's variant ordering exactly.
    std::vector<FlatColumn> lflat, rflat;
    std::vector<FlatView> lviews(nkeys), rviews(nkeys);
    auto make_keys = [&](const Table& table, bool is_left,
                         std::vector<FlatColumn>* flat,
                         std::vector<FlatView>* views,
                         std::vector<size_t>* order) -> Status {
      const auto& cols = is_left ? left_cols : right_cols;
      if (keys_cached) {
        for (size_t k = 0; k < nkeys; ++k) (*views)[k] = FlatView::Of(*cols[k]);
      } else {
        flat->resize(nkeys);
        for (size_t k = 0; k < nkeys; ++k) {
          const auto& pair = equi[k];
          const BoundTerm& key = is_left ? pair.left_key : pair.right_key;
          (*flat)[k].Resize(key.result_type(), table.num_rows());
          (*views)[k] = FlatView::Of((*flat)[k]);
        }
      }
      for (size_t b = 0; b < table.num_rows(); b += key_batch) {
        MONSOON_RETURN_IF_ERROR(ctx->CheckCancelled());
        size_t e = std::min(table.num_rows(), b + key_batch);
        for (size_t row = b; row < e; ++row) {
          MONSOON_FAULT_POINT("exec.udf_eval.join_key", row);
        }
        if (!keys_cached) {
          for (size_t k = 0; k < nkeys; ++k) {
            const auto& pair = equi[k];
            const BoundTerm& key = is_left ? pair.left_key : pair.right_key;
            MONSOON_RETURN_IF_ERROR((*flat)[k].Fill(key, table, b, e, b));
          }
        }
      }
      order->resize(table.num_rows());
      for (size_t i = 0; i < order->size(); ++i) (*order)[i] = i;
      std::sort(order->begin(), order->end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < nkeys; ++k) {
          int c = FlatView::Compare((*views)[k], a, (*views)[k], b);
          if (c != 0) return c < 0;
        }
        return false;
      });
      return Status::OK();
    };
    std::vector<size_t> lorder, rorder;
    MONSOON_RETURN_IF_ERROR(make_keys(lt, /*is_left=*/true, &lflat, &lviews, &lorder));
    MONSOON_RETURN_IF_ERROR(make_keys(rt, /*is_left=*/false, &rflat, &rviews, &rorder));
    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(lt.num_rows() + rt.num_rows()));

    auto key_equal = [&](size_t li, size_t ri) {
      for (size_t k = 0; k < nkeys; ++k) {
        if (!FlatView::Equal(lviews[k], li, rviews[k], ri)) return false;
      }
      return true;
    };
    // Lexicographic comparison of a left-side key against a right-side key.
    auto key_less = [&](size_t li, size_t ri) {
      for (size_t k = 0; k < nkeys; ++k) {
        int c = FlatView::Compare(lviews[k], li, rviews[k], ri);
        if (c != 0) return c < 0;
      }
      return false;
    };
    auto key_greater = [&](size_t li, size_t ri) {
      for (size_t k = 0; k < nkeys; ++k) {
        int c = FlatView::Compare(lviews[k], li, rviews[k], ri);
        if (c != 0) return c > 0;
      }
      return false;
    };
    auto same_side_equal = [&](const std::vector<FlatView>& views, size_t a,
                               size_t b) {
      for (size_t k = 0; k < nkeys; ++k) {
        if (!FlatView::Equal(views[k], a, views[k], b)) return false;
      }
      return true;
    };

    size_t li = 0, ri = 0;
    while (li < lorder.size() && ri < rorder.size()) {
      // The merge is serial and a skewed key can hold a run for a long
      // time, so the cancellation poll sits ahead of the advance/emit arms.
      MONSOON_RETURN_IF_ERROR(ctx->CheckCancelled());
      size_t lrow = lorder[li];
      size_t rrow = rorder[ri];
      if (key_less(lrow, rrow)) {
        ++li;
        continue;
      }
      if (key_greater(lrow, rrow)) {
        ++ri;
        continue;
      }
      if (!key_equal(lrow, rrow)) {
        // NaN keys compare unordered-equal; skip safely.
        ++li;
        continue;
      }
      // Extents of the equal run on both sides.
      size_t lend = li + 1;
      while (lend < lorder.size() && same_side_equal(lviews, lorder[lend], lrow)) {
        ++lend;
      }
      size_t rend = ri + 1;
      while (rend < rorder.size() && same_side_equal(rviews, rorder[rend], rrow)) {
        ++rend;
      }
      for (size_t a = li; a < lend; ++a) {
        for (size_t b = ri; b < rend; ++b) {
          MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(1));
          EmitIfPasses(out.get(), lt, lorder[a], rt, rorder[b], residual);
        }
      }
      li = lend;
      ri = rend;
    }
  } else if (ctx->num_shards() > 1) {
    // Sharded hash join: build and probe both run per-shard under the
    // shard supervisor (kill → discard that shard's partials → bounded
    // retry of only that shard). Key columns stay whole-side — the
    // probe's confirm step random-accesses arbitrary build rows — so a
    // recovered shard recomputes only its key hashes (absolute disjoint
    // slots, idempotent across attempts) and its probes (commit-on-success
    // locals). The scatter/index/Bloom merge between the two passes is the
    // same serial-row-order code as the parallel join, so the index is a
    // function of build contents only.
    algo = "hash-sharded";
    obs::TraceSpan build_span("exec", "join.build");
    bool build_left = lt.num_rows() <= rt.num_rows();
    const Table& build = build_left ? lt : rt;
    const Table& probe = build_left ? rt : lt;
    size_t nkeys = equi.size();

    std::vector<const BoundTerm*> build_terms;
    std::vector<const BoundTerm*> probe_terms;
    build_terms.reserve(nkeys);
    probe_terms.reserve(nkeys);
    for (const auto& pair : equi) {
      build_terms.push_back(build_left ? &pair.left_key : &pair.right_key);
      probe_terms.push_back(build_left ? &pair.right_key : &pair.left_key);
    }
    const auto& build_cols = build_left ? left_cols : right_cols;
    const auto& probe_cols = build_left ? right_cols : left_cols;

    std::vector<FlatColumn> build_flat;
    std::vector<FlatView> build_views(nkeys);
    if (keys_cached) {
      for (size_t k = 0; k < nkeys; ++k) {
        build_views[k] = FlatView::Of(*build_cols[k]);
      }
    } else {
      build_flat.resize(nkeys);
      for (size_t k = 0; k < nkeys; ++k) {
        build_flat[k].Resize(build_terms[k]->result_type(), build.num_rows());
        build_views[k] = FlatView::Of(build_flat[k]);
      }
    }
    std::vector<uint64_t> build_hashes(build.num_rows());
    HashBuildOperator build_op(&build_terms, keys_cached, &build_flat,
                               &build_views, &build_hashes);
    shard::ShardMapPtr build_map =
        ResolveShardMap(build_left ? left.shards : right.shards,
                        build.num_rows(), ctx->num_shards());
    {
      shard::ShardRunStats stats;
      Status run = shard::RunSharded(
          ctx->pool(), ctx->cancel_token(), *build_map, shard::kShardExecPoint,
          [&](size_t s, size_t begin, size_t end, uint32_t attempt) -> Status {
            Pipeline pipeline;
            pipeline.Add(&build_op);
            const size_t mid = begin + (end - begin) / 2;
            MONSOON_RETURN_IF_ERROR(pipeline.Run(build, begin, mid, ctx));
            MONSOON_RETURN_IF_ERROR(
                fault::FireAttempt(shard::kShardExecPoint, s, attempt));
            return pipeline.Run(build, mid, end, ctx);
          },
          &stats);
      ctx->AddShardStats(stats);
      MONSOON_RETURN_IF_ERROR(run);
    }

    std::vector<std::vector<size_t>> partition_rows(kBuildPartitions);
    for (auto& rows : partition_rows) {
      rows.reserve(build.num_rows() / kBuildPartitions + 1);
    }
    // A shift and a pointer append per row, bracketed by polling shard /
    // ParallelFor passes (see the parallel join's scatter).
    for (size_t row = 0; row < build.num_rows(); ++row) {  // NOLINT(monsoon-analyze-must-poll)
      size_t p = build_hashes[row] >> kBuildPartitionShift;
      MONSOON_DCHECK(p < kBuildPartitions);
      partition_rows[p].push_back(row);
    }
    std::vector<std::unordered_multimap<uint64_t, size_t>> partitions(
        kBuildPartitions);
    MONSOON_RETURN_IF_ERROR(parallel::ParallelFor(
        ctx->pool(), kBuildPartitions, 1, ctx->cancel_token(),
        [&](size_t p, size_t, size_t) {
          partitions[p].reserve(partition_rows[p].size() * 2);
          for (size_t row : partition_rows[p]) {
            partitions[p].emplace(build_hashes[row], row);
          }
          return Status::OK();
        }));
    std::unique_ptr<JoinBloomFilter> bloom;
    if (ctx->batch_size() > 1) {
      bloom = std::make_unique<JoinBloomFilter>(build.num_rows());
      for (uint64_t h : build_hashes) bloom->AddHash(h);
    }
    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(build.num_rows()));
    build_span.Arg("rows", static_cast<uint64_t>(build.num_rows()));
    build_span.End();

    // Probe: one supervised body per probe-side shard, emitting into a
    // local table with a local work tally, both committed only on success
    // — a killed attempt's rows and tally die with it, so the shared
    // tally counts every shard exactly once and the merged output equals
    // the unsharded row multiset at any thread count.
    obs::TraceSpan probe_span("exec", "join.probe");
    probe_span.Arg("rows", static_cast<uint64_t>(probe.num_rows()));
    shard::ShardMapPtr probe_map =
        ResolveShardMap(build_left ? right.shards : left.shards,
                        probe.num_rows(), ctx->num_shards());
    std::vector<Table> locals(probe_map->num_shards(), Table(out_schema));
    std::atomic<uint64_t> shared_work{0};
    const uint64_t work_limit = ctx->RemainingWork();
    std::vector<FlatView> probe_views(keys_cached ? nkeys : 0);
    for (size_t k = 0; k < probe_views.size(); ++k) {
      probe_views[k] = FlatView::Of(*probe_cols[k]);
    }
    HashProbeOperator::Spec spec;
    spec.lt = &lt;
    spec.rt = &rt;
    spec.build_left = build_left;
    spec.keys_cached = keys_cached;
    spec.probe_terms = &probe_terms;
    spec.build_views = &build_views;
    spec.probe_views = &probe_views;
    spec.partitions = &partitions;
    spec.bloom = bloom.get();
    spec.residual = &residual;
    spec.out_schema = &out_schema;
    {
      shard::ShardRunStats stats;
      Status run = shard::RunSharded(
          ctx->pool(), ctx->cancel_token(), *probe_map, shard::kShardExecPoint,
          [&](size_t s, size_t begin, size_t end, uint32_t attempt) -> Status {
            uint64_t local_work = 0;
            Table attempt_local(out_schema);
            HashProbeOperator probe_op(spec, &attempt_local, &local_work);
            Pipeline pipeline;
            pipeline.Add(&probe_op);
            const size_t mid = begin + (end - begin) / 2;
            MONSOON_RETURN_IF_ERROR(pipeline.Run(probe, begin, mid, ctx));
            MONSOON_RETURN_IF_ERROR(
                fault::FireAttempt(shard::kShardExecPoint, s, attempt));
            MONSOON_RETURN_IF_ERROR(pipeline.Run(probe, mid, end, ctx));
            uint64_t before = shared_work.fetch_add(local_work);
            if (before + local_work > work_limit) {
              return Status::ResourceExhausted("work budget exceeded");
            }
            probe_op.Flush();
            locals[s] = std::move(attempt_local);
            return Status::OK();
          },
          &stats);
      ctx->AddShardStats(stats);
      Status charged = ctx->ChargeWork(shared_work.load());
      MONSOON_RETURN_IF_ERROR(run);
      MONSOON_RETURN_IF_ERROR(charged);
    }
    out_map = MapFromShardOutputs(locals);
    for (Table& local : locals) out->TakeRowsFrom(&local);
  } else if (WorthParallel(ctx, std::max(lt.num_rows(), rt.num_rows()))) {
    // Parallel hash join: partitioned build + morsel-driven probe.
    algo = "hash-parallel";
    obs::TraceSpan build_span("exec", "join.build");
    bool build_left = lt.num_rows() <= rt.num_rows();
    const Table& build = build_left ? lt : rt;
    const Table& probe = build_left ? rt : lt;
    size_t nkeys = equi.size();
    size_t morsel = ctx->morsel_size();
    parallel::ThreadPool* pool = ctx->pool();

    // Per-side key vectors, hoisted and reserve()d once instead of
    // re-selecting build_left per row per key (fallback path), and the
    // cached columns oriented the same way.
    std::vector<const BoundTerm*> build_terms;
    std::vector<const BoundTerm*> probe_terms;
    build_terms.reserve(nkeys);
    probe_terms.reserve(nkeys);
    for (const auto& pair : equi) {
      build_terms.push_back(build_left ? &pair.left_key : &pair.right_key);
      probe_terms.push_back(build_left ? &pair.right_key : &pair.left_key);
    }
    const auto& build_cols = build_left ? left_cols : right_cols;
    const auto& probe_cols = build_left ? right_cols : left_cols;

    // Build phase 1 (parallel): composite key hashes, from cached hash
    // columns when available (strings never re-hashed); the fallback fills
    // whole-side FlatColumns the probe's confirm step compares against —
    // no boxed key Values on either path. Morsels drive the shared
    // HashBuildOperator over disjoint row ranges.
    std::vector<FlatColumn> build_flat;
    std::vector<FlatView> build_views(nkeys);
    if (keys_cached) {
      for (size_t k = 0; k < nkeys; ++k) {
        build_views[k] = FlatView::Of(*build_cols[k]);
      }
    } else {
      build_flat.resize(nkeys);
      for (size_t k = 0; k < nkeys; ++k) {
        build_flat[k].Resize(build_terms[k]->result_type(), build.num_rows());
        build_views[k] = FlatView::Of(build_flat[k]);
      }
    }
    std::vector<uint64_t> build_hashes(build.num_rows());
    HashBuildOperator build_op(&build_terms, keys_cached, &build_flat,
                               &build_views, &build_hashes);
    MONSOON_RETURN_IF_ERROR(parallel::ParallelFor(
        pool, build.num_rows(), morsel, ctx->cancel_token(),
        [&](size_t, size_t begin, size_t end) {
          return Pipeline().Add(&build_op).Run(build, begin, end, ctx);
        }));

    // Build phase 2: scatter rows to partitions in row order (serial, a
    // pointer append per row), then build each partition's table in
    // parallel. Per-partition row order equals global build order, so the
    // partition tables are independent of the thread count.
    std::vector<std::vector<size_t>> partition_rows(kBuildPartitions);
    for (auto& rows : partition_rows) {
      rows.reserve(build.num_rows() / kBuildPartitions + 1);
    }
    // A shift and a pointer append per row, with polling ParallelFor calls
    // immediately before and after: a poll inside would cost more than the
    // loop body.
    for (size_t row = 0; row < build.num_rows(); ++row) {  // NOLINT(monsoon-analyze-must-poll)
      size_t p = build_hashes[row] >> kBuildPartitionShift;
      MONSOON_DCHECK(p < kBuildPartitions);
      partition_rows[p].push_back(row);
    }
    std::vector<std::unordered_multimap<uint64_t, size_t>> partitions(
        kBuildPartitions);
    MONSOON_RETURN_IF_ERROR(parallel::ParallelFor(
        pool, kBuildPartitions, 1, ctx->cancel_token(),
        [&](size_t p, size_t, size_t) {
          partitions[p].reserve(partition_rows[p].size() * 2);
          for (size_t row : partition_rows[p]) {
            partitions[p].emplace(build_hashes[row], row);
          }
          return Status::OK();
        }));
    // Build-side Bloom filter (vectorized mode only): pre-screens probe
    // hashes so misses never touch a partition's hash table. It stores
    // exactly the hashes in the index, so a reject implies an empty
    // equal_range — the cost model cannot observe the difference.
    std::unique_ptr<JoinBloomFilter> bloom;
    if (ctx->batch_size() > 1) {
      bloom = std::make_unique<JoinBloomFilter>(build.num_rows());
      for (uint64_t h : build_hashes) bloom->AddHash(h);
    }
    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(build.num_rows()));
    build_span.Arg("rows", static_cast<uint64_t>(build.num_rows()));
    build_span.End();

    // Probe phase (parallel): morsels emit into local tables merged in
    // morsel order; probe work (rows + hash candidates) accumulates in a
    // shared atomic tally charged once at the barrier, bounded by the
    // remaining budget so oversized joins still trip the timeout.
    obs::TraceSpan probe_span("exec", "join.probe");
    probe_span.Arg("rows", static_cast<uint64_t>(probe.num_rows()));
    size_t num_morsels = parallel::NumMorsels(probe.num_rows(), morsel);
    std::vector<Table> locals(num_morsels, Table(out_schema));
    std::atomic<uint64_t> shared_work{0};
    const uint64_t work_limit = ctx->RemainingWork();
    std::vector<FlatView> probe_views(keys_cached ? nkeys : 0);
    for (size_t k = 0; k < probe_views.size(); ++k) {
      probe_views[k] = FlatView::Of(*probe_cols[k]);
    }
    HashProbeOperator::Spec spec;
    spec.lt = &lt;
    spec.rt = &rt;
    spec.build_left = build_left;
    spec.keys_cached = keys_cached;
    spec.probe_terms = &probe_terms;
    spec.build_views = &build_views;
    spec.probe_views = &probe_views;
    spec.partitions = &partitions;
    spec.bloom = bloom.get();
    spec.residual = &residual;
    spec.out_schema = &out_schema;
    Status loop = parallel::ParallelFor(
        pool, probe.num_rows(), morsel, ctx->cancel_token(),
        [&](size_t m, size_t begin, size_t end) -> Status {
          MONSOON_DCHECK(m < locals.size());
          uint64_t local_work = 0;
          HashProbeOperator probe_op(spec, &locals[m], &local_work);
          MONSOON_RETURN_IF_ERROR(
              Pipeline().Add(&probe_op).Run(probe, begin, end, ctx));
          uint64_t before = shared_work.fetch_add(local_work);
          if (before + local_work > work_limit) {
            return Status::ResourceExhausted("work budget exceeded");
          }
          probe_op.Flush();
          return Status::OK();
        });
    Status charged = ctx->ChargeWork(shared_work.load());
    MONSOON_RETURN_IF_ERROR(loop);
    MONSOON_RETURN_IF_ERROR(charged);
    for (Table& local : locals) out->TakeRowsFrom(&local);
  } else {
    // Serial hash join: build on the smaller input.
    algo = "hash-serial";
    obs::TraceSpan build_span("exec", "join.build");
    bool build_left = lt.num_rows() <= rt.num_rows();
    const Table& build = build_left ? lt : rt;
    const Table& probe = build_left ? rt : lt;

    size_t nkeys = equi.size();
    // Hoisted per-side key vectors and reserve()d scratch buffers shared
    // by the cached and fallback paths (see the parallel join above).
    std::vector<const BoundTerm*> build_terms;
    std::vector<const BoundTerm*> probe_terms;
    build_terms.reserve(nkeys);
    probe_terms.reserve(nkeys);
    for (const auto& pair : equi) {
      build_terms.push_back(build_left ? &pair.left_key : &pair.right_key);
      probe_terms.push_back(build_left ? &pair.right_key : &pair.left_key);
    }
    const auto& build_cols = build_left ? left_cols : right_cols;
    const auto& probe_cols = build_left ? right_cols : left_cols;

    // Build through the same operator as the parallel join, plus a serial
    // index-insert sink that emplaces rows in order; uncached keys land in
    // whole-side FlatColumns the probe compares against (no boxed Values).
    std::vector<FlatColumn> build_flat;
    std::vector<FlatView> build_views(nkeys);
    if (keys_cached) {
      for (size_t k = 0; k < nkeys; ++k) {
        build_views[k] = FlatView::Of(*build_cols[k]);
      }
    } else {
      build_flat.resize(nkeys);
      for (size_t k = 0; k < nkeys; ++k) {
        build_flat[k].Resize(build_terms[k]->result_type(), build.num_rows());
        build_views[k] = FlatView::Of(build_flat[k]);
      }
    }
    std::vector<uint64_t> build_hashes(build.num_rows());
    std::unordered_multimap<uint64_t, size_t> index;
    index.reserve(build.num_rows() * 2);
    HashBuildOperator build_op(&build_terms, keys_cached, &build_flat,
                               &build_views, &build_hashes);
    IndexInsertOperator insert_op(&build_hashes, &index);
    MONSOON_RETURN_IF_ERROR(Pipeline().Add(&build_op).Add(&insert_op).Run(
        build, 0, build.num_rows(), ctx));
    std::unique_ptr<JoinBloomFilter> bloom;
    if (ctx->batch_size() > 1) {
      bloom = std::make_unique<JoinBloomFilter>(build.num_rows());
      for (uint64_t h : build_hashes) bloom->AddHash(h);
    }
    MONSOON_RETURN_IF_ERROR(ctx->ChargeWork(build.num_rows()));
    build_span.Arg("rows", static_cast<uint64_t>(build.num_rows()));
    build_span.End();

    obs::TraceSpan probe_span("exec", "join.probe");
    probe_span.Arg("rows", static_cast<uint64_t>(probe.num_rows()));
    std::vector<FlatView> probe_views(keys_cached ? nkeys : 0);
    for (size_t k = 0; k < probe_views.size(); ++k) {
      probe_views[k] = FlatView::Of(*probe_cols[k]);
    }
    HashProbeOperator::Spec spec;
    spec.lt = &lt;
    spec.rt = &rt;
    spec.build_left = build_left;
    spec.keys_cached = keys_cached;
    spec.probe_terms = &probe_terms;
    spec.build_views = &build_views;
    spec.probe_views = &probe_views;
    spec.index = &index;
    spec.bloom = bloom.get();
    spec.residual = &residual;
    spec.out_schema = &out_schema;
    HashProbeOperator probe_op(spec, out.get(), /*work_tally=*/nullptr);
    MONSOON_RETURN_IF_ERROR(
        Pipeline().Add(&probe_op).Run(probe, 0, probe.num_rows(), ctx));
    probe_op.Flush();
  }

  // The join's output objects are the paper's cost for this node.
  MONSOON_RETURN_IF_ERROR(ctx->Charge(out->num_rows()));
  join_rows_metric->Observe(out->num_rows());
  span.Arg("algo", algo)
      .Arg("keys_cached", keys_cached)
      .Arg("rows_out", static_cast<uint64_t>(out->num_rows()));

  MaterializedExpr result;
  result.sig = node->output_sig();
  result.schema = std::move(out_schema);
  result.table = std::move(out);
  result.shards = std::move(out_map);
  return result;
}

Status Executor::CollectStats(const MaterializedExpr& expr,
                              MaterializedStore* store, ExecContext* ctx,
                              std::vector<DistinctObservation>* obs) const {
  // Fully qualified: the `obs` out-parameter shadows the obs:: namespace.
  static ::monsoon::obs::Counter* const sigma_ops_metric =
      ::monsoon::obs::Registry::Global().GetCounter("exec.sigma_ops");

  sigma_ops_metric->Add(1);
  ::monsoon::obs::TraceSpan span("exec", "sigma");
  span.Arg("rows", static_cast<uint64_t>(expr.table->num_rows()));
  WallTimer timer;
  RelSet expr_rels(expr.sig.rels);

  // One HLL pass per UDF term evaluable over this expression (the paper's
  // Σ computes "the number of distinct values returned by r for all UDFs
  // that are referenced in the query").
  std::vector<std::pair<int, BoundTerm>> terms;
  std::vector<int> seen;
  for (const UdfTerm* term : query_.AllTerms()) {
    if (!expr_rels.ContainsAll(term->rels)) continue;
    if (std::find(seen.begin(), seen.end(), term->term_id) != seen.end()) continue;
    seen.push_back(term->term_id);
    MONSOON_ASSIGN_OR_RETURN(BoundTerm bound,
                             BoundTerm::Bind(*term, expr.schema, *registry_));
    terms.emplace_back(term->term_id, std::move(bound));
  }
  span.Arg("terms", static_cast<uint64_t>(terms.size()));
  if (terms.empty()) return Status::OK();

  // Whole-pass fault point (coordinate = input cardinality, identical in
  // serial and parallel execution): lets fault specs kill Σ passes
  // outright to exercise the prior-only degradation path.
  MONSOON_FAULT_POINT("exec.sigma.pass", expr.table->num_rows());

  // Evaluate-once columns per term: repeated Σ passes over the same
  // materialized expression (the plan → Σ → re-plan loop) hit the cache
  // and feed precomputed hashes straight into the sketches. Terms whose
  // column is unavailable fall back per-row, independently of the rest.
  // Sharded passes build shard-scoped columns inside each supervised body
  // instead, so a killed shard's partial fills die with the attempt.
  const bool sharded = ctx->num_shards() > 1;
  std::vector<CachedUdfColumnPtr> term_cols(terms.size());
  if (!sharded && store != nullptr && store->udf_cache()->enabled() &&
      StoreResident(*store, expr)) {
    for (size_t t = 0; t < terms.size(); ++t) {
      MONSOON_ASSIGN_OR_RETURN(
          term_cols[t],
          TolerateCacheFault(
              ctx, store->udf_cache()->GetOrBuild(
                       expr.sig, terms[t].first, terms[t].second, expr.table,
                       ctx->pool(), ctx->morsel_size(), ctx->cancel_token())));
    }
  }
  for (size_t t = 0; t < terms.size(); ++t) {
    MONSOON_DCHECK(term_cols[t] == nullptr ||
                   term_cols[t]->size() == expr.table->num_rows())
        << "cached column for term " << terms[t].first << " is stale";
  }
  std::vector<HyperLogLog> sketches(terms.size(),
                                    HyperLogLog(options_.hll_precision));
  const Table& table = *expr.table;
  if (sharded) {
    // Sharded Σ: each shard folds its rows into a fresh sketch set per
    // attempt (with shard-scoped evaluate-once columns) and commits the
    // set only on success. The register-wise max merge in shard order is
    // exact and order-independent, so the distinct counts are
    // bit-identical to the serial pass — including across a recovered
    // shard kill. A shard failed past the retry budget propagates its
    // (shard-naming) transient status, which the caller degrades to
    // prior-only planning for this relation.
    shard::ShardMapPtr map =
        ResolveShardMap(expr.shards, table.num_rows(), ctx->num_shards());
    std::vector<std::vector<HyperLogLog>> shard_sketches(
        map->num_shards(),
        std::vector<HyperLogLog>(terms.size(),
                                 HyperLogLog(options_.hll_precision)));
    const bool cache_on = store != nullptr && store->udf_cache()->enabled() &&
                          StoreResident(*store, expr);
    shard::ShardRunStats stats;
    Status run = shard::RunSharded(
        ctx->pool(), ctx->cancel_token(), *map, shard::kShardExecPoint,
        [&](size_t s, size_t begin, size_t end, uint32_t attempt) -> Status {
          std::vector<CachedUdfColumnPtr> local_cols(terms.size());
          if (cache_on) {
            for (size_t t = 0; t < terms.size(); ++t) {
              MONSOON_ASSIGN_OR_RETURN(
                  local_cols[t],
                  TolerateCacheFault(
                      ctx, store->udf_cache()->GetOrBuildShard(
                               expr.sig, terms[t].first, terms[t].second,
                               expr.table, begin, end, ctx->cancel_token())));
            }
          }
          std::vector<HyperLogLog> local(terms.size(),
                                         HyperLogLog(options_.hll_precision));
          SigmaOperator sigma_op(&terms, &local_cols, &local,
                                 /*col_base=*/begin);
          Pipeline pipeline;
          pipeline.Add(&sigma_op);
          const size_t mid = begin + (end - begin) / 2;
          MONSOON_RETURN_IF_ERROR(pipeline.Run(table, begin, mid, ctx));
          MONSOON_RETURN_IF_ERROR(
              fault::FireAttempt(shard::kShardExecPoint, s, attempt));
          MONSOON_RETURN_IF_ERROR(pipeline.Run(table, mid, end, ctx));
          shard_sketches[s] = std::move(local);
          return Status::OK();
        },
        &stats);
    ctx->AddShardStats(stats);
    MONSOON_RETURN_IF_ERROR(run);
    // Merge iterates sketch sets, not rows (register-wise max).
    for (const std::vector<HyperLogLog>& local : shard_sketches) {  // NOLINT(monsoon-analyze-must-poll)
      MONSOON_DCHECK(local.size() == sketches.size());
      for (size_t t = 0; t < terms.size(); ++t) {
        MONSOON_RETURN_IF_ERROR(sketches[t].Merge(local[t]));
      }
    }
  } else if (WorthParallel(ctx, table.num_rows())) {
    // One sketch set per morsel, merged at the barrier. The HLL merge is
    // register-wise max — exact, order- and grouping-independent — so the
    // observed distinct counts are bit-identical to the serial pass. Σ
    // morsels are widened to a handful per thread: sketch sets cost 2^p
    // bytes per term each, so many small morsels would waste memory for
    // no extra balance.
    parallel::ThreadPool* pool = ctx->pool();
    size_t morsel =
        std::max(ctx->morsel_size(),
                 table.num_rows() / (4 * static_cast<size_t>(pool->num_threads())) + 1);
    size_t num_morsels = parallel::NumMorsels(table.num_rows(), morsel);
    std::vector<std::vector<HyperLogLog>> morsel_sketches(
        num_morsels,
        std::vector<HyperLogLog>(terms.size(), HyperLogLog(options_.hll_precision)));
    MONSOON_RETURN_IF_ERROR(parallel::ParallelFor(
        pool, table.num_rows(), morsel, ctx->cancel_token(),
        [&](size_t m, size_t begin, size_t end) -> Status {
          MONSOON_DCHECK(m < morsel_sketches.size());
          SigmaOperator sigma_op(&terms, &term_cols, &morsel_sketches[m]);
          return Pipeline().Add(&sigma_op).Run(table, begin, end, ctx);
        }));
    // Iterates sketch sets (a handful per thread), not rows; the merge is
    // register-wise max over fixed-size arrays.
    for (const std::vector<HyperLogLog>& local : morsel_sketches) {  // NOLINT(monsoon-analyze-must-poll)
      // Register-wise max requires equal precision on every per-morsel
      // sketch; all are built from options_.hll_precision above.
      MONSOON_DCHECK(local.size() == sketches.size());
      for (size_t t = 0; t < terms.size(); ++t) {
        MONSOON_RETURN_IF_ERROR(sketches[t].Merge(local[t]));
      }
    }
  } else {
    SigmaOperator sigma_op(&terms, &term_cols, &sketches);
    MONSOON_RETURN_IF_ERROR(
        Pipeline().Add(&sigma_op).Run(table, 0, table.num_rows(), ctx));
  }
  // Statistics collection is another pass over the data (Sec. 4.4). The
  // charge stays at the END of the pass on purpose: a Σ pass lost to a
  // fault charges exactly nothing at every thread count, which keeps
  // degraded-run accounting deterministic.
  MONSOON_RETURN_IF_ERROR(ctx->Charge(table.num_rows()));

  for (size_t t = 0; t < terms.size(); ++t) {
    DistinctObservation observation;
    observation.term_id = terms[t].first;
    observation.expr = expr.sig;
    observation.distinct_count = std::max(0.0, std::round(sketches[t].Estimate()));
    obs->push_back(observation);
  }
  ctx->AddStatsCollectSeconds(timer.Seconds());
  return Status::OK();
}

}  // namespace monsoon
