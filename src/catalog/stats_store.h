#ifndef MONSOON_CATALOG_STATS_STORE_H_
#define MONSOON_CATALOG_STATS_STORE_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "plan/plan_node.h"

namespace monsoon {

/// The set of statistics S from the paper's MDP state (Sec. 4.1). Two kinds
/// of entries:
///
///  * object counts c(r), keyed by expression signature;
///  * distinct-value counts d(F, r|_s), keyed by (UDF term, expression,
///    partner expression). Real observations from the Σ operator are
///    partner-independent and stored under the wildcard partner
///    ExprSig::Any(); samples drawn from a prior inside MCTS rollouts are
///    partner-specific, exactly as Sec. 4.3 prescribes.
///
/// Partner signatures are normalized to their relation set: d(F, R|_S)
/// distinguishes partners by *which relations* they cover, not by which
/// predicates have been applied to them.
///
/// Lookups walk a fallback chain so that knowledge transfers across
/// related expressions (containment assumption):
///   1. exact (expr, partner);
///   2. (expr, wildcard);
///   3. an entry for the same term and partner over a sub-expression of
///      `expr` (d(F, S|_R) answers d(F, σ(S)|_R) and d(F, (S⋈T)|_R));
///   4. a wildcard-partner entry over a sub-expression.
/// Callers clamp the result by c(expr).
///
/// Within tier 3 or tier 4, two entries over relation sets of the same
/// size may hold different values. The one met first in `distincts_`'s
/// iteration order wins, so that order is part of the contract: the
/// containment steps always scan `distincts_` itself, and any faster
/// structure may only decide that the scan would find nothing.
///
/// Term index. Next to `distincts_` the store keeps every distinct
/// (term id, relation set) that has an entry, once, in one vector sorted
/// by (term id, relation mask). HasDistinctInfo reads only the index, and
/// LookupDistinct consults it before steps 3–4, returning nothing at once
/// when no entry for the term covers a subset of `expr` (the common case
/// inside MCTS rollouts). The index is a plain member, so it is copied
/// with the store.
///
/// Value-semantic. An MDP state owns one; MCTS copies it only with a
/// state it keeps (a tree node, or the scratch state a rollout steps in
/// place), so copies are per node, not per simulated step.
class StatsStore {
 public:
  StatsStore() = default;

  // --- object counts ------------------------------------------------------
  std::optional<double> LookupCount(const ExprSig& expr) const;
  void SetCount(const ExprSig& expr, double count);
  bool HasCount(const ExprSig& expr) const { return LookupCount(expr).has_value(); }
  /// Count recorded for any expression over exactly this relation set
  /// (whatever predicates were applied), preferring the most-filtered one.
  std::optional<double> LookupCountByRels(RelSet rels) const;

  // --- distinct counts ----------------------------------------------------
  std::optional<double> LookupDistinct(int term_id, const ExprSig& expr,
                                       const ExprSig& partner) const;
  /// True if any entry exists for this term over `expr_rels` or a subset —
  /// i.e. the term's statistics are (transitively) known and a Σ pass over
  /// an expression with these relations would learn nothing new.
  bool HasDistinctInfo(int term_id, RelSet expr_rels) const;

  void SetDistinct(int term_id, const ExprSig& expr, const ExprSig& partner,
                   double count);
  /// Stores an exact, partner-independent observation.
  void SetDistinctObserved(int term_id, const ExprSig& expr, double count) {
    SetDistinct(term_id, expr, ExprSig::Any(), count);
  }

  /// Calls fn(term_id, expr, partner, count) for every distinct entry, in
  /// the iteration order that breaks fallback ties.
  template <typename Fn>
  void ForEachDistinct(Fn&& fn) const {
    for (const auto& [key, count] : distincts_) {
      fn(key.term_id, key.expr, key.partner, count);
    }
  }

  size_t num_counts() const { return counts_.size(); }
  size_t num_distincts() const { return distincts_.size(); }

  /// Order-independent fingerprint of the full contents; used to key MCTS
  /// chance-node outcomes of the EXECUTE action.
  uint64_t Fingerprint() const;

  std::string ToString() const;

 private:
  struct DistinctKey {
    int term_id;
    ExprSig expr;
    ExprSig partner;
    bool operator==(const DistinctKey& other) const {
      return term_id == other.term_id && expr == other.expr && partner == other.partner;
    }
  };
  struct DistinctKeyHash {
    size_t operator()(const DistinctKey& k) const {
      return HashCombine(HashCombine(Mix64(static_cast<uint64_t>(k.term_id)),
                                     k.expr.Hash()),
                         k.partner.Hash());
    }
  };

  static ExprSig NormalizePartner(const ExprSig& partner) {
    if (partner.IsAny()) return partner;
    return ExprSig{partner.rels, 0};
  }

  /// One term-index entry: some distinct entry of `term_id` is keyed by an
  /// expression over exactly `rels`.
  struct TermRels {
    int term_id;
    uint64_t rels;
    auto operator<=>(const TermRels&) const = default;
  };

  std::unordered_map<ExprSig, double, ExprSigHash> counts_;
  std::unordered_map<DistinctKey, double, DistinctKeyHash> distincts_;
  /// The term index, sorted and duplicate-free.
  std::vector<TermRels> term_rels_;
};

}  // namespace monsoon

#endif  // MONSOON_CATALOG_STATS_STORE_H_
