#include "catalog/stats_store.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace monsoon {

std::optional<double> StatsStore::LookupCount(const ExprSig& expr) const {
  auto it = counts_.find(expr);
  if (it == counts_.end()) return std::nullopt;
  return it->second;
}

void StatsStore::SetCount(const ExprSig& expr, double count) {
  counts_[expr] = count;
}

std::optional<double> StatsStore::LookupCountByRels(RelSet rels) const {
  std::optional<double> best;
  int best_preds = -1;
  for (const auto& [sig, count] : counts_) {
    if (RelSet(sig.rels) != rels) continue;
    int npreds = __builtin_popcountll(sig.preds);
    if (npreds > best_preds) {
      best_preds = npreds;
      best = count;
    }
  }
  return best;
}

std::optional<double> StatsStore::LookupDistinct(int term_id, const ExprSig& expr,
                                                 const ExprSig& partner) const {
  ExprSig norm_partner = NormalizePartner(partner);
  // 1. Exact key.
  auto it = distincts_.find(DistinctKey{term_id, expr, norm_partner});
  if (it != distincts_.end()) return it->second;
  // 2. Wildcard partner (a true observation).
  if (!norm_partner.IsAny()) {
    it = distincts_.find(DistinctKey{term_id, expr, ExprSig::Any()});
    if (it != distincts_.end()) return it->second;
  }
  // 3/4. Containment: entries over a sub-expression, preferring an exact
  // partner match, then wildcard observations; within a tier, the entry
  // over the largest (most specific) relation set, ties going to the first
  // in iteration order. The index rules out most calls without the scan.
  RelSet expr_rels(expr.rels);
  if (!HasDistinctInfo(term_id, expr_rels)) return std::nullopt;
  std::optional<double> best;
  int best_tier = -1;  // 1 = exact partner, 0 = wildcard
  int best_rels = -1;
  for (const auto& [key, value] : distincts_) {
    if (key.term_id != term_id) continue;
    RelSet entry_rels(key.expr.rels);
    if (!expr_rels.ContainsAll(entry_rels)) continue;
    int tier;
    if (key.partner == norm_partner && !norm_partner.IsAny()) {
      tier = 1;
    } else if (key.partner.IsAny()) {
      tier = 0;
    } else {
      continue;  // partner-specific sample for a different partner
    }
    int nrels = entry_rels.count();
    if (tier > best_tier || (tier == best_tier && nrels > best_rels)) {
      best_tier = tier;
      best_rels = nrels;
      best = value;
    }
  }
  return best;
}

bool StatsStore::HasDistinctInfo(int term_id, RelSet expr_rels) const {
  uint64_t mask = expr_rels.mask();
  // A subset's mask is never larger than its superset's, so the term's
  // entries (sorted by mask) can stop at the first one above `mask`.
  for (auto it = std::lower_bound(term_rels_.begin(), term_rels_.end(),
                                  TermRels{term_id, 0});
       it != term_rels_.end() && it->term_id == term_id && it->rels <= mask; ++it) {
    if ((it->rels & ~mask) == 0) return true;
  }
  return false;
}

void StatsStore::SetDistinct(int term_id, const ExprSig& expr, const ExprSig& partner,
                             double count) {
  bool inserted =
      distincts_.insert_or_assign(DistinctKey{term_id, expr, NormalizePartner(partner)},
                                  count)
          .second;
  if (!inserted) return;
  TermRels entry{term_id, expr.rels};
  auto pos = std::lower_bound(term_rels_.begin(), term_rels_.end(), entry);
  if (pos == term_rels_.end() || *pos != entry) term_rels_.insert(pos, entry);
}

uint64_t StatsStore::Fingerprint() const {
  // XOR of per-entry hashes: order-independent, cheap to compute.
  uint64_t fp = 0x12345678abcdef01ULL;
  for (const auto& [sig, count] : counts_) {
    uint64_t entry = HashCombine(sig.Hash(), Mix64(static_cast<uint64_t>(
                                                 std::llround(count))));
    fp ^= Mix64(entry);
  }
  for (const auto& [key, count] : distincts_) {
    uint64_t entry = HashCombine(
        DistinctKeyHash{}(key), Mix64(static_cast<uint64_t>(std::llround(count))));
    fp ^= Mix64(entry ^ 0x5bd1e995u);
  }
  return fp;
}

std::string StatsStore::ToString() const {
  std::ostringstream out;
  out << "counts:\n";
  for (const auto& [sig, count] : counts_) {
    out << "  c" << sig.ToString() << " = " << count << "\n";
  }
  out << "distincts:\n";
  for (const auto& [key, count] : distincts_) {
    out << "  d(term" << key.term_id << ", " << key.expr.ToString() << " |_ "
        << (key.partner.IsAny() ? std::string("*") : key.partner.ToString())
        << ") = " << count << "\n";
  }
  return out.str();
}

}  // namespace monsoon
