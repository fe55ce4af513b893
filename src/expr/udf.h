#ifndef MONSOON_EXPR_UDF_H_
#define MONSOON_EXPR_UDF_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"
#include "storage/value.h"

namespace monsoon {

/// A registered scalar UDF implementation. The engine treats the body as a
/// black box — exactly the "partially obscured" setting of the paper: the
/// optimizer sees only the function name and the attributes it consumes,
/// never statistics about its output.
///
/// `arg_cols` are column indices resolved against the input table's schema
/// at bind time, so per-row evaluation does no name lookups.
struct UdfFunction {
  std::string name;
  /// Output type of the function (needed to type intermediate results).
  ValueType result_type = ValueType::kInt64;
  std::function<Value(const RowRef& row, const std::vector<size_t>& arg_cols)> fn;
};

/// Process-wide registry of UDF implementations, keyed by name.
/// Workloads register their functions at setup; queries reference them by
/// name only.
class UdfRegistry {
 public:
  UdfRegistry() = default;

  /// The registry used by default across the code base. Built-ins
  /// (RegisterBuiltinUdfs) are installed on first access.
  static UdfRegistry& Global();

  Status Register(UdfFunction fn);

  /// Registers, replacing any existing function of the same name.
  void RegisterOrReplace(UdfFunction fn);

  StatusOr<const UdfFunction*> Lookup(const std::string& name) const;

  bool Contains(const std::string& name) const;

  std::vector<std::string> Names() const;

 private:
  std::map<std::string, UdfFunction> fns_;
};

/// Installs the standard library of UDFs used by the examples and the UDF
/// benchmark:
///   identity     — int passthrough (obscures a key column)
///   identity_str — string passthrough
///   bucket<K>    — registered as "bucket1000" etc.: hash an int into K buckets
///   extract_field— substring between `tag="` and the next `"` (doc parsing
///                  from the paper's introduction)
///   extract_date — leading YYYY-MM-DD of a timestamp string
///   city_from_ip — deterministic city id from a dotted-quad IP string
///   canonical_set— canonical form of a comma-separated item set (so
///                  Intersection(a,b) = Union(a,b) becomes equality of
///                  canonical forms)
///   pair_key     — combines two int attributes into one key (multi-table
///                  when the attributes come from different relations)
///   concat2      — string concatenation of two attributes
///   mod_k        — arg0 % arg1 (arg1 passed as an attribute)
void RegisterBuiltinUdfs(UdfRegistry& registry);

}  // namespace monsoon

#endif  // MONSOON_EXPR_UDF_H_
