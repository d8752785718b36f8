#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

// Independent result checks. Each shape's answer is computed from
// Table::rows() with standard containers — no parser, rewriter, planner
// or evaluator involved — and compared with the engine's result through
// the benchmark's own rendering, so neither side rests on the engine's
// Value ordering or equality.

#include <string>
#include <vector>

#include "adl/value.h"
#include "storage/database.h"
#include "workloads.h"

namespace e2e {

/// Canonical text of a value: tuples keep their field order, set
/// elements are rendered and sorted.
std::string Render(const n2j::Value& v);

/// The answer of `shape` with literals `lit` over `db`'s rows as they
/// stand now, as a set Value.
n2j::Value ExpectedAnswer(Shape shape, const Literals& lit,
                          const n2j::Database& db);

/// "" when `got` is a set with exactly the elements of `want` (no
/// duplicates, none missing, none extra); otherwise what differs.
std::string CompareSets(const n2j::Value& got, const n2j::Value& want);

}  // namespace e2e

#endif  // E2EBENCH_CHECKS_H_
