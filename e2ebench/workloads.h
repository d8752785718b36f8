#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

// The benchmark's query shapes, workloads and seeded inputs. The engine
// receives only the generated database and the OOSQL text; nothing here
// reaches into the engine beyond its public storage API.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "exec/eval.h"
#include "storage/database.h"

namespace e2e {

enum class Shape {
  kQ1,
  kQ2,
  kQ3_1,
  kQ3_2,
  kQ4,
  kQ5,
  kQ6,
  kSemijoin,
  kChain3,
  kFlatten,
  kSelfjoin,
};

inline constexpr Shape kAllShapes[] = {
    Shape::kQ1,     Shape::kQ2,       Shape::kQ3_1,   Shape::kQ3_2,
    Shape::kQ4,     Shape::kQ5,       Shape::kQ6,     Shape::kSemijoin,
    Shape::kChain3, Shape::kFlatten,  Shape::kSelfjoin,
};
inline constexpr int kNumShapes = 11;

/// Metric tag of a shape: "q1", "q3_1", "semijoin", ...
const char* ShapeTag(Shape s);

/// Literal constants of one query. The defaults are the paper's; a
/// negative bound leaves the bound out of the query text.
struct Literals {
  std::string color = "red";
  std::string sname = "s1";
  int64_t date = 940600;
  int64_t key_bound = -1;    // semijoin: x.a < key_bound
  int64_t price_bound = -1;  // selfjoin: x.price < price_bound
};

std::string QueryText(Shape s, const Literals& lit);

/// Sizes of the generated supplier–part–delivery database and of the
/// plain X/Y/W relations of the semijoin and chain3 shapes.
struct DataSize {
  int parts = 0;
  int suppliers = 0;
  int deliveries = 0;
  int xy_rows = 0;  // |X| = |Y|; keys drawn from [0, xy_rows)
  int w_rows = 0;   // |W|; keys drawn from [0, xy_rows)
};

struct Workload {
  const char* name;
  n2j::Backend backend;
  bool parallel;  // worker threads = nproc capped at 4, else 1
  bool appends;   // one row into an extent the query reads, per query
  DataSize size;
};

/// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

/// Worker threads the workload runs with on this host.
int WorkerThreads(const Workload& w);

/// The workload's database, a pure function of (size, seed).
std::unique_ptr<n2j::Database> MakeDatabase(const DataSize& size,
                                            uint64_t seed);

/// Literals of the next append-mix query, drawn from `rng`.
Literals DrawLiterals(const DataSize& size, n2j::Rng* rng);

/// Name of the extent that shape `s` gets its row in, under append-mix.
const char* InsertExtent(Shape s);

/// Builds one new row (for a class extent: the attribute tuple without
/// the oid) for `extent`, drawn from `rng` and the rows present now.
n2j::Value MakeRow(const n2j::Database& db, const std::string& extent,
                   n2j::Rng* rng);

/// Stores a row built by MakeRow: NewObject for class extents, Insert for
/// plain tables. This is the call whose latency insert_us reports.
n2j::Status StoreRow(n2j::Database* db, const std::string& extent,
                     n2j::Value row);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
