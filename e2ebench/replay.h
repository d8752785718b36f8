#ifndef E2EBENCH_REPLAY_H_
#define E2EBENCH_REPLAY_H_

// The traced run's replay of QueryEngine::Run under the cost planner,
// the planner every workload uses. It makes the calls Run makes,
// through the same public functions and in the same order, and times
// each layer's calls from outside the engine:
//
//   core.run                       root span, the whole replay
//     oosql.translate              Translator::TranslateString
//     rewrite.rewrite              Rewriter::Rewrite
//     storage.canonical_set        Table::AsSetValue per scanned extent
//     stats.refresh                StatsCatalog::Get per scanned extent
//     opt.plan                     Planner::Plan
//     storage.columnar_build       ColumnarCatalog::Get per scanned
//                                  extent (shredded backend only)
//     exec.eval                    shred::EvalWithBackend
//
// The storage and stats calls come before the calls that would fill the
// same caches from inside (planning, evaluation), so a rebuild after an
// append is charged to its own layer. A span whose layer makes no call
// under the workload's configuration (columnar on the nested backend)
// is still opened and reads its own clock overhead. The flight recorder
// runs last, outside every layer span, so its cost lands in the root's
// residual together with the plumbing between calls.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adl/value.h"
#include "common/status.h"
#include "exec/eval.h"
#include "obs/trace.h"
#include "opt/optimizer.h"
#include "storage/database.h"

namespace e2e {

enum Layer {
  kTranslate,
  kRewrite,
  kCanonicalSet,
  kStatsRefresh,
  kPlan,
  kColumnarBuild,
  kEval,
  kNumLayers,
};

/// Metric prefix of a layer: "oosql.translate", "exec.eval", ...
const char* LayerName(Layer l);

/// One timed call boundary. Spans of one query share `op`; `parent` is
/// the index of the enclosing span in the same log, -1 for the root.
struct Span {
  const char* layer;
  int shape;
  int64_t op;
  int parent;
  int64_t start_ns;
  int64_t end_ns;
};

struct ReplayResult {
  n2j::Status status;
  n2j::Value result;
  double layer_ms[kNumLayers] = {};
  double run_ms = 0.0;  // root span: layers + residual
  size_t rules_fired = 0;
  bool reordered = false;
  double max_qerror = 0.0;  // over planner-estimated operator spans
  n2j::EvalStats stats;
  uint64_t opaque_ranges = 0;  // shredded backend only
  /// The plan exec.eval ran, kept for the thread-scaling evaluations.
  std::shared_ptr<const n2j::PhysicalPlan> plan;
};

/// Steady-clock nanoseconds.
int64_t NowNs();

/// Replays one QueryEngine::Run of `text`, appending its spans to
/// `spans`. `trace` receives the evaluator's operator spans (it is
/// cleared first) and feeds max_qerror.
ReplayResult Replay(const n2j::Database& db, const std::string& text,
                    const n2j::EvalOptions& eval_options,
                    const n2j::PlannerOptions& planner_options,
                    n2j::TraceCollector* trace, int shape, int64_t op,
                    std::vector<Span>* spans);

}  // namespace e2e

#endif  // E2EBENCH_REPLAY_H_
