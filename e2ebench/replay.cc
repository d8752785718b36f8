#include "replay.h"

#include <algorithm>
#include <chrono>
#include <set>

#include "adl/printer.h"
#include "common/str_util.h"
#include "obs/drift.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "oosql/translate.h"
#include "rewrite/rewriter.h"
#include "shred/shred.h"
#include "stats/stats.h"
#include "storage/columnar.h"

namespace e2e {

using n2j::Database;
using n2j::ExprPtr;

const char* LayerName(Layer l) {
  switch (l) {
    case kTranslate: return "oosql.translate";
    case kRewrite: return "rewrite.rewrite";
    case kCanonicalSet: return "storage.canonical_set";
    case kStatsRefresh: return "stats.refresh";
    case kPlan: return "opt.plan";
    case kColumnarBuild: return "storage.columnar_build";
    case kEval: return "exec.eval";
    case kNumLayers: break;
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

void CollectExtents(const ExprPtr& e, std::set<std::string>* out) {
  if (e == nullptr) return;
  if (e->kind() == n2j::ExprKind::kGetTable) out->insert(e->name());
  for (size_t i = 0; i < e->num_children(); ++i) {
    CollectExtents(e->child(i), out);
  }
}

/// Opens a span on construction and closes it on destruction, adding
/// its duration to `*ms` when given.
class SpanScope {
 public:
  SpanScope(std::vector<Span>* log, const char* layer, int shape, int64_t op,
            int parent, double* ms = nullptr)
      : log_(log), ms_(ms), index_(static_cast<int>(log->size())) {
    log_->push_back(Span{layer, shape, op, parent, NowNs(), 0});
  }
  ~SpanScope() {
    Span& s = (*log_)[static_cast<size_t>(index_)];
    s.end_ns = NowNs();
    if (ms_ != nullptr) *ms_ += Ms(s.end_ns - s.start_ns);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int index() const { return index_; }

 private:
  std::vector<Span>* log_;
  double* ms_;
  int index_;
};

/// What QueryEngine::Run hands the process-wide registry and the flight
/// recorder after a successful query, made through their public calls.
void RecordOutcome(const Database& db, const std::string& text,
                   const ExprPtr& translated, const ReplayResult& r,
                   const n2j::EvalOptions& eval_options,
                   const n2j::PlannerOptions& planner_options,
                   const n2j::TraceCollector& trace, int64_t start_ns) {
  namespace obs = n2j::obs;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetHistogram("n2j_rewrite_ms").Observe(r.layer_ms[kRewrite]);
  reg.GetHistogram("n2j_eval_ms").Observe(r.layer_ms[kEval]);
  reg.GetCounter("n2j_queries_total").Add();
  reg.GetHistogram("n2j_query_ms").Observe(Ms(NowNs() - start_ns));
  const n2j::EvalStats& s = r.stats;
  reg.GetCounter("n2j_joins_nested_loop_total").Add(s.joins_nested_loop);
  reg.GetCounter("n2j_joins_hash_total").Add(s.joins_hash);
  reg.GetCounter("n2j_joins_sortmerge_total").Add(s.joins_sortmerge);
  reg.GetCounter("n2j_joins_index_total").Add(s.joins_index);
  reg.GetCounter("n2j_joins_membership_total").Add(s.joins_membership);
  reg.GetCounter("n2j_compiled_evals_total").Add(s.compiled_evals);
  reg.GetCounter("n2j_interp_fallback_evals_total")
      .Add(s.interp_fallback_evals);
  reg.GetCounter("n2j_vec_batches_total").Add(s.vec_batches);
  reg.GetCounter("n2j_vec_pipelines_total").Add(s.vec_pipelines);
  reg.GetCounter("n2j_vec_fallbacks_total").Add(s.vec_fallbacks);

  obs::QueryLog& qlog = obs::QueryLog::Global();
  if (!qlog.enabled()) return;
  obs::QueryLogRecord rec;
  rec.query = text;
  rec.strategy = n2j::PlanStrategyName(planner_options.strategy);
  rec.backend = eval_options.backend == n2j::Backend::kShredded ? "shredded"
                                                                 : "nested";
  rec.threads = eval_options.num_threads;
  rec.batch_size = eval_options.vector_batch_size;
  rec.compiled = eval_options.compiled;
  rec.vectorized = eval_options.vectorized;
  rec.wall_ms = Ms(NowNs() - start_ns);
  rec.rewrite_ms = r.layer_ms[kRewrite];
  rec.eval_ms = r.layer_ms[kEval];
  rec.stats = r.stats;
  if (r.result.is_set()) rec.rows_out = r.result.set_size();
  std::string normalized = n2j::AlgebraStr(translated);
  rec.query_hash = n2j::Fnv1a(normalized.data(), normalized.size());
  for (const n2j::TraceSpan& sp : trace.spans()) {
    if (sp.est_rows < 0.0) continue;
    obs::RootEstimate e;
    e.op = sp.detail.empty() ? sp.op : sp.op + " [" + sp.detail + "]";
    e.est = sp.est_rows;
    e.actual = sp.rows_out;
    e.q = obs::QError(sp.est_rows, static_cast<double>(sp.rows_out));
    rec.max_q = std::max(rec.max_q, e.q);
    rec.roots.push_back(std::move(e));
    if (rec.roots.size() >= 16) break;
  }
  std::set<std::string> extents;
  CollectExtents(translated, &extents);
  for (const std::string& name : extents) {
    std::shared_ptr<const n2j::ExtentStats> snap = db.stats().Peek(name);
    const n2j::Table* t = db.FindTable(name);
    if (snap == nullptr || t == nullptr) continue;
    obs::ExtentEstimate e;
    e.extent = name;
    e.est = snap->row_count;
    e.actual = t->size();
    e.q = obs::QError(static_cast<double>(e.est),
                      static_cast<double>(e.actual));
    rec.max_q = std::max(rec.max_q, e.q);
    obs::DriftMonitor::Global().Observe(name, snap->version, e.q);
    rec.extents.push_back(std::move(e));
  }
  qlog.Append(std::move(rec));
}

/// The replay proper; Replay adds what is read off the finished query.
void ReplayRun(const Database& db, const std::string& text,
               const n2j::EvalOptions& eval_options,
               const n2j::PlannerOptions& planner_options,
               n2j::TraceCollector* trace, int shape, int64_t op,
               std::vector<Span>* spans, ReplayResult* r) {
  SpanScope root(spans, "core.run", shape, op, -1, &r->run_ms);
  const int64_t start_ns = (*spans)[static_cast<size_t>(root.index())].start_ns;
  auto timed = [&](Layer l, auto&& call) {
    SpanScope s(spans, LayerName(l), shape, op, root.index(),
                &r->layer_ms[l]);
    call();
  };

  n2j::Result<n2j::TypedExpr> typed = n2j::Status::Internal("not run");
  timed(kTranslate, [&] {
    typed = n2j::Translator(db.schema(), &db).TranslateString(text);
  });
  if (!typed.ok()) {
    r->status = typed.status();
    return;
  }
  n2j::Result<n2j::RewriteResult> rewritten = n2j::Status::Internal("not run");
  timed(kRewrite, [&] {
    rewritten = n2j::Rewriter(db.schema(), &db, n2j::RewriteOptions())
                    .Rewrite(typed->expr);
  });
  if (!rewritten.ok()) {
    r->status = rewritten.status();
    return;
  }
  r->rules_fired = rewritten->trace.size();

  std::set<std::string> extents;
  CollectExtents(typed->expr, &extents);
  const bool shredded = eval_options.backend == n2j::Backend::kShredded;

  timed(kCanonicalSet, [&] {
    for (const std::string& name : extents) db.FindTable(name)->AsSetValue();
  });
  timed(kStatsRefresh, [&] {
    for (const std::string& name : extents) db.stats().Get(db, name);
  });
  n2j::Result<n2j::PhysicalPlan> plan = n2j::Status::Internal("not run");
  timed(kPlan, [&] {
    plan = n2j::Planner(db, planner_options).Plan(rewritten->expr);
  });
  if (!plan.ok()) {
    r->status = plan.status();
    return;
  }
  r->plan = std::make_shared<const n2j::PhysicalPlan>(*std::move(plan));
  r->reordered = r->plan->reordered;
  timed(kColumnarBuild, [&] {
    if (!shredded) return;
    for (const std::string& name : extents) db.columnar().Get(db, name);
  });

  n2j::EvalOptions opts = eval_options;
  opts.plan = &r->plan->annotations;
  opts.trace = trace;
  std::string shred_plan;
  n2j::Result<n2j::Value> value = n2j::Status::Internal("not run");
  timed(kEval, [&] {
    value = n2j::shred::EvalWithBackend(db, r->plan->root, opts, &r->stats,
                                        shredded ? &shred_plan : nullptr);
  });
  if (!value.ok()) {
    r->status = value.status();
    return;
  }
  r->result = *std::move(value);
  RecordOutcome(db, text, typed->expr, *r, eval_options, planner_options,
                *trace, start_ns);
}

}  // namespace

ReplayResult Replay(const Database& db, const std::string& text,
                    const n2j::EvalOptions& eval_options,
                    const n2j::PlannerOptions& planner_options,
                    n2j::TraceCollector* trace, int shape, int64_t op,
                    std::vector<Span>* spans) {
  ReplayResult r;
  trace->Clear();
  ReplayRun(db, text, eval_options, planner_options, trace, shape, op, spans,
            &r);
  if (!r.status.ok()) return r;
  for (const n2j::TraceSpan& sp : trace->spans()) {
    if (sp.est_rows < 0.0) continue;
    r.max_qerror = std::max(
        r.max_qerror,
        n2j::obs::QError(sp.est_rows, static_cast<double>(sp.rows_out)));
  }
  if (eval_options.backend == n2j::Backend::kShredded) {
    for (const n2j::shred::FlatNode& node :
         n2j::shred::ShredQuery(r.plan->root).nodes) {
      for (const n2j::shred::RangeSpec& range : node.ranges) {
        if (range.kind == n2j::shred::RangeKind::kOpaque) ++r.opaque_ranges;
      }
    }
  }
  return r;
}

}  // namespace e2e
