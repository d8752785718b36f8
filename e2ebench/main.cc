// oosql_bench: one workload of the end-to-end benchmark in one process.
//
//   oosql_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--spans <path>]
//
// Sets the workload up, checks every shape's result against an
// independent computation, then runs whole rounds of the workload's
// fixed operation sequence — closed loop, one client — for <s> seconds.
// Prints one JSON object of raw samples; e2ebench/run.py turns it into
// the benchmark's metrics. --trace 1 replays each query layer by layer
// (replay.h) instead and reports per-layer sums; --spans writes the
// replay's spans out as JSON lines.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "replay.h"
#include "shred/shred.h"
#include "workloads.h"

namespace e2e {
namespace {

using n2j::Database;
using n2j::QueryEngine;
using n2j::Value;

// Set-ups per run; setup_s is their median.
constexpr int kMinSetups = 15;
constexpr int kMaxSetups = 200;
constexpr int64_t kMinSetupNs = 1'000'000'000;
// Rows appended per shape to each discarded set-up database of a
// read-only workload, for insert_us.
constexpr int kInsertRoundsPerSetup = 4;
constexpr size_t kMaxErrors = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
      have[0] = true;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      have[1] = *v != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      have[2] = *v != '\0' && *end == '\0' && a->seconds > 0.0;
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
      have[3] = a->trace || std::strcmp(v, "0") == 0;
    } else if (flag == "--spans") {
      a->spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

/// Minimal JSON writer for the raw-sample object.
class Json {
 public:
  void Key(const std::string& k) {
    Sep();
    out_ += "\"" + k + "\":";
    first_ = true;
  }
  void Str(const std::string& s) {
    Sep();
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  void Num(double v) {
    Sep();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ += buf;
  }
  void Bool(bool b) {
    Sep();
    out_ += b ? "true" : "false";
  }
  void Open(char c) {
    Sep();
    out_ += c;
    first_ = true;
  }
  void Close(char c) {
    out_ += c;
    first_ = false;
  }
  void Nums(const std::vector<double>& v) {
    Open('[');
    for (double x : v) Num(x);
    Close(']');
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  std::string out_;
  bool first_ = true;
};

/// Per-shape sums over the traced run's operations.
struct LayerSums {
  int64_t ops = 0;
  double layer_ms[kNumLayers] = {};
  double run_ms = 0.0;            // replay root spans
  double untraced_run_ms = 0.0;   // paired QueryEngine::Run calls
  double eval_1t_ms = 0.0;        // same plan, 1 worker thread
  double eval_nt_ms = 0.0;        // same plan, the workload's threads
  double rules_fired = 0.0;
  double reordered = 0.0;
  double max_qerror = 0.0;
  double opaque_ranges = 0.0;
  double rows_out = 0.0;
  n2j::EvalStats stats;
};

class Bench {
 public:
  Bench(const Workload& w, const Args& args)
      : w_(w),
        args_(args),
        threads_(WorkerThreads(w)),
        lit_rng_(args.seed ^ 0x6c69746572616c73ULL),
        row_rng_(args.seed ^ 0x726f777377726974ULL) {
    eval_.backend = w.backend;
    eval_.num_threads = threads_;
    planner_.strategy = n2j::PlanStrategy::kCost;
  }

  int Main() {
    if (SetUp() && Validate() && CheckThreadScaling()) {
      if (args_.trace) {
        TracedPhase();
      } else {
        TimedPhase();
      }
    }
    Print();
    return 0;
  }

 private:
  void Fail(const std::string& msg) {
    correct_ = false;
    if (errors_.size() < kMaxErrors) errors_.push_back(msg);
  }

  /// Fresh database and engine for the workload's seed, then one cold
  /// run of every shape to fill the stats, columnar and canonical-set
  /// caches.
  bool Build() {
    engine_.reset();
    db_.reset();
    db_ = MakeDatabase(w_.size, args_.seed);
    engine_ = std::make_unique<QueryEngine>(db_.get(), n2j::RewriteOptions(),
                                            eval_, planner_);
    for (Shape s : kAllShapes) {
      n2j::Result<n2j::QueryReport> r = engine_->Run(QueryText(s, Literals()));
      if (!r.ok()) {
        Fail(std::string("cold ") + ShapeTag(s) + ": " + r.status().ToString());
        return false;
      }
    }
    return true;
  }

  /// At least kMinSetups set-ups, and more until they add up to
  /// kMinSetupNs, so a workload with a short set-up still gets a steady
  /// median. Read-only workloads sample insert_us on each set-up database
  /// just before the next set-up discards it; the last one, which the
  /// timed phase reads, gets no insert.
  bool SetUp() {
    int64_t total_ns = 0;
    for (int i = 0; i < kMinSetups ||
                    (total_ns < kMinSetupNs && i < kMaxSetups);
         ++i) {
      if (i > 0 && !w_.appends) SampleInserts();
      int64_t t0 = NowNs();
      if (!Build()) return false;
      int64_t ns = NowNs() - t0;
      total_ns += ns;
      setup_s_.push_back(static_cast<double>(ns) / 1e9);
    }
    return true;
  }

  /// insert_us for a read-only workload: fills each extent's canonical
  /// set, as a query's scan does, then appends one row, which drops it
  /// again — the invalidation append-mix pays before each query.
  void SampleInserts() {
    for (int r = 0; r < kInsertRoundsPerSetup; ++r) {
      for (Shape s : kAllShapes) {
        db_->FindTable(InsertExtent(s))->AsSetValue();
        Insert(s);
      }
    }
  }

  bool Validate() {
    for (Shape s : kAllShapes) {
      n2j::Result<n2j::QueryReport> r = engine_->Run(QueryText(s, Literals()));
      if (!r.ok()) {
        Fail(std::string(ShapeTag(s)) + ": " + r.status().ToString());
        return false;
      }
      std::string diff =
          CompareSets(r->result, ExpectedAnswer(s, Literals(), *db_));
      if (!diff.empty()) {
        Fail(std::string(ShapeTag(s)) + ": " + diff);
        return false;
      }
      validated_[static_cast<int>(s)] = r->result;
    }
    return true;
  }

  /// Plans `text` the way Run does. Null on error.
  std::shared_ptr<const n2j::PhysicalPlan> PlanOf(const std::string& text) {
    n2j::Result<n2j::QueryReport> t = engine_->Translate(text);
    if (!t.ok()) return nullptr;
    n2j::Result<n2j::RewriteResult> rw = engine_->Optimize(t->translated);
    if (!rw.ok()) return nullptr;
    n2j::Result<n2j::PhysicalPlan> p =
        n2j::Planner(*db_, planner_).Plan(rw->expr);
    if (!p.ok()) return nullptr;
    return std::make_shared<const n2j::PhysicalPlan>(*std::move(p));
  }

  n2j::Result<Value> EvalAt(const n2j::PhysicalPlan& plan, int threads,
                            n2j::EvalStats* stats) {
    n2j::EvalOptions opts = eval_;
    opts.num_threads = threads;
    opts.plan = &plan.annotations;
    return n2j::shred::EvalWithBackend(*db_, plan.root, opts, stats);
  }

  /// With more than one worker: the same plan at 1 and at N threads
  /// gives the same value and exactly the same EvalStats.
  bool CheckThreadScaling() {
    if (threads_ == 1) return true;
    for (Shape s : kAllShapes) {
      auto plan = PlanOf(QueryText(s, Literals()));
      if (plan == nullptr) {
        Fail(std::string(ShapeTag(s)) + ": planning failed");
        return false;
      }
      n2j::EvalStats one, many;
      n2j::Result<Value> a = EvalAt(*plan, 1, &one);
      n2j::Result<Value> b = EvalAt(*plan, threads_, &many);
      if (!a.ok() || !b.ok() || *a != *b || !(one == many)) {
        Fail(std::string(ShapeTag(s)) + ": " + std::to_string(threads_) +
             "-thread result or EvalStats differ from 1 thread (" +
             one.Compact() + " vs " + many.Compact() + ")");
        return false;
      }
    }
    return true;
  }

  /// Rounds one epoch can take before an extent that gets the inserts
  /// would more than double: `per_op` rows per query.
  int RoundsPerEpoch(int per_op) const {
    std::map<std::string, int> per_round;
    for (Shape s : kAllShapes) per_round[InsertExtent(s)] += per_op;
    int rounds = 1 << 30;
    for (const auto& [extent, n] : per_round) {
      int size = static_cast<int>(db_->FindTable(extent)->size());
      rounds = std::min(rounds, std::max(1, size / n));
    }
    return rounds;
  }

  /// One append of a row to the extent shape `s` reads, timed for
  /// insert_us.
  void Insert(Shape s) {
    const std::string extent = InsertExtent(s);
    Value row = MakeRow(*db_, extent, &row_rng_);
    int64_t t0 = NowNs();
    n2j::Status st = StoreRow(db_.get(), extent, std::move(row));
    insert_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!st.ok()) Fail("insert into " + extent + ": " + st.ToString());
  }

  Literals NextLiterals() {
    return w_.appends ? DrawLiterals(w_.size, &lit_rng_) : Literals();
  }

  /// Checks one result: against the validated answer on read-only
  /// workloads, against a fresh independent computation under appends.
  /// Returns nanoseconds spent, which the caller keeps off the clock.
  int64_t Check(Shape s, const Literals& lit, const Value& got) {
    int64_t t0 = NowNs();
    const Value& validated = validated_[static_cast<int>(s)];
    if (w_.appends || got != validated) {
      std::string diff = CompareSets(
          got, w_.appends ? ExpectedAnswer(s, lit, *db_) : validated);
      if (!diff.empty()) Fail(std::string(ShapeTag(s)) + ": " + diff);
    }
    return NowNs() - t0;
  }

  bool TimeUp(int64_t start) const {
    return static_cast<double>(NowNs() - start) >= args_.seconds * 1e9;
  }

  /// Whole rounds of every shape until the time is up. Under appends one
  /// row goes in before each query, and every epoch the database is
  /// rebuilt so the extents at most double; rebuilds and checks are off
  /// the qps clock.
  void TimedPhase() {
    const int epoch = RoundsPerEpoch(1);
    const int64_t start = NowNs();
    int64_t paused_ns = 0;
    for (int round = 1; correct_; ++round) {
      for (Shape s : kAllShapes) {
        Literals lit = NextLiterals();
        std::string text = QueryText(s, lit);
        if (w_.appends) Insert(s);
        int64_t tq = NowNs();
        n2j::Result<n2j::QueryReport> r = engine_->Run(text);
        int64_t t1 = NowNs();
        ++attempted_;
        latency_ms_[static_cast<int>(s)].push_back(
            static_cast<double>(t1 - tq) / 1e6);
        if (!r.ok()) {
          ++failed_;
          Fail(std::string(ShapeTag(s)) + ": " + r.status().ToString());
          continue;
        }
        ++completed_;
        paused_ns += Check(s, lit, r->result);
      }
      if (TimeUp(start)) break;
      if (w_.appends && round % epoch == 0) {
        int64_t t0 = NowNs();
        if (!Build()) break;
        paused_ns += NowNs() - t0;
      }
    }
    active_s_ = static_cast<double>(NowNs() - start - paused_ns) / 1e9;
  }

  /// One untraced QueryEngine::Run, timed for the tracing overhead.
  bool UntracedRun(Shape s, const Literals& lit, const std::string& text,
                   LayerSums* sums) {
    if (w_.appends) Insert(s);
    int64_t t0 = NowNs();
    n2j::Result<n2j::QueryReport> r = engine_->Run(text);
    sums->untraced_run_ms += static_cast<double>(NowNs() - t0) / 1e6;
    if (!r.ok()) {
      Fail(std::string(ShapeTag(s)) + ": " + r.status().ToString());
      return false;
    }
    Check(s, lit, r->result);
    return true;
  }

  /// One replay (replay.h), then the thread-scaling pair on its plan.
  bool TracedRun(Shape s, const Literals& lit, const std::string& text,
                 int64_t op, bool one_thread_first, LayerSums* sums) {
    if (w_.appends) Insert(s);
    ReplayResult rr = Replay(*db_, text, eval_, planner_, &collector_,
                             static_cast<int>(s), op, &spans_);
    if (!rr.status.ok()) {
      Fail(std::string(ShapeTag(s)) + " replay: " + rr.status.ToString());
      return false;
    }
    Check(s, lit, rr.result);
    ++sums->ops;
    for (int l = 0; l < kNumLayers; ++l) sums->layer_ms[l] += rr.layer_ms[l];
    sums->run_ms += rr.run_ms;
    sums->rules_fired += static_cast<double>(rr.rules_fired);
    sums->reordered += rr.reordered ? 1.0 : 0.0;
    sums->max_qerror = std::max(sums->max_qerror, rr.max_qerror);
    sums->opaque_ranges += static_cast<double>(rr.opaque_ranges);
    if (rr.result.is_set()) {
      sums->rows_out += static_cast<double>(rr.result.set_size());
    }
    sums->stats.Merge(rr.stats);

    for (int i = 0; i < 2; ++i) {
      bool one = (i == 0) == one_thread_first;
      n2j::EvalStats ignored;
      int64_t t0 = NowNs();
      EvalAt(*rr.plan, one ? 1 : threads_, &ignored);
      double ms = static_cast<double>(NowNs() - t0) / 1e6;
      (one ? sums->eval_1t_ms : sums->eval_nt_ms) += ms;
    }
    return true;
  }

  /// Each operation makes one untraced Run and one replay of the same
  /// query, in alternating order, so the tracing overhead compares the
  /// two under the same conditions.
  void TracedPhase() {
    const int epoch = RoundsPerEpoch(2);
    const int64_t start = NowNs();
    int64_t op = 0;
    for (int round = 1; correct_; ++round) {
      const bool replay_first = round % 2 == 0;
      for (Shape s : kAllShapes) {
        LayerSums* sums = &layers_[static_cast<int>(s)];
        Literals lit = NextLiterals();
        std::string text = QueryText(s, lit);
        ++attempted_;
        bool ok = replay_first
                      ? TracedRun(s, lit, text, op, true, sums) &&
                            UntracedRun(s, lit, text, sums)
                      : UntracedRun(s, lit, text, sums) &&
                            TracedRun(s, lit, text, op, false, sums);
        ++op;
        if (ok) {
          ++completed_;
        } else {
          ++failed_;
        }
      }
      if (TimeUp(start)) break;
      if (w_.appends && round % epoch == 0 && !Build()) break;
    }
    active_s_ = static_cast<double>(NowNs() - start) / 1e9;
    if (!args_.spans.empty()) WriteSpans(start);
  }

  void WriteSpans(int64_t base_ns) {
    std::ofstream out(args_.spans, std::ios::trunc);
    for (const Span& s : spans_) {
      out << "{\"op\":" << s.op << ",\"shape\":\""
          << ShapeTag(static_cast<Shape>(s.shape)) << "\",\"layer\":\""
          << s.layer << "\",\"parent\":" << s.parent
          << ",\"start_ns\":" << (s.start_ns - base_ns)
          << ",\"end_ns\":" << (s.end_ns - base_ns) << "}\n";
    }
    if (!out) Fail("cannot write spans to " + args_.spans);
  }

  void Print() {
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    Json j;
    j.Open('{');
    j.Key("workload"); j.Str(w_.name);
    j.Key("seed"); j.Num(static_cast<double>(args_.seed));
    j.Key("threads"); j.Num(threads_);
    j.Key("build_type"); j.Str(E2E_BUILD_TYPE);
    j.Key("compiler"); j.Str(E2E_COMPILER);
    j.Key("correct"); j.Bool(correct_);
    j.Key("errors");
    j.Open('[');
    for (const std::string& e : errors_) j.Str(e);
    j.Close(']');
    j.Key("attempted"); j.Num(static_cast<double>(attempted_));
    j.Key("failed"); j.Num(static_cast<double>(failed_));
    j.Key("completed"); j.Num(static_cast<double>(completed_));
    j.Key("active_s"); j.Num(active_s_);
    j.Key("peak_rss_kb"); j.Num(static_cast<double>(ru.ru_maxrss));
    j.Key("setup_s"); j.Nums(setup_s_);
    j.Key("insert_us"); j.Nums(insert_us_);
    j.Key("latency_ms");
    j.Open('{');
    for (Shape s : kAllShapes) {
      j.Key(ShapeTag(s));
      j.Nums(latency_ms_[static_cast<int>(s)]);
    }
    j.Close('}');
    if (args_.trace) {
      j.Key("layers");
      j.Open('{');
      for (Shape s : kAllShapes) {
        PrintLayerSums(ShapeTag(s), layers_[static_cast<int>(s)], &j);
      }
      j.Close('}');
    }
    j.Close('}');
    std::printf("%s\n", j.str().c_str());
  }

  static void PrintLayerSums(const char* shape, const LayerSums& s, Json* j) {
    j->Key(shape);
    j->Open('{');
    j->Key("ops"); j->Num(static_cast<double>(s.ops));
    for (int l = 0; l < kNumLayers; ++l) {
      j->Key(std::string(LayerName(static_cast<Layer>(l))) + "_ms");
      j->Num(s.layer_ms[l]);
    }
    j->Key("run_ms"); j->Num(s.run_ms);
    j->Key("untraced_run_ms"); j->Num(s.untraced_run_ms);
    j->Key("eval_1t_ms"); j->Num(s.eval_1t_ms);
    j->Key("eval_nt_ms"); j->Num(s.eval_nt_ms);
    j->Key("rules_fired"); j->Num(s.rules_fired);
    j->Key("reordered"); j->Num(s.reordered);
    j->Key("max_qerror"); j->Num(s.max_qerror);
    j->Key("opaque_ranges"); j->Num(s.opaque_ranges);
    j->Key("rows_out"); j->Num(s.rows_out);
    size_t n = 0;
    const n2j::EvalStatsField* fields = n2j::EvalStatsFields(&n);
    for (size_t i = 0; i < n; ++i) {
      j->Key(fields[i].name);
      j->Num(static_cast<double>(s.stats.*fields[i].member));
    }
    j->Close('}');
  }

  const Workload& w_;
  const Args args_;
  const int threads_;
  n2j::EvalOptions eval_;
  n2j::PlannerOptions planner_;
  n2j::Rng lit_rng_;
  n2j::Rng row_rng_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueryEngine> engine_;
  Value validated_[kNumShapes];

  bool correct_ = true;
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t completed_ = 0;
  double active_s_ = 0.0;
  std::vector<double> setup_s_;
  std::vector<double> insert_us_;
  std::vector<double> latency_ms_[kNumShapes];
  LayerSums layers_[kNumShapes];
  std::vector<Span> spans_;
  n2j::TraceCollector collector_;
};

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n",
                 argv[0]);
    return 2;
  }
  const e2e::Workload* w = e2e::FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  return e2e::Bench(*w, args).Main();
}
