#!/usr/bin/env python3
"""End-to-end OOSQL benchmark: builds the engine, runs one workload, prints
its metrics.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run builds the engine's
library and the benchmark program from src/ into .bench_build/e2ebench
with the benchmark's own CMakeLists.txt.
With --trace 0 the last line is the end-to-end result, with --trace 1 the
per-layer one; both are one JSON object
{"correct", "attempted", "failed", "metrics"}. Human-readable lines above
it give the run header and, per shape, the median and the tail
percentile. The exit code is 0 only for a run whose results all checked.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

WORKLOADS = ("paper-serial", "shred-parallel", "append-mix")
SHAPES = ("q1", "q2", "q3_1", "q3_2", "q4", "q5", "q6", "semijoin",
          "chain3", "flatten", "selfjoin")
# Layer spans of the traced replay (replay.h), in call order.
LAYERS = ("oosql.translate", "rewrite.rewrite", "storage.canonical_set",
          "stats.refresh", "opt.plan", "storage.columnar_build", "exec.eval")
EXEC_COUNTERS = ("tuples_scanned", "predicate_evals", "hash_inserts",
                 "hash_probes", "joins_nested_loop", "joins_hash",
                 "joins_membership", "compiled_evals",
                 "interp_fallback_evals")
SHRED_COUNTERS = ("vec_pipelines", "vec_batches", "vec_fallbacks")
BINARY_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, ".bench_build", "e2ebench")


def configured_for_this_checkout(bdir):
    """True when bdir's CMake cache was configured from this checkout's
    e2ebench/, so a build there compiles this checkout's sources."""
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    home = line.split("=", 1)[1].strip()
                    return os.path.realpath(home) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def build(target="oosql_bench"):
    """Configures (when the build tree is missing or belongs to another
    checkout) and builds `target`; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        raise SystemExit("e2ebench: no engine sources under %s/src"
                         % ROOT)
    bdir = build_dir()
    if not configured_for_this_checkout(bdir):
        shutil.rmtree(bdir, ignore_errors=True)
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", bdir, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, target)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_identity():
    """Git commit when the checkout is a repository, and a digest of
    src/ either way, so runs of a plain source tree stay comparable."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def end_to_end_metrics(raw):
    metrics = {
        "setup_s": (benchstats.median(raw["setup_s"]), "s"),
        "qps": (raw["completed"] / raw["active_s"], "queries/s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "insert_us": (benchstats.median(raw["insert_us"]), "us"),
    }
    lines = []
    for shape in SHAPES:
        samples = raw["latency_ms"][shape]
        med = benchstats.median(samples)
        metrics[shape + "_ms"] = (med, "ms")
        tail = benchstats.tail_percentile(samples)
        tail_text = ("p%g %.4f ms (%d samples beyond)" % tail if tail
                     else "no tail percentile (fewer than 40 samples)")
        lines.append("%-12s median %10.4f ms  %s  n=%d"
                     % (shape + "_ms", med, tail_text, len(samples)))
    return metrics, lines


def per_layer_metrics(raw):
    """Per-layer metrics from the traced replay. Times are means per
    operation, so per shape the layers plus core.residual_ms add up to
    core.run_ms; round totals add the shapes' means."""
    layers = raw["layers"]
    metrics = {}
    total = {}

    def add(name, value, unit):
        metrics[name] = (value, unit)

    per = {}
    for shape in SHAPES:
        s = layers[shape]
        ops = s["ops"]
        mean = {k: v / ops for k, v in s.items() if k != "ops"}
        mean["residual"] = mean["run_ms"] - sum(
            mean[layer + "_ms"] for layer in LAYERS)
        per[shape] = mean
        for layer in LAYERS:
            add("%s_ms.%s" % (layer, shape), mean[layer + "_ms"], "ms")
        add("core.residual_ms.%s" % shape, mean["residual"], "ms")
        add("exec.tuples_scanned.%s" % shape, mean["tuples_scanned"],
            "count")
        for k, v in mean.items():
            total[k] = total.get(k, 0.0) + v

    for layer in LAYERS:
        add(layer + "_ms", total[layer + "_ms"], "ms")
    add("core.residual_ms", total["residual"], "ms")
    add("core.run_ms", total["run_ms"], "ms")
    add("trace.overhead_pct",
        100.0 * (total["run_ms"] - total["untraced_run_ms"])
        / total["untraced_run_ms"], "%")
    add("rewrite.rules_fired", total["rules_fired"], "count")
    add("opt.reordered", total["reordered"], "count")
    add("opt.max_qerror", max(layers[s]["max_qerror"] for s in SHAPES),
        "ratio")
    for c in EXEC_COUNTERS:
        add("exec." + c, total[c], "count")
    add("exec.rows_per_scanned",
        total["rows_out"] / total["tuples_scanned"], "ratio")
    add("exec.parallel_speedup", total["eval_1t_ms"] / total["eval_nt_ms"],
        "ratio")
    add("shred.opaque_ranges", total["opaque_ranges"], "count")
    for c in SHRED_COUNTERS:
        add("shred." + c, total[c], "count")

    lines = ["%-9s %5s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s %9s"
             % (("shape", "ops") + tuple(c.split(".")[-1][:9] for c in LAYERS)
                + ("residual", "run", "untraced", "1t/Nt"))]
    for shape in SHAPES:
        m = per[shape]
        lines.append("%-9s %5d" % (shape, layers[shape]["ops"]) + "".join(
            " %9.4f" % m[c + "_ms"] for c in LAYERS)
            + " %9.4f %9.4f %9.4f %9.3f" % (
                m["residual"], m["run_ms"], m["untraced_run_ms"],
                m["eval_1t_ms"] / m["eval_nt_ms"]))
    lines.append("counters per operation:")
    for shape in SHAPES:
        m = per[shape]
        lines.append("  %-9s " % shape + " ".join(
            "%s=%.6g" % (c, m[c]) for c in EXEC_COUNTERS + SHRED_COUNTERS
            + ("rules_fired", "reordered", "opaque_ranges", "rows_out"))
            + " max_qerror=%.4g" % layers[shape]["max_qerror"])
    return metrics, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = None
    if args.trace:
        spans = os.path.join(build_dir(), "spans",
                             "%s-seed%d.jsonl" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=BINARY_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        print("e2ebench: oosql_bench exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    commit, digest = source_identity()
    print("# e2ebench workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# nproc=%d threads=%d cpu=%s" % (len(os.sched_getaffinity(0)),
                                           raw["threads"], cpu_model()))
    print("# build=%s compiler=%s commit=%s src_sha256=%s"
          % (raw["build_type"], raw["compiler"], commit, digest))
    print("# attempted=%d failed=%d" % (raw["attempted"], raw["failed"]))
    for err in raw["errors"]:
        print("# CHECK FAILED: " + err)

    if raw["correct"]:
        compute = per_layer_metrics if args.trace else end_to_end_metrics
        metrics, lines = compute(raw)
        for line in lines:
            print(line)
        if args.trace:
            print("spans: " + os.path.relpath(spans, ROOT))
        for name, (value, unit) in metrics.items():
            print("%-34s %14.6g %s" % (name, value, unit))
    else:
        metrics = {}
    print(json.dumps({
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
