#!/usr/bin/env python3
"""Benchmark entry point: build bench.exe, run one workload, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  bench.exe (perfbench/_ocaml/bench.ml,
a dune project of its own) is built from source under .bench_build/, with
a copy of the repository's lib/, and run in a fresh process per
measurement, so no workload inherits another's heap.

--trace 0 runs the workload for S seconds and reports the end-to-end
metrics.  --trace 1 makes two runs of the same seed and the same op
count, one untraced and one with spans recorded, checks that their request,
event and counter totals are identical, and reports the per-layer metrics.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Raw results and span files are written under perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# bench.exe is built in a workspace of its own: the benchmark's dune
# project (perfbench/_ocaml) with a copy of the repository's lib/ beside it.
SRC = os.path.join(ROOT, ".bench_build", "src")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "_build")
EXE = os.path.join(BUILD_DIR, "default", "bench.exe")

WORKLOADS = ["ui_session", "canvas_dashboard", "send_fleet", "script_compute"]

# Op cap of each traced pair: bounds the span file and the run time.
TRACE_MAX_OPS = 20000

RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    pkg, lib = os.path.join(HERE, "_ocaml"), os.path.join(ROOT, "lib")
    if not os.path.isdir(lib):
        fail("no lib/ at %s: run from the root of a checkout" % ROOT)
    if os.path.isdir(SRC):
        shutil.rmtree(SRC)
    shutil.copytree(pkg, SRC)
    shutil.copytree(lib, os.path.join(SRC, "lib"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", SRC, "--build-dir",
                        BUILD_DIR, "--profile", "release", "-j", "2",
                        "./bench.exe"],
                       cwd=SRC, env=env, stdout=sys.stderr, timeout=900)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run_bench(workload, seed, extra):
    cmd = [EXE, "--workload", workload, "--seed", str(seed)] + extra
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("bench.exe exited with %d" % r.returncode)
    return json.loads(r.stdout.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "out")
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    """HEAD of the checkout, or None when the checkout is not itself the
    top of a git work tree."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True,
                           timeout=10)
    except OSError:
        return None
    lines = r.stdout.split()
    if r.returncode != 0 or len(lines) != 2:
        return None
    top, head = lines
    return head if os.path.realpath(top) == os.path.realpath(ROOT) else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def per(n, d):
    return n / d if d else 0.0


def end_to_end(res):
    """Timings are medians over the windows of the measured phase (each
    window's rate excludes the output checks made in it) and over the
    set-up builds."""
    med = lambda k: statistics.median(w[k] for w in res["windows"])
    return {
        "setup_s": metric(statistics.median(res["setup_s"]), "s"),
        "ops_per_s": metric(med("ops_per_s"), "1/s"),
        "latency_p50_us": metric(med("p50"), "us"),
        "latency_p90_us": metric(med("p90"), "us"),
        "peak_heap_mb": metric(res["gc"]["top_heap_words"] * 8 / 2**20, "MB"),
    }


def per_layer(untraced, traced):
    """Per-layer metrics: counters from the untraced run of the pair (equal
    to the traced run's), self times from the traced run."""
    c = untraced["counters"]
    g = lambda k: c.get(k, 0)
    ops = untraced["ops"]
    po = lambda v: per(v, ops)
    m = {}
    for name, us in traced["spans_self_us"].items():
        m[name + ".self_us"] = metric(po(us), "us/op")

    def ratio(name, hits, misses, base):
        m[name] = metric(per(hits, hits + misses), "ratio")
        m[base] = metric(po(hits + misses), "count/op")

    ratio("tcl.compile.script_hit_ratio", g("tcl.compile.script_hits"),
          g("tcl.compile.script_misses"), "tcl.compile.script_lookups_per_op")
    m["tcl.compile.script_evictions_per_op"] = metric(
        po(g("tcl.compile.script_evictions")), "count/op")
    m["tcl.compile.parse_passes_per_op"] = metric(
        po(g("tcl.compile.parse_passes")), "count/op")
    ratio("tcl.compile.expr_hit_ratio", g("tcl.compile.expr_hits"),
          g("tcl.compile.expr_misses"), "tcl.compile.expr_lookups_per_op")
    m["tcl.vm.slot_hits_per_op"] = metric(po(g("tcl.vm.slot_hits")), "count/op")
    m["tcl.vm.deopts_per_op"] = metric(po(g("tcl.vm.deopts")), "count/op")

    m["tk.events_per_op"] = metric(po(g("loop.events")), "count/op")
    m["tk.binding_dispatches_per_op"] = metric(
        po(g("binding_dispatches")), "count/op")
    m["tk.redraw.drawn_per_op"] = metric(po(g("redraws_drawn")), "count/op")
    ratio("tk.redraw.collapsed_ratio", g("redraws_collapsed"),
          g("redraws_scheduled"), "tk.redraw.requests_per_op")
    m["tk.idles_run_per_op"] = metric(po(g("idles_run")), "count/op")
    ratio("tk.rescache.hit_ratio", g("rescache_hits"), g("rescache_misses"),
          "tk.rescache.lookups_per_op")

    # An op of canvas_dashboard is one frame.
    m["tk.canvas.items_drawn_per_frame"] = metric(
        po(g("tk.canvas.items_drawn")), "count/frame")
    m["tk.canvas.full_redraws_per_frame"] = metric(
        po(g("tk.canvas.full_redraws")), "count/frame")
    partial, deopt = g("tk.damage.partial_drawn"), g("tk.damage.deopt_full")
    m["tk.damage.partial_ratio"] = metric(per(partial, partial + deopt),
                                          "ratio")
    m["tk.damage.repaints_per_frame"] = metric(po(partial + deopt),
                                               "count/frame")
    m["tk.canvas.items_considered_per_frame"] = metric(
        po(g("tk.canvas.items_considered")), "count/frame")
    queries = g("tk.canvas.index_queries")
    m["tk.canvas.index_hits_per_query"] = metric(
        per(g("tk.canvas.index_hits"), queries), "count/query")
    m["tk.canvas.index_queries_per_frame"] = metric(po(queries),
                                                    "count/frame")

    sends = g("tk.send.sends")
    sync = sends - g("tk.send.async")
    m["tk.send.retries_per_send"] = metric(per(g("tk.send.retries"), sends),
                                           "count/send")
    m["tk.send.mailbox_drained_per_send"] = metric(
        per(g("tk.send.mailbox_drained"), sends), "count/send")
    m["tk.send.ok_ratio"] = metric(per(g("tk.send.ok"), sync), "ratio")
    m["tk.send.sends_per_op"] = metric(po(sends), "count/op")

    m["xsim.requests_per_op"] = metric(po(g("requests_total")), "count/op")
    for kind, key in (("window", "requests_window"), ("draw", "requests_draw"),
                      ("property", "requests_property"),
                      ("resource", "requests_resource")):
        m["xsim.requests_%s_per_op" % kind] = metric(po(g(key)), "count/op")
    m["xsim.round_trips_per_op"] = metric(po(g("round_trips")), "count/op")

    gc = untraced["gc"]
    m["gc.minor_words_per_op"] = metric(po(gc["minor_words"]), "words/op")
    m["gc.major_collections_per_kop"] = metric(
        po(gc["major_collections"]) * 1000, "count/kop")

    lat = untraced["latency_us"]
    m["latency_p50_first_quarter_us"] = metric(lat["p50_first_quarter"], "us")
    m["latency_p50_last_quarter_us"] = metric(lat["p50_last_quarter"], "us")
    rate_u = per(ops, untraced["elapsed_s"] - untraced["check_s"])
    rate_t = per(traced["ops"], traced["elapsed_s"] - traced["check_s"])
    m["trace.overhead_pct"] = metric(per(rate_u - rate_t, rate_u) * 100, "%")
    m["trace.ops"] = metric(ops, "count")
    return m


def exact_mismatches(a, b):
    """Totals that must be identical between two runs of the same ops."""
    out = []
    for k in ("ops", "attempted", "failed", "warmup_ops"):
        if a[k] != b[k]:
            out.append("%s: %s vs %s" % (k, a[k], b[k]))
    for k in sorted(set(a["counters"]) | set(b["counters"])):
        x, y = a["counters"].get(k), b["counters"].get(k)
        if x != y:
            out.append("counter %s: %s vs %s" % (k, x, y))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    provenance = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "nproc": os.cpu_count(),
        "git_revision": git_revision(), "source_digest": source_digest(),
    }
    if a.trace == 0:
        res = run_bench(a.workload, a.seed, ["--seconds", str(a.seconds)])
        runs = {"measured": res}
        metrics = end_to_end(res)
        attempted, failed = res["attempted"], res["failed"]
        correct = failed == 0
        messages = res["messages"]
        lat = res["latency_us"]
        report = {"error_rate": per(failed, attempted), "ops": res["ops"],
                  "heap_at_reached": res["gc"]["heap_at_reached"],
                  "peak_heap_mb_end": res["gc"]["top_heap_words_end"] * 8 / 2**20,
                  "setup_first_s": res["setup_first_s"],
                  "run_latency_p50_us": lat["p50"],
                  "run_latency_p90_us": lat["p90"],
                  "latency_p50_first_quarter_us": lat["p50_first_quarter"],
                  "latency_p50_last_quarter_us": lat["p50_last_quarter"]}
        if res["ops"] >= 1000:
            report["latency_p99_us"] = lat["p99"]
    else:
        # Two runs of exactly the same ops: first untraced, timed for half
        # the budget; then traced, for the op count the first one reached.
        untraced = run_bench(a.workload, a.seed,
                              ["--seconds", str(a.seconds / 2),
                               "--max-ops", str(TRACE_MAX_OPS)])
        spans = os.path.join(OUT, "spans-%s-seed%d.tsv" % (a.workload, a.seed))
        traced = run_bench(a.workload, a.seed,
                            ["--ops", str(untraced["ops"]),
                             "--trace-out", spans])
        runs = {"untraced": untraced, "traced": traced}
        metrics = per_layer(untraced, traced)
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        mismatches = exact_mismatches(untraced, traced)
        correct = failed == 0 and not mismatches
        messages = untraced["messages"] + traced["messages"] + mismatches
        report = {"error_rate": per(failed, attempted),
                  "exact_totals_match": not mismatches}
    provenance["ocaml"] = next(iter(runs.values()))["ocaml"]
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump({"provenance": provenance, "runs": runs, "report": report,
                   "metrics": metrics}, fh, indent=1)
    for msg in messages:
        print("check failed: " + msg, file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
