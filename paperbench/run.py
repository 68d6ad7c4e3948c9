#!/usr/bin/env python3
"""Paper-outcome benchmark: learn -> certify -> initset per system.

Run from the repository root:

    python3 paperbench/run.py --workload acc-linear --seed 1 --seconds 30 --trace 0

Builds paperbench/paperbench.exe with dune (into .bench_build), then runs
the workload one pass per process until --seconds have been spent. Each
pass prepares its inputs from the seed, runs the paper's stages through
the library's public entry points and checks every outcome against the
paper's known answer (Reach_avoid, certified coverage, SC = GR = 100%,
Valid certificates, zero oracle violations). Passes must also agree on a
deterministic signature (iterations, verifier calls, coverage, verdict
tally, work counters).

--trace 0 prints the end-to-end metrics (tracing off): mean pass time,
mean and tail verifier-call latency over all passes, median set-up time
and peak memory. --trace 1 runs three passes instead: untraced at the
workload's own domain count, then traced at 1 and at 2 domains, and
prints the per-layer metrics. Metric names and units come from
BENCHMARK.json. The last line of standard output is the result object.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "paperbench", "paperbench.exe")
OUT_DIR = ".bench_out"
TMP_ROOT = ".bench_tmp"
# pool domains of each workload's timed passes; the traced run adds a
# 2-domain pass, checked against the 1-domain one
DOMAINS = {"acc-linear": 1, "osc-nn": 1, "scenario-fuzz": 1}
RUN_BUDGET_S = 170.0
# The tail is the highest of these with at least 10 samples beyond it.
# The grid stops at p99: p99.9 of acc-linear's ~45k sub-millisecond
# calls measured GC pauses and host noise (18% spread across seeds).
TAIL_QUANTILES = (99.0, 90.0, 50.0)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("paperbench: " + msg)
    sys.exit(code)


def build():
    if shutil.which("dune") is None:
        fail("dune is not on PATH", 2)
    # --cache=disabled: the shared dune cache lives outside the checkout
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--cache=disabled",
           "--build-dir", BUILD_DIR, "--display", "quiet", "./paperbench/paperbench.exe"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0 or not os.path.exists(EXE):
        log(proc.stdout[-4000:])
        fail("build failed", 2)


def run_pass(workload, seed, domains, tmp, deadline, trace=False, extras=False, spans=None):
    """One pass in a fresh process; returns its result object plus
    set-up time (spawn to inputs ready) and process wall time."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--domains", str(domains),
           "--tmp", tmp]
    if trace:
        cmd.append("--trace")
    if extras:
        cmd.append("--extras")
    if spans:
        cmd += ["--spans", spans]
    spawned = time.time()
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("pass of %s timed out" % workload)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        fail("pass of %s exited with %d" % (workload, proc.returncode))
    lines = out.strip().splitlines()
    if not lines:
        fail("pass of %s printed no result" % workload)
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready_at"] - spawned
    res["wall_s"] = wall
    return res


def tail(values):
    """Tail latency by nearest rank; returns (quantile, value)."""
    v = sorted(values)
    n = len(v)
    for q in TAIL_QUANTILES:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= 10:
            return q, v[rank - 1]
    return 100.0, v[-1]


def check_passes(passes):
    """Failed operations (failed checks, plus one per pass whose
    signature differs from the first pass's)."""
    failed = sum(len(p["failed"]) for p in passes)
    ref = passes[0]["signature"]
    mismatched = [i for i, p in enumerate(passes) if p["signature"] != ref]
    for p in passes:
        for what in p["failed"]:
            log("FAILED: " + what)
    if mismatched:
        log("FAILED: signature differs from pass 0 in passes %s" % mismatched)
    return failed + len(mismatched)


def end_to_end(workload, seed, seconds, tmp, deadline, spec):
    domains = DOMAINS[workload]
    passes = []
    t0 = time.monotonic()
    # Start another pass while at least half of it fits in --seconds, so
    # the measured time is --seconds give or take half a pass (osc-nn's
    # ~13 s passes would otherwise get two passes in one run, three in
    # the next).
    while True:
        passes.append(run_pass(workload, seed, domains, tmp, deadline))
        elapsed = time.monotonic() - t0
        per_pass = statistics.median(p["wall_s"] for p in passes)
        if elapsed + per_pass / 2 > seconds or time.monotonic() + per_pass > deadline:
            break
    failed = check_passes(passes)
    good = [p for p in passes if not p["failed"]] or passes
    lat = [x for p in good for x in p["latencies_ms"]]
    q, tail_ms = tail(lat)
    # Means, not medians, for the pass and call times: on a shared
    # 2-vCPU VM the CPU speed switches between two levels (1.65x apart)
    # every few seconds as co-located load comes and goes, so a median
    # over passes or calls jumps from one level to the other as their
    # mix shifts, while a mean moves in proportion to the mix.
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "total_s": statistics.fmean(p["pass_s"] for p in good),
        "verify_mean_ms": statistics.fmean(lat),
        "verify_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in good),
    }
    log("%s seed %d: %d passes at %d domain(s), pass_s %s; verify latency n=%d, tail = p%g"
        % (workload, seed, len(passes), domains,
           " ".join("%.3f" % p["pass_s"] for p in passes), len(lat), q))
    log("signature:" + passes[0]["signature"].rstrip().replace("\n", "\n  "))
    attempted = sum(p["attempted"] for p in passes) + len(passes)
    return values, attempted, failed, spec["end_to_end"]


def print_spans(label, p):
    log("spans (%s): path  count  wall_s  self_s" % label)
    for path, n, wall, self_s in p["spans"]:
        log("  %-28s %6d %10.4f %10.4f" % (path, n, wall, self_s))
    layers = p["layers"]
    stages = [k for k in layers if k.startswith("stage.") and k != "stage.unattributed_s"]
    total = sum(layers[k] for k in stages) + layers.get("stage.unattributed_s", 0.0)
    log("  stages %s + unattributed %.6f = %.6f s; pass wall %.6f s"
        % (" + ".join("%s %.4f" % (k[6:-2], layers[k]) for k in stages),
           layers.get("stage.unattributed_s", 0.0), total, p["pass_s"]))


def per_layer(workload, seed, tmp, deadline, spec):
    own = DOMAINS[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = lambda d: os.path.join(OUT_DIR, "spans-%s-seed%d-d%d.json" % (workload, seed, d))
    untraced = run_pass(workload, seed, own, tmp, deadline)
    one = run_pass(workload, seed, 1, tmp, deadline, trace=True, extras=True, spans=spans(1))
    two = run_pass(workload, seed, 2, tmp, deadline, trace=True, spans=spans(2))
    passes = [untraced, one, two]
    failed = check_passes(passes)
    traced_own = one if own == 1 else two
    print_spans("1 domain", one)
    if own != 1:
        print_spans("%d domains" % own, two)
    # 1-domain pass first (phases, GC words, ladder, Table 2), then the
    # spans, stages and counters of the pass at the workload's own count
    merged = dict(one["layers"])
    merged.update(traced_own["layers"])
    merged["pool.speedup"] = one["pass_s"] / two["pass_s"]
    merged["pool.identical"] = 1.0 if one["signature"] == two["signature"] else 0.0
    merged["trace.overhead_share"] = traced_own["pass_s"] / untraced["pass_s"] - 1.0
    merged["verify.p50_ms"] = statistics.median(untraced["latencies_ms"])
    declared = [m["name"] for m in spec["per_layer"]]
    extra = sorted(set(merged) - set(declared))
    if extra:
        log("not in BENCHMARK.json per_layer (not reported): %s" % ", ".join(extra))
    values = {name: merged.get(name, 0.0) for name in declared}
    log("%s seed %d traced: pass_s untraced %.3f, 1 domain %.3f, 2 domains %.3f"
        % (workload, seed, untraced["pass_s"], one["pass_s"], two["pass_s"]))
    attempted = sum(p["attempted"] for p in passes) + len(passes)
    return values, attempted, failed, spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(DOMAINS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, 2)
    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        if args.trace:
            values, attempted, failed, declared = per_layer(
                args.workload, args.seed, tmp, deadline, spec)
        else:
            values, attempted, failed, declared = end_to_end(
                args.workload, args.seed, args.seconds, tmp, deadline, spec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
