#!/usr/bin/env python3
"""End-to-end benchmark runner for InferTurbo.

Run from the root of a checkout:

    python3 bench_e2e/run.py --workload pregel_powerlaw_sage --seed 1 \
        --seconds 10 --trace 0

It builds the harness (bench_e2e/CMakeLists.txt) into .bench_build/,
makes the workload's inputs from the seed under .bench_work/, self-tests
the output checks, runs the timed processes, checks their outputs and
prints a metric table followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. See README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("pregel_powerlaw_sage", "mapreduce_packed_sage", "serve_zipf_delta")
# Timed processes per run: set-up is measured once per process, and the
# run's --seconds are split evenly between them.
PROCESSES = 3
# A run must end within 180 s once built (900 s for the first, which
# builds); every child gets what is left of that.
RUN_DEADLINE_S = 170
BUILD_TIMEOUT_S = 840

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "refresh_p50_ms": "ms",
}
PER_LAYER_UNITS = {
    "graph.load_s": "s", "graph.load_mb": "MB",
    "engine.run_s": "s", "engine.unattributed_frac": "ratio",
    "output.write_s": "s", "output.bytes": "bytes",
    "storage.open_s": "s", "storage.pipeline_wait_s": "s",
    "storage.overlap_s": "s", "storage.read_mb": "MB",
    "storage.map_calls": "count", "storage.evictions": "count",
    "storage.peak_mapped_mb": "MB", "storage.budget_mb": "MB",
    "pregel.bytes_out": "bytes", "pregel.records_out": "count",
    "pregel.busy_skew": "ratio",
    "mr.shuffle_bytes": "bytes", "mr.shuffle_records": "count",
    "mr.reduce_skew": "ratio",
    "kernel.bytes_per_flop": "bytes/flop",
    "serving.rebuild_s": "s", "serving.incremental_s": "s",
    "serving.cone_nodes": "count", "serving.invalidated_rows": "count",
    "serving.cache_hit_rate": "ratio", "serving.cache_hits": "count",
    "serving.cache_lookups": "count", "serving.batch_occupancy": "count",
    "serving.query_p99_ms": "ms", "loadgen.late_ms": "ms",
    "trace.overhead_frac": "ratio",
}
for _stage in ("gather", "apply", "scatter", "combine", "route"):
    PER_LAYER_UNITS[f"pregel.{_stage}_s"] = "s"
    PER_LAYER_UNITS[f"pregel.{_stage}_crit_s"] = "s"
PER_LAYER_UNITS["pregel.barrier_s"] = "s"
for _stage in ("map", "shuffle_partition", "shuffle_read", "reduce"):
    PER_LAYER_UNITS[f"mr.{_stage}_s"] = "s"
    PER_LAYER_UNITS[f"mr.{_stage}_crit_s"] = "s"
for _op in ("matmul", "segment_sum", "gather_rows"):
    PER_LAYER_UNITS[f"kernel.{_op}.calls"] = "count"
    PER_LAYER_UNITS[f"kernel.{_op}.flops"] = "flop"
    PER_LAYER_UNITS[f"kernel.{_op}.bytes"] = "bytes"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    """Set-up problem: no result line, non-zero exit."""
    log(f"bench_e2e: {msg}")
    sys.exit(2)


def run_child(cmd, timeout, **kwargs):
    if timeout <= 0:
        fail(f"no time left to run {' '.join(cmd)}")
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")


def build(root):
    """Configures and builds the harness; a no-op when up to date."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no library sources under {root}/src; run from a checkout")
    build_dir = os.path.join(root, ".bench_build", "bench_e2e")
    binary = os.path.join(build_dir, "bench_e2e")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = run_child(["cmake", "-S", os.path.join(root, "bench_e2e"),
                         "-B", build_dir] + generator,
                        BUILD_TIMEOUT_S, stdout=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    made = run_child(["cmake", "--build", build_dir, "-j", jobs],
                     BUILD_TIMEOUT_S, stdout=sys.stderr)
    if made.returncode != 0 or not os.path.isfile(binary):
        fail("build failed")
    return binary


def quantile(values, q):
    """Nearest-rank percentile: always an observed value."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        report(binary, work, args, time.monotonic() + RUN_DEADLINE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(binary, work, args, deadline):
    def left():
        return deadline - time.monotonic()

    t = time.monotonic()
    gen = run_child([binary, "--mode=gen", f"--workload={args.workload}",
                     f"--seed={args.seed}", f"--dir={work}"],
                    left(), stdout=sys.stderr)
    if gen.returncode != 0:
        fail("input generation failed")
    log(f"inputs generated in {time.monotonic() - t:.1f}s (not timed)")
    selftest = run_child([binary, "--mode=selftest", f"--dir={work}"],
                         left(), stdout=sys.stderr)

    runs = []
    for p in range(PROCESSES):
        out = os.path.join(work, f"run{p}.json")
        spawn = time.monotonic()
        proc = run_child([binary, "--mode=run", f"--workload={args.workload}",
                          f"--dir={work}", f"--seed={args.seed}",
                          f"--seconds={args.seconds / PROCESSES}",
                          f"--trace={args.trace}", f"--spawn_time={spawn!r}",
                          f"--out={out}"],
                         left(), stdout=sys.stderr)
        if proc.returncode != 0:
            fail(f"timed process {p} exited with {proc.returncode}")
        with open(out) as f:
            runs.append(json.load(f))

    serve = args.workload == "serve_zipf_delta"
    # A failed query was written as null: it misses every latency limit.
    samples = {key: [math.inf if x is None else x
                     for r in runs for x in r["samples"][key]]
               for key in runs[0]["samples"]}
    latency_ms = samples["query_ms"] if serve else [s * 1e3 for s in samples["job_s"]]
    refresh_ms = samples["delta_ms"] if serve else latency_ms
    e2e = {
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mb": samples["peak_rss_mb"],
        "latency_p50_ms": latency_ms,
        "refresh_p50_ms": refresh_ms,
    }
    values = {name: statistics.median(v) for name, v in e2e.items()}
    # The tail is taken over the whole run's queries, not per process.
    p99 = quantile(samples["query_ms"], 0.99) if serve else 0.0

    attempted = sum(r["attempted"] for r in runs) + 1  # + the self-test
    failed = sum(r["failed"] for r in runs) + (selftest.returncode != 0)
    correct = failed == 0

    prov = runs[0]["provenance"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} processes {PROCESSES}")
    print(f"host nproc {prov['nproc']} workers {prov['workers']} "
          f"build {prov['build_type']} "
          f"avx2 {prov['avx2']} read_path {prov['read_path']}")
    print(f"checks: attempted {attempted} failed {failed} "
          f"error_rate {failed / attempted:.4g} "
          f"selftest {'ok' if selftest.returncode == 0 else 'FAILED'}"
          + ("" if serve else
             f" crc_mismatches {sum(r['crc_mismatches'] for r in runs)}"
             f" readback_failures {sum(r['readback_failures'] for r in runs)}")
          + (f" epoch_violations {sum(r['epoch_violations'] for r in runs)}"
             f" final_epoch_bit_identical "
             f"{all(r['final_epoch_bit_identical'] for r in runs)}"
             if serve else ""))
    errs = [math.inf if r["logits_err"] is None else r["logits_err"]
            for r in runs]
    print(f"logits_err {max(errs):.6g} max|d| vs FullGraphReferenceLogits "
          + ("(served logits must be bit-identical)" if serve else
             f"(tolerance {prov['logit_tolerance']:g}; {prov['workers']} "
             "workers; depends on the worker count, ROADMAP item 3)"))
    if args.workload == "mapreduce_packed_sage":
        st = runs[0]["storage"]
        print(f"storage budget {st['budget_mb']:.2f} MB of a "
              f"{st['pack_mb']:.2f} MB pack; peak mapped "
              f"{st['peak_mapped_mb']:.2f} MB"
              + (" EXCEEDS the budget (ROADMAP item 5)"
                 if st["peak_mapped_mb"] > st["budget_mb"] else ""))
    print(f"{'metric':<30} {'value':>14} {'unit':<10} samples")
    for name, v in e2e.items():
        print(f"{name:<30} {values[name]:>14.6g} "
              f"{END_TO_END_UNITS[name]:<10} {len(v)}")
    if serve:
        q = samples["query_ms"]
        print(f"{'query_p99_ms':<30} {p99:>14.6g} {'ms':<10} {len(q)} "
              f"({len(q) - math.ceil(0.99 * len(q))} beyond p99)")

    if args.trace:
        layers = [row for r in runs for row in r["per_layer"]]
        unknown = {name for row in layers for name in row} - set(PER_LAYER_UNITS)
        if unknown:
            fail(f"per-layer metrics missing from PER_LAYER_UNITS: {sorted(unknown)}")
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            if name == "serving.query_p99_ms":
                v, n = p99, len(samples.get("query_ms", []))
            else:
                v = statistics.median(row.get(name, 0.0) for row in layers)
                n = len(layers)
            metrics[name] = {"value": v, "unit": unit}
            print(f"{name:<30} {v:>14.6g} {unit:<10} {n}")
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
