#!/usr/bin/env python3
"""Benchmark for spsr: seeded workloads through the public CLI entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload refine_busy --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another
    python3 perfbench/run.py --smoke                   # self-test on tiny inputs

Load model: closed loop. One caller in this process issues one call of
``spsr.cli.main`` at a time; a request is one call (one image for ``refine``,
one corpus for ``bench``) or, for ``eval``, one round of the four eval tasks.
Set-up builds a pool of three seeded inputs; each is written to files and run
once untimed (the warm-up), whose output bytes are the reference every timed
call on that input must reproduce. For seed 0 the warm-up outputs must also
match the sha256 digests in ``perfbench/golden.json``.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` measures the same requests untraced, then traced (wrappers from
``perfbench/tracing.py``), and reports the per-layer metrics; for refine_busy
it also runs the pool at ``--threads`` = nproc. The last stdout line is the
JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io as stdio
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
POOL = 3  # seeded inputs per run; each is one set-up, so setup_s is a median of three
DEFAULT_SEED = 0

# Sizes: FULL is what the workloads measure, SMOKE is the self-test.
FULL = {
    "refine_busy": {"rois": 50, "canvas": 448, "f0": 64},
    # 10 RoIs instead of the criterion-2 corpus's 50 keeps a bench call near 4 s,
    # so a run holds enough calls for a steady median.
    "bench_dense": {"count": 10, "canvas": 448, "f0": 64},
    "eval": {"canvas": 256, "classes": 3, "per_class": 4,
             "images": {"masks": 1, "det": 8, "panoptic": 24}},
}
SMOKE = {
    "refine_busy": {"rois": 3, "canvas": 160, "f0": 16},
    "bench_dense": {"count": 2, "canvas": 160, "f0": 16},
    "eval": {"canvas": 160, "classes": 2, "per_class": 2,
             "images": {"masks": 1, "det": 2, "panoptic": 2}},
}
EVAL_TASKS = ("det", "seg", "boundary", "panoptic")
EVAL_FILES = {"det": "det", "seg": "masks", "boundary": "masks", "panoptic": "panoptic"}
LEDGER_FILES = ("ledger.json", "bench_report.json")  # outputs that carry a MAC ledger
# Options an SPSR_* environment variable could otherwise change, pinned.
PINNED = ["--f-neck", "256", "--f-query", "256", "--stages", "3", "--top-n", "10000"]


@dataclass
class Call:
    label: str
    argv: list
    outputs: list


@dataclass
class Input:
    """One pooled input: the calls of one request, plus what the warm-up produced."""

    calls: object  # threads -> list[Call]
    items: int
    reference: dict = field(default_factory=dict)  # output path -> sha256
    reports: dict = field(default_factory=dict)  # output basename -> parsed JSON


# --- workloads ----------------------------------------------------------------


def prepare_refine(directory, seed, k, size):
    import corpus
    rois, refs = corpus.write_refine_image(directory, seed, k, size["rois"], size["canvas"], 112)
    out = os.path.join(directory, "out")
    canvas = str(size["canvas"])

    def calls(threads=1):
        argv = ["refine", "--mode", "oracle", "--rois", rois, "--ref-masks", refs, "--out", out,
                "--image-size", canvas, canvas, "--f0", str(size["f0"]), *PINNED,
                "--threads", str(threads), "--seed", str(seed)]
        return [Call("refine", argv, [os.path.join(out, "masks.json"),
                                      os.path.join(out, "ledger.json")])]

    return Input(calls=calls, items=size["rois"])


def prepare_bench(directory, seed, k, size):
    report = os.path.join(directory, "bench_report.json")
    bench_seed = str(1000 * seed + 100 * k)  # corpus shapes use seeds bench_seed .. +count-1

    def calls(threads=1):
        argv = ["bench", "--count", str(size["count"]), "--shape", "blob",
                "--canvas", str(size["canvas"]), "--f0", str(size["f0"]), *PINNED,
                "--threads", str(threads), "--seed", bench_seed, "--out", report]
        return [Call("bench", argv, [report])]

    return Input(calls=calls, items=size["count"])


def prepare_eval(directory, seed, k, size):
    import corpus
    paths = corpus.write_eval_corpus(directory, seed, k, size["canvas"], size["classes"],
                                     size["per_class"], size["images"])
    per_image = size["classes"] * size["per_class"]
    items = sum(size["images"][EVAL_FILES[t]] for t in EVAL_TASKS) * per_image

    def calls(threads=1):
        out = []
        for task in EVAL_TASKS:
            preds, gts = paths[EVAL_FILES[task]]
            report = os.path.join(directory, f"{task}_report.json")
            out.append(Call(task, ["eval", "--task", task, "--preds", preds, "--gts", gts,
                                   "--out", report], [report]))
        return out

    return Input(calls=calls, items=items)


WORKLOADS = {"refine_busy": prepare_refine, "bench_dense": prepare_bench, "eval": prepare_eval}
ITEM = {"refine_busy": "RoI", "bench_dense": "RoI", "eval": "instance"}


# --- running calls ----------------------------------------------------------------


def sha256(path):
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except OSError:
        return None


def run_call(call):
    """One in-process CLI call; returns (exit code, seconds, output digests, stderr)."""
    from spsr import cli
    for path in call.outputs:
        if os.path.exists(path):
            os.unlink(path)
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(call.argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash counts as a failed call, the run goes on
            code = -1
            traceback.print_exc(file=err)
        elapsed = time.perf_counter() - start
    return code, elapsed, {p: sha256(p) for p in call.outputs}, err.getvalue()


@dataclass
class Phase:
    """Timed requests of one measuring phase."""

    times: list = field(default_factory=list)  # seconds per request
    by_label: dict = field(default_factory=dict)  # call label -> seconds per call
    items: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def measure(pool, seconds, threads=1, tracer=None) -> Phase:
    """Closed loop over the pool until ``seconds`` have passed (at least one request)."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    while not phase.times or time.perf_counter() < deadline:
        inp = pool[i % len(pool)]
        total = 0.0
        for call in inp.calls(threads):
            if tracer is not None:
                tracer.call_id += 1
            code, elapsed, digests, err = run_call(call)
            phase.attempted += 1
            total += elapsed
            phase.by_label.setdefault(call.label, []).append(elapsed)
            changed = [os.path.basename(p) for p in call.outputs if digests[p] != inp.reference[p]]
            if code != 0 or changed:
                phase.failed += 1
                phase.errors.append(f"{call.label}: exit {code}, outputs differing from the "
                                    f"warm-up {changed} {err[-300:]}")
        phase.times.append(total)
        phase.items += inp.items
        i += 1
    return phase


def check_ledger(report) -> list:
    """mac_reduction must be exactly 1 - sparse/dense of the ledger's own totals."""
    problems = []
    dense = sum(s["dense_macs"] for s in report["stages"])
    sparse = sum(s["sparse_macs"] for s in report["stages"])
    if (dense, sparse) != (report["total_dense_macs"], report["total_sparse_macs"]):
        problems.append("stage MACs do not add up to the ledger totals")
    if report["reduction_fraction"] != 1.0 - sparse / dense:
        problems.append("reduction_fraction differs from 1 - sparse/dense")
    return problems


def setup(workload, size, seed, work, golden) -> tuple[list, list, list]:
    """Build the pool; returns (inputs, set-up seconds each, problems)."""
    pool, times, problems = [], [], []
    for k in range(POOL):
        directory = os.path.join(work, f"input{k}")
        os.makedirs(directory)
        start = time.perf_counter()
        inp = WORKLOADS[workload](directory, seed, k, size)
        for call in inp.calls(1):
            code, _, digests, err = run_call(call)
            if code != 0:
                problems.append(f"warm-up {call.label} on input {k}: exit {code} {err[-300:]}")
            inp.reference.update(digests)
        times.append(time.perf_counter() - start)
        for path in inp.reference:
            if inp.reference[path] is not None:
                with open(path, encoding="utf-8") as f:
                    inp.reports[os.path.basename(path)] = json.load(f)
        for name, report in inp.reports.items():
            if name in LEDGER_FILES:
                problems += [f"input {k} {name}: {p}" for p in check_ledger(report)]
        if golden is not None:
            expected = golden.get(workload, [])
            got = {os.path.basename(p): d for p, d in inp.reference.items()}
            if k >= len(expected) or expected[k] != got:
                problems.append(f"input {k}: outputs differ from the digests in golden.json")
        pool.append(inp)
    return pool, times, problems


# --- statistics and reporting ----------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples beyond it: (seconds, pct) or None."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def blas_threads():
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment(seed) -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "seed": seed}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary_lines(workload, phase, setup_times, pool) -> list[str]:
    """Workload-level metrics under their own names, for people."""
    n = len(phase.times)
    lines = [f"setup_s {statistics.median(setup_times)} s (median of {len(setup_times)})"]
    t = tail(phase.times)
    tail_text = f"{t[0]} s (p{t[1]:.0f}, n={n})" if t else f"n/a (n={n}, needs 11)"
    if workload == "refine_busy":
        lines += [f"refine_rois_per_s {phase.items / sum(phase.times)} RoI/s",
                  f"refine_p50_s {statistics.median(phase.times)} s (n={n})",
                  f"refine_tail_s {tail_text}"]
    elif workload == "bench_dense":
        lines += [f"bench_p50_s {statistics.median(phase.times)} s (n={n})",
                  f"bench_tail_s {tail_text}"]
    else:
        lines += [f"eval_{task}_s {statistics.median(phase.by_label[task])} s (n={n})"
                  for task in EVAL_TASKS]
    if workload != "eval":
        lines.append(f"mac_reduction {mac_reduction(pool)} fraction (ledger, exact)")
    lines += [f"peak_rss_mb {peak_rss_mb()} MB",
              f"failed_frac {phase.failed / phase.attempted} fraction "
              f"({phase.failed}/{phase.attempted} calls)"]
    return lines


def ledger_reports(pool):
    return [r for inp in pool for name, r in inp.reports.items() if name in LEDGER_FILES]


def mac_reduction(pool):
    reports = ledger_reports(pool)
    return statistics.fmean(r["reduction_fraction"] for r in reports) if reports else 0.0


def end_to_end(phase, setup_times) -> dict:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "p50_s": (statistics.median(phase.times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(workload, pool, plain, traced, threaded, tracer) -> dict:
    import tracing
    metrics = tracer.layer_metrics(len(traced.times))
    reports = ledger_reports(pool)
    for s in tracing.STAGES:
        fractions = [st["active_fraction"] for r in reports for st in r["stages"]
                     if st["stage"] == s and "active_fraction" in st]
        metrics[f"pipeline.active_fraction.s{s}"] = statistics.fmean(fractions) if fractions else 0.0
    metrics["mac_reduction"] = mac_reduction(pool)
    metrics["pipeline.threads_speedup"] = (statistics.median(plain.times)
                                           / statistics.median(threaded.times)
                                           if threaded else 0.0)
    for task in EVAL_TASKS:
        metrics[f"eval_{task}_s"] = (statistics.median(plain.by_label[task])
                                     if task in plain.by_label else 0.0)
    metrics["trace.overhead_s"] = statistics.median(traced.times) - statistics.median(plain.times)
    return {name: (value, layer_unit(name)) for name, value in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith("gmac_per_s"):
        return "GMAC/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.startswith("io.bytes") or name.endswith("_bytes_computed"):
        return "B"
    if name.startswith("cost.macs."):
        return "MAC"
    if name == "pipeline.threads_speedup":
        return "x"
    if "fraction" in name or "ratio" in name or "binding" in name or name == "mac_reduction":
        return "fraction"
    return "count"


def run_workload(workload, seed, seconds, trace, size, golden):
    """Returns (result dict for the last line, lines for people)."""
    work = os.path.join(WORK, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    pool, setup_times, problems = setup(workload, size, seed, work, golden)
    lines = [f"workload {workload}: closed loop, 1 caller, {POOL} pooled inputs, "
             f"{ITEM[workload]}s per request {[inp.items for inp in pool]}"]
    if not trace:
        phase = measure(pool, seconds)
        metrics = end_to_end(phase, setup_times)
        lines += summary_lines(workload, phase, setup_times, pool)
        phases = [phase]
    else:
        import tracing
        share = seconds / (3 if workload == "refine_busy" else 2)
        plain = measure(pool, share)
        threaded = (measure(pool, share, threads=len(os.sched_getaffinity(0)))
                    if workload == "refine_busy" else None)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(pool, share, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(work, "spans.jsonl"))
        metrics = per_layer(workload, pool, plain, traced, threaded, tracer)
        lines += summary_lines(workload, plain, setup_times, pool)
        lines += tracer.op_table(len(traced.times))
        lines.append(f"spans: {len(tracer.spans)} in {os.path.relpath(work, ROOT)}/spans.jsonl")
        phases = [p for p in (plain, threaded, traced) if p is not None]
    for k, inp in enumerate(pool):
        lines += [f"digest {workload} {k} {os.path.basename(p)} {d}"
                  for p, d in inp.reference.items()]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = problems + [e for p in phases for e in p.errors]
    lines += [f"error {e}" for e in errors[:10]]
    for k in range(POOL):
        shutil.rmtree(os.path.join(work, f"input{k}"), ignore_errors=True)
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}
    return result, lines


# --- entry point ----------------------------------------------------------------------


def smoke() -> int:
    """Every workload on tiny inputs, both modes: every declared metric, with its unit, and no failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run_workload(workload, 1, 0.5, trace, SMOKE[workload], None)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if want != got:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json "
                                f"(missing {sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}, units "
                                f"{sorted(n for n in want if n in got and want[n] != got[n])})")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: failed_frac "
                                f"{result['failed']}/{result['attempted']}, correct {result['correct']}")
            print(f"smoke {workload} trace {trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")
    for p in problems:
        print("smoke problem:", p)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test every workload on tiny inputs, then exit")
    args = parser.parse_args()
    # One caller, at most nproc threads: the engine's --threads workers each run
    # single-threaded BLAS. (Set before numpy loads; two BLAS threads per worker
    # oversubscribe the cores and make timings swing several-fold under contention.)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    if not os.path.isfile(os.path.join(SRC, "spsr", "cli.py")):
        print(f"error: no spsr sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()

    golden = None
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as f:
            golden = json.load(f)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    print("env " + json.dumps(environment(args.seed)))
    for workload in workloads:
        result, lines = run_workload(workload, args.seed, args.seconds, args.trace,
                                     FULL[workload], golden)
        print("\n".join(lines))
        results[workload] = result
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
