"""Benchmark of nlpdhg's public solvers. See perfbench/README.md.

    python3 perfbench/run.py --workload logreg-desk --seed 0 --seconds 40 --trace 0

Run from the root of a checkout: the benchmark imports ``nlpdhg`` from the
checkout's ``src/`` and exits with an error if it is not there. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A human-readable table precedes it,
and the full record (provenance, every solve, the metrics) is written to
``perfbench/results/``; traced runs also write their spans there.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy loads: the box has two cores and a
# second BLAS thread turns the GEMV-bound solves into a noisy measurement.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

if not (SRC / "nlpdhg" / "__init__.py").is_file():
    sys.exit(f"perfbench: no nlpdhg sources at {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import nlpdhg  # noqa: E402
import layers  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS, derive_seed  # noqa: E402

if Path(nlpdhg.__file__).resolve().parent != SRC / "nlpdhg":
    sys.exit(f"perfbench: imported nlpdhg from {nlpdhg.__file__}, not from {SRC}")

UNTRACED = NullTracer()

# Iteration cap of the untimed warm-up solve: enough to touch every code path
# and fault in every buffer, far less than a full solve of logreg-desk.
WARMUP_MAX_ITERS = 300
WARMUP_KEY = 0xFFFFFFFF


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_phase(workload, seconds, tr):
    """Whole passes over the instances, ending on the pass boundary nearest
    to ``seconds`` (after at least one pass).

    Returns the rounds and the process's peak resident memory at the end of
    the first pass: later passes repeat the same work, while the list of
    rounds kept here grows with how many fit in the phase.
    """
    rounds = []
    t0 = pass_start = time.perf_counter()
    first_pass_rss = None
    while True:
        i = len(rounds)
        tr.round_id = i
        rounds.append(workload.round(i, tr))
        if len(rounds) % workload.grid == 0:
            now = time.perf_counter()
            if first_pass_rss is None:
                first_pass_rss = peak_rss_mb()
            if now - t0 + (now - pass_start) / 2 >= seconds:
                return rounds, first_pass_rss
            pass_start = now


def signature(rnd):
    # repr compares floats exactly and lets a NaN gap equal another NaN gap.
    return [(c["solver"], c["iters"], repr(c["gap_rel"])) for c in rnd["calls"]]


def repeat_check(workload, rounds, tr, counts=None):
    """Two solves of one instance must agree exactly.

    Compares iterations and certificate gap (and, when ``counts`` maps a
    round index to its operator counts, matvec calls and bytes) between
    rounds that share an instance. When no instance repeats within the
    phase, round 0 is run once more, untimed. Exits with an error on a
    mismatch.
    """
    seen = {}
    pairs = []
    for i, rnd in enumerate(rounds):
        if rnd["key"] in seen:
            pairs.append((seen[rnd["key"]], i, rnd))
        else:
            seen[rnd["key"]] = i
    if not pairs:
        extra = len(rounds)
        tr.round_id = extra
        pairs.append((0, extra, workload.round(0, tr)))
    for first, second, rnd in pairs:
        a, b = signature(rounds[first]), signature(rnd)
        if counts is not None:
            a, b = (a, counts(first)), (b, counts(second))
        if a != b:
            sys.exit(
                f"perfbench: {workload.name} is not deterministic: rounds {first} and"
                f" {second} solve the same instance but differ: {a} != {b}"
            )


def fastest(rounds, key, field):
    """For each distinct ``r[key]``, the smallest ``r[field]`` of its rounds."""
    best = {}
    for r in rounds:
        if r[field] is not None:
            k = r[key]
            best[k] = min(best.get(k, math.inf), r[field])
    return list(best.values())


def end_to_end(rounds, rss_mb):
    """The bounded metrics, made from every instance's fastest round.

    On a shared virtual machine a core's speed can change by up to 2x for
    seconds to minutes at a time, and a median over all solves reports
    which speed a run happened to meet. Each instance is solved on every
    pass, so its fastest round is its cost at the best speed any pass met.
    """
    best_round = fastest(rounds, "key", "round_s")
    completed = sum(r["ok"] for r in rounds) / len(rounds)
    return {
        "best_solves_per_s": (completed * len(best_round) / sum(best_round), "1/s"),
        "setup_s": (statistics.median(fastest(rounds, "setup_key", "setup_s")), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def unbounded_timings(rounds):
    """Printed, not bounded: solve-time percentiles over instances' fastest
    solves, which hang on which instance sits at the percentile, and
    throughput and percentiles over every round as measured, which follow
    the host's speed level."""
    best_solve = fastest(rounds, "key", "solve_s")
    solve = [r["solve_s"] for r in rounds]
    completed = sum(r["ok"] for r in rounds)
    return {
        "best_solve_s_p50": (float(np.percentile(best_solve, 50)), "s"),
        "best_solve_s_p90": (float(np.percentile(best_solve, 90)), "s"),
        "solves_per_s": (completed / sum(r["round_s"] for r in rounds), "1/s"),
        "solve_s_p50": (float(np.percentile(solve, 50)), "s"),
        "solve_s_p90": (float(np.percentile(solve, 90)), "s"),
    }


def quality(rounds):
    """Failure share and worst certified gap; printed on every run."""
    gaps = [c["gap_rel"] for r in rounds for c in r["calls"] if np.isfinite(c["gap_rel"])]
    failed = sum(not r["ok"] for r in rounds)
    return {
        "fail_frac": (failed / len(rounds), "1"),
        "gap_rel_max": (max(gaps) if gaps else float("nan"), "1"),
    }


def warm_up(name, seed):
    WORKLOADS[name](derive_seed(seed, WARMUP_KEY)).round(0, UNTRACED, max_iters=WARMUP_MAX_ITERS)


def stream_gbps(nbytes, seconds=0.3):
    """Read bandwidth of a streaming max over an array of ``nbytes``: the
    median over repeats for ``seconds``."""
    a = np.ones(max(1, nbytes // 8))
    times = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(times) < 5:
        t0 = time.perf_counter()
        a.max()
        times.append(time.perf_counter() - t0)
    return a.nbytes / statistics.median(times) / 1e9


def _cache_sizes():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
            sizes[f"l{level}_bytes"] = int(size.rstrip("KMG")) * scale
    return sizes


def _blas_threads():
    """Thread count OpenBLAS reports, when its library can be found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    return {
        "blas_threads_requested": int(BLAS_THREADS),
        "blas_threads_reported": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **caches,
        "llc_note": (
            "the 4x last-level-cache rule for bandwidth arrays cannot be met: "
            f"L3 reports {caches.get('l3_bytes', 0) / 2**20:.0f} MiB, so every operator "
            "here is cache-resident and operators.bw_frac compares against a "
            "same-size streaming read"
        ),
        "git_commit": _git_commit(),
    }


def print_table(title, metrics):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6g}  {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    workload = WORKLOADS[args.workload](args.seed)
    prov = provenance()
    print("# provenance " + json.dumps(prov))
    warm_up(args.workload, args.seed)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": prov}

    if args.trace == 0:
        rounds, rss_mb = run_phase(workload, args.seconds, UNTRACED)
        repeat_check(workload, rounds, UNTRACED)
        metrics = end_to_end(rounds, rss_mb)
        print_table(f"{workload.name} seed {args.seed}: end-to-end", metrics)
        print_table("unbounded", {**unbounded_timings(rounds), **quality(rounds)})
        correct = all(r["ok"] for r in rounds)
        record["rounds"] = rounds
    else:
        plain, _ = run_phase(workload, args.seconds / 2, UNTRACED)
        gbps = stream_gbps(workload.operator_nbytes)
        tracer = Tracer()
        layers.instrument(tracer)
        try:
            traced, _ = run_phase(workload, args.seconds / 2, tracer)
            counts = layers.round_counts(tracer)
            repeat_check(workload, traced, tracer, counts)
        finally:
            tracer.restore()
        metrics, accounted_ok = layers.per_layer(tracer, plain, traced, gbps)
        checks = quality(plain + traced)
        metrics["certificate.gap_rel_max"] = checks["gap_rel_max"]
        print_table(f"{workload.name} seed {args.seed}: per layer", metrics)
        print_table("unbounded", checks)
        correct = accounted_ok and all(r["ok"] for r in plain + traced)
        RESULTS.mkdir(exist_ok=True)
        tracer.save(RESULTS / f"{workload.name}-seed{args.seed}-spans.npz")
        record["rounds"] = plain + traced
        rounds = plain + traced

    failed = sum(not r["ok"] for r in rounds)
    for r in rounds:
        for c in r["calls"]:
            if not c["ok"]:
                print(f"# failed: {r['key']} {c['solver']}: {c['reason']}")
    # A value that could not be measured (no certified solve at all) is null.
    record["metrics"] = {
        k: {"value": v if math.isfinite(v) else None, "unit": u} for k, (v, u) in metrics.items()
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(rounds),
        "failed": failed,
        "metrics": record["metrics"],
    }))


if __name__ == "__main__":
    main()
