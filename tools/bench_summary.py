"""Summarise parent/change benchmark records into a ``BENCH_<topic>.json``.

    python3 tools/bench_summary.py --topic game [--claim game-swarm \
        [--metric best_solves_per_s]] --parent PARENT/perfbench/results \
        --change CHANGE/perfbench/results --out BENCH_game.json

PARENT and CHANGE are two checkouts on which ``perfbench/run.py`` ran with
the same workloads, seeds and ``--seconds``. Every record the two results
directories share (``<workload>-seed<N>-trace<T>.json``) becomes one pair;
a pair whose two runs differ in ``seconds`` stops the summary with an error
naming the file.
For each workload, untraced pairs give each end-to-end metric's per-run
values, the median and quartiles of each side, and how many pairs the change
won; traced pairs give the per-layer metrics side by side. With
``--claim``, the claim is that ``--metric`` (an end-to-end metric,
``best_solves_per_s`` by default) improves on the ``--claim`` workload, in
the direction ``BENCHMARK.json``'s ``end_to_end[].better`` gives it, without
more failed solves there. Without it the file records ``"claim": null``: a
change that claims no gain still commits its regression check. Every
workload and end-to-end metric gets the regression check of ``summarise``
against that metric's ``bound``; the top-level ``regressed`` and
``unresolved`` lists name the metrics that fail it or cannot be told.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def directions(path=BENCHMARK):
    """Whether a higher value is better, for each end-to-end metric of a
    ``BENCHMARK.json``."""
    out = {}
    for metric in json.loads(Path(path).read_text())["end_to_end"]:
        if metric["better"] not in ("higher", "lower"):
            raise ValueError(f"{metric['name']}: 'better' must be 'higher' or 'lower'")
        out[metric["name"]] = metric["better"] == "higher"
    return out


def bounds(path=BENCHMARK):
    """The relative amount by which each end-to-end metric of a
    ``BENCHMARK.json`` may worsen before it counts as a regression."""
    return {m["name"]: float(m["bound"]) for m in json.loads(Path(path).read_text())["end_to_end"]}


HIGHER_IS_BETTER = directions()
BOUNDS = bounds()


def load(directory):
    records = {}
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        rounds = rec["rounds"]
        records[path.name] = {
            "workload": rec["workload"],
            "seed": rec["seed"],
            "trace": rec["trace"],
            "seconds": rec["seconds"],
            "git_commit": rec["provenance"]["git_commit"],
            "metrics": {k: v["value"] for k, v in rec["metrics"].items()},
            "attempted": len(rounds),
            "failed": sum(not r["ok"] for r in rounds),
        }
    return records


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs):
    """Per end-to-end metric: both sides' quartiles, the change's wins and the
    regression check.

    The change's median is ``within_bound`` unless it is worse than the
    parent's by more than the metric's ``bound``, relative to the parent's
    median. A metric is ``unresolved`` when the parent's own IQR/median
    exceeds the bound, unless every change run beats every parent run.
    """
    out = {}
    for name, higher in HIGHER_IS_BETTER.items():
        a = [p["metrics"][name] for p, _ in pairs]
        b = [c["metrics"][name] for _, c in pairs]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        pa, pb = quartiles(a), quartiles(b)
        sign = 1.0 if higher else -1.0
        worse_rel = sign * (pa["median"] - pb["median"]) / abs(pa["median"])
        all_beat = min(b) > max(a) if higher else max(b) < min(a)
        out[name] = {
            "bound": BOUNDS[name],
            "within_bound": worse_rel <= BOUNDS[name],
            "unresolved": pa["iqr"] / abs(pa["median"]) > BOUNDS[name] and not all_beat,
            "parent": pa,
            "change": pb,
            "median_change_rel": pb["median"] / pa["median"] - 1.0,
            "change_wins": wins,
            "ties": sum(x == y for x, y in zip(a, b)),
            "pairs": len(pairs),
            "medians_differ_by_more_than_parent_iqr": abs(pb["median"] - pa["median"]) > pa["iqr"],
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--topic", required=True)
    ap.add_argument("--claim", help="workload whose --metric is claimed; omit to claim no gain")
    ap.add_argument(
        "--metric",
        default="best_solves_per_s",
        choices=tuple(HIGHER_IS_BETTER),
        help="end-to-end metric the claim is about",
    )
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    parent, change = load(args.parent), load(args.change)
    workloads = {}
    for name in sorted(parent.keys() & change.keys()):
        p, c = parent[name], change[name]
        if p["seconds"] != c["seconds"]:
            raise SystemExit(
                f"{name}: the parent ran {p['seconds']:g} s and the change"
                f" {c['seconds']:g} s; pair runs of the same length"
            )
        w = workloads.setdefault(p["workload"], {"runs": [], "traced": []})
        command = (
            f"python3 perfbench/run.py --workload {p['workload']} --seed {p['seed']}"
            f" --seconds {p['seconds']:g} --trace {p['trace']}"
        )
        run = {"seed": p["seed"], "command": command, "parent": p, "change": c}
        w["traced" if p["trace"] else "runs"].append(run)
    for w in workloads.values():
        w["runs"].sort(key=lambda r: r["seed"])
        pairs = [(r["parent"], r["change"]) for r in w["runs"]]
        if len(pairs) >= 2:
            w["end_to_end"] = summarise(pairs)
        w["failed"] = {
            side: sum(r[side]["failed"] for r in w["runs"] + w["traced"])
            for side in ("parent", "change")
        }

    checks = [
        (f"{workload}/{metric}", e2e)
        for workload, w in sorted(workloads.items())
        for metric, e2e in w.get("end_to_end", {}).items()
    ]
    claim = None
    claim_args = ""
    if args.claim is not None:
        claimed = workloads.get(args.claim, {"runs": []})
        if len(claimed["runs"]) < 2:
            raise SystemExit(
                f"--claim {args.claim}: needs at least 2 untraced pairs,"
                f" got {len(claimed['runs'])}"
            )
        e2e = claimed["end_to_end"][args.metric]
        sign = 1.0 if HIGHER_IS_BETTER[args.metric] else -1.0
        claim = {
            "workload": args.claim,
            "metric": args.metric,
            "holds": e2e["change_wins"] >= 0.9 * e2e["pairs"]
            and e2e["medians_differ_by_more_than_parent_iqr"]
            and sign * e2e["median_change_rel"] > 0
            and claimed["failed"]["change"] <= claimed["failed"]["parent"],
        }
        claim_args = f" --claim {args.claim} --metric {args.metric}"
    bench = {
        "topic": args.topic,
        "regenerate": [
            "check out the parent commit in PARENT and the change in CHANGE",
            "run each workload's 'command' below in PARENT and in CHANGE, one pair at a"
            " time, alternating which side runs first",
            f"python3 tools/bench_summary.py --topic {args.topic}{claim_args}"
            f" --parent PARENT/perfbench/results --change CHANGE/perfbench/results"
            f" --out BENCH_{args.topic}.json",
        ],
        "regressed": [n for n, e in checks if not e["within_bound"] and not e["unresolved"]],
        "unresolved": [n for n, e in checks if e["unresolved"]],
        "claim": claim,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    verdict = "no claim" if claim is None else f"claim holds = {claim['holds']}"
    print(f"wrote {args.out}: {verdict}; regressed = {bench['regressed']}")


if __name__ == "__main__":
    main()
