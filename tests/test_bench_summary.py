"""tools/bench_summary.py on synthetic perfbench records."""

import json
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_summary  # noqa: E402


def write_record(directory, workload, seed, metrics, failed=0, rounds=10, trace=0, seconds=40.0):
    directory.mkdir(parents=True, exist_ok=True)
    rec = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "provenance": {"git_commit": "0" * 40},
        "metrics": {name: {"value": v} for name, v in metrics.items()},
        "rounds": [{"ok": i >= failed} for i in range(rounds)],
    }
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(rec))


def metrics(rate, setup=0.03, rss=50.0):
    return {"best_solves_per_s": rate, "setup_s": setup, "peak_rss_mb": rss}


def summarise(tmp_path, parent_metrics, change_metrics, parent_failed=0, change_failed=0,
              metric="best_solves_per_s", claim="game-swarm", workload="game-swarm"):
    for seed, (p, c) in enumerate(zip(parent_metrics, change_metrics)):
        failed = (parent_failed, change_failed) if seed == 0 else (0, 0)
        write_record(tmp_path / "parent", workload, seed, p, failed[0])
        write_record(tmp_path / "change", workload, seed, c, failed[1])
    out = tmp_path / "BENCH_t.json"
    claim_args = [] if claim is None else ["--claim", claim, "--metric", metric]
    bench_summary.main([
        "--topic", "t", *claim_args,
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--out", str(out),
    ])
    return json.loads(out.read_text())


PARENT = [metrics(100.0 + i) for i in range(10)]
FASTER = [metrics(130.0 + i) for i in range(10)]


def test_directions_come_from_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    assert bench_summary.HIGHER_IS_BETTER == want
    assert want == {"best_solves_per_s": True, "setup_s": False, "peak_rss_mb": False}


def test_directions_read_any_benchmark_file(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "a", "better": "lower"}, {"name": "b", "better": "higher"},
    ]}))
    assert bench_summary.directions(path) == {"a": False, "b": True}
    path.write_text(json.dumps({"end_to_end": [{"name": "a", "better": "faster"}]}))
    with pytest.raises(ValueError, match="'better'"):
        bench_summary.directions(path)


def test_clear_gain_holds(tmp_path):
    bench = summarise(tmp_path, PARENT, FASTER)
    assert bench["claim"] == {"workload": "game-swarm", "metric": "best_solves_per_s",
                              "holds": True}
    e2e = bench["workloads"]["game-swarm"]["end_to_end"]["best_solves_per_s"]
    assert (e2e["change_wins"], e2e["pairs"]) == (10, 10)
    assert "--metric best_solves_per_s" in bench["regenerate"][-1]


def test_gain_with_more_failed_solves_does_not_hold(tmp_path):
    bench = summarise(tmp_path, PARENT, FASTER, parent_failed=1, change_failed=2)
    assert bench["workloads"]["game-swarm"]["failed"] == {"parent": 1, "change": 2}
    assert bench["claim"]["holds"] is False


def test_gain_with_as_many_failed_solves_holds(tmp_path):
    bench = summarise(tmp_path, PARENT, FASTER, parent_failed=2, change_failed=2)
    assert bench["claim"]["holds"] is True


def test_lower_is_better_metric(tmp_path):
    smaller = [metrics(100.0 + i, rss=40.0 + 0.01 * i) for i in range(10)]
    bench = summarise(tmp_path, PARENT, smaller, metric="peak_rss_mb")
    assert bench["claim"]["holds"] is True
    bench = summarise(tmp_path, smaller, PARENT, metric="peak_rss_mb")
    assert bench["claim"]["holds"] is False


def test_change_inside_parent_spread_does_not_hold(tmp_path):
    noisy = [metrics(100.0 + 10 * i) for i in range(10)]
    nudged = [metrics(101.0 + 10 * i) for i in range(10)]
    bench = summarise(tmp_path, noisy, nudged)
    e2e = bench["workloads"]["game-swarm"]["end_to_end"]["best_solves_per_s"]
    assert e2e["change_wins"] == 10
    assert bench["claim"]["holds"] is False


def test_runs_of_different_lengths_do_not_pair(tmp_path):
    for seed in range(3):
        write_record(tmp_path / "parent", "game-swarm", seed, PARENT[seed], seconds=20.0)
        write_record(tmp_path / "change", "game-swarm", seed, FASTER[seed],
                     seconds=40.0 if seed == 1 else 20.0)
    with pytest.raises(SystemExit, match=r"^game-swarm-seed1-trace0\.json: the parent ran 20 s"
                                         r" and the change 40 s"):
        bench_summary.main([
            "--topic", "t", "--parent", str(tmp_path / "parent"),
            "--change", str(tmp_path / "change"), "--out", str(tmp_path / "BENCH_t.json"),
        ])
    assert not (tmp_path / "BENCH_t.json").exists()


@pytest.mark.parametrize(
    "workload, pairs", [("game-swarm", 1), ("lasso-path", 0)], ids=["one-pair", "no-pairs"]
)
def test_claim_without_two_untraced_pairs_exits(tmp_path, workload, pairs):
    """A claim needs quartiles of at least two pairs; with fewer the summary
    exits with one line naming the workload and its pair count."""
    with pytest.raises(SystemExit) as exc:
        summarise(tmp_path, PARENT[:1], FASTER[:1], claim=workload)
    assert str(exc.value) == (
        f"--claim {workload}: needs at least 2 untraced pairs, got {pairs}"
    )
    assert not (tmp_path / "BENCH_t.json").exists()


def test_no_claim_still_checks_every_workload(tmp_path):
    """Without --claim the file records a null claim and keeps each
    workload's end-to-end checks and the top-level lists."""
    slower = [metrics(65.0 + i) for i in range(10)]
    summarise(tmp_path, PARENT, FASTER, claim=None, workload="lasso-path")
    bench = summarise(tmp_path, PARENT, slower, claim=None)
    assert bench["claim"] is None
    assert set(bench["workloads"]) == {"game-swarm", "lasso-path"}
    for w in bench["workloads"].values():
        assert set(w["end_to_end"]) == set(bench_summary.HIGHER_IS_BETTER)
    assert bench["regressed"] == ["game-swarm/best_solves_per_s"]
    assert bench["unresolved"] == []
    assert "--claim" not in bench["regenerate"][-1]
    assert "--metric" not in bench["regenerate"][-1]


# Every committed BENCH_<topic>.json, so that a new one is checked with no
# list to edit.
COMMITTED_BENCH = sorted(ROOT.glob("BENCH_*.json"))


def test_committed_bench_files_are_all_found():
    assert {p.name for p in COMMITTED_BENCH} >= {
        "BENCH_engine.json",
        "BENCH_game.json",
        "BENCH_loops.json",
        "BENCH_matvecs.json",
        "BENCH_memory.json",
        "BENCH_products.json",
        "BENCH_setup.json",
    }


@pytest.mark.parametrize("path", COMMITTED_BENCH, ids=lambda p: p.name)
def test_committed_regenerate_command_runs(tmp_path, path):
    name = path.name
    committed = json.loads(path.read_text())
    argv = shlex.split(committed["regenerate"][-1])
    assert argv[:2] == ["python3", "tools/bench_summary.py"]
    argv = [
        a.replace("PARENT", str(tmp_path / "p")).replace("CHANGE", str(tmp_path / "c"))
        for a in argv[2:]
    ]
    argv[argv.index("--out") + 1] = str(tmp_path / name)
    for workload in committed["workloads"]:
        for seed in range(3):
            write_record(tmp_path / "p" / "perfbench" / "results", workload, seed, PARENT[seed])
            write_record(tmp_path / "c" / "perfbench" / "results", workload, seed, FASTER[seed])
    bench_summary.main(argv)
    rebuilt = json.loads((tmp_path / name).read_text())
    assert set(rebuilt["workloads"]) == set(committed["workloads"])
    if committed["claim"] is None:
        assert rebuilt["claim"] is None
    else:
        assert {k: rebuilt["claim"][k] for k in ("workload", "metric")} == {
            k: committed["claim"][k] for k in ("workload", "metric")
        }


def test_bounds_come_from_the_benchmark_file(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench_summary.BOUNDS == {m["name"]: m["bound"] for m in spec["end_to_end"]}
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [{"name": "a", "better": "lower", "bound": 0.5}]}))
    assert bench_summary.bounds(path) == {"a": 0.5}


def check(bench, metric):
    e2e = bench["workloads"]["game-swarm"]["end_to_end"][metric]
    return e2e["within_bound"], e2e["unresolved"]


def test_regression_within_bound(tmp_path):
    """A gain, and a loss smaller than the bound, are both within it."""
    bench = summarise(tmp_path, PARENT, FASTER)
    assert check(bench, "best_solves_per_s") == (True, False)
    slower = [metrics(80.0 + i) for i in range(10)]  # -19% at bound 0.25
    bench = summarise(tmp_path, PARENT, slower)
    assert check(bench, "best_solves_per_s") == (True, False)
    assert bench["regressed"] == [] and bench["unresolved"] == []


def test_regression_beyond_bound(tmp_path):
    """Medians 104.5 -> 69.5 on a higher-is-better metric (-33%), and a
    lower-is-better one whose median rises 11% at bound 0.1."""
    slower = [metrics(65.0 + i, rss=55.5) for i in range(10)]
    bench = summarise(tmp_path, PARENT, slower)
    assert check(bench, "best_solves_per_s") == (False, False)
    assert check(bench, "peak_rss_mb") == (False, False)
    assert check(bench, "setup_s") == (True, False)
    assert bench["regressed"] == ["game-swarm/best_solves_per_s", "game-swarm/peak_rss_mb"]


def test_wide_parent_spread_is_unresolved(tmp_path):
    """Parent IQR/median 45/105 > bound 0.25: a 9% loss cannot be told apart,
    and neither can a gain unless every change run beats every parent run."""
    wide = [metrics(60.0 + 10 * i) for i in range(10)]
    bench = summarise(tmp_path, wide, [metrics(55.0 + 9 * i) for i in range(10)])
    assert check(bench, "best_solves_per_s") == (True, True)
    assert bench["unresolved"] == ["game-swarm/best_solves_per_s"]
    assert bench["regressed"] == []
    bench = summarise(tmp_path, wide, [metrics(160.0 + i) for i in range(10)])
    assert check(bench, "best_solves_per_s") == (True, False)


def test_unresolved_loss_beyond_bound_is_not_called_a_regression(tmp_path):
    """Medians 105 -> 75 (-29%) inside a parent spread wider than the bound."""
    wide = [metrics(60.0 + 10 * i) for i in range(10)]
    bench = summarise(tmp_path, wide, [metrics(30.0 + 10 * i) for i in range(10)])
    assert check(bench, "best_solves_per_s") == (False, True)
    assert bench["regressed"] == []
    assert bench["unresolved"] == ["game-swarm/best_solves_per_s"]
