"""The benchmark's hooks into nlpdhg.

``perfbench/layers.py`` patches library attributes by name and
``perfbench/workloads.py`` imports the solver entry points it times. Both
must keep resolving, or a traced benchmark run (``--trace 1``) breaks; this
module instruments the library as a traced run does and calls every entry
point on a tiny instance.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from nlpdhg import baselines, data, operators  # noqa: E402
from nlpdhg.problems import games, logreg  # noqa: E402


def test_instrumented_entry_points_run_on_tiny_instances():
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    try:
        B, _, _ = data.gen_logreg_data(6, 4, 0)
        A, b, _ = data.gen_lasso_data(6, 8, 2, 0.1, 0)
        lasso = workloads.LassoProblem(A, b, 0.1)
        calls = [
            (workloads.ENGINE_SOLVE, workloads.solve_l1_logreg, workloads.L1LogRegProblem(B, 2.0)),
            (
                workloads.ENGINE_SOLVE,
                workloads.solve_matrix_game,
                workloads.MatrixGameProblem(data.gen_game_data(4, 3, 0), 0.5),
            ),
            (workloads.ENGINE_SOLVE, workloads.solve_lasso, lasso),
            (workloads.FISTA, workloads.baselines.fista_lasso, lasso),
        ]
        for span, solver, problem in calls:
            report = tracer.call(span, solver, problem, tol=workloads.TOL, max_iters=50)
            assert report.k > 0
    finally:
        tracer.restore()

    spans = tracer.arrays()
    for name in (
        layers.MATVEC,
        layers.NORM_CHEAP,
        layers.NORM_2_2,
        layers.PROX,
        layers.ACCUMULATE,
        workloads.ENGINE_SOLVE,
        workloads.FISTA,
    ):
        assert tracer.name_mask(spans, name).any(), name
    assert logreg.norm_1_2 is operators.norm_1_2
    assert games.norm_1_inf is operators.norm_1_inf
    assert baselines.norm_2_2 is operators.norm_2_2
