"""Which calls of nlpdhg are traced, and the per-layer metrics made from them.

Layers and their spans:

* data        ``data.gen``        the seeded generators (called by the benchmark)
* problems    ``problems.build``  problem constructors (called by the benchmark)
              ``problems.prox``   ``primal_prox`` / ``dual_prox`` of the three
                                  problem classes
* operators   ``operators.matvec``     ``apply`` / ``adjoint_apply`` of
                                       ``DenseOperator`` and ``ScaledConcat``
              ``operators.norm_cheap`` ``norm_1_2`` as ``nlpdhg.problems.logreg``
                                       sees it, ``norm_1_inf`` as
                                       ``nlpdhg.problems.games`` sees it, and
                                       ``DenseOperator.row_norms_sq``, which
                                       ``LassoProblem`` calls for its norm
              ``operators.norm_2_2``   ``norm_2_2`` as ``nlpdhg.baselines``
                                       sees it; its power-iteration matvecs are
                                       its children
* engine      ``engine.solve``      the solver entry points (called by the
                                    benchmark); self time is loop bookkeeping
              ``engine.accumulate`` ``ErgodicAccumulator.add``
* baselines   ``baselines.fista``   ``fista_lasso`` (called by the benchmark)

``nlpdhg.bregman`` is on no solver's hot path and gets no span.
Two attributions follow from the code, not from the tracing:
``l1logreg_step`` inlines both proxes, so logreg prox time is part of
``engine.loop_self_s``; and FISTA multiplies by ``A`` with raw ``@``, so its
matvecs are part of ``baselines.self_s``.
"""

from __future__ import annotations

import numpy as np

from nlpdhg import baselines, engine, operators
from nlpdhg.problems import games, lasso, logreg
from workloads import ENGINE_SOLVE, FISTA

MATVEC = "operators.matvec"
NORM_CHEAP = "operators.norm_cheap"
NORM_2_2 = "operators.norm_2_2"
PROX = "problems.prox"
BUILD = "problems.build"
GEN = "data.gen"
ACCUMULATE = "engine.accumulate"

# Spans that happen inside a solve; their self times add up to solve time.
SOLVE_SPANS = (MATVEC, NORM_2_2, PROX, ACCUMULATE, ENGINE_SOLVE, FISTA)


def _matvec_bytes(op):
    """Bytes one apply or adjoint streams: the matrix plus both vectors."""
    matrix = op.base if isinstance(op, operators.ScaledConcat) else op.matrix
    return matrix.nbytes + 8 * (op.rows + op.cols)


def instrument(tracer):
    """Patch nlpdhg's internal layer boundaries; undo with ``tracer.restore``."""
    for cls in (operators.DenseOperator, operators.ScaledConcat):
        tracer.patch(cls, "apply", MATVEC, _matvec_bytes)
        tracer.patch(cls, "adjoint_apply", MATVEC, _matvec_bytes)
    tracer.patch(operators.DenseOperator, "row_norms_sq", NORM_CHEAP)
    tracer.patch(logreg, "norm_1_2", NORM_CHEAP)
    tracer.patch(games, "norm_1_inf", NORM_CHEAP)
    tracer.patch(baselines, "norm_2_2", NORM_2_2)
    for cls in (logreg.L1LogRegProblem, games.MatrixGameProblem, lasso.LassoProblem):
        tracer.patch(cls, "primal_prox", PROX)
        tracer.patch(cls, "dual_prox", PROX)
    tracer.patch(engine.ErgodicAccumulator, "add", ACCUMULATE)


def round_counts(tracer):
    """A function giving (matvec calls, matvec bytes) of one traced round."""
    cache = {}

    def counts(i):
        if "spans" not in cache:
            cache["spans"] = tracer.arrays()
        spans = cache["spans"]
        mask = tracer.name_mask(spans, MATVEC) & (spans["round"] == i)
        return int(mask.sum()), int(spans["nbytes"][mask].sum())

    return counts


def _mean_of(rounds, solver, field):
    values = [c[field] for r in rounds for c in r["calls"] if c["solver"] == solver]
    return float(np.mean(values)) if values else 0.0


def per_layer(tracer, plain, traced, stream_gbps):
    """Per-layer metrics of one traced run.

    ``plain`` and ``traced`` are the rounds of the untraced and traced
    phases. Counts and times are per solve (per round) of the traced phase;
    ``data.gen_s``, ``problems.build_s`` and ``operators.norm_cheap_s`` are
    per set-up. Returns the metrics and whether the layer self times account
    for the solve time measured from outside.
    """
    spans = tracer.arrays()
    n = len(traced)
    timed = spans["round"] < n  # drops the repeat-check round, if any
    in_rounds = timed & (spans["round"] >= 0)

    def sel(name, where=in_rounds):
        return tracer.name_mask(spans, name) & where

    def total(name, key="dur", where=in_rounds):
        return float(spans[key][sel(name, where)].sum())

    setups = sum(r["setup_s"] is not None for r in traced)
    matvec = sel(MATVEC)
    matvec_s = float(spans["dur"][matvec].sum())
    matvec_bytes = float(spans["nbytes"][matvec].sum())
    norm_ids = np.flatnonzero(sel(NORM_2_2))
    power_matvecs = int(np.isin(spans["parent"][matvec], norm_ids).sum())
    solve_s = sum(r["solve_s"] for r in traced)
    accounted = sum(total(name, "self") for name in SOLVE_SPANS)
    accounted_frac = accounted / solve_s
    gbps = matvec_bytes / matvec_s / 1e9 if matvec_s > 0 else 0.0

    engine_iters = sum(c["iters"] for r in plain for c in r["calls"] if c["solver"] == ENGINE_SOLVE)
    engine_wall = sum(c["wall_s"] for r in plain for c in r["calls"] if c["solver"] == ENGINE_SOLVE)
    plain_rate = sum(r["ok"] for r in plain) / sum(r["round_s"] for r in plain)
    traced_rate = sum(r["ok"] for r in traced) / sum(r["round_s"] for r in traced)

    metrics = {
        "operators.matvec_calls": (int(matvec.sum()) / n, "count"),
        "operators.matvec_s": (matvec_s / n, "s"),
        "operators.matvec_share": (matvec_s / solve_s, "1"),
        "operators.bytes_computed": (matvec_bytes / n, "B"),
        "operators.gbps": (gbps, "GB/s"),
        "operators.stream_gbps": (stream_gbps, "GB/s"),
        "operators.bw_frac": (gbps / stream_gbps, "1"),
        "operators.norm_2_2_s": (total(NORM_2_2) / n, "s"),
        "operators.power_iters": (power_matvecs / 2 / n, "count"),
        "operators.norm_cheap_s": (total(NORM_CHEAP, "self", timed) / setups, "s"),
        "problems.build_s": (total(BUILD, "self", timed) / setups, "s"),
        "data.gen_s": (total(GEN, "self", timed) / setups, "s"),
        "problems.prox_calls": (int(sel(PROX).sum()) / n, "count"),
        "problems.prox_self_s": (total(PROX, "self") / n, "s"),
        "engine.loop_self_s": (total(ENGINE_SOLVE, "self") / n, "s"),
        "engine.accumulate_s": (total(ACCUMULATE) / n, "s"),
        "engine.ms_per_iter": (1000.0 * engine_wall / engine_iters if engine_iters else 0.0, "ms"),
        "engine.iters": (_mean_of(traced, ENGINE_SOLVE, "iters"), "count"),
        "engine.trace_len": (_mean_of(traced, ENGINE_SOLVE, "trace_len"), "count"),
        "baselines.fista_s": (total(FISTA) / n, "s"),
        "baselines.fista_iters": (_mean_of(traced, FISTA, "iters"), "count"),
        "baselines.self_s": (total(FISTA, "self") / n, "s"),
        "trace.solve_s": (solve_s / n, "s"),
        "trace.accounted_frac": (accounted_frac, "1"),
        "trace.overhead": (traced_rate / plain_rate if plain_rate > 0 else 0.0, "1"),
    }
    return metrics, 0.99 <= accounted_frac <= 1.0 + 1e-9
