"""Seeded inputs and the workload table.

The generator follows the rule of `qadsim.verify.random_instance` (entries
uniform in [-2, 2], per-feature population variance >= 0.05, max |x| >= 0.8,
query offset from the mean uniform in [0.5, 2.0] per feature with a random
sign) but lives here, so a later change to `verify` cannot change a
workload. Shapes are stratified instead of drawn: every (M, d) pair with
M in 2..8 and d in 1..4 gets an equal share. The state sizes, which set the
cost of a run, are then the same for every seed, and only the entries vary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCALE = 2.0
MIN_SIGMA2 = 0.05
QUERY_SPAN = (0.25, 1.0)
ALL_SHAPES = tuple((m, d) for m in range(2, 9) for d in range(1, 5))
# One M each, d cycling: M is uniform over 2..8 and d as near uniform as
# seven instances allow. Seven circuit runs at t=14 take about 15 s.
LATIN_SHAPES = ((2, 1), (3, 2), (4, 3), (5, 4), (6, 1), (7, 2), (8, 3))


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                  # "ideal" or "circuit"
    configs: tuple[dict, ...]  # PipelineConfig keywords, applied in turn to every instance
    shapes: tuple[tuple[int, int], ...]
    replicates: int            # instances drawn per shape
    tail_pct: float            # nearest-rank percentile reported as *_tail
    suites: bool               # run the verify suites and flaw exhibits each pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ideal-sweep", "ideal",
            ({"t_bits": 10}, {"epsilon": 0.2}),
            ALL_SHAPES, 6, 99.0, True,
        ),
        Workload("circuit-t10", "circuit", ({"t_bits": 10},), ALL_SHAPES, 1, 90.0, False),
        Workload("circuit-t14", "circuit", ({"t_bits": 14},), LATIN_SHAPES, 1, 90.0, False),
    )
}


def draw_instance(rng: np.random.Generator, m: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, x0) for one M x d instance, redrawing entries until non-degenerate."""
    while True:
        x = rng.uniform(-SCALE, SCALE, size=(m, d))
        if np.min(np.var(x, axis=0)) >= MIN_SIGMA2 and np.max(np.abs(x)) >= 0.4 * SCALE:
            break
    offset = rng.uniform(SCALE * QUERY_SPAN[0], SCALE * QUERY_SPAN[1], size=d)
    offset *= rng.choice([-1.0, 1.0], size=d)
    return x, x.mean(axis=0) + offset


def instance_arrays(workload: Workload, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The workload's instance set for a seed, in run order."""
    out = []
    for k, (m, d) in enumerate(workload.shapes):
        rng = np.random.default_rng([seed, k])
        out.extend(draw_instance(rng, m, d) for _ in range(workload.replicates))
    return out


def build_inputs(workload: Workload, seed: int) -> list:
    """The instance set wrapped as `dataio` matrices and query points."""
    from qadsim.dataio import DataMatrix, QueryPoint

    return [(DataMatrix(x), QueryPoint(x0)) for x, x0 in instance_arrays(workload, seed)]
