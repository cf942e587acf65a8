"""Each stated bound against what the estimators can actually read.

Enumeration (`TestGridEnumeration`): for each of the seven stage shapes
(ADDE's mean, variance, p and q; ADKPCA's a, omega and b) the test rebuilds
the stage's rows from the report's own inputs with its own arithmetic, takes
every t-bit grid amplitude sin^2(pi y / 2^t) within pi/2^t + pi^2/4^t of the
row's exact amplitude (2 <= t <= 8: at t = 1 ADKPCA's normalizer guard
refuses most instances), and reads each one back by hand: a signed row
of n values padded to w labels reads scale * (2a - 1) * w/n, any other row
scale * a * w/n. Neither `Part` nor `EstimatorRun.means` is used for the
read. The largest deviation from the row's exact mean must lie within the
report's stated field (through the field's factor for a and omega) and
within the part's stated term.

Hypothesis (`test_every_stated_bound_holds_in_ideal_mode`): every bound a
report states holds in ideal mode over instances at scales 0.1-50 and
t = 2..12, with the search steered toward observed / stated near 1.
"""
import math

import numpy as np
import pytest

from qadsim.adde import run_adde
from qadsim.adkpca import ConstantViolationError, run_adkpca
from qadsim.arith import FixedPointFormat, RangeError
from qadsim.config import SIGMA_MIN
from qadsim.pipelines import Part, PipelineConfig
from qadsim.verify import random_instance

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, reject, settings, target  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

GRID_BITS = range(2, 9)
SEEDS = range(6)
SHAPES = ("mean", "variance", "p", "q", "a", "omega", "b")


def _pad(n: int) -> int:
    w = 2
    while w < n:
        w *= 2
    return w


def worst_read_error(rows: np.ndarray, signed: bool, scale: float, t: int) -> float:
    """The largest |read - exact mean| over the rows and over every t-bit grid
    amplitude within pi/2^t + pi^2/4^t of each row's exact amplitude."""
    n = rows.shape[1]
    w = _pad(n)
    grid = np.sin(np.pi * np.arange(1 << t) / (1 << t)) ** 2
    eps = math.pi / (1 << t) + (math.pi / (1 << t)) ** 2
    worst = 0.0
    for row in rows:
        if signed:
            a, exact = 0.5 + row.sum() / (2 * w), scale * row.sum() / n
            reads = scale * (2 * grid - 1) * w / n
        else:
            a, exact = (row**2).sum() / w, scale * (row**2).sum() / n
            reads = scale * grid * w / n
        near = np.abs(grid - a) <= eps
        assert near.any()
        worst = max(worst, float(np.abs(reads[near] - exact).max()))
    return worst


def stage(shape: str, seed: int, t: int) -> tuple[np.ndarray, bool, float, dict, str, float]:
    """(rows, signed, scale, stated bounds, field, factor): a stage's rows,
    rebuilt from its run's report, and the field that states its error with
    the factor that carries the stage's read error into that field.

    ADKPCA reports no mu_hat; its mean stage is ADDE's (the same rows on the
    same grid, read by nearest-grid rounding in ideal mode), so its a and
    omega rows are rebuilt from ADDE's mu_hat, which the report's C'_used
    and C''_used confirm."""
    data, query = random_instance(seed)
    x, x0 = data.values, query.values
    cfg = PipelineConfig(t_bits=t, mode="ideal", policy="epsilon-floor")
    rep = run_adde(data, query, cfg)
    c, mu_hat = rep.constants, rep.mu_hat
    sigma2 = np.maximum(rep.sigma2_hat, SIGMA_MIN)
    if shape == "mean":
        return x.T / c["C"], True, c["C"], rep.bounds, "mu", 1.0
    if shape == "variance":
        d_used = max(c["D"], float(np.abs(x - mu_hat).max()))
        return (x - mu_hat).T / d_used, False, d_used**2, rep.bounds, "sigma2", 1.0
    if shape == "p":
        return ((x0 - mu_hat) / (np.sqrt(sigma2) * rep.t_used))[None], False, 1.0, rep.bounds, "p", 1.0
    if shape == "q":
        return (np.log(sigma2) / rep.e_used)[None], True, 1.0, rep.bounds, "q", 1.0
    kpca = run_adkpca(data, query, cfg)
    z0 = x0 - mu_hat
    products = (x - mu_hat) * z0
    assert kpca.c_prime_used == max(c["C_prime"], float(np.abs(z0).max()))
    assert kpca.c_dprime_used == max(c["C_dprime"], float(np.abs(products).max()))
    d = x.shape[1]
    if shape == "a":
        # distance_sq reads d C'_used^2 a_hat.
        return (z0 / kpca.c_prime_used)[None], False, 1.0, kpca.bounds, "distance_sq", d * kpca.c_prime_used**2
    if shape == "omega":
        # b is the mean of the squared overlaps, each in [-1, 1]: it moves by
        # at most twice an overlap's error.
        return products / kpca.c_dprime_used, True, 1.0, kpca.bounds, "b", 2.0
    return kpca.omegas_hat[None], False, 1.0, kpca.bounds, "b", 1.0


class TestGridEnumeration:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_the_stated_field_covers_every_grid_read(self, shape):
        for seed in SEEDS:
            for t in GRID_BITS:
                rows, signed, scale, bounds, field, factor = stage(shape, seed, t)
                worst = factor * worst_read_error(rows, signed, scale, t)
                assert worst <= bounds[field], (seed, t, worst, bounds[field])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_the_part_term_covers_every_grid_read(self, shape):
        for seed in SEEDS:
            for t in GRID_BITS:
                rows, signed, scale, *_ = stage(shape, seed, t)
                eps = math.pi / (1 << t) + (math.pi / (1 << t)) ** 2
                stated = Part(shape, rows, {}, t, signed, scale).bound(eps)
                worst = worst_read_error(rows, signed, scale, t)
                assert worst <= stated, (seed, t, worst, stated)


# Wide enough for every scale drawn below: C <= 50, D^2 <= 100^2 < 2^14.
WIDE = FixedPointFormat(int_bits=16)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.1, 50.0), t=st.integers(2, 12))
def test_every_stated_bound_holds_in_ideal_mode(seed, scale, t):
    # random_instance's variance floor, 0.05 at scale 2, scaled with the entries.
    data, query = random_instance(seed, scale=scale, min_sigma2=0.0125 * scale**2)
    cfg = PipelineConfig(t_bits=t, mode="ideal", policy="epsilon-floor", fp_format=WIDE)
    for run in (run_adde, run_adkpca):
        try:
            report = run(data, query, cfg)
        except (RangeError, ConstantViolationError) as exc:
            # A refused input is no pass: record it and discard the example.
            event(f"refused: {type(exc).__name__}")
            reject()
        assert report.bounds
        for key, bound in report.bounds.items():
            observed = report.observed_errors[key]
            if bound:
                target(observed / bound, label=f"{run.__name__} {key}")
            assert observed <= bound, (key, observed, bound)
