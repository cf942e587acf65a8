"""Verification harness: bound compliance, factorization equivalence,
query-count scaling, and the flaw exhibits, each as a seeded aggregate suite.

Every suite returns a JSON-ready dict with a top-level `passed` flag and a
list of individual check failures (empty on success), so the CLI can dump the
aggregate and scripts can grep a single field.
"""
from __future__ import annotations

import math

import numpy as np

from .ae import AEConfig, estimate_amplitude, grid_epsilon, phase_distributions
from .adde import run_adde
from .adkpca import run_adkpca
from .dataio import DataMatrix, QueryLedger, QueryPoint, pad_width
from .flawlab import ROTATION_SITES, build_superposition, expectation_audit, interfere_and_postselect
from .pipelines import PipelineConfig, interference_prep, squared_mean_prep
from .simcore import Controlled, HadamardBlock, RegisterLayout, ValueKeyedRotation, readout_rows
from .ae import PHASE_REGISTER, StatePreparation, qpe_state

SUITES = ("bounds", "equivalence", "scaling", "flaws")

# Draws random_instance makes before it gives up on its settings.
RANDOM_INSTANCE_TRIES = 10_000


def random_instance(
    seed: int,
    m_range: tuple[int, int] = (2, 8),
    d_range: tuple[int, int] = (1, 4),
    scale: float = 2.0,
    min_sigma2: float = 0.05,
    query_span: tuple[float, float] = (0.25, 1.0),
) -> tuple[DataMatrix, QueryPoint]:
    """Non-degenerate random instance: entries uniform in [-scale, scale],
    per-feature variance >= min_sigma2, query offset from the mean by a
    per-feature amount in scale * query_span (random sign).

    Draws are retried until they meet the variance and spread conditions;
    after RANDOM_INSTANCE_TRIES misses the settings are taken as infeasible
    (e.g. `scale` too small for `min_sigma2`) and ValueError is raised."""
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_INSTANCE_TRIES):
        m = int(rng.integers(m_range[0], m_range[1] + 1))
        d = int(rng.integers(d_range[0], d_range[1] + 1))
        x = rng.uniform(-scale, scale, size=(m, d))
        sigma2 = np.var(x, axis=0)
        if np.min(sigma2) < min_sigma2 or np.max(np.abs(x)) < 0.4 * scale:
            continue
        mu = x.mean(axis=0)
        offset = rng.uniform(scale * query_span[0], scale * query_span[1], size=d)
        offset *= rng.choice([-1.0, 1.0], size=d)
        x0 = mu + offset
        return DataMatrix(x), QueryPoint(x0)
    raise ValueError(
        f"no instance with variance >= {min_sigma2} at scale {scale} "
        f"in {RANDOM_INSTANCE_TRIES} draws (seed {seed})"
    )


def bounds_suite(seeds: int = 100, t_bits: int = 10, base_seed: int = 0) -> dict:
    """Every bound each report states against its observed error, in ideal mode over random instances."""
    if seeds < 1:
        raise ValueError(f"the bounds suite needs at least 1 seed, got {seeds}")
    if base_seed < 0:
        raise ValueError(f"the bounds suite needs a non-negative base seed, got {base_seed}")
    cfg = PipelineConfig(t_bits=t_bits, mode="ideal", policy="epsilon-floor")
    failures = []
    for seed in range(base_seed, base_seed + seeds):
        data, query = random_instance(seed)
        for pipeline, report in (("adde", run_adde(data, query, cfg)), ("adkpca", run_adkpca(data, query, cfg))):
            for key, bound in report.bounds.items():
                if report.observed_errors[key] > bound:
                    failures.append({"seed": seed, "pipeline": pipeline, "quantity": key,
                                     "observed": report.observed_errors[key], "bound": bound})
    return {
        "suite": "bounds",
        "instances": seeds,
        "t_bits": t_bits,
        "failures": failures,
        "passed": not failures,
    }


def _monolithic_mean_prep(data: DataMatrix, c_const: float) -> StatePreparation:
    """Mean-stage preparation with the feature index held coherently.

    The feature register j is passive: every operation is block diagonal in it,
    and it is excluded from the zero reflection so the Grover operator stays
    block diagonal too.
    """
    padded = np.zeros((pad_width(data.n_rows), pad_width(data.n_cols)))
    padded[: data.n_rows, : data.n_cols] = data.values / c_const
    rows, cols = padded.shape
    layout = RegisterLayout(
        [("s", 1), ("idx", rows.bit_length() - 1), ("anc", 1), ("j", cols.bit_length() - 1)]
    )
    values = padded.T.reshape(-1)  # label i + rows * j holds x_j^i / C
    ops = (
        HadamardBlock("s"),
        HadamardBlock("idx"),
        HadamardBlock("j"),
        Controlled("s", 0, ValueKeyedRotation(["idx", "j"], "anc", values)),
        HadamardBlock("s"),
    )
    return StatePreparation(
        name="mean-coherent",
        layout=layout,
        ops=ops,
        good_register="s",
        reflection_registers=("s", "idx", "anc"),
    )


def equivalence_suite(t_bits: int = 3, tol: float = 1e-12) -> dict:
    """Monolithic coherent simulation vs per-feature factorized pipeline.

    On a 2x2 instance, the phase-measurement distribution conditioned on the
    coherent feature register must equal the per-feature run's distribution,
    and so must the good-subspace probabilities. The joint distribution uses a
    full complex FFT, a second path to `phase_distributions`' rfft readout.
    The stacked run of both features as one stage, as both modes run it, must
    give each feature the same distribution and good probability as both.
    The stage's other builder, the squared-mean preparation, runs the same
    stacked rows, and each row must match the readout of its dense `qpe_state`.
    """
    data = DataMatrix(np.array([[0.3, -0.7], [0.9, 0.1]]))
    c_const = 1.0
    mono = _monolithic_mean_prep(data, c_const)
    state = qpe_state(mono, t_bits)
    j_field = state.layout.field("j")
    phase_field = state.layout.field(PHASE_REGISTER)
    rows = state.amps.reshape(1 << t_bits, -1)  # the phase register is the top one
    probs = (np.abs(np.fft.fft(rows, axis=0, norm="ortho")) ** 2).reshape(-1)

    prepared = mono.prepare()
    pj = prepared.layout.field("j")
    ps = prepared.layout.field("s")
    pprobs = np.abs(prepared.amps[0]) ** 2

    stacked_prep = interference_prep("mean", data.values.T / c_const, {})
    stacked = phase_distributions(stacked_prep, t_bits)
    stacked_good = stacked_prep.masses()[0]
    squared_prep = squared_mean_prep("square", data.values.T / c_const, {})
    squared = phase_distributions(squared_prep, t_bits)
    squared_states = qpe_state(squared_prep, t_bits).amps.reshape(squared_prep.rows, 1 << t_bits, -1)
    squared_dense = readout_rows(squared_states, PHASE_REGISTER)
    failures = []
    max_dev = 0.0
    for j in range(data.n_cols):
        branch = interference_prep(f"mean[{j}]", data.values[:, j] / c_const, costs={})
        expected = phase_distributions(branch, t_bits)[0]
        mask = j_field == j
        p_j = probs[mask].sum()
        conditional = np.zeros(1 << t_bits)
        np.add.at(conditional, phase_field[mask], probs[mask])
        conditional /= p_j
        good_mono = pprobs[(pj == j) & (ps == 0)].sum() / pprobs[pj == j].sum()
        for check, got, want in (
            ("phase_distribution", conditional, expected),
            ("stacked_vs_monolithic", stacked[j], conditional),
            ("stacked_vs_branch", stacked[j], expected),
            ("good_probability", branch.good_probability(), good_mono),
            ("stacked_good_probability", stacked_good[j], good_mono),
            ("squared_mean_vs_dense", squared[j], squared_dense[j]),
        ):
            dev = float(np.max(np.abs(got - want)))
            max_dev = max(max_dev, dev)
            if dev > tol:
                failures.append({"feature": j, "check": check, "deviation": dev})
    return {
        "suite": "equivalence",
        "t_bits": t_bits,
        "tolerance": tol,
        "max_deviation": max_dev,
        "failures": failures,
        "passed": not failures,
    }


def _fixed_amplitude_prep(a: float) -> StatePreparation:
    """Two-qubit preparation with good probability exactly `a`."""
    layout = RegisterLayout([("k", 1), ("anc", 1)])
    v = math.sqrt(a)
    ops = (ValueKeyedRotation(["k"], "anc", np.array([v, v])),)
    return StatePreparation(
        name=f"const[{a}]",
        layout=layout,
        ops=ops,
        good_register="anc",
    )


def scaling_suite(t_values: tuple[int, ...] = (6, 7, 8, 9, 10, 11)) -> dict:
    """Grover-count accounting and the count-vs-precision log-log slope."""
    prep = _fixed_amplitude_prep(0.3)
    failures = []
    queries = []
    inv_eps = []
    for t in t_values:
        ledger = QueryLedger()
        estimate_amplitude(prep, AEConfig(t_bits=t, mode="ideal"), ledger=ledger)
        expected = (1 << t) - 1
        if ledger.grover != expected:
            failures.append({"t": t, "grover": ledger.grover, "expected": expected})
        queries.append(ledger.grover)
        inv_eps.append(1.0 / grid_epsilon(t))
    slope = float(np.polyfit(np.log(inv_eps), np.log(queries), 1)[0])
    if abs(slope - 1.0) > 0.05:
        failures.append({"check": "slope", "slope": slope})
    return {
        "suite": "scaling",
        "t_values": list(t_values),
        "grover_counts": queries,
        "slope": slope,
        "failures": failures,
        "passed": not failures,
    }


def flaws_suite() -> dict:
    """Canned assertions over the flaw exhibits the program computes (the m2
    gap, the normalization discrepancy); the encoding records are the
    constant `ROTATION_SITES`, echoed for the report, not checked."""
    failures = []

    audit = expectation_audit(np.array([math.e, math.e]))
    gap = audit["m2"]["gap_claimed_minus_actual"]
    if abs(gap - 2.0) > 1e-9:
        failures.append({"check": "m2_gap", "gap": gap})

    data = DataMatrix(np.array([[1.0, 2.0], [3.0, -1.0]]))
    sup = build_superposition(data)
    norm_rec = interfere_and_postselect(sup)
    if norm_rec["discrepancy"] <= 0.01:
        failures.append({"check": "normalization_discrepancy", "value": norm_rec["discrepancy"]})

    return {
        "suite": "flaws",
        "m2_gap": gap,
        "normalization_discrepancy": norm_rec["discrepancy"],
        "encoding": [dict(site) for site in ROTATION_SITES],
        "failures": failures,
        "passed": not failures,
    }


def run_suite(name: str, seeds: int = 100, base_seed: int = 0) -> dict:
    if name == "bounds":
        return bounds_suite(seeds=seeds, base_seed=base_seed)
    if name == "equivalence":
        return equivalence_suite()
    if name == "scaling":
        return scaling_suite()
    if name == "flaws":
        return flaws_suite()
    raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
