"""End-to-end acceptance gate.

Eight criteria, each printed as a single pass/fail line.  Run with -s (or
read the captured stdout) to see the lines; every criterion is also a hard
assertion, so the suite fails loudly if any line would read FAIL.
"""
import math
import time

import numpy as np

from qadsim.adde import (
    classical_fit,
    classical_log_density,
    flag_anomaly,
    log_density_estimate,
    run_adde,
)
from qadsim.adkpca import classical_moments, classical_proximity
from qadsim.ae import AEConfig, StatePreparation, estimate_amplitude
from qadsim.dataio import QueryLedger
from qadsim.pipelines import PipelineConfig
from qadsim.simcore import RegisterLayout, ValueKeyedRotation
from qadsim.verify import (
    bounds_suite,
    equivalence_suite,
    flaws_suite,
    random_instance,
    scaling_suite,
)

LOG_2PI = math.log(2.0 * math.pi)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _const_prep(a: float) -> StatePreparation:
    v = math.sqrt(a)
    return StatePreparation(
        name=f"const[{a}]",
        layout=RegisterLayout([("k", 1), ("anc", 1)]),
        ops=(ValueKeyedRotation(["k"], "anc", np.array([v, v])),),
        good_register="anc",
    )


def test_criterion_1_classical_reference_implementations():
    """Gaussian fit, log density, moments and proximity vs brute-force loops."""
    start = time.perf_counter()
    ok = True
    for seed in range(100):
        data, query = random_instance(seed)
        x, x0 = data.values, query.values
        m, d = x.shape

        model = classical_fit(data)
        mu_ref = np.array([sum(x[i, j] for i in range(m)) / m for j in range(d)])
        s2_ref = np.array(
            [sum((x[i, j] - mu_ref[j]) ** 2 for i in range(m)) / m for j in range(d)]
        )
        ok &= np.max(np.abs(model.mu - mu_ref)) <= 1e-10
        ok &= np.max(np.abs(model.sigma2 - s2_ref)) <= 1e-10

        lnp = classical_log_density(model, query)
        lnp_ref = sum(
            -0.5 * math.log(2 * math.pi * s2_ref[j])
            - (x0[j] - mu_ref[j]) ** 2 / (2 * s2_ref[j])
            for j in range(d)
        )
        ok &= abs(lnp - lnp_ref) <= 1e-10

        mom = classical_moments(data)
        cov_ref = np.array(
            [
                [
                    sum((x[i, j] - mu_ref[j]) * (x[i, k] - mu_ref[k]) for i in range(m))
                    / (m - 1)
                    for k in range(d)
                ]
                for j in range(d)
            ]
        )
        ok &= np.max(np.abs(mom.covariance - cov_ref)) <= 1e-10

        f = classical_proximity(mom, query)
        z = x0 - mu_ref
        f_ref = sum(z[j] ** 2 for j in range(d)) - sum(
            z[j] * cov_ref[j, k] * z[k] for j in range(d) for k in range(d)
        )
        ok &= abs(f - f_ref) <= 1e-10
    elapsed = time.perf_counter() - start
    _report(1, "classical references", ok and elapsed < 1.0)


def test_criterion_2_assembly_identities():
    """Estimator assembly formulas agree with the direct classical quantities."""
    ok = True
    for seed in range(100):
        data, query = random_instance(seed)
        x, x0 = data.values, query.values
        d = x.shape[1]
        model = classical_fit(data)

        # log-density assembly from exact p and q
        t_c = 4.0
        e_c = max(float(np.max(np.abs(np.log(model.sigma2)))), 1.0)
        p = float(np.mean(((x0 - model.mu) / (np.sqrt(model.sigma2) * t_c)) ** 2))
        q = float(np.mean(np.log(model.sigma2))) / e_c
        ok &= abs(
            log_density_estimate(p, q, d, t_c, e_c)
            - classical_log_density(model, query)
        ) <= 1e-12

        # covariance quadratic form as a mean of squared projections
        mom = classical_moments(data)
        z = x0 - mom.mu
        lhs = float(z @ mom.covariance @ z)
        rhs = float(np.sum(((x - mom.mu) @ z) ** 2) / (x.shape[0] - 1))
        ok &= abs(lhs - rhs) <= 1e-10
    _report(2, "assembly identities", ok)


def test_criterion_3_amplitude_estimation_accuracy():
    """Grid-exact half amplitude; stochastic estimates within the stated bound."""
    start = time.perf_counter()
    ok = True

    for seed in range(5):
        res = estimate_amplitude(
            _const_prep(0.5), AEConfig(t_bits=4, mode="circuit", seed=seed)
        )
        ok &= res.amplitude == 0.5

    a, t = 0.3, 8
    bound = 2 * math.pi * math.sqrt(a * (1 - a)) / 2**t + math.pi**2 / 2 ** (2 * t)
    hits = sum(
        abs(
            estimate_amplitude(
                _const_prep(a), AEConfig(t_bits=t, mode="circuit", seed=s)
            ).amplitude
            - a
        )
        <= bound
        for s in range(100)
    )
    elapsed = time.perf_counter() - start
    _report(3, "amplitude estimation", ok and hits >= 81 and elapsed < 10.0)


def test_criterion_4_error_bounds():
    """Per-stage error bounds hold on 100 random instances in ideal mode."""
    start = time.perf_counter()
    report = bounds_suite(seeds=100, t_bits=10)
    elapsed = time.perf_counter() - start
    _report(4, "error bounds", report["passed"] and elapsed < 60.0)


def test_criterion_5_budgeted_density_estimation():
    """Epsilon-driven runs stay within budget and agree with the classical flag."""
    eps, delta = 0.2, 0.01
    within = 0
    flags_ok = True
    for seed in range(100):
        data, query = random_instance(seed)
        rep = run_adde(
            data, query, PipelineConfig(epsilon=eps, mode="ideal", policy="epsilon-floor"),
            delta=delta,
        )
        if rep.observed_errors["lnP"] <= eps:
            within += 1
        if abs(rep.ln_p_classical - math.log(delta)) > 2 * eps:
            flags_ok &= rep.flag == flag_anomaly(rep.ln_p_classical, delta)
    _report(5, "budgeted density estimation", within >= 95 and flags_ok)


def test_criterion_6_query_accounting():
    """Ledger counts match 2^t - 1 and scale linearly with 1/precision."""
    ledger = QueryLedger()
    estimate_amplitude(_const_prep(0.3), AEConfig(t_bits=7, mode="ideal"), ledger=ledger)
    ok = ledger.grover == 2**7 - 1
    report = scaling_suite()
    _report(6, "query accounting", ok and report["passed"])


def test_criterion_7_coherent_equivalence():
    """Monolithic coherent preparation matches the per-feature factorization."""
    report = equivalence_suite()
    _report(7, "coherent equivalence", report["passed"])


def test_criterion_8_flaw_exhibits():
    """Expectation gap, normalization mismatch and analog call sites."""
    start = time.perf_counter()
    report = flaws_suite()
    elapsed = time.perf_counter() - start
    ok = (
        report["passed"]
        and abs(report["m2_gap"] - 2.0) <= 1e-9
        and report["normalization_discrepancy"] > 0.01
        and all(rec["encoding"] == "analog" for rec in report["encoding"])
    )
    _report(8, "flaw exhibits", ok and elapsed < 1.0)
