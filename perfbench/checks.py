"""Output checks for pipeline reports.

Each report is compared with a classical reference computed here with plain
numpy, which in turn must agree with the program's own `classical_fit`,
`classical_log_density` and `classical_proximity`. A stage quantity whose
observed error exceeds the bound the report states is a bound miss: it is
counted, never filtered. A wrong classical value, a non-finite estimate, a
wrong flag, an observed error the report misstates, or a ledger that does not
follow the query-cost model is an incorrect output.
"""
from __future__ import annotations

import math

import numpy as np
from qadsim.config import SIGMA_MIN

REL_TOL = 1e-9

# Oracle and arithmetic charges per application of A, by stage.
MEAN_COSTS = {"oracle_data": 2, "arithmetic": 1}
VARIANCE_COSTS = {"oracle_data": 2, "arithmetic": 2}
QUERY_COSTS = {"oracle_query": 2, "arithmetic": 2}
OMEGA_COSTS = {"oracle_data": 2, "oracle_query": 2, "arithmetic": 2}
SUM_COSTS = {"arithmetic": 2}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in values)


def expected_ledger(stages: list[tuple[int, dict, int]]) -> dict:
    """Ledger for (count, per-A costs, t) stages: each run charges 2^t - 1
    Grover steps and 2(2^t - 1) + 1 applications of A."""
    ledger = {"oracle_data": 0, "oracle_query": 0, "grover": 0, "arithmetic": 0}
    for count, costs, t in stages:
        grover = (1 << t) - 1
        ledger["grover"] += count * grover
        for kind, per_a in costs.items():
            ledger[kind] += count * per_a * (2 * grover + 1)
    return ledger


class Reference:
    """Classical statistics of one instance, computed independently."""

    def __init__(self, x: np.ndarray, x0: np.ndarray):
        self.x, self.x0 = x, x0
        self.m, self.d = x.shape
        self.mu = x.sum(axis=0) / self.m
        centered = x - self.mu
        self.sigma2 = (centered**2).sum(axis=0) / self.m
        z = x0 - self.mu
        self.ln_p = float(
            -0.5 * self.d * math.log(2.0 * math.pi)
            - 0.5 * np.log(self.sigma2).sum()
            - (z**2 / (2.0 * self.sigma2)).sum()
        )
        cov = centered.T @ centered / (self.m - 1)
        self.proximity = float(z @ z - z @ cov @ z)

    def agrees_with_program(self, data, query) -> list[str]:
        from qadsim import adde, adkpca

        issues = []
        fit = adde.classical_fit(data, policy="epsilon-floor")
        if not (np.allclose(fit.mu, self.mu, rtol=REL_TOL, atol=REL_TOL)
                and np.allclose(fit.sigma2, self.sigma2, rtol=REL_TOL, atol=REL_TOL)):
            issues.append("classical_fit disagrees with the reference")
        if not _close(adde.classical_log_density(fit, query), self.ln_p):
            issues.append("classical_log_density disagrees with the reference")
        moments = adkpca.classical_moments(data)
        if not _close(adkpca.classical_proximity(moments, query), self.proximity):
            issues.append("classical_proximity disagrees with the reference")
        return issues


def _bound_checks(observed: dict, rep: dict, issues: list[str]) -> tuple[int, int]:
    """(misses, checked); also flags a report whose own observed errors differ."""
    misses = 0
    for key, value in observed.items():
        if not _close(value, rep["observed_errors"][key]):
            issues.append(f"report misstates the observed {key} error")
        misses += value > rep["bounds"][key]
    return misses, len(observed)


def check_adde(rep: dict, ref: Reference, delta: float) -> tuple[int, int, list[str]]:
    """(bound misses, quantities checked, issues) for a `run_adde` report."""
    issues = []
    mu_hat = np.asarray(rep["mu_hat"])
    sigma2_hat = np.asarray(rep["sigma2_hat"])
    if not _finite(mu_hat, sigma2_hat, rep["p_hat"], rep["q_hat"], rep["lnP_hat"]):
        issues.append("adde: non-finite estimate")
        return 0, 0, issues
    if not _close(rep["lnP_classical"], ref.ln_p):
        issues.append("adde: lnP_classical disagrees with the reference")
    if rep["flag"] != (rep["lnP_hat"] < math.log(delta)):
        issues.append("adde: flag does not follow lnP_hat < ln delta")

    budget = rep["budget"]
    t = rep["config"]["t_bits"]
    t_mean, t_var, t_tail = (
        (budget["t_mean"], budget["t_var"], budget["t_tail"]) if budget else (t, t, t)
    )
    d = ref.d
    ledger = expected_ledger(
        [(d, MEAN_COSTS, t_mean), (d, VARIANCE_COSTS, t_var),
         (1, QUERY_COSTS, t_tail), (1, SUM_COSTS, t_tail)]
    )
    if rep["ledger"] != ledger:
        issues.append(f"adde: ledger {rep['ledger']} != query model {ledger}")

    guarded = np.where(sigma2_hat < SIGMA_MIN, SIGMA_MIN, sigma2_hat)
    p_target = float(np.mean(((ref.x0 - mu_hat) / (np.sqrt(guarded) * rep["T_used"])) ** 2))
    q_target = float(np.mean(np.log(guarded))) / rep["E_used"]
    observed = {
        "mu": float(np.max(np.abs(mu_hat - ref.mu))),
        "sigma2": float(np.max(np.abs(sigma2_hat - ref.sigma2))),
        "p": abs(rep["p_hat"] - p_target),
        "q": abs(rep["q_hat"] - q_target),
    }
    if budget:
        observed["lnP"] = abs(rep["lnP_hat"] - ref.ln_p)
    misses, checked = _bound_checks(observed, rep, issues)
    return misses, checked, issues


def check_adkpca(rep: dict, ref: Reference) -> tuple[int, int, list[str]]:
    """(bound misses, quantities checked, issues) for a `run_adkpca` report."""
    issues = []
    if not _finite(rep["a_hat"], rep["omega_hat"], rep["b_hat"], rep["f_hat"]):
        issues.append("adkpca: non-finite estimate")
        return 0, 0, issues
    if not _close(rep["f_classical"], ref.proximity):
        issues.append("adkpca: f_classical disagrees with the reference")

    budget = rep["budget"]
    t = rep["config"]["t_bits"]
    ts = (
        (budget["t_mean"], budget["t_dist"], budget["t_omega"], budget["t_bsum"])
        if budget else (t, t, t, t)
    )
    ledger = expected_ledger(
        [(ref.d, MEAN_COSTS, ts[0]), (1, QUERY_COSTS, ts[1]),
         (ref.m, OMEGA_COSTS, ts[2]), (1, SUM_COSTS, ts[3])]
    )
    if rep["ledger"] != ledger:
        issues.append(f"adkpca: ledger {rep['ledger']} != query model {ledger}")

    z = ref.x0 - ref.mu
    cdp = rep["constants"]["C_dprime"]
    b_target = float(np.mean((((ref.x - ref.mu) @ z) / (ref.d * cdp)) ** 2))
    observed = {
        "distance_sq": abs(ref.d * rep["C_prime_used"] ** 2 * rep["a_hat"] - float(z @ z)),
        "b": abs(rep["b_hat"] - b_target),
    }
    if budget:
        observed["f"] = abs(rep["f_hat"] - ref.proximity)
    misses, checked = _bound_checks(observed, rep, issues)
    return misses, checked, issues
