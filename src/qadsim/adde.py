"""Per-feature Gaussian density estimation: classical baseline and the
three-stage quantum estimation pipeline with its error budget.

The quantum pipeline estimates the per-feature means via interference
amplitude estimation, feeds those estimates (not the classical values) into
the variance stage, and finally reads off the two scalar sums that assemble
the log density.  All rotations use digitally quantized estimates, so no
hidden classical information leaks into the quantum stages.

Each stage bound is its part's `Part.bound` under the error the plan charged
the stage, plus half an ulp for a stored estimate: mu is that alone, p and q
are their terms, and sigma2 adds mu^2, since the variance stage reads
mean (x - mu_hat)^2 = sigma^2 + (mu_hat - mu)^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import (
    Constants,
    DataMatrix,
    QueryPoint,
    compute_constants,
    floor_variance,
    mean_axis0,
    power_of_two_at_least,
    query_offset,
)
from .pipelines import EstimatorRun, Part, PipelineConfig, report_dict

LOG_2PI = math.log(2.0 * math.pi)
# The stages `budget_shares` splits epsilon over; the tail stage runs p and q.
STAGES = ("mean", "var", "tail")


@dataclass(frozen=True)
class GaussianModel:
    mu: np.ndarray
    sigma2: np.ndarray      # divisor M, floored by the fit's policy
    centered: np.ndarray    # the training points minus mu, M x d


def classical_fit(data: DataMatrix, policy: str = "error") -> GaussianModel:
    """Population mean and variance per feature (divisor M)."""
    x = data.values
    mu = mean_axis0(x)
    return fit_about(mu, x - mu, policy)


def fit_about(mu: np.ndarray, centered: np.ndarray, policy: str) -> GaussianModel:
    """The model of mean mu and the population variance, floored by policy, of the deviations `centered`."""
    sigma2 = floor_variance(mean_axis0(centered * centered), policy, "variance")
    return GaussianModel(mu=mu, sigma2=sigma2, centered=centered)


def classical_log_density(model: GaussianModel, query: QueryPoint, offset: np.ndarray | None = None) -> float:
    """ln P(x0) for the independent-feature Gaussian model; `offset` is the
    run's x0 - mu (`dataio.query_offset`), worked out here if not given."""
    x0 = query.values
    mu, sigma2 = model.mu, model.sigma2
    if x0.size != mu.size:
        raise ValueError("query dimension does not match the model")
    z = x0 - mu if offset is None else offset
    d = mu.size
    return float(-0.5 * d * LOG_2PI - 0.5 * np.log(sigma2).sum() - (z**2 / (2.0 * sigma2)).sum())


def flag_anomaly(ln_p: float, delta: float) -> bool:
    """Strict threshold rule: anomalous iff ln P < ln delta."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return ln_p < math.log(delta)


def log_density_estimate(p_hat: float, q_hat: float, d: int, t_const: float, e_const: float) -> float:
    """Assemble ln P from the two estimated scalar sums."""
    return -0.5 * d * LOG_2PI - 0.5 * d * e_const * q_hat - 0.5 * d * t_const**2 * p_hat


def budget_shares(
    epsilon: float, d: int, constants: Constants, min_sigma2: float
) -> tuple[float, float, float]:
    """The amplitude-estimation shares of the mean, variance and tail (p and
    q) stages for a total epsilon target, in the order of `STAGES`."""
    C, D, T = constants.C, constants.D, constants.T
    eps_tail = epsilon / (3.0 * d * T**2)
    eps_var = min_sigma2 * epsilon / (3.0 * d * T**2 * D)
    eps_mean = min_sigma2 * epsilon / (3.0 * d * (8.0 * T**2 * C**2 + 8.0 * C**2))
    return eps_mean, eps_var, eps_tail


# ---------------------------------------------------------------------------
# quantum estimators

def estimate_means(
    data: DataMatrix, constants: Constants, t_bits: int
) -> Part:
    """Per-feature means via interference amplitude estimation, one row per
    feature: the good probability is 1/2 + 1/2 <phi_j|h>, the overlap being
    the column mean over x_j^i / C, read back in units of C."""
    return Part("mean", data.values.T / constants.C, {"oracle_data": 2, "arithmetic": 1}, t_bits,
                signed=True, scale=constants.C)


def estimate_variances(
    data: DataMatrix,
    mu_hat: np.ndarray,
    constants: Constants,
    t_bits: int,
) -> Part:
    """Per-feature variances about the estimated means, one row per feature.

    The rotation normalizer d_used (the part's scale is its square) is D,
    inflated only if an estimated residual exceeds it (estimation noise can
    push |x - mu_hat| slightly past the classical maximum).
    """
    residuals = data.values - mu_hat
    d_used = max(constants.D, float(np.abs(residuals).max()))
    return Part("variance", residuals.T / d_used, {"oracle_data": 2, "arithmetic": 2}, t_bits,
                signed=False, scale=d_used**2)


def estimate_p(
    query: QueryPoint,
    mu_hat: np.ndarray,
    sigma2_hat: np.ndarray,
    t_const: float,
    t_bits: int,
) -> tuple[Part, float]:
    """Mean squared standardized residual of the query point, as a one-row
    part (its mean is p_hat), from the floored estimated variances.

    Returns (part, T actually used).  If the estimated mean/variance break
    the rotation bound for the initial T, T is recomputed from the estimates
    and the rotations built with it.
    """
    sigma_hat = np.sqrt(sigma2_hat)
    z = query.values - mu_hat

    t_used = t_const
    ratios = z / (sigma_hat * t_used)
    if np.abs(ratios).max() > 1.0:
        t_used = power_of_two_at_least(float((np.abs(z) / sigma_hat).max()))
        ratios = z / (sigma_hat * t_used)

    part = Part("p", ratios[None], {"oracle_query": 2, "arithmetic": 2}, t_bits, signed=False)
    return part, t_used


def estimate_q(
    sigma2_hat: np.ndarray,
    e_const: float,
    t_bits: int,
) -> tuple[Part, float]:
    """Mean log-variance via the interference preparation, as a part (its one
    mean is q_hat), from the floored estimated variances.

    Returns (part, E actually used); the normalizer E is inflated when an
    estimated log-variance exceeds the classical maximum. When every
    estimated variance is exactly 1, the sum is exactly zero: the part has
    no row and runs no AE, and q_hat is 0.
    """
    logs = np.log(sigma2_hat)
    e_used = max(e_const, float(np.abs(logs).max()))
    rows = (logs / e_used)[None] if e_used else np.empty((0, logs.size))
    return Part("q", rows, {"arithmetic": 2}, t_bits, signed=True), e_used


# ---------------------------------------------------------------------------
# end-to-end pipeline

@dataclass
class ADDEReport:
    config: dict
    constants: dict
    budget: dict | None
    mu_hat: np.ndarray
    sigma2_hat: np.ndarray
    p_hat: float
    q_hat: float
    ln_p_hat: float
    ln_p_classical: float
    bounds: dict
    observed_errors: dict
    flag: bool
    delta: float
    ledger: dict
    t_used: float
    e_used: float

    def as_dict(self) -> dict:
        return report_dict(self, ln_p_hat="lnP_hat", ln_p_classical="lnP_classical",
                           t_used="T_used", e_used="E_used")


def run_adde(
    data: DataMatrix,
    query: QueryPoint,
    config: PipelineConfig,
    delta: float = 0.01,
) -> ADDEReport:
    """Full detection run: fit, quantum estimation, budget checks, flag."""
    model = classical_fit(data, policy=config.policy)
    offset = query_offset(data, query, model.mu)
    constants = compute_constants(data, query, model, config.policy, offset)
    config.check_range(constants.C, constants.D**2, constants.T, constants.E)
    ln_p_classical = classical_log_density(model, query, offset)
    d = data.n_cols

    runner = EstimatorRun(config)
    plan, budget = runner.plan(
        STAGES, lambda epsilon: budget_shares(epsilon, d, constants, float(model.sigma2.min()))
    )
    (t_mean, eps_mean), (t_var, eps_var), (t_tail, eps_tail) = plan
    if budget is not None:
        budget["planned_grover"] = (
            d * ((1 << t_mean) - 1) + d * ((1 << t_var) - 1) + 2 * ((1 << t_tail) - 1)
        )

    mean_part = estimate_means(data, constants, t_mean)
    mu_hat, mu_err = runner.stored(*runner.means(mean_part), mean_part.bound(eps_mean))
    var_part = estimate_variances(data, mu_hat, constants, t_var)
    sigma2_hat, var_err = runner.stored(*runner.means(var_part), var_part.bound(eps_var))
    sigma2_floored = floor_variance(sigma2_hat, config.policy, "estimated variance")
    p_part, t_used = estimate_p(query, mu_hat, sigma2_floored, constants.T, t_tail)
    q_part, e_used = estimate_q(sigma2_floored, constants.E, t_tail)
    (p_hat,), q_read = runner.means(p_part, q_part)  # one wave: p and q share t_tail
    q_hat = q_read[0] if q_read else 0.0
    ln_p_hat = log_density_estimate(p_hat, q_hat, d, t_used, e_used)

    bounds = {
        "mu": mu_err,
        "sigma2": var_err + mu_err**2,  # mean (x - mu_hat)^2 = sigma^2 + (mu_hat - mu)^2
        "p": p_part.bound(eps_tail),
        "q": q_part.bound(eps_tail),
    }
    if budget is not None:
        bounds["lnP"] = budget["epsilon"]

    # p's formula is the mean square of its stage's row, (x0 - mu_hat) / (sigma_hat T_used).
    p_formula = float(mean_axis0(p_part.table[0] ** 2))
    q_formula = float(mean_axis0(np.log(sigma2_floored))) / e_used if e_used else 0.0
    observed = {
        "mu": float(np.abs(mu_hat - model.mu).max()),
        "sigma2": float(np.abs(sigma2_hat - model.sigma2).max()),
        "p": abs(p_hat - p_formula),
        "q": abs(q_hat - q_formula),
        "lnP": abs(ln_p_hat - ln_p_classical),
    }

    return ADDEReport(
        config=config.echo(),
        constants=constants.as_dict(),
        budget=budget,
        mu_hat=mu_hat,
        sigma2_hat=sigma2_hat,
        p_hat=p_hat,
        q_hat=q_hat,
        ln_p_hat=ln_p_hat,
        ln_p_classical=ln_p_classical,
        bounds=bounds,
        observed_errors=observed,
        flag=flag_anomaly(ln_p_hat, delta),
        delta=delta,
        ledger=runner.ledger.snapshot(),
        t_used=t_used,
        e_used=e_used,
    )
