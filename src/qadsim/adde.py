"""Per-feature Gaussian density estimation: classical baseline and the
three-stage quantum estimation pipeline with its error budget.

The quantum pipeline estimates the per-feature means via interference
amplitude estimation, feeds those estimates (not the classical values) into
the variance stage, and finally reads off the two scalar sums that assemble
the log density.  All rotations use digitally quantized estimates, so no
hidden classical information leaks into the quantum stages.
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
    x = data.real_values
    mu = mean_axis0(x)
    return fit_about(mu, x - mu, policy)


def fit_about(mu: np.ndarray, centered: np.ndarray, policy: str) -> GaussianModel:
    """The model of mean mu and the population variance, floored by policy, of the deviations `centered`."""
    sigma2 = floor_variance(mean_axis0(centered * centered), policy, "variance")
    return GaussianModel(mu=mu, sigma2=sigma2, centered=centered)


def classical_log_density(model: GaussianModel, query: QueryPoint) -> float:
    """ln P(x0) for the independent-feature Gaussian model."""
    x0 = query.real_values
    mu, sigma2 = model.mu, model.sigma2
    if x0.size != mu.size:
        raise ValueError("query dimension does not match the model")
    d = mu.size
    return float(-0.5 * d * LOG_2PI - 0.5 * np.log(sigma2).sum() - ((x0 - mu) ** 2 / (2.0 * sigma2)).sum())


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
    data: DataMatrix, constants: Constants, runner: EstimatorRun, t_bits: int
) -> np.ndarray:
    """Per-feature means via interference amplitude estimation.

    For each feature the good probability is 1/2 + 1/2 <phi_j|h>, the overlap
    being the column mean over x_j^i / C.
    """
    fmt = runner.config.fp_format
    (means,) = runner.means(Part(
        "mean", data.real_values.T / constants.C, data.padded_rows,
        {"oracle_data": 2, "arithmetic": 1}, t_bits, signed=True, scale=constants.C,
    ))
    return np.array([fmt.quantize(v) for v in means])


def estimate_variances(
    data: DataMatrix,
    mu_hat: np.ndarray,
    constants: Constants,
    runner: EstimatorRun,
    t_bits: int,
) -> tuple[np.ndarray, float]:
    """Per-feature variances about the estimated means.

    The rotation normalizer is D, inflated only if an estimated residual
    exceeds it (estimation noise can push |x - mu_hat| slightly past the
    classical maximum).  Returns (sigma2_hat, normalizer).
    """
    fmt = runner.config.fp_format
    residuals = data.real_values - mu_hat
    d_used = max(constants.D, float(np.abs(residuals).max()))
    (variances,) = runner.means(Part(
        "variance", residuals.T / d_used, data.padded_rows,
        {"oracle_data": 2, "arithmetic": 2}, t_bits, signed=False, scale=d_used**2,
    ))
    return np.array([fmt.quantize(v) for v in variances]), d_used


def estimate_p(
    query: QueryPoint,
    mu_hat: np.ndarray,
    sigma2_hat: np.ndarray,
    t_const: float,
    policy: str,
    t_bits: int,
) -> tuple[Part, float]:
    """Mean squared standardized residual of the query point, as the one-row
    part that `EstimatorRun.means` reads (its mean is p_hat).

    Returns (part, T actually used).  If the estimated mean/variance break
    the rotation bound for the initial T, T is recomputed from the estimates
    and the rotations built with it.
    """
    sigma_hat = np.sqrt(floor_variance(sigma2_hat, policy, "estimated variance"))
    z = query.real_values - mu_hat

    t_used = t_const
    ratios = z / (sigma_hat * t_used)
    if np.abs(ratios).max() > 1.0:
        t_used = power_of_two_at_least(float((np.abs(z) / sigma_hat).max()))
        ratios = z / (sigma_hat * t_used)

    part = Part(
        "p", ratios[None], query.padded_dim, {"oracle_query": 2, "arithmetic": 2}, t_bits,
        signed=False,
    )
    return part, t_used


def estimate_q(
    sigma2_hat: np.ndarray,
    e_const: float,
    policy: str,
    t_bits: int,
    padded_dim: int,
) -> tuple[Part, float]:
    """Mean log-variance via the interference preparation, as the part that
    `EstimatorRun.means` reads (its one mean is q_hat).

    Returns (part, E actually used); the normalizer E is inflated when an
    estimated log-variance exceeds the classical maximum. When every
    estimated variance is exactly 1, the sum is exactly zero: the part has
    no row and runs no AE, and q_hat is 0.
    """
    sigma2_hat = floor_variance(sigma2_hat, policy, "estimated variance")
    logs = np.log(sigma2_hat)
    e_used = max(e_const, float(np.abs(logs).max()))
    rows = (logs / e_used)[None] if e_used else np.empty((0, logs.size))
    return Part("q", rows, padded_dim, {"arithmetic": 2}, t_bits, signed=True), e_used


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
    constants = compute_constants(data, query, model, policy=config.policy)
    config.check_range(constants.C, constants.D**2, constants.T, constants.E)
    ln_p_classical = classical_log_density(model, query)
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

    mu_hat = estimate_means(data, constants, runner, t_mean)
    sigma2_hat, _d_used = estimate_variances(data, mu_hat, constants, runner, t_var)
    p_part, t_used = estimate_p(query, mu_hat, sigma2_hat, constants.T, config.policy, t_tail)
    q_part, e_used = estimate_q(sigma2_hat, constants.E, config.policy, t_tail, query.padded_dim)
    (p_hat,), q_read = runner.means(p_part, q_part)  # one wave: p and q share t_tail
    q_hat = q_read[0] if q_read else 0.0
    ln_p_hat = log_density_estimate(p_hat, q_hat, d, t_used, e_used)

    bounds = {
        "mu": 2.0 * constants.C * eps_mean,
        "sigma2": 2.0 * constants.D * eps_var + 8.0 * constants.C**2 * eps_mean,
        "p": eps_tail,
        # q is an overlap (2a - 1), so the zero-padding rescale amplifies its
        # grid error by the pad ratio.
        "q": eps_tail * (query.padded_dim / d),
    }
    if budget is not None:
        bounds["lnP"] = budget["epsilon"]

    # p's formula is the mean square of its stage's row, (x0 - mu_hat) / (sigma_hat T_used).
    sigma2_floored = floor_variance(sigma2_hat, "epsilon-floor", "estimated variance")
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
