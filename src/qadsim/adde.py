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

from .ae import bits_for_epsilon
from .dataio import (
    Constants,
    DataMatrix,
    QueryPoint,
    compute_constants,
    floor_variance,
    power_of_two_at_least,
)
from .pipelines import EstimatorRun, PipelineConfig, report_dict

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GaussianModel:
    mu: np.ndarray
    sigma2: np.ndarray
    source: str  # "classical" or "quantum"


@dataclass(frozen=True)
class ErrorBudget:
    """Sub-precision allocation for a total target epsilon.

    eps_mean / eps_var / eps_tail are the amplitude-estimation targets for the
    mean, variance, and final (p and q) stages respectively.
    """

    epsilon: float
    eps_mean: float
    eps_var: float
    eps_tail: float
    t_mean: int
    t_var: int
    t_tail: int
    mode_hint: str | None
    planned_grover: int

    def as_dict(self) -> dict:
        return dict(vars(self))  # every field is a scalar


def classical_fit(data: DataMatrix, policy: str = "error") -> GaussianModel:
    """Population mean and variance per feature (divisor M)."""
    x = data.real_values
    mu = x.mean(axis=0)
    sigma2 = floor_variance(np.mean((x - mu) ** 2, axis=0), policy, "variance")
    return GaussianModel(mu=mu, sigma2=sigma2, source="classical")


def classical_log_density(model: GaussianModel, query: QueryPoint) -> float:
    """ln P(x0) for the independent-feature Gaussian model."""
    x0 = query.real_values
    mu, sigma2 = model.mu, model.sigma2
    if x0.size != mu.size:
        raise ValueError("query dimension does not match the model")
    d = mu.size
    return float(
        -0.5 * d * LOG_2PI
        - 0.5 * np.sum(np.log(sigma2))
        - np.sum((x0 - mu) ** 2 / (2.0 * sigma2))
    )


def flag_anomaly(ln_p: float, delta: float) -> bool:
    """Strict threshold rule: anomalous iff ln P < ln delta."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return ln_p < math.log(delta)


def log_density_estimate(p_hat: float, q_hat: float, d: int, t_const: float, e_const: float) -> float:
    """Assemble ln P from the two estimated scalar sums."""
    return -0.5 * d * LOG_2PI - 0.5 * d * e_const * q_hat - 0.5 * d * t_const**2 * p_hat


def plan_budget(
    epsilon: float, d: int, constants: Constants, min_sigma2: float
) -> ErrorBudget:
    """Allocate the three sub-precisions for a total epsilon target."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    C, D, T = constants.C, constants.D, constants.T
    eps_tail = epsilon / (3.0 * d * T**2)
    eps_var = min_sigma2 * epsilon / (3.0 * d * T**2 * D)
    eps_mean = min_sigma2 * epsilon / (3.0 * d * (8.0 * T**2 * C**2 + 8.0 * C**2))
    t_mean, hint1 = bits_for_epsilon(eps_mean)
    t_var, hint2 = bits_for_epsilon(eps_var)
    t_tail, hint3 = bits_for_epsilon(eps_tail)
    hint = next((h for h in (hint1, hint2, hint3) if h is not None), None)
    planned = d * ((1 << t_mean) - 1) + d * ((1 << t_var) - 1) + 2 * ((1 << t_tail) - 1)
    return ErrorBudget(
        epsilon=epsilon,
        eps_mean=eps_mean,
        eps_var=eps_var,
        eps_tail=eps_tail,
        t_mean=t_mean,
        t_var=t_var,
        t_tail=t_tail,
        mode_hint=hint,
        planned_grover=planned,
    )


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
    means = runner.means(
        "mean", data.real_values.T / constants.C, data.padded_rows,
        {"oracle_data": 2, "arithmetic": 1}, t_bits, signed=True, scale=constants.C,
    )
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
    d_used = max(constants.D, float(np.max(np.abs(residuals))))
    variances = runner.means(
        "variance", residuals.T / d_used, data.padded_rows,
        {"oracle_data": 2, "arithmetic": 2}, t_bits, signed=False, scale=d_used**2,
    )
    return np.array([fmt.quantize(v) for v in variances]), d_used


def estimate_p(
    query: QueryPoint,
    mu_hat: np.ndarray,
    sigma2_hat: np.ndarray,
    t_const: float,
    runner: EstimatorRun,
    t_bits: int,
) -> tuple[float, float]:
    """Mean squared standardized residual of the query point.

    Returns (p_hat, T actually used).  If the estimated mean/variance break
    the rotation bound for the initial T, T is recomputed from the estimates
    and the stage retried once.
    """
    sigma2_hat = floor_variance(sigma2_hat, runner.config.policy, "estimated variance")
    sigma_hat = np.sqrt(sigma2_hat)
    x0 = query.real_values

    t_used = t_const
    ratios = (x0 - mu_hat) / (sigma_hat * t_used)
    if np.max(np.abs(ratios)) > 1.0:
        t_used = power_of_two_at_least(float(np.max(np.abs(x0 - mu_hat) / sigma_hat)))
        ratios = (x0 - mu_hat) / (sigma_hat * t_used)

    (p_hat,) = runner.means(
        "p", ratios[None], query.padded_dim, {"oracle_query": 2, "arithmetic": 2}, t_bits,
        signed=False,
    )
    return p_hat, t_used


def estimate_q(
    sigma2_hat: np.ndarray,
    e_const: float,
    runner: EstimatorRun,
    t_bits: int,
    padded_dim: int,
) -> tuple[float, float]:
    """Mean log-variance via the interference preparation.

    Returns (q_hat, E actually used); the normalizer E is inflated when an
    estimated log-variance exceeds the classical maximum.
    """
    sigma2_hat = floor_variance(sigma2_hat, runner.config.policy, "estimated variance")
    logs = np.log(sigma2_hat)
    e_used = max(e_const, float(np.max(np.abs(logs))))
    if e_used == 0.0:
        # All estimated variances are exactly 1; the sum is exactly zero.
        return 0.0, e_const
    (q_hat,) = runner.means(
        "q", (logs / e_used)[None], padded_dim, {"arithmetic": 2}, t_bits, signed=True
    )
    return q_hat, e_used


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
    constants = compute_constants(data, query, model.mu, model.sigma2, policy=config.policy)
    config.check_range(constants.C, constants.D**2, constants.T, constants.E)
    ln_p_classical = classical_log_density(model, query)
    d = data.n_cols

    budget = None
    if config.epsilon is not None:
        budget = plan_budget(config.epsilon, d, constants, float(np.min(model.sigma2)))

    runner = EstimatorRun(config)
    shares = (budget.eps_mean, budget.eps_var, budget.eps_tail) if budget else (None,) * 3
    (t_mean, eps_mean), (t_var, eps_var), (t_tail, eps_tail) = map(runner.precision, shares)

    mu_hat = estimate_means(data, constants, runner, t_mean)
    sigma2_hat, _d_used = estimate_variances(data, mu_hat, constants, runner, t_var)
    p_hat, t_used = estimate_p(query, mu_hat, sigma2_hat, constants.T, runner, t_tail)
    q_hat, e_used = estimate_q(sigma2_hat, constants.E, runner, t_tail, query.padded_dim)
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
        bounds["lnP"] = budget.epsilon

    sigma2_floored = floor_variance(sigma2_hat, "epsilon-floor", "estimated variance")
    p_formula = float(
        np.mean(((query.real_values - mu_hat) / (np.sqrt(sigma2_floored) * t_used)) ** 2)
    )
    q_formula = float(np.mean(np.log(sigma2_floored))) / e_used if e_used else 0.0
    observed = {
        "mu": float(np.max(np.abs(mu_hat - model.mu))),
        "sigma2": float(np.max(np.abs(sigma2_hat - model.sigma2))),
        "p": abs(p_hat - p_formula),
        "q": abs(q_hat - q_formula),
        "lnP": abs(ln_p_hat - ln_p_classical),
    }

    return ADDEReport(
        config=config.echo(),
        constants=constants.as_dict(),
        budget=budget.as_dict() if budget else None,
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
