"""Proximity-measure anomaly detection: classical baseline and the
two-stage quantum pipeline with its error budget.

The proximity measure compares the squared distance of the query point from
the mean against the data's variance along that direction.  The quantum
pipeline reads both terms off amplitude estimates: the squared distance from a
squared-mean preparation, and the covariance quadratic form from per-point
inner-product overlaps (omega_i) that are squared and averaged in a second
estimation round.

Each stage bound is its parts' `Part.bound` terms plus the propagation of the
stored mu_hat, off by at most mu (its term plus half an ulp): distance_sq =
d C'_used^2 (a term) + d mu (2 C' + mu), and b = b term + 2 (omega term +
half ulp + mu (D + C' + mu) / C''_used + 1 - C''/C''_used); README derives both.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import QadsimError
from .dataio import (
    Constants,
    DataMatrix,
    QueryPoint,
    compute_constants,
    mean_axis0,
    query_offset,
)
from .pipelines import EstimatorRun, Part, PipelineConfig, report_dict
from .adde import estimate_means, fit_about

# The stages `budget_shares` splits epsilon over: mean, distance, overlap
# (omega) and omega-square averaging (b).
STAGES = ("mean", "dist", "omega", "bsum")


class InsufficientDataError(QadsimError):
    """Covariance needs at least two training points."""


class ConstantViolationError(QadsimError):
    """A rotation normalizer bound was violated beyond repairable tolerance."""


@dataclass(frozen=True)
class MomentModel:
    mu: np.ndarray
    covariance: np.ndarray  # divisor M - 1
    centered: np.ndarray    # the training points minus mu, M x d


def classical_moments(data: DataMatrix) -> MomentModel:
    """Mean vector and covariance matrix (divisor M - 1)."""
    x = data.values
    if x.shape[0] < 2:
        raise InsufficientDataError("covariance needs at least 2 training points")
    mu = mean_axis0(x)
    centered = x - mu
    cov = centered.T @ centered / (x.shape[0] - 1)
    return MomentModel(mu=mu, covariance=cov, centered=centered)


def classical_proximity(model: MomentModel, query: QueryPoint, offset: np.ndarray | None = None) -> float:
    """|x0 - mu|^2 - (x0 - mu)^T Sigma (x0 - mu); larger is more anomalous.
    `offset` is the run's x0 - mu (`dataio.query_offset`), worked out here if not given."""
    z = query.values - model.mu if offset is None else offset
    return float(z @ z - z @ model.covariance @ z)


def proximity_estimate(
    a_hat: float, b_hat: float, d: int, m: int, c_prime: float, c_dprime: float
) -> float:
    """Assemble the proximity measure from the two amplitude estimates."""
    return d * c_prime**2 * a_hat - (m / (m - 1)) * (d * c_dprime) ** 2 * b_hat


def budget_shares(epsilon: float, d: int, constants: Constants) -> tuple[float, ...]:
    """The amplitude-estimation shares of the mean, distance, overlap and
    omega-square averaging stages for a total epsilon target (composed
    claim: 2 epsilon), in the order of `STAGES`."""
    cdp = constants.C_dprime
    eps_mean = epsilon / (48.0 * d**2 * cdp)
    eps_dist = epsilon / (d * cdp**2)
    eps_omega = epsilon / (3.0 * d**2 * cdp**2)
    eps_bsum = epsilon / (3.0 * d**2 * cdp**2)
    return eps_mean, eps_dist, eps_omega, eps_bsum


# ---------------------------------------------------------------------------
# quantum estimators

def _normalizer(classical: float, estimated_max: float, label: str) -> float:
    """Rotation normalizer: classical constant, inflated only when estimation
    noise pushes a value slightly past it; gross violations are an error."""
    if estimated_max <= classical:
        return classical
    if estimated_max > classical * 1.5 + 1e-9:
        raise ConstantViolationError(
            f"{label}: estimated magnitude {estimated_max} far exceeds constant {classical}"
        )
    return estimated_max


def estimate_a(
    z0: np.ndarray,
    c_prime: float,
    t_bits: int,
) -> tuple[Part, float]:
    """Mean squared normalized distance z0 = x0 - mu_hat of the query from
    the estimated mean, as a one-row part (its mean is a_hat).

    Returns (part, normalizer actually used).
    """
    used = _normalizer(c_prime, float(np.abs(z0).max()), "C'")
    part = Part("a", (z0 / used)[None], {"oracle_query": 2, "arithmetic": 2}, t_bits, signed=False)
    return part, used


def estimate_omegas(
    data: DataMatrix,
    mu_hat: np.ndarray,
    z0: np.ndarray,
    c_dprime: float,
    t_bits: int,
) -> tuple[Part, float]:
    """Per-point normalized inner products of the centered points with
    z0 = x0 - mu_hat, as a part with one row per training point.

    omega_i is the overlap of the rotated point state with the flat state,
    recovered signed via 2 a - 1; `run_adkpca` stores it digitally (fixed
    point). Returns (part, normalizer actually used).
    """
    products = (data.values - mu_hat) * z0
    used = _normalizer(c_dprime, float(np.abs(products).max()), "C''")
    part = Part(
        "omega", products / used, {"oracle_data": 2, "oracle_query": 2, "arithmetic": 2}, t_bits,
        signed=True,
    )
    return part, used


def estimate_b(omegas_hat: np.ndarray, t_bits: int) -> Part:
    """Mean of the squared stored overlaps, as a one-row part (its mean is b_hat)."""
    return Part("b", omegas_hat[None], {"arithmetic": 2}, t_bits, signed=False)


# ---------------------------------------------------------------------------
# end-to-end pipeline

@dataclass
class ADKPCAReport:
    config: dict
    constants: dict
    budget: dict | None
    a_hat: float
    omegas_hat: np.ndarray
    b_hat: float
    f_hat: float
    f_classical: float
    bounds: dict
    observed_errors: dict
    ledger: dict
    c_prime_used: float
    c_dprime_used: float

    def as_dict(self) -> dict:
        return report_dict(self, omegas_hat="omega_hat", c_prime_used="C_prime_used",
                           c_dprime_used="C_dprime_used")


def run_adkpca(data: DataMatrix, query: QueryPoint, config: PipelineConfig) -> ADKPCAReport:
    """Full proximity-measure run with bound checks against the baseline."""
    model = classical_moments(data)
    fit = fit_about(model.mu, model.centered, "epsilon-floor")
    z = query_offset(data, query, model.mu)
    constants = compute_constants(data, query, fit, "epsilon-floor", z)
    config.check_range(constants.C)  # the means are the only unclipped values it quantizes
    f_classical = classical_proximity(model, query, z)
    d = data.n_cols
    m = data.n_rows

    runner = EstimatorRun(config)
    plan, budget = runner.plan(STAGES, lambda epsilon: budget_shares(epsilon, d, constants))
    (t_mean, eps_mean), (t_dist, eps_dist), (t_omega, eps_omega), (t_bsum, eps_bsum) = plan

    mean_part = estimate_means(data, constants, t_mean)
    mu_hat, mu_err = runner.stored(*runner.means(mean_part), mean_part.bound(eps_mean))
    z0 = query.values - mu_hat
    a_part, cp_used = estimate_a(z0, constants.C_prime, t_dist)
    omega_part, cdp_used = estimate_omegas(data, mu_hat, z0, constants.C_dprime, t_omega)
    # One wave when t_dist == t_omega (a configured t); under epsilon, one each.
    (a_hat,), omegas = runner.means(a_part, omega_part)
    omegas_hat, omega_err = runner.stored(omegas, omega_part.bound(eps_omega))
    # The true overlap is in [-1, 1]; clip away estimation/pad overshoot.
    omegas_hat = np.maximum(np.minimum(omegas_hat, 1.0), -1.0)
    b_part = estimate_b(omegas_hat, t_bsum)
    ((b_hat,),) = runner.means(b_part)
    f_hat = proximity_estimate(a_hat, b_hat, d, m, cp_used, cdp_used)

    cp, cdp = constants.C_prime, constants.C_dprime
    bounds = {
        "distance_sq": d * cp_used**2 * a_part.bound(eps_dist) + d * mu_err * (2.0 * cp + mu_err),
        "b": b_part.bound(eps_bsum)
        + 2.0 * (omega_err + mu_err * (constants.D + cp + mu_err) / cdp_used + 1.0 - cdp / cdp_used),
    }
    if budget is not None:
        bounds["f"] = 2.0 * budget["epsilon"]

    b_target = float(mean_axis0(((model.centered @ z) / (d * cdp)) ** 2))
    observed = {
        "distance_sq": abs(d * cp_used**2 * a_hat - float(z @ z)),
        "b": abs(b_hat - b_target),
        "f": abs(f_hat - f_classical),
    }

    return ADKPCAReport(
        config=config.echo(),
        constants=constants.as_dict(),
        budget=budget,
        a_hat=a_hat,
        omegas_hat=omegas_hat,
        b_hat=b_hat,
        f_hat=f_hat,
        f_classical=f_classical,
        bounds=bounds,
        observed_errors=observed,
        ledger=runner.ledger.snapshot(),
        c_prime_used=cp_used,
        c_dprime_used=cdp_used,
    )
