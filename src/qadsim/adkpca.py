"""Proximity-measure anomaly detection: classical baseline and the
two-stage quantum pipeline with its error budget.

The proximity measure compares the squared distance of the query point from
the mean against the data's variance along that direction.  The quantum
pipeline reads both terms off amplitude estimates: the squared distance from a
squared-mean preparation, and the covariance quadratic form from per-point
inner-product overlaps (omega_i) that are squared and averaged in a second
estimation round.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .ae import AEResult, bits_for_epsilon, overlap_from_result
from .config import QadsimError
from .dataio import (
    Constants,
    DataMatrix,
    QueryLedger,
    QueryPoint,
    compute_constants,
)
from .pipelines import EstimatorRun, PipelineConfig, interference_prep, squared_mean_prep
from .adde import classical_fit, estimate_means


class InsufficientDataError(QadsimError):
    """Covariance needs at least two training points."""


class ConstantViolationError(QadsimError):
    """A rotation normalizer bound was violated beyond repairable tolerance."""


@dataclass(frozen=True)
class MomentModel:
    mu: np.ndarray
    covariance: np.ndarray  # divisor M - 1


@dataclass(frozen=True)
class KPCABudget:
    """Four sub-precisions for a total epsilon target (composed claim: 2 eps)."""

    epsilon: float
    eps_mean: float      # mean-stage AE
    eps_dist: float      # squared-distance AE
    eps_omega: float     # per-point overlap AE
    eps_bsum: float      # omega-square averaging AE
    t_mean: int
    t_dist: int
    t_omega: int
    t_bsum: int
    mode_hint: str | None

    def as_dict(self) -> dict:
        return asdict(self)


def classical_moments(data: DataMatrix) -> MomentModel:
    """Mean vector and covariance matrix (divisor M - 1)."""
    x = data.real_values
    if x.shape[0] < 2:
        raise InsufficientDataError("covariance needs at least 2 training points")
    mu = x.mean(axis=0)
    centered = x - mu
    cov = centered.T @ centered / (x.shape[0] - 1)
    return MomentModel(mu=mu, covariance=cov)


def classical_proximity(model: MomentModel, query: QueryPoint) -> float:
    """|x0 - mu|^2 - (x0 - mu)^T Sigma (x0 - mu); larger is more anomalous."""
    z = query.real_values - model.mu
    return float(z @ z - z @ model.covariance @ z)


def proximity_estimate(
    a_hat: float, b_hat: float, d: int, m: int, c_prime: float, c_dprime: float
) -> float:
    """Assemble the proximity measure from the two amplitude estimates."""
    return d * c_prime**2 * a_hat - (m / (m - 1)) * (d * c_dprime) ** 2 * b_hat


def plan_budget_kpca(epsilon: float, d: int, m: int, constants: Constants) -> KPCABudget:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    cdp = constants.C_dprime
    eps_mean = epsilon / (48.0 * d**2 * cdp)
    eps_dist = epsilon / (d * cdp**2)
    eps_omega = epsilon / (3.0 * d**2 * cdp**2)
    eps_bsum = epsilon / (3.0 * d**2 * cdp**2)
    ts = [bits_for_epsilon(e) for e in (eps_mean, eps_dist, eps_omega, eps_bsum)]
    hint = next((h for _, h in ts if h is not None), None)
    return KPCABudget(
        epsilon=epsilon,
        eps_mean=eps_mean,
        eps_dist=eps_dist,
        eps_omega=eps_omega,
        eps_bsum=eps_bsum,
        t_mean=ts[0][0],
        t_dist=ts[1][0],
        t_omega=ts[2][0],
        t_bsum=ts[3][0],
        mode_hint=hint,
    )


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
    query: QueryPoint,
    mu_hat: np.ndarray,
    c_prime: float,
    runner: EstimatorRun,
    t_bits: int,
) -> tuple[float, float, AEResult]:
    """Mean squared normalized distance of the query from the estimated mean.

    Returns (a_hat, normalizer actually used, AE diagnostics).
    """
    z = query.real_values - mu_hat
    used = _normalizer(c_prime, float(np.max(np.abs(z))), "C'")
    values = np.zeros(query.padded_dim)
    values[: z.size] = z / used
    prep = squared_mean_prep("a_stage", values, costs={"oracle_query": 2, "arithmetic": 2})
    res = runner.run(prep, t_bits)
    a_hat = res.amplitude * (query.padded_dim / z.size)
    return a_hat, used, res


def estimate_omegas(
    data: DataMatrix,
    query: QueryPoint,
    mu_hat: np.ndarray,
    c_dprime: float,
    runner: EstimatorRun,
    t_bits: int,
) -> tuple[np.ndarray, float, list[AEResult]]:
    """Per-point normalized inner products of centered vectors.

    omega_i is the overlap of the rotated point state with the flat state,
    recovered signed via 2 a - 1 and stored digitally (fixed point).
    """
    fmt = runner.config.fp_format
    z0 = query.real_values - mu_hat
    centered = data.real_values - mu_hat
    products = centered * z0
    used = _normalizer(c_dprime, float(np.max(np.abs(products))), "C''")
    pad_ratio = query.padded_dim / z0.size
    omegas = np.zeros(data.n_rows)
    results = []
    for i in range(data.n_rows):
        values = np.zeros(query.padded_dim)
        values[: z0.size] = products[i] / used
        prep = interference_prep(
            f"omega[{i}]", values, costs={"oracle_data": 2, "oracle_query": 2, "arithmetic": 2}
        )
        res = runner.run(prep, t_bits)
        # The true overlap is in [-1, 1]; clip away estimation/pad overshoot.
        omegas[i] = float(np.clip(fmt.quantize(overlap_from_result(res, 1.0) * pad_ratio), -1.0, 1.0))
        results.append(res)
    return omegas, used, results


def estimate_b(
    omegas_hat: np.ndarray, padded_rows: int, runner: EstimatorRun, t_bits: int
) -> tuple[float, AEResult]:
    """Mean of squared overlaps via one more amplitude estimation round."""
    if np.max(np.abs(omegas_hat)) > 1.0 + 1e-12:
        raise ConstantViolationError("omega magnitude exceeds 1")
    values = np.zeros(padded_rows)
    values[: omegas_hat.size] = np.clip(omegas_hat, -1.0, 1.0)
    prep = squared_mean_prep("b_stage", values, costs={"arithmetic": 2})
    res = runner.run(prep, t_bits)
    b_hat = res.amplitude * (padded_rows / omegas_hat.size)
    return b_hat, res


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
        return {
            "config": self.config,
            "constants": self.constants,
            "budget": self.budget,
            "a_hat": self.a_hat,
            "omega_hat": self.omegas_hat.tolist(),
            "b_hat": self.b_hat,
            "f_hat": self.f_hat,
            "f_classical": self.f_classical,
            "bounds": self.bounds,
            "observed_errors": self.observed_errors,
            "ledger": self.ledger,
            "C_prime_used": self.c_prime_used,
            "C_dprime_used": self.c_dprime_used,
        }


def run_adkpca(data: DataMatrix, query: QueryPoint, config: PipelineConfig) -> ADKPCAReport:
    """Full proximity-measure run with bound checks against the baseline."""
    model = classical_moments(data)
    fit = classical_fit(data, policy="epsilon-floor")
    constants = compute_constants(data, query, fit.mu, fit.sigma2, policy="epsilon-floor")
    f_classical = classical_proximity(model, query)
    d = data.n_cols
    m = data.n_rows

    budget = None
    if config.epsilon is not None:
        budget = plan_budget_kpca(config.epsilon, d, m, constants)

    ledger = QueryLedger()
    runner = EstimatorRun(config, ledger)
    shares = (
        (budget.eps_mean, budget.eps_dist, budget.eps_omega, budget.eps_bsum)
        if budget
        else (None,) * 4
    )
    (t_mean, eps_mean), (t_dist, eps_dist), (t_omega, eps_omega), (t_bsum, eps_bsum) = map(
        runner.precision, shares
    )

    mu_hat, _ = estimate_means(data, constants, runner, t_mean)
    a_hat, cp_used, _ = estimate_a(query, mu_hat, constants.C_prime, runner, t_dist)
    omegas_hat, cdp_used, _ = estimate_omegas(
        data, query, mu_hat, constants.C_dprime, runner, t_omega
    )
    b_hat, _ = estimate_b(omegas_hat, data.padded_rows, runner, t_bsum)
    f_hat = proximity_estimate(a_hat, b_hat, d, m, cp_used, cdp_used)

    C, cp, cdp = constants.C, constants.C_prime, constants.C_dprime
    bounds = {
        "distance_sq": d * cp**2 * eps_dist + 4.0 * d * cp * C * eps_mean,
        "b": eps_bsum + eps_omega + 16.0 * C**2 * eps_mean / cdp,
    }
    if budget is not None:
        bounds["f"] = 2.0 * budget.epsilon

    z = query.real_values - model.mu
    centered = data.real_values - model.mu
    b_target = float(np.mean(((centered @ z) / (d * cdp)) ** 2))
    observed = {
        "distance_sq": abs(d * cp_used**2 * a_hat - float(z @ z)),
        "b": abs(b_hat - b_target),
        "f": abs(f_hat - f_classical),
    }

    return ADKPCAReport(
        config=config.echo(),
        constants=constants.as_dict(),
        budget=budget.as_dict() if budget else None,
        a_hat=a_hat,
        omegas_hat=omegas_hat,
        b_hat=b_hat,
        f_hat=f_hat,
        f_classical=f_classical,
        bounds=bounds,
        observed_errors=observed,
        ledger=ledger.snapshot(),
        c_prime_used=cp_used,
        c_dprime_used=cdp_used,
    )
