"""Toy-scale reconstruction of the earlier analog-encoded detection scheme,
with numeric exhibits of its three defects.

The constructions here are simulated correctly (all states are normalized
statevectors); what fails are the *claims* made about them: controlled
rotations driven by analog-encoded operands, a post-selected state that does
not match the claimed one unless the mean normalizer happens to be 1, and a
measurement expectation that is a sum of squared logs rather than the claimed
doubled sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import QadsimError
from .dataio import DataError, DataMatrix, QueryPoint, pad_width
from .simcore import HadamardBlock, RegisterLayout, StateVector, marginal_probs


class FlawLabError(QadsimError):
    pass


MAX_TOY_SIZE = 4

# The two controlled-rotation call sites of the analyzed construction. A
# controlled rotation needs a digital-encoded control; both are driven by
# the analog-encoded chi state, so neither meets that precondition.
ROTATION_SITES = tuple(
    {
        "site": site,
        "operand": "chi state: amplitude-weighted superposition of residuals over the point index",
        "encoding": "analog",
        "precondition_met": False,
    }
    for site in ("R1", "R2")
)


@dataclass
class FlawReport:
    encoding: list[dict] = field(default_factory=list)
    normalization: dict = field(default_factory=dict)
    expectation: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "encoding_mismatch": self.encoding,
            "normalization_mismatch": self.normalization,
            "expectation_mismatch": self.expectation,
        }


@dataclass
class SuperpositionState:
    """The branch superposition of training states vs the mean state."""

    state: StateVector
    n_mu: float            # norm of the summed-rows vector
    mu_sum: np.ndarray     # per-feature column sums of the normalized rows
    rows: np.ndarray       # normalized training rows


def build_superposition(data: DataMatrix) -> SuperpositionState:
    """Flag-labelled superposition of the training states and the mean state.

    Training rows are normalized to unit vectors; the mean branch carries the
    summed rows divided by its own normalizer N_mu, which is exactly the
    quantity the later post-selection claim silently drops.
    """
    if data.n_rows > MAX_TOY_SIZE or data.n_cols > MAX_TOY_SIZE:
        raise FlawLabError(f"toy constructions are limited to {MAX_TOY_SIZE}x{MAX_TOY_SIZE} data")
    norms = np.linalg.norm(data.values, axis=1)
    if np.any(norms == 0.0):
        raise FlawLabError("training rows must be non-zero to normalize")
    rows = data.values / norms[:, None]
    mu_sum = rows.sum(axis=0)
    n_mu = float(np.linalg.norm(mu_sum))
    if n_mu == 0.0:
        raise FlawLabError("summed training vector is zero; mean normalizer undefined")

    m_pad, d_pad = pad_width(data.n_rows), pad_width(data.n_cols)
    layout = RegisterLayout([("flag", 1), ("j", d_pad.bit_length() - 1), ("i", m_pad.bit_length() - 1)])
    amps = np.zeros((m_pad, d_pad, 2))  # [i, j, flag], flag least significant
    m, d = rows.shape
    amps[:m, :d, 0] = rows
    amps[:m, :d, 1] = mu_sum / n_mu
    # The as-written ket is unnormalized; each of its 2m branches has unit norm.
    sv = StateVector(layout, amps.reshape(-1) / math.sqrt(2.0 * m))
    sv.check_norm()
    return SuperpositionState(state=sv, n_mu=n_mu, mu_sum=mu_sum, rows=rows)


def interfere_and_postselect(sup: SuperpositionState) -> dict:
    """H on the flag, post-select |1>, compare actual vs claimed residual state.

    Actual amplitudes are proportional to x_j^i - mu_j / N_mu; the claim is
    x_j^i - mu_j.  The discrepancy (phase-aligned L2 distance between the
    normalized vectors) vanishes only when N_mu = 1.
    """
    sv = sup.state.copy()
    HadamardBlock("flag").apply(sv)
    p1 = float(marginal_probs(sv, "flag")[1])
    if p1 <= 1e-15:
        raise FlawLabError("post-selection probability is zero")

    lay = sv.layout
    keep = lay.field("flag") == 1
    actual = sv.amps[keep] / math.sqrt(p1)

    m, d = sup.rows.shape
    m_pad = 1 << lay.width("i")
    d_pad = 1 << lay.width("j")
    grid = np.zeros((m_pad, d_pad))
    grid[:m, :d] = sup.rows - sup.mu_sum
    claimed_norm = np.linalg.norm(grid)
    if claimed_norm == 0.0:
        raise FlawLabError("claimed residual state is identically zero")
    claimed = (grid / claimed_norm).reshape(-1)

    overlap = abs(np.vdot(claimed, actual))
    discrepancy = math.sqrt(max(2.0 - 2.0 * overlap, 0.0))
    return {
        "postselect_probability": p1,
        "N_mu": sup.n_mu,
        "discrepancy": discrepancy,
        # [re, im] pairs; the simulator's amplitudes are real.
        "actual_amplitudes": [[float(z), 0.0] for z in actual],
        "claimed_amplitudes": [[float(z), 0.0] for z in claimed],
    }


def expectation_audit(
    chi: np.ndarray,
    chi0: np.ndarray | None = None,
    sigma2: np.ndarray | None = None,
    query_term: float | None = None,
) -> dict:
    """Actual vs claimed measurement expectations of the log-readout scheme.

    The actual expectation is sum (ln chi_j)^2, evaluated from the rotated
    toy state's good-subspace probability when the amplitudes are valid; the
    claim is 2 sum ln chi_j, and the quantity the detection formula needs is
    sum ln sigma_j^2.  All three are reported with their pairwise gaps.
    """
    chi = np.asarray(chi, dtype=float)
    report: dict = {"chi_interpretation": "euclidean norm of the per-feature residual vector"}
    if np.any(chi <= 0.0):
        report["domain_note"] = (
            "some chi_j <= 0 under the chosen interpretation; ln undefined "
            "(evidence of the encoding ambiguity)"
        )
        return report

    logs = np.log(chi)
    d = chi.size
    actual = float(np.sum(logs**2))
    if np.all(np.abs(logs) <= 1.0):
        # Evaluate from a concrete statevector, not just arithmetic.
        d_pad = pad_width(d)
        layout = RegisterLayout([("anc", 1), ("j", d_pad.bit_length() - 1)])
        amps = np.zeros((d_pad, 2))
        amps[:d, 0] = logs
        amps[:d, 1] = np.sqrt(1.0 - logs**2)
        amps[d:, 1] = 1.0
        sv = StateVector(layout, amps.reshape(-1) / math.sqrt(d_pad))
        good = float(marginal_probs(sv, "anc")[0])
        actual = float(good * d_pad)
    claimed = float(2.0 * np.sum(logs))
    report["m2"] = {
        "actual": actual,
        "claimed": claimed,
        "gap_claimed_minus_actual": claimed - actual,
        "amplitude_norm_defect": [float((1.0 - t) ** 2 - 1.0) for t in logs],
    }
    if sigma2 is not None:
        target = float(np.sum(np.log(np.asarray(sigma2, dtype=float))))
        report["m2"]["adde_target"] = target
        report["m2"]["gap_actual_minus_target"] = actual - target

    if chi0 is not None:
        chi0 = np.asarray(chi0, dtype=float)
        m1_actual = float(np.sum((chi0 / chi) ** 2))
        report["m1"] = {"actual": m1_actual}
        if query_term is not None:
            report["m1"]["adde_target"] = query_term
            report["m1"]["gap_actual_minus_target"] = m1_actual - query_term
    return report


def run_flaw_suite(data: DataMatrix, query: QueryPoint) -> FlawReport:
    """All three flaw exhibits on one dataset and a query of its width.

    The rows are normalized once (`build_superposition`), and so is the
    query. chi_j, the documented interpretation of the chi scalars, is the
    Euclidean norm of the per-feature residual vector over the training
    points; chi0_j is the norm of the query residual repeated over the
    point index.
    """
    if query.dim != data.n_cols:
        raise DataError("query/model dimension does not match the data matrix")
    report = FlawReport(encoding=[dict(site) for site in ROTATION_SITES])

    sup = build_superposition(data)
    report.normalization = interfere_and_postselect(sup)

    rows = sup.rows
    mu = rows.mean(axis=0)
    residual = rows - mu
    chi = np.linalg.norm(residual, axis=0)
    x0 = query.values
    n0 = np.linalg.norm(x0)
    if n0 == 0.0:
        raise FlawLabError("query point must be non-zero to normalize")
    x0 = x0 / n0
    chi0 = math.sqrt(rows.shape[0]) * np.abs(x0 - mu)
    sigma2 = np.mean(residual**2, axis=0)
    sigma2_safe = np.where(sigma2 > 0, sigma2, np.nan)
    query_term = float(np.nansum((x0 - mu) ** 2 / (2.0 * sigma2_safe)))
    report.expectation = expectation_audit(chi, chi0=chi0, sigma2=sigma2, query_term=query_term)
    return report
