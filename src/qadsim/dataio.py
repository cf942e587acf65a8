"""Training data and query point storage, the query ledger, the variance
floor and the normalizing constants.

A `DataMatrix` or `QueryPoint` keeps its input's values and nothing else:
the quantum stages zero-pad their own rows (`pad_width`, applied by
`pipelines.EstimatorRun.means`), and every classical statistic reads the
values as given.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .config import SIGMA_MIN, QadsimError


class DataError(QadsimError):
    """Malformed input data (ragged rows, non-numeric cells, empty file)."""


class DegenerateDataError(QadsimError):
    """A data-dependent constant vanished under the `error` policy."""


def _check_magnitudes(values: np.ndarray, what: str) -> None:
    """Refuse non-finite entries, and entries so large that a sum of n squared
    deviations, each at most (2 max|x|)^2, could overflow (DataError)."""
    if not np.all(np.isfinite(values)):
        raise DataError(f"{what} contains non-finite entries")
    if np.abs(values).max() > (limit := math.sqrt(np.finfo(float).max / (4 * values.size))):
        raise DataError(f"{what} entries must be at most {limit:.3g} in magnitude "
                        f"(for {values.size} entries), so that their squared sums stay finite")


def pad_width(n: int) -> int:
    """Smallest power of two >= n, and >= 2 so index registers are non-empty:
    the width a row of n values is zero-padded to, one label per index value."""
    return max(2, 1 << (n - 1).bit_length())


@dataclass
class QueryLedger:
    """Monotone counters standing in for the asymptotic query-cost model."""

    oracle_data: int = 0
    oracle_query: int = 0
    grover: int = 0
    arithmetic: int = 0

    def add(self, *, oracle_data=0, oracle_query=0, grover=0, arithmetic=0) -> None:
        if min(oracle_data, oracle_query, grover, arithmetic) < 0:
            raise ValueError("ledger counters are monotone; negative increments rejected")
        self.oracle_data += oracle_data
        self.oracle_query += oracle_query
        self.grover += grover
        self.arithmetic += arithmetic

    def snapshot(self) -> dict:
        return dict(vars(self))  # every field is a scalar


class DataMatrix:
    """M x d training matrix: a C-contiguous float64 copy of its input."""

    def __init__(self, values: np.ndarray):
        values = np.array(values, dtype=float, order="C")
        if values.ndim != 2 or values.size == 0:
            raise DataError(f"expected a non-empty 2-D matrix, got shape {values.shape}")
        _check_magnitudes(values, "data matrix")
        self.n_rows, self.n_cols = values.shape
        self.values = values


class QueryPoint:
    """The new point x0, a C-contiguous float64 copy of its input."""

    def __init__(self, values: np.ndarray):
        values = np.array(values, dtype=float, order="C").reshape(-1)
        if values.size == 0:
            raise DataError("query point is empty")
        _check_magnitudes(values, "query point")
        self.dim = values.size
        self.values = values


def _parse_csv(path: str, has_header: bool) -> list[list[float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            records = list(reader)
        except csv.Error as exc:  # e.g. a cell past the csv module's field size limit
            raise DataError(f"{path}: unreadable CSV at row {reader.line_num}: {exc}") from None
    rows: list[list[float]] = []
    for lineno, row in enumerate(records, start=1):
        if has_header and lineno == 1:
            continue
        if not row or all(cell.strip() == "" for cell in row):
            continue
        parsed = []
        for colno, cell in enumerate(row, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell {cell!r} at row {lineno}, column {colno}"
                ) from None
        rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: ragged rows (widths {sorted(widths)})")
    return rows


def load_csv(path: str, has_header: bool = False) -> DataMatrix:
    """Training matrix from CSV, one point per row."""
    return DataMatrix(np.array(_parse_csv(path, has_header)))


def load_query_csv(path: str, has_header: bool = False) -> QueryPoint:
    """Query point from CSV; the file must contain exactly one row."""
    rows = _parse_csv(path, has_header)
    if len(rows) != 1:
        raise DataError(f"{path}: query file must contain exactly one row, found {len(rows)}")
    return QueryPoint(np.array(rows[0]))


def mean_axis0(x: np.ndarray) -> np.ndarray:
    """`np.mean(x, axis=0)` bit for bit (the same sum and count), without its Python wrapper."""
    return np.add.reduce(x, axis=0) / len(x)


# ---------------------------------------------------------------------------
# data-dependent constants

POLICIES = ("error", "epsilon-floor")


def check_policy(policy: str) -> None:
    """Refuse (ValueError) a degenerate-data policy outside POLICIES."""
    if policy not in POLICIES:
        raise ValueError(f"unknown degenerate-data policy {policy!r}")


def floor_variance(sigma2: np.ndarray, policy: str, label: str) -> np.ndarray:
    """Variances with every entry below SIGMA_MIN handled by the policy.

    policy: "error" raises DegenerateDataError naming the features (the
    message starts with `label`); "epsilon-floor" substitutes SIGMA_MIN.
    Callers take sigma as the square root of the result, so the floored
    sigma and sigma^2 always agree.
    """
    check_policy(policy)
    low = sigma2 < SIGMA_MIN
    if not low.any():
        return sigma2
    if policy == "error":
        raise DegenerateDataError(
            f"{label} below floor for features {np.flatnonzero(low).tolist()}"
        )
    return np.where(low, SIGMA_MIN, sigma2)


@dataclass(frozen=True)
class Constants:
    """Normalizers used by the controlled rotations, from classical data.

    These depend on the fitted mean/variance; the quantum pipelines treat them
    as known, which mirrors the source algorithm's implicit assumption that
    its normalizing constants are available a priori.
    """

    C: float          # max |x_j^i|
    D: float          # max |x_j^i - mu_j|
    T: float          # power of two making all (x0_j - mu_j)/(sigma_j T) <= 1
    E: float          # max |ln sigma_j^2|
    C_prime: float    # max |x0_j - mu_j|
    C_dprime: float   # max |(x_j^i - mu_j)(x0_j - mu_j)|

    def as_dict(self) -> dict:
        return dict(vars(self))  # every field is a scalar


def compute_constants(data: DataMatrix, query: QueryPoint, fit, policy: str = "error") -> Constants:
    """Evaluate the defining max-identities on the data.

    `fit` is the data's Gaussian fit (`adde.GaussianModel`): its mean mu,
    its deviations x - mu (`centered`) and its variances, which the fit has
    already floored by the same policy.

    policy: "error" raises on a zero C or D, the normalizers ADDE's
    rotations and error budget divide by; it keeps a zero E, C' or C''
    (ADDE never reads C' or C'', and a zero E leaves q with no AE to run).
    "epsilon-floor" substitutes SIGMA_MIN for each instead.
    """
    x = data.values
    x0 = query.values
    mu, sigma2 = fit.mu, fit.sigma2
    if x0.size != x.shape[1] or mu.size != x.shape[1]:
        raise DataError("query/model dimension does not match the data matrix")
    check_policy(policy)

    def floored(value: float, label: str) -> float:
        if value > 0.0:
            return float(value)
        if policy == "epsilon-floor":
            return SIGMA_MIN
        if label in ("C", "D"):
            raise DegenerateDataError(f"constant {label} is zero")
        return 0.0

    # Each deviation once. |a| |b| is |a b| exactly: rounding is symmetric in sign.
    spread = np.abs(fit.centered)
    offset = np.abs(x0 - mu)
    C = floored(np.abs(x).max(), "C")
    D = floored(spread.max(), "D")
    T = power_of_two_at_least((offset / np.sqrt(sigma2)).max())
    E = floored(np.abs(np.log(sigma2)).max(), "E")
    C_prime = floored(offset.max(), "C'")
    C_dprime = floored((spread * offset).max(), "C''")
    return Constants(C=C, D=D, T=T, E=E, C_prime=C_prime, C_dprime=C_dprime)


def power_of_two_at_least(value: float) -> float:
    """Smallest power of two >= value, never below 1."""
    if value <= 1.0:
        return 1.0
    return float(2 ** math.ceil(math.log2(value)))
