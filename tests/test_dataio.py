import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadsim.adde import GaussianModel, classical_fit
from qadsim.config import SIGMA_MIN
from qadsim.dataio import (
    Constants,
    DataError,
    DataMatrix,
    DegenerateDataError,
    QueryLedger,
    QueryPoint,
    compute_constants,
    load_csv,
    floor_variance,
    load_query_csv,
    power_of_two_at_least,
)


class TestDataMatrix:
    def test_padding_to_powers_of_two(self):
        data = DataMatrix(np.ones((3, 5)))
        assert (data.padded_rows, data.padded_cols) == (4, 8)
        assert (data.row_bits, data.col_bits) == (2, 3)

    def test_minimum_padding_is_two(self):
        data = DataMatrix(np.ones((1, 1)))
        assert (data.padded_rows, data.padded_cols) == (2, 2)

    def test_real_values_view(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        data = DataMatrix(x)
        np.testing.assert_array_equal(data.real_values, x)
        assert data.values[2:, :].sum() == 0.0 if data.padded_rows > 2 else True

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            DataMatrix(np.array([[1.0, np.inf]]))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            DataMatrix(np.empty((0, 2)))

    @pytest.mark.parametrize("build", [
        lambda v: DataMatrix(np.array([[1.0, 2.0], [v, 4.0], [0.0, 3.0]])),
        lambda v: QueryPoint(np.array([1.0, v, 3.0, 0.0, 2.0, 1.0])),
    ], ids=["data", "query"])
    def test_entries_whose_squared_sums_overflow_are_rejected(self, build):
        # Six entries: |x| <= sqrt(max double / 24) = 2.74e153 keeps 6 (2|x|)^2 finite.
        build(1e100)
        build(-2.7e153)
        for big in (1e160, -1e308):
            with pytest.raises(DataError, match=r"at most 2\.74e\+153 in magnitude \(for 6 entries\)"):
                build(big)


class TestCsv:
    def test_load_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,4\n")
        data = load_csv(str(p))
        np.testing.assert_array_equal(data.real_values, [[1, 2], [3, 4]])

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2\n1,2\n")
        data = load_csv(str(p), has_header=True)
        assert data.n_rows == 1

    def test_non_numeric_cell_named(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            load_csv(str(p))

    def test_overlong_cell_is_a_data_error_naming_the_row(self, tmp_path):
        # The csv module refuses a cell past its field size limit (131072 characters).
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3," + "4" * 131073 + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: unreadable CSV at row 2: field larger"):
            load_csv(str(p))

    def test_ragged_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(DataError, match="ragged"):
            load_csv(str(p))

    def test_query_must_be_single_row(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(DataError, match="exactly one row"):
            load_query_csv(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(str(p))


class TestLedger:
    def test_monotone(self):
        ledger = QueryLedger()
        with pytest.raises(ValueError):
            ledger.add(grover=-1)

    def test_snapshot_equals_asdict(self):
        ledger = QueryLedger()
        ledger.add(grover=7, oracle_query=2)
        snap = ledger.snapshot()
        assert list(snap.items()) == list(dataclasses.asdict(ledger).items())
        ledger.add(grover=1)
        assert snap["grover"] == 7  # a copy, not a view of the ledger

    def test_snapshot(self):
        ledger = QueryLedger()
        ledger.add(oracle_data=3, arithmetic=2)
        assert ledger.snapshot() == {
            "oracle_data": 3,
            "oracle_query": 0,
            "grover": 0,
            "arithmetic": 2,
        }


class TestConstants:
    def test_max_identities(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        data = DataMatrix(x)
        query = QueryPoint(np.array([2.5, 3.5]))
        # sigma^2 = 1 makes ln sigma^2 vanish; the floor policy floors E
        c = compute_constants(data, query, classical_fit(data), policy="epsilon-floor")
        assert c.C == 4.0
        assert c.D == 1.0
        assert c.C_prime == 0.5
        assert c.C_dprime == 0.5
        # max ratio |x0-mu|/sigma = 0.5, so T stays at its floor of 1
        assert c.T == 1.0
        assert c.E == 1e-6

    def test_as_dict_equals_asdict(self):
        c = Constants(C=4.0, D=1.0, T=2.0, E=1e-6, C_prime=0.5, C_dprime=0.25)
        assert list(c.as_dict().items()) == list(dataclasses.asdict(c).items())

    def test_T_power_of_two(self):
        data = DataMatrix(np.array([[0.0], [1.0]]))
        query = QueryPoint(np.array([3.0]))
        c = compute_constants(data, query, classical_fit(data))
        ratio = abs(3.0 - 0.5) / 0.5
        assert c.T == power_of_two_at_least(ratio) == 8.0

    def test_degenerate_error_policy(self):
        x = np.array([[1.0], [1.0]])
        data = DataMatrix(x)
        query = QueryPoint(np.array([2.0]))
        with pytest.raises(DegenerateDataError, match=r"^variance below floor for features \[0\]$"):
            classical_fit(data)  # the fit refuses the zero variance first
        # With the variance taken as 1, the constants refuse the zero D.
        fit = GaussianModel(mu=x.mean(axis=0), sigma2=np.ones(1), centered=np.zeros((2, 1)))
        with pytest.raises(DegenerateDataError, match="^constant D is zero$"):
            compute_constants(data, query, fit)

    def test_epsilon_floor_policy(self):
        x = np.array([[1.0], [1.0]])
        data = DataMatrix(x)
        query = QueryPoint(np.array([2.0]))
        fit = classical_fit(data, policy="epsilon-floor")
        c = compute_constants(data, query, fit, policy="epsilon-floor")
        assert c.C == 1.0
        assert c.D == 1e-6  # floored: all residuals vanish
        # E and T read the floored variance: ln SIGMA_MIN, and |2 - 1| / sqrt(SIGMA_MIN)
        assert c.E == abs(math.log(SIGMA_MIN))
        assert c.T == power_of_two_at_least(1.0 / math.sqrt(SIGMA_MIN)) == 1024.0

    def test_unknown_policy(self):
        data = DataMatrix(np.array([[1.0], [2.0]]))
        fit = classical_fit(data)
        with pytest.raises(ValueError, match="^unknown degenerate-data policy '\\?\\?'$"):
            compute_constants(data, QueryPoint(np.array([1.0])), fit, policy="??")

    def test_a_query_or_fit_of_another_width_is_refused(self):
        data = DataMatrix(np.array([[1.0, 2.0], [3.0, 5.0]]))
        wide = classical_fit(DataMatrix(np.array([[1.0, 2.0, 3.0], [4.0, 6.0, 9.0]])))
        for query, fit in ((QueryPoint(np.ones(3)), classical_fit(data)), (QueryPoint(np.ones(2)), wide)):
            with pytest.raises(DataError, match="^query/model dimension does not match the data matrix$"):
                compute_constants(data, query, fit)


def reference_constants(data, query, mu, sigma2, policy="error") -> Constants:
    """`compute_constants` as it was before it shared its deviations, the
    reference it must equal bit for bit: each max identity written out."""
    x = data.real_values
    x0 = query.real_values
    mu = np.asarray(mu, dtype=float)
    if x0.size != x.shape[1] or mu.size != x.shape[1]:
        raise DataError("query/model dimension does not match the data matrix")
    sigma2 = floor_variance(np.asarray(sigma2, dtype=float), policy, "variance")
    sigma = np.sqrt(sigma2)

    def floored(value: float, label: str) -> float:
        if value > 0.0:
            return float(value)
        if policy == "epsilon-floor":
            return SIGMA_MIN
        if label in ("C", "D"):
            raise DegenerateDataError(f"constant {label} is zero")
        return 0.0

    C = floored(np.max(np.abs(x)), "C")
    D = floored(np.max(np.abs(x - mu)), "D")
    ratio = np.max(np.abs(x0 - mu) / sigma)
    T = power_of_two_at_least(ratio)
    E = floored(np.max(np.abs(np.log(sigma2))), "E")
    C_prime = floored(np.max(np.abs(x0 - mu)), "C'")
    C_dprime = floored(np.max(np.abs((x - mu) * (x0 - mu))), "C''")
    return Constants(C=C, D=D, T=T, E=E, C_prime=C_prime, C_dprime=C_dprime)


# Entries that make ties, zeros, tiny and large deviations likely.
entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-4, -3e-4, 2.5]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def constants_cases(draw):
    """An M x d matrix (M 1-8, d 1-4), a query and a policy. A column may be
    constant (zero variance), and the query may sit on the mean."""
    m, d = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    x = np.array(draw(st.lists(entries, min_size=m * d, max_size=m * d))).reshape(m, d)
    for j in range(d):
        if draw(st.booleans()):
            x[:, j] = x[0, j]
    mu = x.mean(axis=0)
    x0 = mu.copy() if draw(st.booleans()) else np.array(draw(st.lists(entries, min_size=d, max_size=d)))
    return x, x0, draw(st.sampled_from(["error", "epsilon-floor"]))


@settings(deadline=None, max_examples=400)
@given(constants_cases())
def test_constants_equal_the_reference(case):
    # The reference floors the variances itself; the program's fit does,
    # and its constants read them off the fit.
    x, x0, policy = case
    data, query = DataMatrix(x), QueryPoint(x0)
    mu = x.mean(axis=0)

    def through_the_fit():
        return compute_constants(data, query, classical_fit(data, policy), policy)

    try:
        want = reference_constants(data, query, mu, np.mean((x - mu) ** 2, axis=0), policy)
    except Exception as exc:  # the same error, message and all
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            through_the_fit()
        return
    got = through_the_fit()
    for field in dataclasses.fields(Constants):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
        assert type(getattr(got, field.name)) is float, field.name


class TestFloorVariance:
    def test_floor_substitutes_sigma_min(self):
        sigma2 = np.array([0.5, 0.0, 1e-7])
        out = floor_variance(sigma2, "epsilon-floor", "variance")
        np.testing.assert_array_equal(out, [0.5, SIGMA_MIN, SIGMA_MIN])
        np.testing.assert_array_equal(sigma2, [0.5, 0.0, 1e-7])  # input untouched

    def test_error_policy_names_features(self):
        with pytest.raises(DegenerateDataError, match=r"^estimated variance below floor for features \[1\]"):
            floor_variance(np.array([0.5, 0.0]), "error", "estimated variance")

    def test_healthy_variances_pass_through(self):
        sigma2 = np.array([0.5, 2.0])
        assert floor_variance(sigma2, "error", "variance") is sigma2

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            floor_variance(np.array([0.5]), "??", "variance")


def test_power_of_two_at_least():
    assert power_of_two_at_least(0.3) == 1.0
    assert power_of_two_at_least(1.0) == 1.0
    assert power_of_two_at_least(1.1) == 2.0
    assert power_of_two_at_least(8.0) == 8.0
    assert power_of_two_at_least(9.0) == 16.0
