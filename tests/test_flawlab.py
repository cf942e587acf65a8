import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qadsim.dataio import DataMatrix, QueryPoint
from qadsim.flawlab import (
    ROTATION_SITES,
    FlawLabError,
    build_superposition,
    expectation_audit,
    interfere_and_postselect,
    run_flaw_suite,
)


class TestBuildSuperposition:
    def test_single_point_mean_branch_is_the_point(self):
        # with M=1 the mean branch is the (normalized) training point itself
        data = DataMatrix(np.array([[3.0, 4.0]]))
        sup = build_superposition(data)
        np.testing.assert_allclose(sup.rows[0], [0.6, 0.8])
        np.testing.assert_allclose(sup.mu_sum / sup.n_mu, [0.6, 0.8])
        assert sup.n_mu == pytest.approx(1.0)

    def test_two_orthogonal_rows_normalizer(self):
        data = DataMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        sup = build_superposition(data)
        assert sup.n_mu == pytest.approx(math.sqrt(2.0))

    def test_state_is_normalized(self):
        data = DataMatrix(np.array([[1.0, 2.0], [3.0, -1.0]]))
        sup = build_superposition(data)
        assert sup.state.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_zero_mean_sum_rejected(self):
        data = DataMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        with pytest.raises(FlawLabError):
            build_superposition(data)

    def test_oversize_rejected(self):
        with pytest.raises(FlawLabError):
            build_superposition(DataMatrix(np.ones((5, 2))))

    def test_zero_row_rejected(self):
        with pytest.raises(FlawLabError):
            build_superposition(DataMatrix(np.array([[0.0, 0.0], [1.0, 1.0]])))


class TestPostselection:
    def test_unit_normalizer_coincidence(self):
        # rows at 120 degrees sum to a unit vector: N_mu = 1, claims coincide
        data = DataMatrix(np.array([[1.0, 0.0], [-0.5, math.sqrt(3) / 2]]))
        sup = build_superposition(data)
        assert sup.n_mu == pytest.approx(1.0, abs=1e-12)
        rec = interfere_and_postselect(sup)
        assert rec["discrepancy"] == pytest.approx(0.0, abs=1e-10)

    def test_generic_dataset_discrepancy(self):
        data = DataMatrix(np.array([[1.0, 2.0], [3.0, -1.0]]))
        rec = interfere_and_postselect(build_superposition(data))
        assert rec["discrepancy"] > 0.01

    def test_global_phase_invariance(self):
        data = DataMatrix(np.array([[1.0, 2.0], [3.0, -1.0]]))
        sup = build_superposition(data)
        base = interfere_and_postselect(sup)["discrepancy"]
        # Amplitudes are real, so the one non-trivial global phase is -1.
        sup.state.amps = -sup.state.amps
        rotated = interfere_and_postselect(sup)["discrepancy"]
        assert rotated == pytest.approx(base, abs=1e-12)

    def test_discrepancy_vanishes_iff_unit_normalizer(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            data = DataMatrix(rng.uniform(0.2, 2.0, size=(2, 2)))
            sup = build_superposition(data)
            rec = interfere_and_postselect(sup)
            if abs(sup.n_mu - 1.0) > 1e-6:
                assert rec["discrepancy"] > 1e-8


class TestExpectationAudit:
    def test_chi_e_e_gap(self):
        audit = expectation_audit(np.array([math.e, math.e]))
        m2 = audit["m2"]
        assert m2["actual"] == pytest.approx(2.0, abs=1e-9)
        assert m2["claimed"] == pytest.approx(4.0, abs=1e-12)
        assert m2["gap_claimed_minus_actual"] == pytest.approx(2.0, abs=1e-9)

    def test_chi_all_ones_coincidence(self):
        audit = expectation_audit(np.array([1.0, 1.0, 1.0]))
        assert audit["m2"]["actual"] == pytest.approx(0.0, abs=1e-12)
        assert audit["m2"]["claimed"] == pytest.approx(0.0, abs=1e-12)

    def test_amplitude_norm_defect(self):
        # the written amplitude pair is norm-consistent only when ln chi = 1
        audit = expectation_audit(np.array([math.e]))
        assert audit["m2"]["amplitude_norm_defect"][0] == pytest.approx(-1.0)
        audit2 = expectation_audit(np.array([math.exp(0.5)]))
        assert audit2["m2"]["amplitude_norm_defect"][0] != pytest.approx(0.0)

    def test_domain_note_on_nonpositive_chi(self):
        audit = expectation_audit(np.array([0.0, 1.0]))
        assert "domain_note" in audit
        assert "m2" not in audit

    def test_m1_against_target(self):
        audit = expectation_audit(
            np.array([2.0, 2.0]),
            chi0=np.array([1.0, 1.0]),
            sigma2=np.array([0.5, 0.5]),
            query_term=0.7,
        )
        assert audit["m1"]["actual"] == pytest.approx(0.5)
        assert audit["m1"]["gap_actual_minus_target"] == pytest.approx(0.5 - 0.7)


class TestEncodingClassifier:
    def test_default_trace_all_analog(self):
        records = run_flaw_suite(
            DataMatrix(np.array([[1.0, 2.0], [3.0, -1.0]])), QueryPoint(np.array([2.0, 1.0]))
        ).encoding
        assert records == list(ROTATION_SITES)
        assert [r["site"] for r in records] == ["R1", "R2"]
        assert all(r["encoding"] == "analog" for r in records)
        assert not any(r["precondition_met"] for r in records)
        records[0]["site"] = "changed"  # a report holds copies of the table's records
        assert ROTATION_SITES[0]["site"] == "R1"


class TestSuite:
    def test_chi_and_chi0_per_feature(self):
        # rows (1, 2)/sqrt 5 and (3, -1)/sqrt 10; query (2, 1)/sqrt 5
        data = DataMatrix(np.array([[1.0, 2.0], [3.0, -1.0]]))
        rows = np.array([[1.0, 2.0] / np.sqrt(5.0), [3.0, -1.0] / np.sqrt(10.0)])
        mu = rows.mean(axis=0)
        chi = np.linalg.norm(rows - mu, axis=0)
        chi0 = np.sqrt(2.0) * np.abs(np.array([2.0, 1.0]) / np.sqrt(5.0) - mu)
        audit = run_flaw_suite(data, QueryPoint(np.array([2.0, 1.0]))).expectation
        assert audit["m2"]["claimed"] == pytest.approx(2.0 * np.log(chi).sum(), rel=1e-12)
        assert audit["m2"]["amplitude_norm_defect"] == pytest.approx((1.0 - np.log(chi)) ** 2 - 1.0, rel=1e-12)
        assert audit["m1"]["actual"] == pytest.approx(((chi0 / chi) ** 2).sum(), rel=1e-12)

    def test_full_suite_serializable(self):
        import json

        data = DataMatrix(np.array([[1.0, 2.0], [3.0, -1.0]]))
        report = run_flaw_suite(data, QueryPoint(np.array([2.0, 1.0])))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["normalization_mismatch"]["discrepancy"] > 0.01
        assert len(payload["encoding_mismatch"]) == 2


# The flaw exhibits as `run_flaw_suite` computed them through its chi and chi0
# helpers and its fixed call-site table; it must reproduce them exactly, or
# fail the same way.
ANALOG_OPERAND = "chi state: amplitude-weighted superposition of residuals over the point index"


def _reference_rows(data):
    if data.n_rows > 4 or data.n_cols > 4:
        raise FlawLabError("toy constructions are limited to 4x4 data")
    x = data.values
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise FlawLabError("training rows must be non-zero to normalize")
    return x / norms[:, None]


def reference_flaw_suite(data, query) -> dict:
    encoding = [
        {"site": site, "operand": ANALOG_OPERAND, "encoding": "analog", "precondition_met": False}
        for site in ("R1", "R2")
    ]
    normalization = interfere_and_postselect(build_superposition(data))

    rows = _reference_rows(data)
    mu = rows.mean(axis=0)
    chi = np.linalg.norm(rows - mu, axis=0)
    x0 = np.asarray(query.values, dtype=float)
    n0 = np.linalg.norm(x0)
    if n0 == 0.0:
        raise FlawLabError("query point must be non-zero to normalize")
    x0 = x0 / n0
    chi0 = math.sqrt(rows.shape[0]) * np.abs(x0 - mu)
    sigma2 = np.mean((rows - mu) ** 2, axis=0)
    sigma2_safe = np.where(sigma2 > 0, sigma2, np.nan)
    query_term = float(np.nansum((x0 - mu) ** 2 / (2.0 * sigma2_safe)))
    expectation = expectation_audit(chi, chi0=chi0, sigma2=sigma2, query_term=query_term)
    return {
        "encoding_mismatch": encoding,
        "normalization_mismatch": normalization,
        "expectation_mismatch": expectation,
    }


# Entries that make ties and zeros likely.
flaw_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-3]),
    st.floats(-10.0, -0.01),
    st.floats(0.01, 10.0),
)


@st.composite
def flaw_cases(draw):
    """An M x d toy matrix (M 1-4, d 1-4) and a query of width d. A row may
    be zero, a row may be another row scaled by a negative factor (so the
    normalized rows can sum to zero) or its mirror in the last feature (so
    the other features' chi vanish), and the query may be zero."""
    m, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x = np.array(draw(st.lists(flaw_entries, min_size=m * d, max_size=m * d))).reshape(m, d)
    special = draw(st.sampled_from(["none", "none", "zero row", "opposite rows", "mirror", "zero query"]))
    if special == "zero row":
        x[draw(st.integers(0, m - 1))] = 0.0
    if special == "opposite rows" and m > 1:
        x[1] = -draw(st.sampled_from([0.5, 1.0, 2.0])) * x[0]
    if special == "mirror" and m > 1:  # equal normalized columns but the last: chi_j = 0
        x[1] = x[0] * np.r_[np.ones(d - 1), -1.0]
    x0 = np.array(draw(st.lists(flaw_entries, min_size=d, max_size=d)))
    if special == "zero query":
        x0[:] = 0.0
    return x, x0


@settings(deadline=None, max_examples=400)
@given(flaw_cases())
def test_flaw_suite_equals_the_reference(case):
    data, query = DataMatrix(case[0]), QueryPoint(case[1])
    try:
        want = reference_flaw_suite(data, query)
    except Exception as exc:  # the same error, message and all
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            run_flaw_suite(data, query)
        return
    assert run_flaw_suite(data, query).as_dict() == want
