import math

import numpy as np
import pytest

from qadsim.dataio import DataMatrix, QueryPoint
from qadsim.flawlab import (
    FlawLabError,
    appendix_trace,
    build_superposition,
    chi0_from_data,
    chi_from_data,
    encoding_classifier,
    expectation_audit,
    interfere_and_postselect,
    run_flaw_suite,
    RotationCallSite,
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
        records = encoding_classifier(appendix_trace())
        assert [r["site"] for r in records] == ["R1", "R2"]
        assert all(r["encoding"] == "analog" for r in records)
        assert not any(r["precondition_met"] for r in records)

    def test_digital_site_passes(self):
        records = encoding_classifier(
            [RotationCallSite(site="D", operand="fixed-point register", digital=True)]
        )
        assert records[0]["precondition_met"]

    def test_mixed_trace(self):
        trace = appendix_trace() + [
            RotationCallSite(site="D", operand="fixed-point register", digital=True)
        ]
        records = encoding_classifier(trace)
        flagged = [r["site"] for r in records if not r["precondition_met"]]
        assert flagged == ["R1", "R2"]


class TestSuite:
    def test_chi_helpers(self):
        data = DataMatrix(np.array([[1.0, 2.0], [3.0, -1.0]]))
        chi, n_mu, mu = chi_from_data(data)
        assert chi.shape == (2,)
        assert n_mu > 0
        chi0 = chi0_from_data(data, QueryPoint(np.array([2.0, 1.0])))
        assert chi0.shape == (2,)

    def test_full_suite_serializable(self):
        import json

        data = DataMatrix(np.array([[1.0, 2.0], [3.0, -1.0]]))
        report = run_flaw_suite(data, QueryPoint(np.array([2.0, 1.0])))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["normalization_mismatch"]["discrepancy"] > 0.01
        assert len(payload["encoding_mismatch"]) == 2
