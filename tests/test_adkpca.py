import numpy as np
import pytest

from qadsim.adkpca import (
    STAGES,
    InsufficientDataError,
    budget_shares,
    classical_moments,
    classical_proximity,
    proximity_estimate,
    run_adkpca,
)
from qadsim.dataio import Constants, DataMatrix, QueryPoint
from qadsim.pipelines import EstimatorRun, PipelineConfig

from qadsim.verify import random_instance


class TestClassicalMoments:
    def test_hand_computed(self):
        model = classical_moments(DataMatrix(np.array([[1.0], [3.0]])))
        assert model.mu[0] == 2.0
        assert model.covariance[0, 0] == 2.0  # divisor M-1

    def test_identical_rows(self):
        model = classical_moments(DataMatrix(np.array([[1.0, 2.0], [1.0, 2.0]])))
        np.testing.assert_allclose(model.covariance, 0.0)

    def test_symmetric_psd(self):
        for seed in range(10):
            data, _ = random_instance(seed)
            cov = classical_moments(data).covariance
            np.testing.assert_allclose(cov, cov.T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(cov)) >= -1e-10

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            classical_moments(DataMatrix(np.array([[1.0, 2.0]])))


class TestClassicalProximity:
    def test_at_the_mean(self):
        model = classical_moments(DataMatrix(np.array([[1.0, 0.0], [0.0, 1.0]])))
        assert classical_proximity(model, QueryPoint(model.mu)) == 0.0

    def test_hand_computed(self):
        model = classical_moments(DataMatrix(np.array([[1.0], [3.0]])))
        assert classical_proximity(model, QueryPoint(np.array([4.0]))) == -4.0

    def test_translation_invariant(self):
        data, query = random_instance(4)
        x, x0 = data.real_values, query.real_values
        f1 = classical_proximity(classical_moments(data), query)
        shift = 0.7
        f2 = classical_proximity(
            classical_moments(DataMatrix(x + shift)), QueryPoint(x0 + shift)
        )
        assert f1 == pytest.approx(f2, abs=1e-9)


class TestBridgeIdentity:
    def test_covariance_quadratic_form_as_mean_of_squares(self):
        for seed in range(20):
            data, query = random_instance(seed)
            x, x0 = data.real_values, query.real_values
            model = classical_moments(data)
            z = x0 - model.mu
            lhs = z @ model.covariance @ z
            rhs = np.sum(((x - model.mu) @ z) ** 2) / (x.shape[0] - 1)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestProximityEstimate:
    def test_zero_inputs(self):
        assert proximity_estimate(0.0, 0.0, 3, 4, 1.0, 1.0) == 0.0

    def test_exact_degeneration(self):
        # exact amplitudes reproduce the classical proximity measure
        for seed in range(20):
            data, query = random_instance(seed)
            x, x0 = data.real_values, query.real_values
            m, d = x.shape
            model = classical_moments(data)
            z = x0 - model.mu
            cp = np.max(np.abs(z)) if np.max(np.abs(z)) > 0 else 1.0
            cdp = np.max(np.abs((x - model.mu) * z))
            if cdp == 0.0:
                continue
            a = float(np.mean((z / cp) ** 2))
            omegas = (x - model.mu) @ z / (d * cdp)
            b = float(np.mean(omegas**2))
            got = proximity_estimate(a, b, d, m, cp, cdp)
            want = classical_proximity(model, query)
            assert got == pytest.approx(want, abs=1e-10)

    def test_hand_computed_instance(self):
        # X=[[1],[3]], x0=[4]: z=2, a=1 with C'=2, omega=+-1 with C''=2, b=1
        got = proximity_estimate(1.0, 1.0, 1, 2, 2.0, 2.0)
        assert got == -4.0


def _budget(epsilon, d, c):
    """The budget `run_adkpca` plans for these inputs."""
    runner = EstimatorRun(PipelineConfig(epsilon=epsilon))
    return runner.plan(STAGES, lambda eps: budget_shares(eps, d, c))[1]


class TestBudget:
    def test_substitution(self):
        c = Constants(C=1.0, D=1.0, T=1.0, E=1.0, C_prime=1.0, C_dprime=1.0)
        b = _budget(0.48, 1, c)
        assert b["eps_mean"] == pytest.approx(0.48 / 48)
        assert b["eps_omega"] == pytest.approx(0.48 / 3)
        assert b["eps_bsum"] == pytest.approx(0.48 / 3)

    def test_linearity(self):
        c = Constants(C=2.0, D=1.0, T=1.0, E=1.0, C_prime=1.5, C_dprime=2.5)
        b1 = _budget(0.4, 2, c)
        b2 = _budget(0.2, 2, c)
        for k in ("eps_mean", "eps_dist", "eps_omega", "eps_bsum"):
            assert b2[k] == pytest.approx(b1[k] / 2)

    def test_epsilon_range(self):
        with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\)"):
            PipelineConfig(epsilon=0.0)


class TestEndToEnd:
    def test_bounds_hold_ideal(self):
        for seed in range(10):
            data, query = random_instance(seed)
            report = run_adkpca(
                data,
                query,
                PipelineConfig(t_bits=10, mode="ideal", policy="epsilon-floor"),
            )
            for key in ("distance_sq", "b"):
                assert report.observed_errors[key] <= report.bounds[key], (seed, key)

    def test_range_invariants(self):
        data, query = random_instance(8)
        report = run_adkpca(
            data, query, PipelineConfig(t_bits=8, mode="ideal", policy="epsilon-floor")
        )
        assert 0.0 <= report.a_hat
        assert 0.0 <= report.b_hat <= 1.0 + 1e-12
        assert np.max(np.abs(report.omegas_hat)) <= 1.0

    def test_f_hat_tracks_classical(self):
        data, query = random_instance(12)
        report = run_adkpca(
            data, query, PipelineConfig(t_bits=12, mode="ideal", policy="epsilon-floor")
        )
        assert report.f_hat == pytest.approx(report.f_classical, abs=0.1)

    def test_single_point_rejected(self):
        with pytest.raises(InsufficientDataError):
            run_adkpca(
                DataMatrix(np.array([[1.0, 2.0]])),
                QueryPoint(np.array([1.0, 2.0])),
                PipelineConfig(t_bits=6, mode="ideal", policy="epsilon-floor"),
            )

    def test_report_serializable(self):
        import json

        data, query = random_instance(6)
        report = run_adkpca(
            data, query, PipelineConfig(t_bits=6, mode="ideal", policy="epsilon-floor")
        )
        payload = json.dumps(report.as_dict())
        assert "f_hat" in payload
