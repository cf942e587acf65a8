import math

import numpy as np
import pytest

from qadsim.adde import (
    STAGES,
    budget_shares,
    classical_fit,
    classical_log_density,
    estimate_means,
    estimate_p,
    estimate_q,
    estimate_variances,
    flag_anomaly,
    log_density_estimate,
    run_adde,
)
from qadsim.dataio import (
    Constants,
    DataMatrix,
    DegenerateDataError,
    QueryPoint,
    compute_constants,
)
from qadsim.pipelines import EstimatorRun, PipelineConfig

from qadsim.verify import random_instance

LOG_2PI = math.log(2 * math.pi)


class TestClassicalFit:
    def test_hand_computed(self):
        model = classical_fit(DataMatrix(np.array([[1.0, 2.0], [3.0, 4.0]])))
        np.testing.assert_allclose(model.mu, [2.0, 3.0])
        np.testing.assert_allclose(model.sigma2, [1.0, 1.0])

    def test_population_divisor(self):
        # divisor M, not M-1
        model = classical_fit(DataMatrix(np.array([[0.0], [1.0], [2.0]])))
        assert model.sigma2[0] == pytest.approx(2.0 / 3.0)

    def test_identical_rows_policy_error(self):
        with pytest.raises(DegenerateDataError):
            classical_fit(DataMatrix(np.array([[1.0, 2.0], [1.0, 2.0]])))

    def test_single_row_policy_error(self):
        with pytest.raises(DegenerateDataError):
            classical_fit(DataMatrix(np.array([[1.0, 2.0]])))

    def test_epsilon_floor(self):
        model = classical_fit(
            DataMatrix(np.array([[1.0], [1.0]])), policy="epsilon-floor"
        )
        assert model.sigma2[0] == 1e-6


class TestClassicalLogDensity:
    def test_at_the_mean(self):
        model = classical_fit(DataMatrix(np.array([[1.0, 2.0], [3.0, 4.0]])))
        got = classical_log_density(model, QueryPoint(np.array([2.0, 3.0])))
        assert got == pytest.approx(-LOG_2PI, abs=1e-12)

    def test_one_sigma_shift_costs_half(self):
        model = classical_fit(DataMatrix(np.array([[1.0, 2.0], [3.0, 4.0]])))
        at_mu = classical_log_density(model, QueryPoint(np.array([2.0, 3.0])))
        shifted = classical_log_density(model, QueryPoint(np.array([3.0, 3.0])))
        assert at_mu - shifted == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        model = classical_fit(DataMatrix(np.array([[1.0, 2.0], [3.0, 4.0]])))
        with pytest.raises(ValueError):
            classical_log_density(model, QueryPoint(np.array([1.0])))


class TestFlag:
    def test_flagged(self):
        assert flag_anomaly(-5.0, math.exp(-3.0))

    def test_normal(self):
        assert not flag_anomaly(-2.0, math.exp(-3.0))

    def test_boundary_is_normal(self):
        assert not flag_anomaly(math.log(0.01), 0.01)

    def test_delta_positive(self):
        with pytest.raises(ValueError):
            flag_anomaly(-1.0, 0.0)


class TestAssembly:
    def test_identity_with_exact_p_q(self):
        # exact p and q reproduce the direct log density to machine precision
        for seed in range(20):
            data, query = random_instance(seed)
            x0 = query.real_values
            model = classical_fit(data)
            d = data.n_cols
            t_const, e_const = 4.0, max(np.max(np.abs(np.log(model.sigma2))), 1.0)
            p = float(np.mean(((x0 - model.mu) / (np.sqrt(model.sigma2) * t_const)) ** 2))
            q = float(np.mean(np.log(model.sigma2))) / e_const
            got = log_density_estimate(p, q, d, t_const, e_const)
            want = classical_log_density(model, query)
            assert got == pytest.approx(want, abs=1e-12)

    def test_zero_terms(self):
        assert log_density_estimate(0.0, 0.0, 2, 1.0, 1.0) == pytest.approx(-LOG_2PI)


def _budget(epsilon, d, c, min_sigma2):
    """The budget `run_adde` plans for these inputs."""
    runner = EstimatorRun(PipelineConfig(epsilon=epsilon))
    return runner.plan(STAGES, lambda eps: budget_shares(eps, d, c, min_sigma2))[1]


class TestBudget:
    def test_unit_constants_substitution(self):
        c = Constants(C=1.0, D=1.0, T=1.0, E=1.0, C_prime=1.0, C_dprime=1.0)
        b = _budget(0.48, 1, c, 1.0)
        assert b["eps_tail"] == pytest.approx(0.48 / 3)
        assert b["eps_var"] == pytest.approx(0.48 / 3)
        assert b["eps_mean"] == pytest.approx(0.48 / 48)

    def test_linearity(self):
        c = Constants(C=2.0, D=1.5, T=2.0, E=1.0, C_prime=1.0, C_dprime=1.0)
        b1 = _budget(0.4, 3, c, 0.5)
        b2 = _budget(0.2, 3, c, 0.5)
        assert b2["eps_mean"] == pytest.approx(b1["eps_mean"] / 2)
        assert b2["eps_var"] == pytest.approx(b1["eps_var"] / 2)
        assert b2["eps_tail"] == pytest.approx(b1["eps_tail"] / 2)

    def test_epsilon_range(self):
        with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\)"):
            PipelineConfig(epsilon=1.5)

    def test_planned_grover_matches_ledger(self):
        data, query = random_instance(5)
        cfg = PipelineConfig(epsilon=0.3, mode="ideal", policy="epsilon-floor")
        report = run_adde(data, query, cfg)
        assert report.ledger["grover"] == report.budget["planned_grover"]


class TestEstimators:
    def _setup(self, data, query, t=12):
        model = classical_fit(data, policy="epsilon-floor")
        constants = compute_constants(data, query, model, policy="epsilon-floor")
        runner = EstimatorRun(PipelineConfig(t_bits=t, mode="ideal", policy="epsilon-floor"))
        return data, query, model, constants, runner

    def test_constant_column_mean(self):
        x = np.array([[2.0, 0.5], [2.0, 1.5], [2.0, 2.5], [2.0, 3.5]])
        data, query, model, constants, runner = self._setup(
            DataMatrix(x), QueryPoint(np.array([1.0, 1.0]))
        )
        mu_hat = estimate_means(data, constants, runner, 12)
        assert mu_hat[0] == pytest.approx(2.0, abs=2 * constants.C * math.pi / 2**12 + 2**-16)

    def test_mean_grid_bound(self):
        for seed in range(10):
            data, query, model, constants, runner = self._setup(*random_instance(seed), t=10)
            mu_hat = estimate_means(data, constants, runner, 10)
            eps = math.pi / 2**10 + math.pi**2 / 2**20
            assert np.max(np.abs(mu_hat - model.mu)) <= 2 * constants.C * eps

    def test_variance_with_exact_means(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        data, query, model, constants, runner = self._setup(
            DataMatrix(x), QueryPoint(np.array([2.5, 3.5])), t=14
        )
        sigma2_hat, d_used = estimate_variances(data, model.mu, constants, runner, 14)
        assert d_used == constants.D
        np.testing.assert_allclose(sigma2_hat, [1.0, 1.0], atol=constants.D**2 * math.pi / 2**14 + 2**-15)

    def test_zero_variance_when_data_equals_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        data, query, model, constants, runner = self._setup(
            DataMatrix(x), QueryPoint(np.array([2.5, 3.5]))
        )
        mu_hat = x[0]  # treat the first row as the estimate: residual 0 for row 0
        sigma2_hat, _ = estimate_variances(data, model.mu * 0 + x.mean(0), constants, runner, 12)
        assert np.all(sigma2_hat >= 0.0)

    def test_p_at_the_mean_is_zero(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        data, query, model, constants, runner = self._setup(
            DataMatrix(x), QueryPoint(np.array([2.0, 3.0]))
        )
        part, t_used = estimate_p(
            QueryPoint(np.array([2.0, 3.0])), model.mu, model.sigma2, constants.T, "epsilon-floor", 12
        )
        ((p_hat,),) = runner.means(part)
        assert p_hat == 0.0
        assert t_used == constants.T

    def test_p_retry_recomputes_T(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        data, query, model, constants, runner = self._setup(
            DataMatrix(x), QueryPoint(np.array([2.0, 3.0]))
        )
        # a T too small for the query forces the retry path
        far_query = QueryPoint(np.array([8.0, 3.0]))
        part, t_used = estimate_p(far_query, model.mu, model.sigma2, 1.0, "epsilon-floor", 12)
        ((p_hat,),) = runner.means(part)
        assert t_used == 8.0  # smallest power of two >= |8-2|/1
        direct = float(np.mean(((far_query.real_values - model.mu) / (np.sqrt(model.sigma2) * t_used)) ** 2))
        assert p_hat == pytest.approx(direct, abs=math.pi / 2**11)

    def test_q_all_unit_variances(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        data, query, model, constants, runner = self._setup(
            DataMatrix(x), QueryPoint(np.array([2.5, 3.5]))
        )
        part, e_used = estimate_q(np.array([1.0, 1.0]), 0.0, "epsilon-floor", 12, 2)
        assert e_used == 0.0 and part.table.shape == (0, 2)
        assert runner.means(part) == [[]]  # no row, so q_hat is 0
        assert runner.ledger.grover == 0  # no AE ran

    def test_q_direct_formula(self):
        data, query, model, constants, runner = self._setup(*random_instance(3), t=12)
        part, e_used = estimate_q(model.sigma2, constants.E, "epsilon-floor", 12, query.padded_dim)
        ((q_hat,),) = runner.means(part)
        direct = float(np.mean(np.log(model.sigma2))) / e_used
        pad = query.padded_dim / model.sigma2.size
        assert q_hat == pytest.approx(direct, abs=pad * (math.pi / 2**12 + math.pi**2 / 2**24))


class TestEndToEnd:
    def test_report_bounds_hold_ideal(self):
        for seed in range(10):
            data, query = random_instance(seed)
            report = run_adde(
                data,
                query,
                PipelineConfig(t_bits=10, mode="ideal", policy="epsilon-floor"),
            )
            for key in ("mu", "sigma2", "p", "q"):
                assert report.observed_errors[key] <= report.bounds[key], (seed, key)

    def test_third_term_sign(self):
        data, query = random_instance(7)
        report = run_adde(
            data, query, PipelineConfig(t_bits=8, mode="ideal", policy="epsilon-floor")
        )
        d = data.n_cols
        ceiling = -0.5 * d * LOG_2PI - 0.5 * d * report.e_used * report.q_hat
        assert report.ln_p_hat <= ceiling + 1e-12

    def test_epsilon_driven_within_budget(self):
        data, query = random_instance(11)
        report = run_adde(
            data, query, PipelineConfig(epsilon=0.25, mode="ideal", policy="epsilon-floor")
        )
        assert report.observed_errors["lnP"] <= 0.25

    def test_report_serializable(self):
        import json

        data, query = random_instance(2)
        report = run_adde(
            data, query, PipelineConfig(t_bits=6, mode="ideal", policy="epsilon-floor")
        )
        payload = json.dumps(report.as_dict())
        assert "lnP_hat" in payload

    def test_circuit_mode_runs(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 3.0], [2.0, 1.0]])
        report = run_adde(
            DataMatrix(x),
            QueryPoint(np.array([1.5, 2.5])),
            PipelineConfig(t_bits=6, mode="circuit", seed=5, policy="epsilon-floor"),
        )
        assert math.isfinite(report.ln_p_hat)
