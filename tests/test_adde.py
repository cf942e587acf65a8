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
    pad_width,
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
            x0 = query.values
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
        mu_hat, _ = runner.stored(*runner.means(estimate_means(data, constants, 12)))
        assert mu_hat[0] == pytest.approx(2.0, abs=2 * constants.C * math.pi / 2**12 + 2**-16)

    def test_mean_grid_bound(self):
        for seed in range(10):
            data, query, model, constants, runner = self._setup(*random_instance(seed), t=10)
            mu_hat, _ = runner.stored(*runner.means(estimate_means(data, constants, 10)))
            eps = math.pi / 2**10 + math.pi**2 / 2**20
            assert np.max(np.abs(mu_hat - model.mu)) <= 2 * constants.C * eps

    def test_variance_with_exact_means(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        data, query, model, constants, runner = self._setup(
            DataMatrix(x), QueryPoint(np.array([2.5, 3.5])), t=14
        )
        part = estimate_variances(data, model.mu, constants, 14)
        assert part.scale == constants.D**2  # d_used is D
        sigma2_hat, _ = runner.stored(*runner.means(part))
        np.testing.assert_allclose(sigma2_hat, [1.0, 1.0], atol=constants.D**2 * math.pi / 2**14 + 2**-15)

    def test_zero_variance_when_data_equals_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        data, query, model, constants, runner = self._setup(
            DataMatrix(x), QueryPoint(np.array([2.5, 3.5]))
        )
        part = estimate_variances(data, model.mu * 0 + x.mean(0), constants, 12)
        sigma2_hat, _ = runner.stored(*runner.means(part))
        assert np.all(sigma2_hat >= 0.0)

    def test_p_at_the_mean_is_zero(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        data, query, model, constants, runner = self._setup(
            DataMatrix(x), QueryPoint(np.array([2.0, 3.0]))
        )
        part, t_used = estimate_p(
            QueryPoint(np.array([2.0, 3.0])), model.mu, model.sigma2, constants.T, 12
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
        part, t_used = estimate_p(far_query, model.mu, model.sigma2, 1.0, 12)
        ((p_hat,),) = runner.means(part)
        assert t_used == 8.0  # smallest power of two >= |8-2|/1
        direct = float(np.mean(((far_query.values - model.mu) / (np.sqrt(model.sigma2) * t_used)) ** 2))
        assert p_hat == pytest.approx(direct, abs=math.pi / 2**11)

    def test_q_all_unit_variances(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        data, query, model, constants, runner = self._setup(
            DataMatrix(x), QueryPoint(np.array([2.5, 3.5]))
        )
        part, e_used = estimate_q(np.array([1.0, 1.0]), 0.0, 12)
        assert e_used == 0.0 and part.table.shape == (0, 2)
        assert runner.means(part) == [[]]  # no row, so q_hat is 0
        assert runner.ledger.grover == 0  # no AE ran
        assert part.bound(0.5) == 0.0  # and q's stated bound is 0

    def test_q_direct_formula(self):
        data, query, model, constants, runner = self._setup(*random_instance(3), t=12)
        part, e_used = estimate_q(model.sigma2, constants.E, 12)
        ((q_hat,),) = runner.means(part)
        direct = float(np.mean(np.log(model.sigma2))) / e_used
        pad = pad_width(model.sigma2.size) / model.sigma2.size
        assert q_hat == pytest.approx(direct, abs=pad * (math.pi / 2**12 + math.pi**2 / 2**24))


# Feature 0 has sigma^2 exactly SIGMA_MIN, so the fit passes the floor under
# either policy, but at t = 10 the estimated variance quantizes to 0.
FLOOR_DATA = [[0.0, 1.0], [0.002, -1.0], [0.0, 0.5], [0.002, -0.5]]
FLOOR_QUERY = [0.001, 0.2]

# The epsilon-floor report of that instance: p, q and the q reference all
# read the estimated variances floored.
FLOOR_REPORT = {
    "config": {"t_bits": 10, "epsilon": None, "mode": "ideal", "seed": None,
               "fp_int_bits": 8, "fp_frac_bits": 16, "policy": "epsilon-floor"},
    "constants": {"C": 1.0, "D": 1.0, "T": 1.0, "E": 13.815510557964274, "C_prime": 0.2,
                  "C_dprime": 0.2},
    "budget": None,
    "mu_hat": [0.0, 0.0],
    "sigma2_hat": [0.0, 0.6244659423828125],
    "p_hat": 0.5306603681511043,
    "q_hat": -0.5193559901655895,
    "lnP_hat": 4.806630730914242,
    "lnP_classical": 5.272880027195659,
    "bounds": {"mu": 0.006162377322534633, "sigma2": 0.0031229782527982305,
               "p": 0.0030773739640016914, "q": 0.006154747928003383},
    "observed_errors": {"mu": 0.001, "sigma2": 0.0005340576171875, "p": 0.001366998983898804,
                        "q": 0.002315053287279545, "lnP": 0.46624929628141665},
    "flag": False,
    "delta": 0.01,
    "ledger": {"oracle_data": 16376, "oracle_query": 4094, "grover": 6138, "arithmetic": 20470},
    "T_used": 1.0,
    "E_used": 13.815510557964274,
}


class TestEstimatedVarianceFloor:
    def _run(self, policy):
        data, query = DataMatrix(np.array(FLOOR_DATA)), QueryPoint(np.array(FLOOR_QUERY))
        return run_adde(data, query, PipelineConfig(t_bits=10, policy=policy))

    def test_fit_passes_the_floor(self):
        model = classical_fit(DataMatrix(np.array(FLOOR_DATA)))
        assert model.sigma2[0] == 1e-6

    def test_error_policy_refuses_the_estimate(self):
        with pytest.raises(DegenerateDataError) as exc:
            self._run("error")
        assert str(exc.value) == "estimated variance below floor for features [0]"

    def test_epsilon_floor_report_is_pinned(self):
        assert self._run("epsilon-floor").as_dict() == FLOOR_REPORT


class TestEndToEnd:
    def test_report_bounds_hold_ideal(self):
        for seed in range(10):
            data, query = random_instance(seed)
            report = run_adde(
                data,
                query,
                PipelineConfig(t_bits=10, mode="ideal", policy="epsilon-floor"),
            )
            assert report.bounds  # every bound the report states, none skipped
            for key, bound in report.bounds.items():
                assert report.observed_errors[key] <= bound, (seed, key)

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
