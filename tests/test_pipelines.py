import numpy as np
import pytest

from qadsim import adde, pipelines
from qadsim.adde import classical_fit, classical_log_density, fit_about, run_adde
from qadsim.adkpca import classical_moments, classical_proximity, run_adkpca
from qadsim.ae import (
    AEConfig,
    GroverOperator,
    StatePreparation,
    estimate_amplitude,
    grid_epsilon,
    _plane_masses,
    phase_distributions,
    row_amps,
)
from qadsim.arith import FixedPointFormat, RangeError
from qadsim.config import MAX_PHASE_BITS, QadsimError
from qadsim.dataio import (
    POLICIES,
    DataMatrix,
    QueryLedger,
    QueryPoint,
    compute_constants,
    floor_variance,
    pad_width,
)
from qadsim.simcore import (
    LayoutError,
    StateVector,
    new_state,
    operation_matrix,
)
from qadsim.verify import _monolithic_mean_prep, random_instance
from qadsim.pipelines import (
    EstimatorRun,
    Part,
    PipelineConfig,
    interference_prep,
    squared_mean_prep,
)


class TestReportReferences:
    """Each report's reference values equal, bit for bit, a recomputation from
    the report's own fields and the classical mean, written out here."""

    CASES = [(seed, policy, precision) for seed in range(20) for policy in ("error", "epsilon-floor")
             for precision in ({"t_bits": 8}, {"epsilon": 0.2})]

    @pytest.mark.parametrize("seed, policy, precision", CASES)
    def test_adde_p_and_q(self, seed, policy, precision):
        data, query = random_instance(seed)
        rep = run_adde(data, query, PipelineConfig(policy=policy, **precision)).as_dict()
        mu_hat, sigma2_hat = np.array(rep["mu_hat"]), np.array(rep["sigma2_hat"])
        floored = floor_variance(sigma2_hat, "epsilon-floor", "estimated variance")
        p = np.mean(((query.values - mu_hat) / (np.sqrt(floored) * rep["T_used"])) ** 2)
        q = float(np.mean(np.log(floored))) / rep["E_used"] if rep["E_used"] else 0.0
        assert rep["observed_errors"]["p"] == abs(rep["p_hat"] - float(p))
        assert rep["observed_errors"]["q"] == abs(rep["q_hat"] - q)

    @pytest.mark.parametrize("seed, policy, precision", CASES)
    def test_adkpca_distance_and_b(self, seed, policy, precision):
        data, query = random_instance(seed)
        rep = run_adkpca(data, query, PipelineConfig(policy=policy, **precision)).as_dict()
        x = data.values
        d, mu = x.shape[1], x.mean(axis=0)
        z = query.values - mu
        b = np.mean((((x - mu) @ z) / (d * rep["constants"]["C_dprime"])) ** 2)
        assert rep["observed_errors"]["distance_sq"] == abs(
            d * rep["C_prime_used"] ** 2 * rep["a_hat"] - float(z @ z))
        assert rep["observed_errors"]["b"] == abs(rep["b_hat"] - float(b))

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_constants_and_classical_values_equal_the_public_calls(self, seed, policy):
        # A run's constants and classical reference, bit for bit those of the
        # public calls on a fresh fit of the data, in both pipelines.
        data, query = random_instance(seed)
        rep = run_adde(data, query, PipelineConfig(t_bits=4, policy=policy))
        fit = classical_fit(data, policy)
        assert rep.constants == compute_constants(data, query, fit, policy).as_dict()
        assert rep.ln_p_classical == classical_log_density(fit, query)
        rep = run_adkpca(data, query, PipelineConfig(t_bits=4, policy=policy))
        model = classical_moments(data)
        fit = fit_about(model.mu, model.centered, "epsilon-floor")
        assert rep.constants == compute_constants(data, query, fit, "epsilon-floor").as_dict()
        assert rep.f_classical == classical_proximity(model, query)


class TestPipelineConfig:
    def test_exactly_one_of_t_or_epsilon(self):
        with pytest.raises(ValueError):
            PipelineConfig()
        with pytest.raises(ValueError):
            PipelineConfig(t_bits=6, epsilon=0.1)
        PipelineConfig(t_bits=6)
        PipelineConfig(epsilon=0.1)

    def test_circuit_requires_seed(self):
        with pytest.raises(ValueError):
            PipelineConfig(t_bits=6, mode="circuit")
        PipelineConfig(t_bits=6, mode="circuit", seed=1)

    def test_circuit_refuses_a_negative_seed(self):
        for make in (PipelineConfig, AEConfig):
            with pytest.raises(ValueError, match="non-negative seed, got -5"):
                make(t_bits=6, mode="circuit", seed=-5)
            make(t_bits=6, mode="circuit", seed=0)
        PipelineConfig(t_bits=6, seed=-5)  # ideal mode ignores the seed

    def test_an_unknown_policy_is_refused(self):
        # run_adkpca never reads the policy, so only the config can refuse it.
        with pytest.raises(ValueError, match="^unknown degenerate-data policy 'bogus'$"):
            PipelineConfig(t_bits=6, policy="bogus")
        for policy in POLICIES:
            assert PipelineConfig(t_bits=6, policy=policy).echo()["policy"] == policy

    def test_an_unknown_mode_is_refused_before_the_fit(self, monkeypatch):
        fitted = []
        monkeypatch.setattr(adde, "compute_constants", lambda *args, **kw: fitted.append(args))
        data, query = random_instance(0)
        with pytest.raises(ValueError, match="^unknown AE mode 'Circuit'$"):
            run_adde(data, query, PipelineConfig(t_bits=4, mode="Circuit"))
        assert fitted == []

    def test_echo(self):
        cfg = PipelineConfig(t_bits=6, seed=3, fp_format=FixedPointFormat(4, 10))
        echo = cfg.echo()
        assert echo["t_bits"] == 6
        assert echo["fp_int_bits"] == 4
        assert echo["fp_frac_bits"] == 10


class TestFixedPointRange:
    """Constants the format cannot hold are rejected before any simulation."""

    BIG = np.array([[50.0, -49.0], [-50.0, 48.0], [49.5, 50.0], [-48.0, -50.0]])

    @pytest.fixture
    def charged(self, monkeypatch):
        calls = []
        monkeypatch.setattr(QueryLedger, "charge", lambda self, *args: calls.append(args))
        monkeypatch.setattr(pipelines, "estimate_amplitude", lambda *a, **k: calls.append(a))
        return calls

    @pytest.mark.parametrize("mode", [{}, {"mode": "circuit", "seed": 3}])
    def test_wide_data_rejected_before_any_run(self, charged, mode):
        # D^2 = 2537.6 does not fit 8 integer bits.
        data, query = DataMatrix(self.BIG), QueryPoint(np.array([51.0, -50.0]))
        with pytest.raises(RangeError, match="value 2537.640625 overflows"):
            run_adde(data, query, PipelineConfig(t_bits=12, **mode))
        assert charged == []

    def test_far_query_rejected_before_any_run(self, charged):
        # max |x0 - mu| / sigma = 267.0 makes T = 512.
        data = DataMatrix(np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 3.0], [2.0, 1.0]]))
        with pytest.raises(RangeError, match="value 512.0 overflows"):
            run_adde(data, QueryPoint(np.array([300.0, 3.0])), PipelineConfig(t_bits=4))
        assert charged == []

    def test_kpca_checks_the_mean_bound(self, charged):
        data, query = DataMatrix(self.BIG * 6), QueryPoint(np.array([1.0, 2.0]))
        with pytest.raises(RangeError, match="value 300.0 overflows"):
            run_adkpca(data, query, PipelineConfig(t_bits=4))
        assert charged == []

    def test_circuit_plan_past_the_phase_cap_rejected_before_any_run(self, charged):
        data = DataMatrix(np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 3.0], [2.0, 1.0]]))
        cfg = PipelineConfig(epsilon=0.02, mode="circuit", seed=1)
        with pytest.raises(ValueError, match=(
            "^circuit mode supports at most 14 phase bits: "
            "the mean stage plans t = 18; use --mode ideal$"
        )):
            run_adde(data, QueryPoint(np.array([1.0, 3.0])), cfg)
        assert charged == []

    def test_kpca_omega_past_the_cap_rejected_before_the_mean_runs(self, charged):
        # The plan is t_mean = t_dist = 13, t_omega = t_bsum = 15.
        data = DataMatrix(np.array([[8.0], [-8.0], [7.0], [-7.0]]))
        cfg = PipelineConfig(epsilon=0.9, mode="circuit", seed=1)
        with pytest.raises(ValueError, match="the omega stage plans t = 15; use --mode ideal$"):
            run_adkpca(data, QueryPoint(np.array([6.0])), cfg)
        assert charged == []

    def test_wider_format_accepts(self):
        data, query = DataMatrix(self.BIG), QueryPoint(np.array([51.0, -50.0]))
        fmt = FixedPointFormat(int_bits=12, frac_bits=16)
        report = run_adde(data, query, PipelineConfig(t_bits=6, fp_format=fmt))
        assert report.ledger["grover"] > 0


class TestPreparations:
    def test_interference_good_probability(self):
        # good probability = 1/2 + mean(values)/2
        values = np.array([0.2, -0.6, 1.0, 0.0])
        prep = interference_prep("t", values, costs={})
        want = 0.5 + 0.5 * values.mean()
        assert prep.good_probability() == pytest.approx(want, abs=1e-12)

    def test_squared_mean_good_probability(self):
        values = np.array([0.5, -0.5, 1.0, 0.0])
        prep = squared_mean_prep("t", values, costs={})
        assert prep.good_probability() == pytest.approx(np.mean(values**2), abs=1e-12)

    def test_preparations_of_one_shape_share_layout(self):
        one = interference_prep("a", np.full((2, 4), 0.3), costs={})
        two = interference_prep("b", np.full((3, 4), -0.2), costs={})
        assert one.layout is two.layout

    @pytest.mark.parametrize("build, good", [(interference_prep, "s"), (squared_mean_prep, "anc")])
    def test_a_build_equals_the_checked_construction(self, build, good):
        # A build copies its shape's checked preparation; it must hold what
        # the dataclass's own construction, checks and all, would.
        costs = {"oracle_data": 2}
        prep = build("x", np.full((3, 4), 0.25), costs)
        want = StatePreparation(name="x", layout=prep.layout, ops=prep.ops, good_register=good,
                                oracle_costs=costs, rows=3)
        assert vars(prep) == vars(want)
        again = build("y", np.full(4, 0.5), {})
        assert (again.name, again.rows, again.oracle_costs, prep.name) == ("y", 1, {}, "x")

    def test_signed_overlap_recovered(self):
        values = np.array([-0.3, -0.3])
        prep = interference_prep("t", values, costs={})
        overlap = 2 * prep.good_probability() - 1
        assert overlap == pytest.approx(-0.3, abs=1e-12)


class TestEstimatorRun:
    def test_t_for_fixed(self):
        runner = EstimatorRun(PipelineConfig(t_bits=7))
        # The configured t wins and is charged its grid's worst-case error.
        plan = runner.plan(("a", "b"), lambda eps: (None, 0.001))
        assert plan == ([(7, grid_epsilon(7))] * 2, None)

    def test_t_for_epsilon(self):
        runner = EstimatorRun(PipelineConfig(epsilon=0.1))
        # The coarsest grid meeting the share, charged the share itself.
        plan, budget = runner.plan(("a",), lambda eps: (5 * eps,))
        assert plan == [(4, 0.5)]
        assert list(budget.items()) == [
            ("epsilon", 0.1), ("eps_a", 0.5), ("t_a", 4), ("mode_hint", None)
        ]
        assert grid_epsilon(4) <= 0.5 < grid_epsilon(3)

    @pytest.mark.parametrize("epsilon", [0.1, 0.2, 0.3])
    def test_budget_grids_are_the_ones_that_ran(self, epsilon):
        # Each AE a stage runs is charged 2^t - 1 Grover calls at its stage's t.
        cfg = PipelineConfig(epsilon=epsilon, policy="epsilon-floor")
        for seed in range(20):
            data, query = random_instance(seed)
            d, m = data.n_cols, data.n_rows
            for run, runs in (
                (run_adde, [("mean", d), ("var", d), ("tail", 1), ("tail", 1)]),
                (run_adkpca, [("mean", d), ("dist", 1), ("omega", m), ("bsum", 1)]),
            ):
                report = run(data, query, cfg)
                ts = [report.budget[f"t_{stage}"] for stage, _ in runs]
                grover = sum(rows * ((1 << t) - 1) for (_, rows), t in zip(runs, ts))
                assert report.ledger["grover"] == grover, (run.__name__, seed)
                assert (report.budget["mode_hint"] == "ideal") == (max(ts) > MAX_PHASE_BITS)

    def test_run_sequence_reproducible(self):
        prep = squared_mean_prep("t", np.array([0.4, 0.7]), costs={})
        seq = [
            EstimatorRun(PipelineConfig(t_bits=4, mode="circuit", seed=10)),
            EstimatorRun(PipelineConfig(t_bits=4, mode="circuit", seed=10)),
        ]
        outcomes = [[r.run(prep, r._next_config(4)).raw_outcome for _ in range(3)] for r in seq]
        assert outcomes[0] == outcomes[1]

    def test_ledger_accumulates(self):
        runner = EstimatorRun(PipelineConfig(t_bits=4))
        prep = squared_mean_prep("t", np.array([0.4, 0.7]), costs={"oracle_data": 1})
        runner.run(prep, runner._next_config(4))
        runner.run(prep, runner._next_config(4))
        assert runner.ledger.grover == 2 * 15
        assert runner.ledger.oracle_data == 2 * (2 * 15 + 1)

    def test_stored_quantizes_each_value(self):
        fmt = FixedPointFormat(int_bits=2, frac_bits=3)
        runner = EstimatorRun(PipelineConfig(t_bits=4, fp_format=fmt))
        stored, err = runner.stored([0.0625, 0.1875, -1.3, 2.0], 0.5)
        assert isinstance(stored, np.ndarray) and stored.tolist() == [0.0, 0.25, -1.25, 2.0]
        assert err == 0.5 + 2**-4  # the bound handed in, plus half of the 2^-3 ulp
        with pytest.raises(RangeError):
            runner.stored([0.5, 8.0])


class TestMeans:
    """`EstimatorRun.means` against the two preparations built directly."""

    # Two rows of n = 3 values, zero-padded to 4.
    TABLE = np.array([[0.2, -0.6, 1.0], [-0.3, 0.5, 0.1]])

    @staticmethod
    def _rows(padded):
        return [np.append(row, np.zeros(padded - row.size)) for row in TestMeans.TABLE]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9])
    def test_each_row_is_padded_to_its_pad_width(self, monkeypatch, n):
        # One label per index value: a row of n values runs on a register of
        # pad_width(n) labels, and its mean is rescaled by pad_width(n) / n.
        built = []
        real = pipelines.phase_outcomes

        def recorded(preps, config):
            built.extend(preps)
            return real(preps, config)

        monkeypatch.setattr(pipelines, "phase_outcomes", recorded)
        table = np.linspace(-0.9, 0.8, 2 * n).reshape(2, n)
        t = 12
        (got,) = EstimatorRun(PipelineConfig(t_bits=t)).means(Part("m", table, {}, t, signed=True))
        assert [prep.layout.width("idx") for prep in built] == [pad_width(n).bit_length() - 1]
        ratio = pad_width(n) / n
        np.testing.assert_allclose(got, table.mean(axis=1), rtol=0, atol=2.0 * grid_epsilon(t) * ratio)

    @pytest.mark.parametrize("signed", [True, False])
    def test_ideal_rows_rescaled(self, signed):
        t, padded, scale = 12, 4, 2.5
        build = interference_prep if signed else squared_mean_prep
        runner = EstimatorRun(PipelineConfig(t_bits=t))
        (got,) = runner.means(Part("m", self.TABLE, {}, t, signed=signed, scale=scale))
        ratio = padded / 3
        tol = scale * (2.0 if signed else 1.0) * grid_epsilon(t) * ratio
        for row, value in zip(self._rows(padded), got):
            a = build("ref", row, costs={}).good_probability()
            assert value == pytest.approx(scale * (2.0 * a - 1.0 if signed else a) * ratio, abs=tol)
        # The pad's zeros are taken out: the mean over the 3 real entries.
        real = self.TABLE.mean(axis=1) if signed else (self.TABLE**2).mean(axis=1)
        np.testing.assert_allclose(got, scale * real, atol=tol)
        assert runner.ledger.grover == 2 * (2**t - 1)

    def test_circuit_seeds_follow_row_order(self):
        # Two rows, and five, which a stack pads to eight.
        t, padded, seed = 3, 4, 6
        table5 = np.array(
            [[0.9, -0.2, 0.4], [-0.8, 0.3, -0.5], [0.1, 0.7, 0.6], [-0.6, -0.9, 0.2], [0.95, 0.95, 0.95]]
        )
        for table in (self.TABLE, table5):
            runner = EstimatorRun(PipelineConfig(t_bits=t, mode="circuit", seed=seed))
            (got,) = runner.means(Part("m", table, {}, t, signed=True))
            rows = [np.append(row, np.zeros(padded - row.size)) for row in table]

            def outcomes(seeds):
                preps = [interference_prep("ref", row, costs={}) for row in rows]
                amps = [
                    estimate_amplitude(prep, AEConfig(t_bits=t, mode="circuit", seed=s)).amplitude
                    for prep, s in zip(preps, seeds)
                ]
                return [(2.0 * a - 1.0) * (padded / 3) for a in amps]

            seeds = list(range(seed, seed + len(table)))
            assert got == outcomes(seeds)
            assert got != outcomes(seeds[::-1])  # the check tells the orders apart
            assert runner._run_index == len(table)

    @pytest.mark.parametrize("mode", ["ideal", "circuit"])
    @pytest.mark.parametrize("precision,kpca_waves", [
        pytest.param(dict(t_bits=6), [["mean"], ["a", "omega"], ["b"]], id="t-bits"),
        # Under epsilon, a's and omega's grids differ: one wave each.
        pytest.param(dict(epsilon=0.9), [["mean"], ["a"], ["omega"], ["b"]], id="epsilon"),
    ])
    def test_the_pipelines_read_their_tail_parts_as_one_wave(
        self, monkeypatch, mode, precision, kpca_waves
    ):
        waves = []
        real = pipelines.phase_outcomes

        def recorded(preps, config):
            waves.append([prep.name.split("[")[0] for prep in preps])
            return real(preps, config)

        monkeypatch.setattr(pipelines, "phase_outcomes", recorded)
        data, query = random_instance(1)
        config = PipelineConfig(mode=mode, seed=3, **precision)
        run_adde(data, query, config)
        assert waves == [["mean"], ["variance"], ["p", "q"]]  # p and q share t_tail
        waves.clear()
        run_adkpca(data, query, config)
        assert waves == kpca_waves


class TestStacked:
    """A stacked preparation of k rows against its rows built one by one."""

    @pytest.mark.parametrize("build", [interference_prep, squared_mean_prep])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_blocks_and_rows_equal_per_row_runs(self, build, k):
        # k = 3 and 5 are not powers of two: the stack has exactly k rows.
        t = 5
        table = np.random.default_rng(k).uniform(-0.95, 0.95, size=(k, 4))
        stacked = build("stack", table, costs={})
        assert stacked.rows == k
        singles = [build(f"row{i}", row, costs={}) for i, row in enumerate(table)]
        dim = singles[0].layout.dim
        blocks = GroverOperator(stacked).matrix().reshape(k, dim, dim)
        dists = phase_distributions(stacked, t)
        assert dists.shape == (k, 1 << t)
        goods = stacked.masses()[0]
        for block, dist, good, single in zip(blocks, dists, goods, singles):
            np.testing.assert_allclose(block, GroverOperator(single).matrix(), rtol=0, atol=1e-12)
            np.testing.assert_allclose(dist, phase_distributions(single, t)[0], rtol=0, atol=1e-12)
            assert good == pytest.approx(single.good_probability(), abs=1e-12)

    def test_qubit_cap_is_charged_per_row(self):
        # Five rows of a 5-qubit preparation share its 5-qubit layout, and each
        # row's phase estimation is charged 5 + t, as alone: 5 + 21 is the cap
        # of 26 (checked, not filled), and 5 + 22 is refused.
        stacked = interference_prep("cap", np.full((5, 8), 0.3), {})
        assert stacked.layout.n_qubits == 5
        assert phase_distributions(stacked, 3).shape == (5, 8)
        assert [side.shape for side in _plane_masses(stacked, 21)] == [(5,), (5,)]
        with pytest.raises(LayoutError, match=r"^layout needs 27 qubits, exceeding the cap of 26$"):
            phase_distributions(stacked, 22)

    def test_circuit_stage_keeps_the_per_row_cap(self):
        # Rows of 1024 values make 12-qubit preparations: at t = 14 each row's
        # phase estimation needs the cap's 26 qubits, as alone, and three
        # rows run as one stack. Rows of 2048 values need 27, which the stage
        # refuses before it fills any phase state.
        runner = EstimatorRun(PipelineConfig(t_bits=14, mode="circuit", seed=0))
        (got,) = runner.means(Part("m", np.full((3, 1024), 0.3), {}, 14, signed=True))
        assert len(got) == runner._run_index == 3
        with pytest.raises(LayoutError, match=r"^layout needs 27 qubits, exceeding the cap of 26$"):
            runner.means(Part("m", np.full((3, 2048), 0.3), {}, 14, signed=True))
        assert runner._run_index == 3

    @pytest.mark.parametrize("mode", ["ideal", "circuit"])
    def test_stack_limit_splits_a_stage_without_changing_outcomes(self, monkeypatch, mode):
        table = np.random.default_rng(3).uniform(-0.9, 0.9, size=(7, 3))
        stacks = []
        real = pipelines.phase_outcomes

        def counted(preps, config):
            stacks.append(sum(prep.rows for prep in preps))
            return real(preps, config)

        monkeypatch.setattr(pipelines, "phase_outcomes", counted)
        got = []
        # Rows of 4 * pad_width(3) = 16 labels at t = 6: all 7 in one stack,
        # then 2 a stack.
        row = row_amps(16, 6, mode)
        for limit, sizes in ((pipelines.MAX_STACK_AMPS, [7]), (2 * row, [2, 2, 2, 1])):
            monkeypatch.setattr(pipelines, "MAX_STACK_AMPS", limit)
            runner = EstimatorRun(PipelineConfig(t_bits=6, mode=mode, seed=11))
            got.append(runner.means(Part("m", table, {"oracle_data": 1}, 6, signed=True)))
            assert stacks == sizes
            stacks.clear()
            assert runner.ledger.grover == 7 * 63
            assert runner.ledger.oracle_data == 7 * (2 * 63 + 1)
        assert got[0] == got[1]


def _replayed(prep):
    """A|0> of every row and A's (rows, dim, dim) blocks, op by op from
    |0> and from the identity's columns."""
    state = new_state(prep.layout, prep.rows)
    columns = StateVector(prep.layout, np.tile(np.eye(prep.layout.dim), (prep.rows, 1, 1)))
    for op in prep.ops:
        op.apply(state)
        op.apply(columns)
    return state.amps, np.swapaxes(columns.amps, -1, -2)


def _circuit_t10_preparations() -> dict:
    """One preparation per (builder, rows, padded) shape that circuit mode at
    t = 10 builds for `run_adde` and `run_adkpca` on every M x d instance,
    M in 2..8 and d in 1..4. The shapes depend on M and d only."""
    preps = {}
    builders = {"interference": interference_prep, "squared_mean": squared_mean_prep}
    with pytest.MonkeyPatch.context() as patch:
        for name, build in builders.items():
            def spy(label, values, costs, name=name, build=build):
                prep = build(label, values, costs)
                preps.setdefault((name, prep.rows, np.shape(values)[-1]), prep)
                return prep

            patch.setattr(pipelines, name + "_prep", spy)
        rng = np.random.default_rng(18)
        for m in range(2, 9):
            for d in range(1, 5):
                x = rng.uniform(-2.0, 2.0, size=(m, d))
                x[:2] = [[-1.5] * d, [1.5] * d]  # every feature spread out
                data, query = DataMatrix(x), QueryPoint(x.mean(axis=0) + 0.7)
                for run in (run_adde, run_adkpca):
                    config = PipelineConfig(t_bits=10, mode="circuit", seed=m * d, policy="epsilon-floor")
                    try:
                        run(data, query, config)
                    except QadsimError:
                        pass  # the stages before the raise still ran
    return preps


class TestWalshStartedReplays:
    """`prepare` starts from the cached Hadamard prefix (`walsh_start`); it
    and `operation_matrix` must equal the op-by-op replay bit for bit."""

    def test_every_circuit_t10_shape(self):
        preps = _circuit_t10_preparations()
        assert len(preps) == 32  # every shape of the circuit-t10 benchmark workload
        assert {padded for _, _, padded in preps} == {2, 4, 8}
        for prep in preps.values():
            state, blocks = _replayed(prep)
            np.testing.assert_array_equal(prep.prepare().amps, state)
            np.testing.assert_array_equal(operation_matrix(prep.ops, prep.layout, prep.rows), blocks)

    def test_the_monolithic_mean_preparation(self):
        data = DataMatrix(np.array([[0.3, -0.7], [0.9, 0.1]]))
        mono = _monolithic_mean_prep(data, 1.0)
        state, blocks = _replayed(mono)
        np.testing.assert_array_equal(mono.prepare().amps, state)
        np.testing.assert_array_equal(operation_matrix(mono.ops, mono.layout), blocks[0])
        np.testing.assert_array_equal(operation_matrix(mono.ops, mono.layout, 1), blocks)

