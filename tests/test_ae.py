import dataclasses
import math
import re

import numpy as np
import pytest

from qadsim import ae, simcore
from qadsim.ae import (
    MAX_GRID_BITS,
    PHASE_REGISTER,
    AEConfig,
    GroverOperator,
    StatePreparation,
    bits_for_epsilon,
    estimate_amplitude,
    grid_epsilon,
    _mass_rows,
    _plane_masses,
    phase_distributions,
    qpe_state,
)
from qadsim.adde import run_adde
from qadsim.adkpca import run_adkpca
from qadsim.dataio import DataMatrix, QueryLedger
from qadsim.pipelines import EstimatorRun, PipelineConfig, interference_prep, squared_mean_prep
from qadsim.simcore import (
    HadamardBlock,
    LayoutError,
    Operation,
    RegisterLayout,
    SimulationError,
    StateVector,
    ValueKeyedRotation,
    _readout,
    _sample,
    draw,
    marginal_probs,
    operation_matrix,
    readout_rows,
)
from qadsim.verify import _monolithic_mean_prep, random_instance


def const_prep(a: float) -> StatePreparation:
    """Preparation whose good probability is exactly a."""
    v = math.sqrt(a)
    return StatePreparation(
        name=f"const[{a}]",
        layout=RegisterLayout([("k", 1), ("anc", 1)]),
        ops=(ValueKeyedRotation(["k"], "anc", np.array([v, v])),),
        good_register="anc",
        good_predicate=lambda label: label == 0,
    )


class TestStatePreparation:
    def test_good_probability(self):
        assert const_prep(0.3).good_probability() == pytest.approx(0.3, abs=1e-14)

    def test_unknown_good_register_rejected(self):
        with pytest.raises(SimulationError):
            StatePreparation(
                name="bad",
                layout=RegisterLayout([("a", 1)]),
                ops=(),
                good_register="zz",
                good_predicate=lambda label: True,
            )

    @pytest.mark.parametrize("register, good_labels", [
        ("anc", {0}),     # one good label of a one-qubit register: its two columns, read directly
        ("anc", {1}),
        ("anc", {0, 1}),  # every label good, and a two-qubit register: summed label by label
        ("idx", {1, 2}),
    ])
    def test_masses_equal_the_label_by_label_sums(self, register, good_labels):
        table = np.random.default_rng(5).uniform(-0.9, 0.9, size=(3, 4))
        prep = dataclasses.replace(squared_mean_prep("m", table, {}), good_register=register,
                                   good_predicate=lambda label: label in good_labels)
        probs = marginal_probs(prep.prepare(), register)
        want = {True: np.zeros(3), False: np.zeros(3)}
        for label in range(probs.shape[1]):
            want[label in good_labels] += probs[:, label]
        good, bad = prep.masses()
        np.testing.assert_array_equal(good, want[True])
        np.testing.assert_array_equal(bad, want[False])


class TestGroverOperator:
    def test_unitary(self):
        q = GroverOperator(const_prep(0.3)).matrix()
        assert q.dtype == np.float64
        np.testing.assert_allclose(q @ q.T, np.eye(4), atol=1e-12)

    def test_eigenphase_matches_amplitude(self):
        # Q rotates by 2*theta in the relevant 2-dimensional subspace
        a = 0.3
        theta = math.asin(math.sqrt(a))
        q = GroverOperator(const_prep(a)).matrix()
        phases = np.sort(np.mod(np.angle(np.linalg.eigvals(q)), 2 * np.pi))
        assert np.min(np.abs(phases - 2 * theta)) < 1e-10

    def test_amplitude_amplification(self):
        prep = const_prep(0.1)
        theta = math.asin(math.sqrt(0.1))
        state = prep.prepare()
        state.amps = state.amps @ GroverOperator(prep).matrix().T
        # one application boosts the good amplitude to sin(3 theta)
        got = marginal_probs(state, "anc")[0, 0]
        assert got == pytest.approx(math.sin(3 * theta) ** 2, abs=1e-12)


class TestAEConfig:
    def test_circuit_requires_seed(self):
        with pytest.raises(ValueError):
            AEConfig(t_bits=4, mode="circuit")

    def test_circuit_phase_cap(self):
        with pytest.raises(ValueError):
            AEConfig(t_bits=15, mode="circuit", seed=0)
        AEConfig(t_bits=15, mode="ideal")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            AEConfig(t_bits=4, mode="exact")


class TestIdealMode:
    def test_amplitude_on_grid(self):
        res = estimate_amplitude(const_prep(0.3), AEConfig(t_bits=6, mode="ideal"))
        n = 64
        theta = math.asin(math.sqrt(0.3))
        y = round(theta * n / math.pi)
        assert res.theta == pytest.approx(math.pi * y / n)
        assert abs(res.amplitude - 0.3) <= grid_epsilon(6)

    def test_exact_grid_points(self):
        # a = 1/2 sits exactly on every grid with t >= 2
        res = estimate_amplitude(const_prep(0.5), AEConfig(t_bits=5, mode="ideal"))
        assert res.amplitude == 0.5
        res0 = estimate_amplitude(const_prep(0.0), AEConfig(t_bits=5, mode="ideal"))
        assert res0.amplitude == 0.0
        res1 = estimate_amplitude(const_prep(1.0), AEConfig(t_bits=5, mode="ideal"))
        assert res1.amplitude == 1.0

    def test_deterministic(self):
        r1 = estimate_amplitude(const_prep(0.37), AEConfig(t_bits=7, mode="ideal"))
        r2 = estimate_amplitude(const_prep(0.37), AEConfig(t_bits=7, mode="ideal"))
        assert r1.amplitude == r2.amplitude

    def test_ledger_grover_count(self):
        ledger = QueryLedger()
        estimate_amplitude(const_prep(0.3), AEConfig(t_bits=6, mode="ideal"), ledger=ledger)
        assert ledger.grover == 63

    def test_oracle_costs_scale_with_applications(self):
        prep = StatePreparation(
            name="costed",
            layout=const_prep(0.3).layout,
            ops=const_prep(0.3).ops,
            good_register="anc",
            good_predicate=lambda label: label == 0,
            oracle_costs={"oracle_data": 2},
        )
        ledger = QueryLedger()
        estimate_amplitude(prep, AEConfig(t_bits=4, mode="ideal"), ledger=ledger)
        grover = 15
        assert ledger.oracle_data == 2 * (2 * grover + 1)


class TestCircuitMode:
    def test_phase_distribution_peaks_at_angle(self):
        a = 0.3
        t = 6
        probs = phase_distributions(const_prep(a), t)[0]
        theta = math.asin(math.sqrt(a))
        y_star = round(theta * (1 << t) / math.pi)
        top2 = set(np.argsort(probs)[-2:])
        assert top2 == {y_star, (1 << t) - y_star}

    def test_success_probability_exceeds_8_over_pi_sq(self):
        a = 0.3
        t = 6
        probs = phase_distributions(const_prep(a), t)[0]
        theta = math.asin(math.sqrt(a))
        n = 1 << t
        bound = 2 * math.pi * math.sqrt(a * (1 - a)) / n + math.pi**2 / n**2
        hit = sum(
            p
            for y, p in enumerate(probs)
            if abs(math.sin(math.pi * min(y, n - y) / n) ** 2 - a) <= bound
        )
        assert hit >= 8 / math.pi**2

    def test_seeded_reproducibility(self):
        cfg = AEConfig(t_bits=5, mode="circuit", seed=11)
        r1 = estimate_amplitude(const_prep(0.3), cfg)
        r2 = estimate_amplitude(const_prep(0.3), cfg)
        assert r1.raw_outcome == r2.raw_outcome
        assert r1.amplitude == r2.amplitude

    def test_folding_symmetry(self):
        # outcomes y and 2^t - y give the same estimate
        cfg = AEConfig(t_bits=5, mode="circuit", seed=3)
        res = estimate_amplitude(const_prep(0.3), cfg)
        n = 32
        y = res.raw_outcome
        assert res.theta == math.pi * min(y, n - y) / n

    def test_query_counts_match_ideal(self):
        li, lc = QueryLedger(), QueryLedger()
        estimate_amplitude(const_prep(0.3), AEConfig(t_bits=5, mode="ideal"), ledger=li)
        estimate_amplitude(const_prep(0.3), AEConfig(t_bits=5, mode="circuit", seed=0), ledger=lc)
        assert li.snapshot() == lc.snapshot()


class TestPrecisionPlanning:
    def test_bits_for_epsilon_known_values(self):
        # smallest t with pi/2^t + pi^2/4^t <= eps, computed by hand
        assert bits_for_epsilon(0.5) == 4
        assert bits_for_epsilon(0.01) == 9

    def test_boundary_single_bit(self):
        eps = math.pi / 2 + math.pi**2 / 4 + 1e-12
        assert bits_for_epsilon(eps) == 1

    def test_mode_hint_for_deep_registers(self):
        runner = EstimatorRun(PipelineConfig(epsilon=0.5))
        [(t, _)], budget = runner.plan(("deep",), lambda eps: (1e-6,))
        assert t > 14
        assert budget["mode_hint"] == "ideal"
        assert runner.plan(("shallow",), lambda eps: (0.1,))[1]["mode_hint"] is None

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            bits_for_epsilon(0.0)

    @pytest.mark.parametrize("eps", [float("nan"), -1e-3, float("-inf")])
    def test_nan_and_negative_targets_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon target must be positive"):
            bits_for_epsilon(eps)

    def test_closed_form_start_equals_the_stepping_loop(self):
        def stepped(eps):
            t = 1
            while grid_epsilon(t) > eps:
                t += 1
            return t

        def outcome(plan, eps):
            try:
                return plan(eps)
            except ValueError as exc:  # finer than the widest grid: both refuse alike
                return str(exc)

        targets = [*np.logspace(-150, math.log10(0.99), 2000), 0.99, 1.0, 7.0, float("inf")]
        for t in range(1, MAX_GRID_BITS + 1):
            g = grid_epsilon(t)
            targets += [g, np.nextafter(g, 0.0), np.nextafter(g, np.inf)]
        for eps in map(float, targets):
            assert outcome(bits_for_epsilon, eps) == outcome(stepped, eps), eps

    def test_finer_than_the_widest_grid_rejected(self):
        finest = grid_epsilon(MAX_GRID_BITS)
        assert bits_for_epsilon(finest) == MAX_GRID_BITS
        for eps in (np.nextafter(finest, 0.0), 1e-200, 1e-310, 5e-324):
            with pytest.raises(ValueError, match=f"got {MAX_GRID_BITS + 1}$"):
                bits_for_epsilon(float(eps))

    def test_grid_epsilon_consistency(self):
        for t in range(1, 12):
            assert bits_for_epsilon(grid_epsilon(t)) <= t


# ---------------------------------------------------------------------------
# independent references: dense linear algebra and the closed form of BHMT


def reference_preps() -> list[tuple[StatePreparation, float]]:
    """Preparations on 4 to 32 amplitudes with their good probability, worked
    out from the rotation values rather than by the simulator."""
    rng = np.random.default_rng(17)
    out = [(const_prep(0.3), 0.3)]
    for size in (2, 4, 8, 16):
        v = rng.uniform(-0.9, 0.9, size)
        out.append((squared_mean_prep(f"sq{size}", v, {}), float(np.mean(v * v))))
    for size in (2, 4, 8):
        v = rng.uniform(-0.9, 0.9, size)
        out.append((interference_prep(f"int{size}", v, {}), 0.5 + 0.5 * float(np.mean(v))))
    # a = 0 and a = 1: A|0> has no good or no bad part.
    out.append((squared_mean_prep("zero16", np.zeros(16), {}), 0.0))
    out.append((squared_mean_prep("one16", np.resize([1.0, -1.0], 16), {}), 1.0))
    return out


def prep_matrix(prep: StatePreparation) -> np.ndarray:
    """A as a dense matrix, one replay of the ops per basis column."""
    dim = prep.layout.dim
    cols = []
    for c in range(dim):
        state = StateVector(prep.layout, np.eye(dim)[c])
        for op in prep.ops:
            op.apply(state)
        cols.append(state.amps)
    return np.stack(cols, axis=1)


def extract(layout: RegisterLayout, labels: np.ndarray, name: str) -> np.ndarray:
    """A register's field of each basis label, by bit arithmetic."""
    return (labels >> layout.offset(name)) & ((1 << layout.width(name)) - 1)


def reference_grover(prep: StatePreparation) -> np.ndarray:
    """-A diag(S0) Adag diag(Schi)."""
    lay = prep.layout
    labels = np.arange(lay.dim)
    good = [prep.good_predicate(int(v)) for v in extract(lay, labels, prep.good_register)]
    at_zero = np.all([extract(lay, labels, r) == 0 for r in prep.reflection_registers], axis=0)
    a = prep_matrix(prep)
    return -a @ np.diag(np.where(at_zero, -1.0, 1.0)) @ a.conj().T @ np.diag(
        np.where(good, -1.0, 1.0)
    )


def reference_rows(prep: StatePreparation, t: int) -> np.ndarray:
    """Row y = Q^y A|0> / sqrt(N): the state before the inverse QFT."""
    n = 1 << t
    q = reference_grover(prep)
    psi = prep_matrix(prep)[:, 0]
    return np.stack([np.linalg.matrix_power(q, y) @ psi for y in range(n)]) / math.sqrt(n)


def reference_phase_distribution(prep: StatePreparation, t: int) -> np.ndarray:
    """Marginal of the phase label after the inverse DFT, as a complex matrix."""
    n = 1 << t
    y = np.arange(n)
    dft = np.exp(-2j * np.pi * (np.outer(y, y) % n) / n) / math.sqrt(n)
    return (np.abs(dft @ reference_rows(prep, t)) ** 2).sum(axis=1)


def bhmt_distribution(a: float, t: int) -> np.ndarray:
    """P(y) = 1/2 [F(y, theta/pi) + F(y, -theta/pi)] with
    F(y, w) = sin^2(N pi d) / (N^2 sin^2(pi d)), d = w - y/N
    (Brassard, Hoyer, Mosca, Tapp, quant-ph/0005055)."""
    n = 1 << t
    w0 = math.asin(math.sqrt(a)) / math.pi

    def f(w: float) -> np.ndarray:
        # d in turns: y/N and N d are exact, so d is as accurate as w.
        d = w - np.arange(n) / n
        den = n * n * np.sin(np.pi * d) ** 2
        return np.divide(np.sin(np.pi * (n * d)) ** 2, den, out=np.ones(n), where=den > 0)

    return 0.5 * (f(w0) + f(-w0))


class _Merge(Operation):
    """|0> and |1> of one qubit both go to |0>: every basis column keeps unit
    norm, but the map is not unitary."""

    def __init__(self, register: str):
        self.register = register

    def apply(self, state: StateVector) -> StateVector:
        lay = state.layout
        lo = 1 << lay.offset(self.register)
        a = state.amps.reshape(-1, 2, lo)
        out = np.zeros_like(a)
        out[:, 0, :] = a[:, 0, :] + a[:, 1, :]
        state.amps = out.reshape(state.amps.shape)
        return state


class TestIndependentReferences:
    def test_grover_matrix_equals_dense_product(self):
        # The monolithic preparation's S0 leaves out its passive register j.
        mono = _monolithic_mean_prep(DataMatrix(np.array([[0.3, -0.7], [0.9, 0.1]])), 1.0)
        assert "j" not in mono.reflection_registers
        for prep in [p for p, _ in reference_preps()] + [mono]:
            np.testing.assert_allclose(
                GroverOperator(prep).matrix(), reference_grover(prep), rtol=0, atol=1e-12
            )

    def test_grover_matrix_checks_its_columns(self):
        # Every column of A keeps unit norm, so the per-op checks pass, but A
        # is not unitary; Q's own column check must catch it. The stage path
        # replays A on |0> only and cannot see it: only this reference does.
        prep = StatePreparation(
            name="merge",
            layout=RegisterLayout([("a", 1), ("b", 1)]),
            ops=(HadamardBlock("b"), _Merge("a")),
            good_register="b",
            good_predicate=lambda label: label == 0,
        )
        operation_matrix(prep.ops, prep.layout)
        with pytest.raises(SimulationError, match="norm drifted"):
            GroverOperator(prep).matrix()

    def test_qpe_state_equals_naive_powers_and_dft(self):
        for prep, _ in reference_preps():
            for t in (1, 2, 5, 8):
                state = qpe_state(prep, t)
                assert state.amps.dtype == np.float64
                np.testing.assert_allclose(
                    state.amps, reference_rows(prep, t).reshape(-1), rtol=0, atol=1e-12
                )
                np.testing.assert_allclose(
                    phase_distributions(prep, t)[0],
                    reference_phase_distribution(prep, t),
                    rtol=0,
                    atol=1e-12,
                )

    def test_phase_distribution_equals_bhmt_closed_form(self):
        for prep, a in reference_preps():
            assert prep.good_probability() == pytest.approx(a, abs=1e-12)
            for t in (1, 3, 6, 9, 11, 12):
                np.testing.assert_allclose(
                    phase_distributions(prep, t)[0], bhmt_distribution(a, t), rtol=0, atol=1e-12
                )

    def test_qpe_charges_the_cap_on_the_preparation(self, monkeypatch):
        monkeypatch.setenv("QADSIM_QUBIT_CAP", "8")
        prep = interference_prep("cap", np.linspace(-0.7, 0.7, 8), {})
        assert prep.layout.n_qubits == 5
        assert qpe_state(prep, 3).layout.n_qubits == 8
        with pytest.raises(SimulationError):
            qpe_state(prep, 4)


class TestSubspacePath:
    """`phase_distributions` runs in each row's plane span{u_g, u_b}, from the
    row's good and bad masses (`_plane_masses`, `_mass_rows`); the dense
    `qpe_state` is its reference."""

    @pytest.mark.parametrize("build", [interference_prep, squared_mean_prep])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_rows_equal_the_dense_readout(self, build, k):
        # Four entries: at 16 the dense path itself is 1.05e-12 off the BHMT
        # closed form at t = 11 on an a = 0 or 1 row, so those rows are held
        # to the closed form in `reference_preps` instead.
        table = np.random.default_rng(k).uniform(-0.95, 0.95, size=(k, 4))
        if build is squared_mean_prep:
            # Row 0 has a = 0 (all zeros), row 1 a = 1 (all +-1).
            table[:2] = [np.zeros(4), [1.0, -1.0, -1.0, 1.0]][: min(k, 2)]
        prep = build("stack", table, costs={})
        if build is squared_mean_prep and k > 1:
            anc = marginal_probs(prep.prepare(), "anc")
            assert anc[0, 0] == 0.0 and anc[1, 1] == 0.0  # no good part, no bad part
        for t in range(1, 12):
            state = qpe_state(prep, t)
            # One state for one row, else a stack of one state per row.
            assert state.amps.shape == ((k,) if k > 1 else ()) + (prep.layout.dim << t,)
            dense = readout_rows(state.amps.reshape(k, 1 << t, -1), PHASE_REGISTER)
            np.testing.assert_allclose(phase_distributions(prep, t), dense, rtol=0, atol=1e-12)

    def test_rows_with_one_basis_vector_stack_as_they_run_alone(self):
        # Row 1 has a = 0 and row 3 a = 1, so each has w = +-1, and the other
        # rows a w off the axes. Those two rows match bit for bit; the stacked
        # fill's multiply may round an ordinary row's line in its last bit.
        table = np.random.default_rng(5).uniform(-0.9, 0.9, size=(4, 4))
        table[1], table[3] = 0.0, [1.0, -1.0, 1.0, 1.0]
        stacked = squared_mean_prep("mixed", table, costs={})
        for t in (1, 4, 10):
            lines, probs = _mass_rows(*_plane_masses(stacked, t), t), phase_distributions(stacked, t)
            for r, row in enumerate(table):
                alone = squared_mean_prep(f"row{r}", row, costs={})
                want = _mass_rows(*_plane_masses(alone, t), t)[0], phase_distributions(alone, t)[0]
                for got, expected in zip((lines[r], probs[r]), want):
                    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)
                    if r in (1, 3):
                        np.testing.assert_array_equal(got, expected)

    def test_phase_register_refusals_keep_the_layout_messages(self, monkeypatch):
        prep = interference_prep("cap", np.full(4, 0.3), {})  # 4 qubits
        monkeypatch.setenv("QADSIM_QUBIT_CAP", "7")
        phase_distributions(prep, 3)
        with pytest.raises(LayoutError, match=r"^layout needs 8 qubits, exceeding the cap of 7$"):
            phase_distributions(prep, 4)
        monkeypatch.delenv("QADSIM_QUBIT_CAP")
        clash = StatePreparation(
            name="clash", layout=RegisterLayout([("k", 1), (PHASE_REGISTER, 1)]),
            ops=(ValueKeyedRotation(["k"], PHASE_REGISTER, np.array([0.6, 0.6])),),
            good_register=PHASE_REGISTER, good_predicate=lambda label: label == 0,
        )
        names = ["k", PHASE_REGISTER, PHASE_REGISTER]
        with pytest.raises(LayoutError, match=rf"^duplicate register names in {re.escape(str(names))}$"):
            phase_distributions(clash, 2)
        with pytest.raises(LayoutError, match="width 0"):
            _plane_masses(prep, 0)

    def test_a_larger_invariant_space_is_refused(self):
        # S0 leaves out the passive j, so Q's invariant space of A|0> is 4-D:
        # the stage refuses any preparation whose S0 misses a register.
        mono = _monolithic_mean_prep(DataMatrix(np.array([[0.3, -0.7], [0.9, 0.1]])), 1.0)
        qpe_state(mono, 3)  # the dense path runs it
        with pytest.raises(SimulationError, match="leaves span"):
            phase_distributions(mono, 3)

    @pytest.mark.parametrize("poisoned_rows", [[1], [0, 1]])
    def test_a_nan_row_is_refused(self, monkeypatch, poisoned_rows):
        # A poisoned row's A|0> is all NaN, and so are its masses, its w and
        # its lines: the readout's sum check must refuse it.
        replay = StatePreparation.prepare

        def poisoned(self):
            state = replay(self)
            state.amps[poisoned_rows] = np.nan
            return state

        monkeypatch.setattr(StatePreparation, "prepare", poisoned)
        prep = interference_prep("nan", np.array([[0.3, -0.5], [0.2, 0.9]]), {})
        with pytest.raises(SimulationError, match="drifted"):
            phase_distributions(prep, 3)
        with pytest.raises(SimulationError, match="drifted"):
            ae.phase_outcomes([prep], AEConfig(3, "circuit", 0))

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_the_stage_draws_are_draw_on_the_readout(self, k):
        # The stage samples with the row sums its readout checked; `draw` sums
        # and guards them again. Both give the same outcome for every seed.
        prep = interference_prep("draws", np.random.default_rng(k).uniform(-0.95, 0.95, (k, 8)), {})
        for t in (1, 4, 10):
            lines = _mass_rows(*_plane_masses(prep, t), t)
            probs, total = _readout(lines, PHASE_REGISTER)
            np.testing.assert_array_equal(probs, readout_rows(lines, PHASE_REGISTER))
            for seed in range(1000):
                seeds = range(seed, seed + k)
                assert _sample(probs, total, seeds) == draw(probs, seeds)
            for seed in (0, 7, 999):
                want = draw(probs, range(seed, seed + k))
                assert ae.phase_outcomes([prep], AEConfig(t, "circuit", seed)) == want

    @pytest.mark.parametrize("run", [run_adde, run_adkpca])
    def test_a_circuit_run_builds_no_dense_reference(self, monkeypatch, run):
        # Each stage reads its rows' masses from one replay of A on |0>: no
        # replay on every basis column and no dense Q.
        def refused(*args, **kwargs):
            raise AssertionError("the dense reference ran")

        for owner in (ae, simcore):
            monkeypatch.setattr(owner, "operation_matrix", refused)
        monkeypatch.setattr(GroverOperator, "matrix", refused)
        data, query = random_instance(1)
        report = run(data, query, PipelineConfig(t_bits=6, mode="circuit", seed=3))
        assert report.ledger["grover"] > 0
