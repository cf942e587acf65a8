import math

import numpy as np
import pytest

from qadsim.ae import (
    AEConfig,
    AEResult,
    GroverOperator,
    StatePreparation,
    bits_for_epsilon,
    estimate_amplitude,
    grid_epsilon,
    overlap_from_result,
    phase_distribution,
    qpe_state,
)
from qadsim.dataio import DataMatrix, QueryLedger
from qadsim.pipelines import interference_prep, squared_mean_prep
from qadsim.simcore import (
    HadamardBlock,
    Operation,
    RegisterLayout,
    SimulationError,
    StateVector,
    ValueKeyedRotation,
    operation_matrix,
)
from qadsim.verify import _monolithic_mean_prep


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

    def test_apply_dagger_inverts(self):
        prep = interference_prep("t", np.array([0.42, -0.7, 0.1, 0.9]), costs={})
        state = prep.prepare()
        for op in reversed(prep.ops):
            op.dagger().apply(state)
        assert abs(state.amps[0]) == pytest.approx(1.0, abs=1e-12)


class TestGroverOperator:
    def test_unitary(self):
        q = GroverOperator(const_prep(0.3)).matrix()
        np.testing.assert_allclose(q @ q.conj().T, np.eye(4), atol=1e-12)

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
        grover = GroverOperator(prep)
        state = prep.prepare()
        grover.apply(state)
        # one application boosts the good amplitude to sin(3 theta)
        from qadsim.simcore import probability_of

        got = probability_of(state, "anc", lambda label: label == 0)
        assert got == pytest.approx(math.sin(3 * theta) ** 2, abs=1e-12)

    def test_ledger_counts_applications(self):
        prep = const_prep(0.2)
        grover = GroverOperator(prep)
        ledger = QueryLedger()
        state = prep.prepare()
        grover.apply(state, ledger)
        grover.apply(state, ledger)
        assert ledger.grover == 2


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
        probs = phase_distribution(const_prep(a), t)
        theta = math.asin(math.sqrt(a))
        y_star = round(theta * (1 << t) / math.pi)
        top2 = set(np.argsort(probs)[-2:])
        assert top2 == {y_star, (1 << t) - y_star}

    def test_success_probability_exceeds_8_over_pi_sq(self):
        a = 0.3
        t = 6
        probs = phase_distribution(const_prep(a), t)
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
        assert bits_for_epsilon(0.5)[0] == 4
        assert bits_for_epsilon(0.01)[0] == 9

    def test_boundary_single_bit(self):
        eps = math.pi / 2 + math.pi**2 / 4 + 1e-12
        assert bits_for_epsilon(eps)[0] == 1

    def test_mode_hint_for_deep_registers(self):
        t, hint = bits_for_epsilon(1e-6)
        assert t > 14
        assert hint == "ideal"
        assert bits_for_epsilon(0.1)[1] is None

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            bits_for_epsilon(0.0)

    def test_grid_epsilon_consistency(self):
        for t in range(1, 12):
            assert bits_for_epsilon(grid_epsilon(t))[0] <= t


def test_overlap_from_result():
    res = AEResult(theta=0.0, amplitude=0.75, t_bits=4, mode="ideal", grover_count=15)
    assert overlap_from_result(res, 2.0) == pytest.approx(1.0)


def test_error_bound_formula():
    res = AEResult(theta=0.0, amplitude=0.5, t_bits=4, mode="ideal", grover_count=15)
    want = 2 * math.pi * 0.5 / 16 + math.pi**2 / 256
    assert res.error_bound == pytest.approx(want)


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
    return out


def prep_matrix(prep: StatePreparation) -> np.ndarray:
    """A as a dense matrix, one replay of the ops per basis column."""
    dim = prep.layout.dim
    cols = [prep.apply(StateVector(prep.layout, np.eye(dim, dtype=complex)[c])).amps
            for c in range(dim)]
    return np.stack(cols, axis=1)


def reference_grover(prep: StatePreparation) -> np.ndarray:
    """-A diag(S0) Adag diag(Schi)."""
    lay = prep.layout
    labels = np.arange(lay.dim)
    good = [prep.good_predicate(int(v)) for v in lay.extract(labels, prep.good_register)]
    at_zero = np.all([lay.extract(labels, r) == 0 for r in prep.reflection_registers], axis=0)
    a = prep_matrix(prep)
    return -a @ np.diag(np.where(at_zero, -1.0, 1.0)) @ a.conj().T @ np.diag(
        np.where(good, -1.0, 1.0)
    )


def reference_qpe(prep: StatePreparation, t: int) -> np.ndarray:
    """Row y = Q^y A|0> / sqrt(N), then the inverse DFT over the phase label."""
    n = 1 << t
    q = reference_grover(prep)
    psi = prep_matrix(prep)[:, 0]
    rows = np.stack([np.linalg.matrix_power(q, y) @ psi for y in range(n)]) / math.sqrt(n)
    y = np.arange(n)
    dft = np.exp(-2j * np.pi * (np.outer(y, y) % n) / n) / math.sqrt(n)
    return (dft @ rows).reshape(-1)


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
        state.amps = out.reshape(-1)
        return state

    def dagger(self) -> "_Merge":
        return self


class TestIndependentReferences:
    def test_grover_matrix_equals_dense_product(self):
        for prep, _ in reference_preps():
            np.testing.assert_allclose(
                GroverOperator(prep).matrix(), reference_grover(prep), rtol=0, atol=1e-12
            )

    def test_grover_matrix_equals_dagger_replay(self):
        # matrix() builds Q from one replay of A; apply() runs S_chi, the
        # daggers of A's ops, S0 and A op by op. The two must agree.
        mono = _monolithic_mean_prep(DataMatrix(np.array([[0.3, -0.7], [0.9, 0.1]])), 1.0)
        assert "j" not in mono.reflection_registers
        for prep in [p for p, _ in reference_preps()] + [mono]:
            replay = -operation_matrix(GroverOperator(prep).ops, prep.layout)
            np.testing.assert_allclose(GroverOperator(prep).matrix(), replay, rtol=0, atol=1e-12)

    def test_grover_matrix_checks_its_columns(self):
        # Every column of A keeps unit norm, so the per-op checks pass, but A
        # is not unitary; Q's own column check must catch it.
        prep = StatePreparation(
            name="merge",
            layout=RegisterLayout([("a", 1), ("b", 1)]),
            ops=(HadamardBlock("b"), _Merge("a")),
            good_register="b",
            good_predicate=lambda label: label == 0,
        )
        operation_matrix(prep.ops, prep.layout)
        with pytest.raises(SimulationError, match="column"):
            GroverOperator(prep).matrix()

    def test_qpe_state_equals_naive_powers_and_dft(self):
        for prep, _ in reference_preps():
            for t in (1, 2, 5, 8):
                np.testing.assert_allclose(
                    qpe_state(prep, t).amps, reference_qpe(prep, t), rtol=0, atol=1e-12
                )

    def test_phase_distribution_equals_bhmt_closed_form(self):
        for prep, a in reference_preps():
            assert prep.good_probability() == pytest.approx(a, abs=1e-12)
            for t in (1, 3, 6, 9, 11):
                np.testing.assert_allclose(
                    phase_distribution(prep, t), bhmt_distribution(a, t), rtol=0, atol=1e-12
                )

    def test_qpe_charges_the_cap_on_the_preparation(self, monkeypatch):
        monkeypatch.setenv("QADSIM_QUBIT_CAP", "8")
        prep = interference_prep("cap", np.linspace(-0.7, 0.7, 8), {})
        assert prep.layout.n_qubits == 5
        assert qpe_state(prep, 3).layout.n_qubits == 8
        with pytest.raises(SimulationError):
            qpe_state(prep, 4)
