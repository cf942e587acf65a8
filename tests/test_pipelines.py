import numpy as np
import pytest

from qadsim.ae import grid_epsilon
from qadsim.arith import FixedPointFormat
from qadsim.dataio import QueryLedger
from qadsim.pipelines import (
    EstimatorRun,
    PipelineConfig,
    interference_prep,
    squared_mean_prep,
)


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

    def test_echo(self):
        cfg = PipelineConfig(t_bits=6, seed=3, fp_format=FixedPointFormat(4, 10))
        echo = cfg.echo()
        assert echo["t_bits"] == 6
        assert echo["fp_int_bits"] == 4
        assert echo["fp_frac_bits"] == 10


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

    def test_signed_overlap_recovered(self):
        values = np.array([-0.3, -0.3])
        prep = interference_prep("t", values, costs={})
        overlap = 2 * prep.good_probability() - 1
        assert overlap == pytest.approx(-0.3, abs=1e-12)


class TestEstimatorRun:
    def test_t_for_fixed(self):
        runner = EstimatorRun(PipelineConfig(t_bits=7))
        # The configured t wins and is charged its grid's worst-case error.
        assert runner.precision(None) == (7, grid_epsilon(7))
        assert runner.precision(0.001) == (7, grid_epsilon(7))

    def test_t_for_epsilon(self):
        runner = EstimatorRun(PipelineConfig(epsilon=0.1))
        # The coarsest grid meeting the share, charged the share itself.
        assert runner.precision(0.5) == (4, 0.5)
        assert grid_epsilon(4) <= 0.5 < grid_epsilon(3)

    def test_run_sequence_reproducible(self):
        prep = squared_mean_prep("t", np.array([0.4, 0.7]), costs={})
        seq = [
            EstimatorRun(PipelineConfig(t_bits=4, mode="circuit", seed=10)),
            EstimatorRun(PipelineConfig(t_bits=4, mode="circuit", seed=10)),
        ]
        outcomes = [[r.run(prep, 4).raw_outcome for _ in range(3)] for r in seq]
        assert outcomes[0] == outcomes[1]

    def test_ledger_accumulates(self):
        ledger = QueryLedger()
        runner = EstimatorRun(PipelineConfig(t_bits=4), ledger)
        prep = squared_mean_prep("t", np.array([0.4, 0.7]), costs={"oracle_data": 1})
        runner.run(prep, 4)
        assert ledger.grover == 15
        assert ledger.oracle_data == 2 * 15 + 1
