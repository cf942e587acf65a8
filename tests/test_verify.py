import numpy as np
import pytest

from qadsim.dataio import DataMatrix
from qadsim.flawlab import ROTATION_SITES
from qadsim.verify import (
    SUITES,
    _monolithic_mean_prep,
    bounds_suite,
    equivalence_suite,
    flaws_suite,
    random_instance,
    run_suite,
    scaling_suite,
)


class TestRandomInstance:
    def test_shapes_and_ranges(self):
        for seed in range(10):
            data, query = random_instance(seed)
            assert 2 <= data.n_rows <= 8
            assert 1 <= data.n_cols <= 4
            assert query.values.shape == (data.n_cols,)
            assert abs(data.values).max() <= 2.0

    def test_deterministic(self):
        d1, q1 = random_instance(7)
        d2, q2 = random_instance(7)
        assert (d1.values == d2.values).all()
        assert (q1.values == q2.values).all()

    def test_infeasible_settings_raise(self):
        # uniform[-0.1, 0.1] has variance 1/300, never the required 0.05
        with pytest.raises(ValueError, match="variance"):
            random_instance(0, scale=0.1)

    def test_draws_match_the_unbounded_retry_loop(self):
        def unbounded(seed, scale=2.0, min_sigma2=0.05):
            rng = np.random.default_rng(seed)
            while True:
                m = int(rng.integers(2, 9))
                d = int(rng.integers(1, 5))
                x = rng.uniform(-scale, scale, size=(m, d))
                if np.min(np.var(x, axis=0)) < min_sigma2 or np.max(np.abs(x)) < 0.4 * scale:
                    continue
                offset = rng.uniform(0.25 * scale, scale, size=d)
                offset *= rng.choice([-1.0, 1.0], size=d)
                return x, x.mean(axis=0) + offset

        for seed in range(40):
            data, query = random_instance(seed)
            x, x0 = unbounded(seed)
            np.testing.assert_array_equal(data.values, x)
            np.testing.assert_array_equal(query.values, x0)


class TestSuites:
    def test_bounds(self):
        report = bounds_suite(seeds=20)
        assert report["passed"]
        assert report["instances"] == 20
        assert report["failures"] == []

    def test_equivalence(self):
        report = equivalence_suite()
        assert report["passed"]
        assert report["max_deviation"] <= 1e-12

    def test_scaling(self):
        report = scaling_suite()
        assert report["passed"]
        assert abs(report["slope"] - 1.0) <= 0.05
        assert report["grover_counts"] == [(1 << t) - 1 for t in report["t_values"]]

    def test_flaws(self):
        report = flaws_suite()
        assert report["passed"]
        assert abs(report["m2_gap"] - 2.0) <= 1e-9
        assert report["normalization_discrepancy"] > 0.01
        assert report["encoding"] == [dict(site) for site in ROTATION_SITES]  # echoed, not checked

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 5), (4, 3), (5, 1)])
    def test_monolithic_table_equals_the_double_loop(self, shape):
        # The padded matrix, read feature-major: label i + rows * j holds x_j^i / C.
        x = np.random.default_rng(sum(shape)).uniform(-2.0, 2.0, size=shape)
        rows, cols = (max(2, 1 << (n - 1).bit_length()) for n in shape)
        want = np.zeros(rows * cols)
        for j in range(shape[1]):
            for i in range(shape[0]):
                want[i + rows * j] = x[i, j] / 2.0
        mono = _monolithic_mean_prep(DataMatrix(x), 2.0)
        widths = [mono.layout.width(name) for name in ("idx", "j")]
        assert widths == [rows.bit_length() - 1, cols.bit_length() - 1]
        np.testing.assert_array_equal(mono.ops[3].inner.values, want)


class TestDispatcher:
    def test_known_suites(self):
        assert set(SUITES) == {"bounds", "equivalence", "scaling", "flaws"}

    def test_dispatch(self):
        report = run_suite("flaws")
        assert report["suite"] == "flaws"

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope")
