"""Property tests: every operation that A and Q are built from is a real
orthogonal map, and its `dagger` inverts it.

Layouts, register order, widths (1 to 6 qubits), rotation values, control
values and reflection predicates are drawn at random.
"""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qadsim.ae import GroverOperator  # noqa: E402
from qadsim.pipelines import interference_prep, squared_mean_prep  # noqa: E402
from qadsim.simcore import (  # noqa: E402
    Controlled,
    HadamardBlock,
    ReflectAboutZero,
    ReflectWhere,
    RegisterLayout,
    ValueKeyedRotation,
    operation_matrix,
)

TOL = 1e-12
unit_values = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def layouts(draw) -> RegisterLayout:
    """Key register k (1-6 qubits), one-qubit target t, control c (1-2
    qubits), stacked in a random order."""
    widths = {"k": draw(st.integers(1, 6)), "t": 1, "c": draw(st.integers(1, 2))}
    order = draw(st.permutations(sorted(widths)))
    return RegisterLayout([(name, widths[name]) for name in order])


@st.composite
def rotations(draw, layout: RegisterLayout) -> ValueKeyedRotation:
    keys = draw(st.sampled_from([["k"], ["k", "c"], ["c", "k"]]))
    size = 1 << sum(layout.width(name) for name in keys)
    values = draw(st.lists(unit_values, min_size=size, max_size=size))
    return ValueKeyedRotation(keys, "t", np.array(values))


@st.composite
def ops(draw):
    layout = draw(layouts())
    kind = draw(st.sampled_from(
        ["hadamard", "rotation", "controlled-rotation", "controlled-hadamard",
         "reflect-zero", "reflect-where"]
    ))
    control = draw(st.integers(0, (1 << layout.width("c")) - 1))
    if kind == "hadamard":
        op = HadamardBlock(draw(st.sampled_from(layout.names)))
    elif kind == "rotation":
        op = draw(rotations(layout))
    elif kind == "controlled-rotation":
        values = draw(st.lists(unit_values, min_size=1 << layout.width("k"),
                               max_size=1 << layout.width("k")))
        op = Controlled("c", control, ValueKeyedRotation(["k"], "t", np.array(values)))
    elif kind == "controlled-hadamard":
        op = Controlled("c", control, HadamardBlock(draw(st.sampled_from(["k", "t"]))))
    elif kind == "reflect-zero":
        op = ReflectAboutZero(draw(st.lists(st.sampled_from(layout.names), min_size=1,
                                            unique=True)))
    else:
        register = draw(st.sampled_from(layout.names))
        hits = frozenset(draw(st.lists(st.integers(0, (1 << layout.width(register)) - 1))))
        op = ReflectWhere(register, lambda label: label in hits)
    return layout, op


@settings(deadline=None, max_examples=60)
@given(ops())
def test_op_is_real_orthogonal_and_dagger_inverts(case):
    layout, op = case
    mat = operation_matrix([op], layout)
    assert mat.dtype == np.float64
    eye = np.eye(layout.dim)
    np.testing.assert_allclose(mat @ mat.T, eye, rtol=0, atol=TOL)
    inverse = operation_matrix([op.dagger()], layout)
    np.testing.assert_allclose(inverse @ mat, eye, rtol=0, atol=TOL)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 5).flatmap(
    lambda bits: st.lists(st.floats(-0.99, 0.99), min_size=1 << bits, max_size=1 << bits)
), st.booleans())
def test_grover_matrix_is_real_orthogonal(values, squared):
    build = squared_mean_prep if squared else interference_prep
    q = GroverOperator(build("prop", np.array(values), {})).matrix()
    assert q.dtype == np.float64
    np.testing.assert_allclose(q @ q.T, np.eye(q.shape[0]), rtol=0, atol=TOL)
