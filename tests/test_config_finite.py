import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochconv import HilbertSpec, IntegrandSpec
from stochconv.config import _finite, _integrand, _is_finite, _operator
from stochconv.errors import ConfigError


class _Float(float):
    pass


class _Int(int):
    pass


def _finite_oracle(values, key, where):
    """The per-element check that ``_finite`` runs when its one-pass check cannot decide."""
    if not all(_is_finite(v) for v in values):
        raise ConfigError(f"key {key!r} in {where} must hold finite numbers")
    return np.asarray(values, float)


ELEMENTS = st.one_of(
    st.floats(),
    st.integers(-(2**1100), 2**1100),
    st.sampled_from([1e308, -1e308, 2**1024 - 2**970, 2**1024 - 2**970 - 1, 10**400, -(10**400)]),
    st.booleans(),
    st.floats().map(_Float),
    st.integers(-5, 5).map(_Int),
    st.text(max_size=2),
    st.none(),
)


@given(values=st.lists(ELEMENTS, max_size=12))
@settings(max_examples=400, deadline=None)
def test_finite_matches_the_per_element_check(values):
    try:
        expected = _finite_oracle(values, "rows", "operator")
    except ConfigError as err:
        with pytest.raises(ConfigError) as got:
            _finite(values, "rows", "operator")
        assert str(got.value) == str(err)
    else:
        got = _finite(values, "rows", "operator")
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


# ------------------------------------------------ the node table of a time-varying integrand


def _table(ops, dim_u=2, dim_h=2):
    data = {"kind": "time_varying", "operators": ops}
    return _integrand(data, HilbertSpec(dim_u), HilbertSpec(dim_h), len(ops)).node_matrices


def _table_oracle(ops, dim_u=2, dim_h=2):
    """One checked operator per node, stacked: the first bad node raises."""
    space_u, space_h = HilbertSpec(dim_u), HilbertSpec(dim_h)
    return IntegrandSpec.from_operators([_operator(op, space_u, space_h) for op in ops]).node_matrices


def _dense(value=1.0):
    return {"kind": "dense", "rows": [[value, 0.5], [0.0, 1.0]]}


MISSHAPED = {"kind": "dense", "rows": [[1.0, 0.5]]}
SHAPE_ERROR = "key 'rows' in operator must be a 2 x 2 list of rows"
FINITE_ERROR = "key 'rows' in operator must hold finite numbers"


@pytest.mark.parametrize("bad, message", [
    pytest.param(MISSHAPED, SHAPE_ERROR, id="misshaped"),
    pytest.param(_dense(math.nan), FINITE_ERROR, id="nan"),
    pytest.param(_dense(-math.inf), FINITE_ERROR, id="inf"),
])
@pytest.mark.parametrize("index", [0, -1])
def test_a_bad_node_at_either_end_raises_its_own_message(bad, message, index):
    ops = [_dense() for _ in range(6)]
    ops[index] = bad
    for build in (_table, _table_oracle):
        with pytest.raises(ConfigError) as err:
            build(ops)
        assert str(err.value) == message


@pytest.mark.parametrize("first, last, message", [
    pytest.param(_dense(math.nan), MISSHAPED, FINITE_ERROR, id="non-finite-first"),
    pytest.param(MISSHAPED, _dense(math.inf), SHAPE_ERROR, id="misshaped-first"),
])
def test_the_first_bad_node_names_the_error(first, last, message):
    ops = [first] + [_dense() for _ in range(4)] + [last]
    with pytest.raises(ConfigError) as err:
        _table(ops)
    assert str(err.value) == message


def test_a_diagonal_node_enters_as_its_diagonal_matrix():
    ops = [_dense(2.0), {"kind": "diagonal", "eigenvalues": [3, -0.0]}, _dense(-0.0)]
    table = _table(ops)
    assert table.tobytes() == _table_oracle(ops).tobytes()
    assert table[1].tobytes() == np.diag([3.0, -0.0]).tobytes()
    assert not table.flags.writeable


NODE_VALUES = st.one_of(st.floats(-4.0, 4.0), st.integers(-3, 3), ELEMENTS)
ROWS = st.one_of(
    st.lists(st.lists(NODE_VALUES, min_size=2, max_size=2), min_size=2, max_size=2),
    st.lists(st.lists(NODE_VALUES, max_size=3), max_size=3),
    NODE_VALUES,
)
NODES = st.one_of(
    st.builds(lambda rows: {"kind": "dense", "rows": rows}, ROWS),
    st.builds(
        lambda eig: {"kind": "diagonal", "eigenvalues": eig},
        st.lists(NODE_VALUES, min_size=1, max_size=3),
    ),
    st.sampled_from([{}, {"kind": "banded"}, {"kind": 1, "rows": [[1.0, 0.0], [0.0, 1.0]]}]),
)


@given(ops=st.lists(NODES, min_size=1, max_size=6), dims=st.sampled_from([(2, 2), (1, 2)]))
@example(ops=[_dense(), {"kind": "diagonal", "eigenvalues": [1.0, 2.0]}], dims=(2, 2))
@example(ops=[_dense(1e308), _dense(1e308)], dims=(2, 2))  # finite rows whose sum overflows
@settings(max_examples=400, deadline=None)
def test_node_table_matches_one_checked_operator_per_node(ops, dims):
    dim_u, dim_h = dims
    if dims == (1, 2):
        ops = [
            {**op, "rows": [row[:1] for row in op["rows"]]}
            if op.get("kind") == "dense" and isinstance(op.get("rows"), list)
            and all(isinstance(row, list) for row in op["rows"]) else op
            for op in ops
        ]
    try:
        expected = _table_oracle(ops, dim_u, dim_h)
    except ConfigError as err:
        with pytest.raises(ConfigError) as got:
            _table(ops, dim_u, dim_h)
        assert str(got.value) == str(err)
    else:
        assert _table(ops, dim_u, dim_h).tobytes() == expected.tobytes()
