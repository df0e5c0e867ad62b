import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochconv.config import _finite, _is_finite
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
