import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochconv import (
    DiscreteFunction,
    DiscreteMeasureSpace,
    KernelSpec,
    StochConvError,
    holder_constant,
    lpq_norm,
)
from stochconv.measures import abs_integral


def _kernel(d2_weights, masses):
    base = DiscreteMeasureSpace(tuple(range(len(d2_weights))), d2_weights)
    return KernelSpec(base, tuple(range(np.shape(masses)[1])), masses)


def _random_kernel(rng, max_atoms=6):
    n1 = int(rng.integers(1, max_atoms + 1))
    n2 = int(rng.integers(1, max_atoms + 1))
    return _kernel(rng.uniform(0.0, 2.0, n2), rng.uniform(0.0, 2.0, (n2, n1)))


def _one(k):
    return DiscreteFunction(np.ones((len(k.d1_points), len(k.base.points))))


# the mass of the product measure is the integral of |1| against it
def test_product_mass_hand_sum():
    # two base atoms of weight 1, kernel masses 1 and 4
    k = _kernel([1.0, 1.0], [[0.5, 0.5], [3.0, 1.0]])
    oracle = 1.0 * (0.5 + 0.5) + 1.0 * (3.0 + 1.0)
    assert abs_integral(_one(k), k) == pytest.approx(oracle, rel=1e-15)
    assert abs_integral(_one(k), k) == pytest.approx(5.0)


def test_product_mass_zero_base_measure():
    k = _kernel([0.0, 0.0], [[1.0, 2.0], [3.0, 4.0]])
    assert abs_integral(_one(k), k) == 0.0


def test_product_mass_constant_kernel_factorizes(rng):
    mu0 = rng.uniform(0.0, 1.0, 4)
    w = rng.uniform(0.0, 1.0, 3)
    k = _kernel(w, np.tile(mu0, (3, 1)))
    assert abs_integral(_one(k), k) == pytest.approx(np.sum(mu0) * np.sum(w), rel=1e-13)


def test_lpq_norm_constant_function(rng):
    k = _random_kernel(rng)
    c = 1.7
    n1, n2 = len(k.d1_points), len(k.base.points)
    f = DiscreteFunction(np.full((n1, n2), c))
    p, q = 2.0, 3.0
    masses = k.first_factor_masses
    oracle = c * float(np.sum(masses ** (q / p) * k.base.weights) ** (1 / q))
    assert lpq_norm(f, k, p, q) == pytest.approx(oracle, rel=1e-13)


def test_lpq_norm_exponent_collapse_is_plain_lp(rng):
    k = _random_kernel(rng)
    n1, n2 = len(k.d1_points), len(k.base.points)
    vals = rng.normal(size=(n1, n2))
    p = 2.5
    oracle = float(
        np.sum(np.abs(vals.T) ** p * k.atom_masses * k.base.weights[:, None]) ** (1 / p)
    )
    assert lpq_norm(DiscreteFunction(vals), k, p, p) == pytest.approx(oracle, rel=1e-13)


def test_lpq_norm_hand_evaluation():
    # f = 1 on the (u, a) pair only; kernel mass 2 there; base weight 3 at a
    k = _kernel([3.0, 5.0], [[2.0, 0.0], [1.0, 1.0]])
    f = DiscreteFunction([[1.0, 0.0], [0.0, 0.0]])
    got = lpq_norm(f, k, p=2.0, q=1.0)
    assert got == pytest.approx(math.sqrt(2.0) * 3.0, rel=1e-15)


def test_lpq_norm_rejects_small_exponents(rng):
    k = _random_kernel(rng)
    f = DiscreteFunction(np.zeros((len(k.d1_points), len(k.base.points))))
    with pytest.raises(StochConvError):
        lpq_norm(f, k, 0.5, 2.0)
    with pytest.raises(StochConvError):
        lpq_norm(f, k, 2.0, 0.99)


def test_holder_constant_one_one_is_one(rng):
    assert holder_constant(_random_kernel(rng), 1.0, 1.0) == 1.0


def test_holder_constant_symmetric_case():
    k = _kernel([1.0, 1.0], [[1.0], [4.0]])
    # exponent q(p-1)/(p(q-1)) = 1 at p = q = 2
    assert holder_constant(k, 2.0, 2.0) == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_holder_constant_sup_case():
    k = _kernel([1.0, 1.0], [[1.0], [4.0]])
    assert holder_constant(k, 2.0, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_holder_constant_sup_ignores_null_atoms():
    k = _kernel([1.0, 0.0], [[1.0], [100.0]])
    assert holder_constant(k, 2.0, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_holder_domination_battery(rng):
    for _ in range(300):
        k = _random_kernel(rng)
        n1, n2 = len(k.d1_points), len(k.base.points)
        f = DiscreteFunction(rng.normal(size=(n1, n2)))
        p = 1.0 if rng.uniform() < 0.25 else float(rng.uniform(1.0, 4.0))
        q = 1.0 if rng.uniform() < 0.25 else float(rng.uniform(1.0, 4.0))
        lhs = abs_integral(f, k)
        rhs = holder_constant(k, p, q) * lpq_norm(f, k, p, q)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_minkowski_integral_inequality_battery(rng):
    for _ in range(300):
        k = _random_kernel(rng)
        n1, n2 = len(k.d1_points), len(k.base.points)
        n_atoms = int(rng.integers(1, 5))
        mu = rng.uniform(0.0, 2.0, n_atoms)
        g = rng.uniform(0.0, 2.0, (n1, n2, n_atoms))
        p = float(rng.uniform(1.0, 4.0))
        q = float(rng.uniform(1.0, 4.0))
        lhs = lpq_norm(DiscreteFunction(np.einsum("aby,y->ab", g, mu)), k, p, q)
        rhs = sum(
            mu[y] * lpq_norm(DiscreteFunction(g[:, :, y]), k, p, q)
            for y in range(n_atoms)
        )
        assert lhs <= rhs * (1.0 + 1e-12)


def test_lpq_norm_sign_flip_exact(rng):
    k = _random_kernel(rng)
    n1, n2 = len(k.d1_points), len(k.base.points)
    vals = rng.normal(size=(n1, n2))
    for a in (-1.0, 0.0, 1.0):
        assert lpq_norm(DiscreteFunction(a * vals), k, 2.0, 3.0) == abs(a) * lpq_norm(
            DiscreteFunction(vals), k, 2.0, 3.0
        )


@given(st.floats(0.01, 100.0), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_lpq_norm_homogeneity(scale, p_int, q_int):
    rng = np.random.default_rng(7)
    k = _random_kernel(rng)
    n1, n2 = len(k.d1_points), len(k.base.points)
    vals = rng.normal(size=(n1, n2))
    p, q = float(p_int), float(q_int)
    scaled = lpq_norm(DiscreteFunction(scale * vals), k, p, q)
    base = lpq_norm(DiscreteFunction(vals), k, p, q)
    assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-300)


def test_lpq_triangle_inequality_battery(rng):
    for _ in range(300):
        k = _random_kernel(rng)
        n1, n2 = len(k.d1_points), len(k.base.points)
        f = rng.normal(size=(n1, n2))
        g = rng.normal(size=(n1, n2))
        p = float(rng.uniform(1.0, 4.0))
        q = float(rng.uniform(1.0, 4.0))
        lhs = lpq_norm(DiscreteFunction(f + g), k, p, q)
        rhs = lpq_norm(DiscreteFunction(f), k, p, q) + lpq_norm(DiscreteFunction(g), k, p, q)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_vector_valued_function_magnitudes():
    k = _kernel([1.0], [[1.0, 1.0]])
    f = DiscreteFunction(np.array([[[3.0, 4.0]], [[0.0, 0.0]]]))
    # |(3,4)| = 5 on the first atom pair
    assert lpq_norm(f, k, 1.0, 1.0) == pytest.approx(5.0, rel=1e-15)


def test_negative_weights_rejected():
    with pytest.raises(StochConvError):
        DiscreteMeasureSpace((0,), [-1.0])
    with pytest.raises(StochConvError):
        _kernel([1.0], [[-0.5]])


def test_infinite_mass_rejected():
    with pytest.raises(StochConvError):
        DiscreteMeasureSpace((0,), [np.inf])
    with pytest.raises(StochConvError):
        _kernel([1.0], [[np.nan]])


# an exponent that is NaN, infinite, below 1 or not a real number has no norm
@pytest.mark.parametrize("p, q", [(math.nan, 2.0), (2.0, math.inf), (0.5, 2.0), (2.0, "2")])
def test_lpq_norm_rejects_a_bad_exponent(rng, p, q):
    k = _random_kernel(rng)
    f = DiscreteFunction(np.ones((len(k.d1_points), len(k.base.points))))
    with pytest.raises(StochConvError, match=r"[pq] must be a finite real >= 1"):
        lpq_norm(f, k, p, q)


@pytest.mark.parametrize("p, q", [(2.0, math.inf), (math.inf, 2.0), (math.nan, 1.0), (2.0, True)])
def test_holder_constant_rejects_a_bad_exponent(p, q):
    k = _kernel([1.0, 1.0], [[1.0], [4.0]])
    with pytest.raises(StochConvError, match=r"[pq] must be a finite real >= 1"):
        holder_constant(k, p, q)
