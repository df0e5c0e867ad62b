import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from stochconv import (
    ConfigError,
    DenseOperator,
    DimensionMismatchError,
    HilbertSpec,
    SemigroupSpec,
    SpectralOperator,
    StochConvError,
    apply_operator,
    hs_norm,
    semigroup_eval,
)
from stochconv.config import parse_config
from stochconv.hilbert import (
    _expm,
    identity_operator,
    lag_table,
    operator_matrix,
)


def _matvec_oracle(rows, v):
    """Plain by-hand matrix-vector product."""
    return [sum(r * x for r, x in zip(row, v)) for row in rows]


def test_apply_diagonal():
    h = HilbertSpec(2)
    op = SpectralOperator(h, h, [1.0, 2.0])
    assert np.array_equal(apply_operator(op, [1.0, 1.0]), [1.0, 2.0])


def test_apply_identity_is_noop(rng):
    h = HilbertSpec(5)
    v = rng.normal(size=5)
    assert np.array_equal(apply_operator(identity_operator(h), v), v)


def test_apply_dense_matches_by_hand_oracle():
    h = HilbertSpec(2)
    rows = [[0.0, 1.0], [1.0, 0.0]]
    op = DenseOperator(h, h, rows)
    expected = _matvec_oracle(rows, [3.0, 4.0])
    assert np.array_equal(apply_operator(op, [3.0, 4.0]), expected)
    assert expected == [4.0, 3.0]


def test_apply_dimension_mismatch():
    h2, h3 = HilbertSpec(2), HilbertSpec(3)
    op = DenseOperator(h2, h3, np.ones((3, 2)))
    with pytest.raises(DimensionMismatchError):
        apply_operator(op, [1.0, 2.0, 3.0])


def test_hs_norm_sum_of_squares_oracle():
    h = HilbertSpec(2)
    op = SpectralOperator(h, h, [3.0, 4.0])
    oracle = math.sqrt(sum(e * e for e in [3.0, 4.0]))
    assert hs_norm(op) == pytest.approx(oracle, rel=1e-15)
    assert hs_norm(op) == pytest.approx(5.0, rel=1e-15)


def test_hs_norm_zero_operator():
    h = HilbertSpec(3)
    assert hs_norm(DenseOperator(h, h, np.zeros((3, 3)))) == 0.0


def test_hs_norm_weighted_identity():
    h = HilbertSpec(2)
    weight = SpectralOperator(h, h, [4.0, 9.0])
    oracle = math.sqrt(4.0 + 9.0)
    assert hs_norm(identity_operator(h), weight) == pytest.approx(oracle, rel=1e-15)


def test_hs_norm_negative_weight_rejected():
    h = HilbertSpec(2)
    weight = SpectralOperator(h, h, [1.0, -0.5])
    with pytest.raises(StochConvError):
        hs_norm(identity_operator(h), weight)


def test_hs_norm_dense_agrees_with_column_oracle(rng):
    h = HilbertSpec(4)
    entries = rng.normal(size=(4, 4))
    q = rng.uniform(0.1, 2.0, 4)
    weight = SpectralOperator(h, h, q)
    oracle = math.sqrt(sum(q[j] * np.dot(entries[:, j], entries[:, j]) for j in range(4)))
    assert hs_norm(DenseOperator(h, h, entries), weight) == pytest.approx(oracle, rel=1e-13)


def test_semigroup_at_zero_is_identity():
    h = HilbertSpec(2)
    sg = SemigroupSpec(h, rates=[1.0, 4.0], horizon=1.0)
    assert np.array_equal(semigroup_eval(sg, 0.0).eigenvalues, [1.0, 1.0])


def test_semigroup_diagonal_scalar_exponentials():
    h = HilbertSpec(2)
    sg = SemigroupSpec(h, rates=[1.0, 4.0], horizon=1.0)
    got = semigroup_eval(sg, math.log(2.0)).eigenvalues
    oracle = [math.exp(-1.0 * math.log(2.0)), math.exp(-4.0 * math.log(2.0))]
    assert got == pytest.approx(oracle, rel=1e-15)
    assert got == pytest.approx([0.5, 1.0 / 16.0], rel=1e-14)


def test_semigroup_composition_law_single_case():
    h = HilbertSpec(3)
    sg = SemigroupSpec(h, rates=[0.5, 1.0, 2.0], horizon=1.0)
    left = operator_matrix(semigroup_eval(sg, 0.3)) @ operator_matrix(semigroup_eval(sg, 0.7))
    right = operator_matrix(semigroup_eval(sg, 1.0))
    assert np.max(np.abs(left - right)) <= 1e-12


def test_semigroup_negative_time_rejected():
    h = HilbertSpec(1)
    sg = SemigroupSpec(h, rates=[1.0], horizon=1.0)
    with pytest.raises(StochConvError):
        semigroup_eval(sg, -0.1)


def test_semigroup_law_random_battery_diagonal(rng):
    h = HilbertSpec(4)
    sg = SemigroupSpec(h, rates=rng.uniform(0.0, 5.0, 4), horizon=1.0)
    s, t = rng.uniform(0.0, 1.0, (2, 1000))
    vals = np.exp(-np.outer(s, sg.rates)) * np.exp(-np.outer(t, sg.rates))
    target = np.exp(-np.outer(s + t, sg.rates))
    assert np.max(np.abs(vals - target)) <= 1e-12


def test_semigroup_law_random_battery_dense(rng):
    h = HilbertSpec(3)
    gen = rng.normal(size=(3, 3))
    gen -= np.eye(3) * (np.max(np.abs(np.linalg.eigvals(gen)).real) + 0.1)
    sg = SemigroupSpec(h, generator=gen, horizon=1.0)
    for s, t in rng.uniform(0.0, 1.0, (1000, 2)):
        left = operator_matrix(semigroup_eval(sg, s)) @ operator_matrix(semigroup_eval(sg, t))
        right = operator_matrix(semigroup_eval(sg, s + t))
        assert np.max(np.abs(left - right)) <= 1e-8


def test_dense_generator_matches_diagonal_case(rng):
    rates = rng.uniform(0.1, 3.0, 3)
    h = HilbertSpec(3)
    diag_sg = SemigroupSpec(h, rates=rates, horizon=1.0)
    dense_sg = SemigroupSpec(h, generator=-np.diag(rates), horizon=1.0)
    for t in rng.uniform(0.0, 1.0, 50):
        a = np.diag(semigroup_eval(diag_sg, t).eigenvalues)
        b = operator_matrix(semigroup_eval(dense_sg, t))
        assert np.max(np.abs(a - b)) <= 1e-10


@given(
    rates=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=5),
    dt=st.floats(1e-4, 0.5),
    n_lags=st.integers(0, 50),
)
@settings(max_examples=100, deadline=None)
def test_diagonal_lag_table_rows_equal_semigroup_eval_bitwise(rates, dt, n_lags):
    sg = SemigroupSpec(HilbertSpec(len(rates)), rates=rates, horizon=1.0)
    lags = lag_table(sg, dt, n_lags)
    assert len(lags) == n_lags + 1
    for j, row in enumerate(lags):
        assert row.shape == (len(rates),)
        assert row.tobytes() == semigroup_eval(sg, j * dt).eigenvalues.tobytes()


@given(
    entries=st.lists(st.floats(-5.0, 5.0), min_size=16, max_size=16),
    dim=st.integers(1, 4),
    upper=st.booleans(),
    dt=st.floats(1e-3, 0.1),
    n_lags=st.integers(1, 50),
)
@settings(max_examples=100, deadline=None)
def test_dense_lag_table_rows_match_expm_within_j_scaled_tolerance(
    entries, dim, upper, dt, n_lags
):
    gen = np.array(entries).reshape(4, 4)[:dim, :dim]
    if upper:  # non-normal: a triangular generator with a nonzero strict upper part
        gen = np.triu(gen)
    sg = SemigroupSpec(HilbertSpec(dim), generator=gen, horizon=1.0)
    lags = lag_table(sg, dt, n_lags)
    assert np.array_equal(lags[0], np.eye(dim))
    assert np.array_equal(lags[1], operator_matrix(semigroup_eval(sg, dt)))
    # the j-fold product of S(dt) accumulates rounding like j d eps |S(dt)|^j, and
    # expm(j dt A) carries an error growing with |j dt A|; the factor 256 is a
    # 5x margin over the worst ratio seen in 300k random comparisons
    growth = max(1.0, np.linalg.norm(np.abs(lags[1]), 2))
    gen_norm = np.linalg.norm(gen, 2)
    eps = np.finfo(float).eps
    for j in range(1, n_lags + 1):
        assert lags[j].shape == (dim, dim)
        err = np.max(np.abs(lags[j] - operator_matrix(semigroup_eval(sg, j * dt))))
        tol = 256 * dim * j * eps * (1.0 + j * dt * gen_norm) * growth**j
        assert err <= tol, (j, err, tol)


def test_norm_bound_random_battery(rng):
    h = HilbertSpec(4)
    sg = SemigroupSpec(h, rates=rng.uniform(0.0, 4.0, 4), horizon=1.0)
    assert sg.bound == 1.0
    for _ in range(1000):
        t = rng.uniform(0.0, 1.0)
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        image = apply_operator(semigroup_eval(sg, t), v)
        assert np.linalg.norm(image) <= sg.bound * (1.0 + 1e-12)


def test_dense_semigroup_bound_is_sampled_sup(rng):
    h = HilbertSpec(2)
    gen = np.array([[0.0, 1.0], [-1.0, 0.0]])  # rotation: norm exactly 1 forever
    sg = SemigroupSpec(h, generator=gen, horizon=2.0)
    assert sg.sampled_bound == pytest.approx(1.0, abs=1e-10)


def test_triangular_generator_with_nearly_equal_diagonal_is_exponentiated_exactly():
    # scipy's triangular expm branch rebuilt S(t)[1, 0] from (e^b - e^a) / (b - a): 0, not t
    sg = SemigroupSpec(HilbertSpec(2), generator=[[0.0, 0.0], [1.0, 1e-81]], horizon=2.0)
    s_mat = operator_matrix(semigroup_eval(sg, 1.5))
    assert np.allclose(s_mat, [[1.0, 0.0], [1.5, 1.0]], rtol=1e-14, atol=0.0)
    assert sg.sampled_bound == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)  # |S(2)|


@pytest.mark.parametrize(
    "gen, horizon",
    [
        ([[-40.0, 300.0], [0.0, -40.0]], 1.0),
        ([[-3.0, 25.0], [0.0, -9.0]], 2.0),
        ([[-1.0, 4.0, 0.0], [0.0, -2.0, 30.0], [0.0, 0.0, -50.0]], 1.0),
        ([[-100.0, 2000.0], [0.0, -120.0]], 1.0),
        ([[-1e6]], 1.0),
    ],
    ids=["jordan", "triangular", "chain", "stiff-coupled", "stiff"],
)
def test_dense_semigroup_bound_is_at_least_the_sup_on_a_finer_grid(gen, horizon):
    # the transient peak of a non-normal S(t) falls between the 257 sampled nodes
    gen = np.array(gen)
    sg = SemigroupSpec(HilbertSpec(len(gen)), generator=gen, horizon=horizon)
    fine = max(np.linalg.norm(expm(t * gen), 2) for t in np.linspace(0.0, horizon, 2561))
    assert fine <= sg.bound * (1.0 + 1e-12)
    assert sg.sampled_bound <= sg.bound
    reach = horizon / 256 * np.linalg.norm(gen, 2)
    with np.errstate(over="ignore"):
        assert sg.bound <= sg.sampled_bound * (1.0 + reach * np.exp(reach))


@pytest.mark.parametrize(
    "gen",
    [[[1e5]], [[1e300, 1.0], [1.0, 1.0]]],
    ids=["overflow-late", "overflow-svd"],
)
def test_dense_semigroup_bound_is_infinite_when_s_overflows(gen):
    # S(t) overflows at some sampled node: a NaN norm there must not be skipped
    # (1x1) and a non-finite matrix must not reach the SVD (2x2)
    sg = SemigroupSpec(HilbertSpec(len(gen)), generator=np.array(gen), horizon=1.0)
    assert sg.bound == math.inf


def test_hs_norm_homogeneity_and_triangle(rng):
    h = HilbertSpec(3)
    for _ in range(200):
        a_entries = rng.normal(size=(3, 3))
        b_entries = rng.normal(size=(3, 3))
        scale = rng.normal()
        a = DenseOperator(h, h, a_entries)
        b = DenseOperator(h, h, b_entries)
        scaled = DenseOperator(h, h, scale * a_entries)
        assert hs_norm(scaled) <= abs(scale) * hs_norm(a) * (1.0 + 1e-12) + 1e-300
        assert hs_norm(scaled) >= abs(scale) * hs_norm(a) * (1.0 - 1e-12)
        both = DenseOperator(h, h, a_entries + b_entries)
        assert hs_norm(both) <= (hs_norm(a) + hs_norm(b)) * (1.0 + 1e-12)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_spectral_hs_norm_matches_dense_embedding(eigs):
    h = HilbertSpec(len(eigs))
    spectral = SpectralOperator(h, h, eigs)
    dense = DenseOperator(h, h, np.diag(eigs))
    assert hs_norm(spectral) == pytest.approx(hs_norm(dense), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dim", [2.5, True, 0, np.float64(2.0)])
def test_hilbert_spec_rejects_a_non_integer_dimension(dim):
    with pytest.raises(StochConvError, match="dim"):
        HilbertSpec(dim)


def test_hilbert_spec_accepts_a_numpy_integer():
    assert HilbertSpec(np.int64(3)).dim == 3


@pytest.mark.parametrize(
    "rates,horizon,match",
    [
        pytest.param([1.0, math.nan], 1.0, "rates", id="rate-nan"),
        pytest.param([math.inf, 1.0], 1.0, "rates", id="rate-inf"),
        pytest.param([1.0, 2.0], math.nan, "horizon", id="horizon-nan"),
    ],
)
def test_diagonal_semigroup_rejects_nan_instead_of_certifying_it(rates, horizon, match):
    # a NaN rate makes every S(t) NaN, so no bound of 1.0 may be reported for it
    with pytest.raises(StochConvError, match=match):
        SemigroupSpec(HilbertSpec(2), rates=rates, horizon=horizon)


def test_dense_semigroup_rejects_a_nan_horizon():
    with pytest.raises(StochConvError, match="horizon"):
        SemigroupSpec(HilbertSpec(2), generator=-np.eye(2), horizon=math.nan)


@pytest.mark.parametrize("horizon", ["1.0", None, True])
@pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
def test_semigroup_rejects_a_non_numeric_horizon(horizon, dense):
    # was a raw TypeError from the comparison (a bool was read as 1.0)
    kind = {"generator": -np.eye(2)} if dense else {"rates": [1.0, 2.0]}
    with pytest.raises(StochConvError, match="horizon"):
        SemigroupSpec(HilbertSpec(2), horizon=horizon, **kind)


def _block_expm(m):
    """scipy's expm through diag(m, m^T), which is never triangular: the superseded runtime path."""
    dim = m.shape[0]
    both = np.zeros((2 * dim, 2 * dim))
    both[:dim, :dim] = m
    both[dim:, dim:] = m.T
    return expm(both)[:dim, :dim]


@given(
    entries=st.lists(st.floats(-10.0, 10.0), min_size=36, max_size=36),
    dim=st.integers(1, 6),
    upper=st.booleans(),
    scale=st.sampled_from([1e-6, 1e-3, 1.0]),
)
@settings(max_examples=200, deadline=None)
def test_expm_matches_scipy_within_norm_scaled_tolerance(entries, dim, upper, scale):
    gen = scale * np.array(entries).reshape(6, 6)[:dim, :dim]
    if upper:  # triangular input: the case scipy's own triangular branch got wrong
        gen = np.triu(gen)
    ours, oracle = _expm(gen), _block_expm(gen)
    # the relative max-norm gap grows with |A|: the factor 4000 is a 5x margin over the
    # worst ratio to eps (1 + |A|_1) seen in 60k random comparisons (d <= 6, |a_ij| <= 10)
    tol = 4000 * np.finfo(float).eps * (1.0 + np.linalg.norm(gen, 1))
    assert np.max(np.abs(ours - oracle)) <= tol * np.max(np.abs(oracle))


def test_expm_of_a_stack_matches_each_matrix():
    scales = np.array([0.0, 0.1, 1.0, 4.0, 30.0])[:, None, None]
    gens = scales * np.random.default_rng(3).normal(size=(5, 3, 3))
    stacked = _expm(gens)
    for gen, value in zip(gens, stacked):
        assert np.array_equal(value, _expm(gen))


def _masked_squaring_expm(m):
    """_expm with its former squaring loop, one boolean mask per squaring, kept as its oracle."""
    stack = np.array(m, dtype=np.float64, ndmin=3)
    norms = np.linalg.norm(np.ldexp(stack, -64), 1, axis=(-2, -1))
    steps = np.where(norms > 0.0, np.maximum(np.frexp(norms)[1] + 65, 0), 0)
    x = np.ldexp(stack, -steps[..., None, None])
    out = eye = np.eye(stack.shape[-1])
    for k in range(14, 0, -1):
        out = eye + x @ out / k
    for i in range(steps.max()):
        out[steps > i] = out[steps > i] @ out[steps > i]
    return out.reshape(np.shape(m))


@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.sampled_from([(1,), (7,), (2, 5)]),
    dim=st.integers(1, 5),
    log_scales=st.lists(st.floats(-20.0, 300.0), min_size=10, max_size=10),
    zeros=st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_expm_squaring_by_suffix_is_bitwise_the_masked_loop(seed, lead, dim, log_scales, zeros):
    # each matrix gets its own number of squarings, from 0 (a zero matrix) to over 1000
    count = int(np.prod(lead))
    scales = 10.0 ** np.resize(log_scales, count)
    scales[: min(zeros, count)] = 0.0
    gens = scales[:, None, None] * np.random.default_rng(seed).normal(size=(count, dim, dim))
    gens = gens.reshape(lead + (dim, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        assert _expm(gens).tobytes() == _masked_squaring_expm(gens).tobytes()
        first = gens[(0,) * len(lead)]
        assert _expm(first).tobytes() == _masked_squaring_expm(first).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 5, 8])
def test_expm_of_zero_is_exactly_the_identity(dim):
    # S(0) = I exactly: a Pade solve returned (1 - 2^-53) I, and |S(0)| = 1 bounds the sup
    assert np.array_equal(_expm(np.zeros((dim, dim))), np.eye(dim))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_norms_dense_generator_is_certified_with_bound_exactly_one(seed, monkeypatch):
    # a contraction -diag(k^2) + skew: |S(t)| <= |S(0)| = 1, so both bounds are exactly 1
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    cfg = parse_config(workloads.WORKLOADS["norms-dense"].config(seed))
    assert cfg.semigroup.sampled_bound == 1.0
    assert cfg.semigroup.bound == 1.0


@pytest.mark.parametrize(
    "gen",
    [
        [[1e308]],
        [[-1e308]],
        [[1e308, 0.0], [1e308, 0.0]],
        [[-9.5e307, 1.7e308, 0.0], [0.0, -9.5e307, 1.7e308], [0.0, 0.0, -9.5e307]],
        [[-9.5e307, 0.0], [-9.5e307, 0.0]],
        [[-1e308, 1e308], [0.0, -1e308]],
    ],
    ids=["grow", "decay", "column", "chain", "negative-column", "dissipative"],
)
def test_a_huge_generator_is_refused_or_bounds_the_fine_grid_sup(gen):
    # (A + A^T) / 2 overflowed past 9e307: eigvalsh raised, or a NaN log-norm read as margin 1
    dim = len(gen)
    identity = {"kind": "diagonal", "eigenvalues": [1.0] * dim}
    data = {
        "experiment": "norms",
        "dims": {"U": dim, "H": dim},
        "grid": {"T": 1.0, "N": 8},
        "semigroup": {"kind": "dense", "generator": gen},
        "q_eigenvalues": [1.0] * dim,
        "integrand": {"kind": "constant", "operator": identity},
        "exponents": {"p": 2.0, "q": 2.0, "r": 4.0},
        "beta": 0.3,
        "seed": 0,
        "n_paths": 4,
    }
    try:
        semigroup = parse_config(data).semigroup
    except ConfigError as exc:
        assert "'generator'" in str(exc)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        fine_grid = _expm(np.linspace(0.0, 1.0, 2561)[:, None, None] * np.array(gen))
    fine = math.inf
    if np.isfinite(fine_grid).all():
        fine = np.linalg.norm(fine_grid, 2, axis=(-2, -1)).max()
    assert fine <= semigroup.bound * (1.0 + 1e-12)
    if gen == [[-1e308, 1e308], [0.0, -1e308]]:  # mu(A) < 0: the margin stays 1
        assert semigroup.bound == 1.0
