import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochconv import (
    ConvolutionRequest,
    DenseOperator,
    DimensionMismatchError,
    HilbertSpec,
    IntegrandSpec,
    PathEnsemble,
    QWienerSpec,
    SemigroupSpec,
    SpectralOperator,
    StochConvError,
    TimeGrid,
    c_beta,
    coarsen_increments,
    compare,
    direct_convolution,
    factorization_smoothing,
    factorized_convolution,
    kernel_convolution,
    sample_increments,
    semigroup_eval,
)
from stochconv import _parallel, convolution
from stochconv._parallel import BLOCK_ELEMENTS
from stochconv.convolution import (
    _fft_length,
    _lag_convolve,
    beta_integral,
    direct_recursion,
    kernel_table,
    left_lr_norm,
    singular_weights,
    smoothing_bound_factor,
)
from stochconv.hilbert import apply_operator, lag_table, operator_matrix
from stochconv.ito import integrand_products, path_sup_norms

from conftest import wiener_values


def _scalar_request(n_steps=200, n_paths=300, rate=1.0, beta=0.3, r=4.0, seed=2718):
    space = HilbertSpec(1)
    noise = sample_increments(QWienerSpec(space, [1.0]), TimeGrid(1.0, n_steps), seed, n_paths)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0]))
    sg = SemigroupSpec(space, rates=[rate], horizon=1.0)
    return ConvolutionRequest(phi, sg, noise, beta=beta, r=r)


# ---------------------------------------------------------------- c_beta


def test_c_beta_half_is_reciprocal_pi():
    # quadrature oracle of the defining integral
    assert beta_integral(0.5) == pytest.approx(math.pi, abs=1e-12)
    assert c_beta(0.5) == pytest.approx(1.0 / math.pi, abs=1e-10)
    # independent closed form via the reflection identity
    assert c_beta(0.5) == pytest.approx(math.sin(0.5 * math.pi) / math.pi, abs=1e-10)


def test_c_beta_symmetry_under_reflection():
    for beta in (0.1, 0.2, 0.35, 0.42, 0.49):
        assert c_beta(beta) == pytest.approx(c_beta(1.0 - beta), abs=1e-12)


def test_c_beta_point_two_closed_form():
    assert c_beta(0.2) == pytest.approx(math.sin(0.2 * math.pi) / math.pi, abs=1e-8)
    assert c_beta(0.2) == pytest.approx(0.187098, abs=5e-7)


def test_a_second_c_beta_runs_no_quadrature(monkeypatch):
    calls = []
    quadrature = convolution.beta_integral
    monkeypatch.setattr(convolution, "beta_integral", lambda b: calls.append(b) or quadrature(b))
    c_beta.cache_clear()
    first = c_beta(0.4375)
    assert calls == [0.4375]
    assert c_beta(0.4375) == first and calls == [0.4375]
    assert first == 1.0 / quadrature(0.4375)


def test_c_beta_unit_product_over_grid():
    for beta in np.linspace(0.05, 0.95, 19):
        assert abs(c_beta(float(beta)) * beta_integral(float(beta)) - 1.0) <= 1e-9


def test_c_beta_rejects_bad_beta():
    for beta in (-0.1, 0.0, 1.0, 1.5):
        with pytest.raises(StochConvError):
            c_beta(beta)


@given(beta=st.floats(0.02, 0.98))
@settings(max_examples=80, deadline=None)
def test_c_beta_matches_reflection_identity(beta):
    assert c_beta(beta) == pytest.approx(math.sin(math.pi * beta) / math.pi, abs=1e-10)


# ------------------------------------------------------- direct pipeline


def test_direct_identity_semigroup_reduces_to_wiener():
    req = _scalar_request(rate=0.0, n_paths=50)
    ens = direct_convolution(req)
    for path in (0, 13, 49):
        assert np.allclose(
            ens.values[path], wiener_values(req.noise, path), rtol=1e-13, atol=0.0
        )


def test_direct_zero_integrand_is_zero():
    req = _scalar_request(n_paths=20)
    zero_phi = IntegrandSpec.from_constant(
        SpectralOperator(req.semigroup.space, req.semigroup.space, [0.0])
    )
    req0 = ConvolutionRequest(zero_phi, req.semigroup, req.noise, beta=req.beta, r=req.r)
    assert np.all(direct_convolution(req0).values == 0.0)


def test_direct_ou_variance_against_closed_form():
    req = _scalar_request(n_steps=1000, n_paths=2000, rate=1.0, seed=5050)
    finals = direct_convolution(req).values[:, -1, 0]
    est = np.var(finals, ddof=1)
    closed = (1.0 - math.exp(-2.0)) / 2.0
    centered = finals - finals.mean()
    se = math.sqrt((np.mean(centered**4) - np.mean(centered**2) ** 2) / finals.size)
    assert abs(est - closed) <= max(4.0 * se, 0.02 * closed)


def test_direct_matches_explicit_sum_oracle():
    # brute-force the defining sum on a tiny grid
    req = _scalar_request(n_steps=12, n_paths=4, rate=1.3, seed=99)
    ens = direct_convolution(req)
    dt = req.noise.grid.dt
    inc = req.noise.increments[:, :, 0]
    for k in range(13):
        oracle = sum(
            math.exp(-1.3 * (k - i) * dt) * inc[:, i] for i in range(k)
        ) if k else np.zeros(4)
        assert np.allclose(ens.values[:, k, 0], oracle, rtol=1e-12, atol=1e-15)


def test_direct_dense_semigroup_matches_diagonal():
    space = HilbertSpec(2)
    noise = sample_increments(QWienerSpec(space, [1.0, 0.5]), TimeGrid(1.0, 100), 7, 40)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0, 1.0]))
    rates = np.array([0.7, 2.1])
    diag_req = ConvolutionRequest(
        phi, SemigroupSpec(space, rates=rates, horizon=1.0), noise
    )
    dense_req = ConvolutionRequest(
        phi, SemigroupSpec(space, generator=-np.diag(rates), horizon=1.0), noise
    )
    a = direct_convolution(diag_req).values
    b = direct_convolution(dense_req).values
    assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(a)))


def _stepwise_direct_convolution(req):
    """The products-first recursion that the step-block walk replaced, kept as its oracle."""
    products = integrand_products(req.phi, req.noise)
    n_paths, n_steps, dim_h = products.shape
    values = np.zeros((n_paths, n_steps + 1, dim_h))
    step = semigroup_eval(req.semigroup, req.noise.grid.dt)
    state = np.zeros((n_paths, dim_h))
    for k in range(n_steps):
        state = apply_operator(step, state + products[:, k, :])
        values[:, k + 1, :] = state
    return values


@st.composite
def _direct_cases(draw):
    """A request over every integrand kind and both semigroup kinds, P <= 8, N <= 60.

    dim_H and dim_U are at most 5, except that dim_U goes up to 8 when dim_H = 1:
    BLAS gemv sums a dense constant's products onto a one-dimensional H in
    another order only at dim_U = 8 on some builds, so that shape must reach the
    bytes comparison.
    """
    n_paths, n_steps = draw(st.integers(1, 8)), draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["spectral", "dense", "time_varying", "callback", "path_callback"]))
    dim_h = draw(st.integers(1, 5))
    dim_u = dim_h if kind == "spectral" else draw(st.integers(1, 8 if dim_h == 1 else 5))
    space_u, space_h = HilbertSpec(dim_u), HilbertSpec(dim_h)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = sample_increments(
        QWienerSpec(space_u, rng.uniform(0.1, 2.0, dim_u)), TimeGrid(1.0, n_steps),
        draw(st.integers(0, 2**32 - 1)), n_paths,
    )
    mat = rng.normal(size=(dim_h, dim_u))
    if kind == "spectral":
        eigenvalues = rng.normal(size=dim_u)
        phi = IntegrandSpec.from_constant(SpectralOperator(space_u, space_h, eigenvalues))
    elif kind == "dense":
        phi = IntegrandSpec.from_constant(DenseOperator(space_u, space_h, mat))
    elif kind == "time_varying":
        mats = rng.normal(size=(n_steps + 1, dim_h, dim_u))
        phi = IntegrandSpec.from_matrices(space_u, space_h, mats)
    elif kind == "callback":
        phi = IntegrandSpec.from_callback(space_u, space_h, lambda i, inc: mat * (1.0 + i))
    else:  # per-path matrices that read the previous increment
        per_path = rng.normal(size=(n_paths, dim_h, dim_u))
        phi = IntegrandSpec.from_callback(
            space_u, space_h, lambda i, inc: per_path + (inc[:, i - 1, :1, None] if i else 0.0)
        )
    if draw(st.booleans()):
        sg = SemigroupSpec(space_h, rates=rng.uniform(0.0, 5.0, dim_h))
    else:
        sg = SemigroupSpec(space_h, generator=rng.normal(size=(dim_h, dim_h)))
    return ConvolutionRequest(phi, sg, noise)


@given(req=_direct_cases(), block_elements=st.sampled_from([BLOCK_ELEMENTS, 1, 7, 24, 100]))
@settings(max_examples=300, deadline=None)
def test_step_block_direct_convolution_is_bitwise_the_stepwise_oracle(req, block_elements):
    # small budgets give blocks of one step, blocks of several and a short last block
    with mock.patch.object(_parallel, "BLOCK_ELEMENTS", block_elements):
        fast = direct_convolution(req).values
    assert fast.tobytes() == _stepwise_direct_convolution(req).tobytes()


@pytest.mark.parametrize("dims", [(3, 3), (4, 2), (3, 1), (8, 1)])
@pytest.mark.parametrize("generator", [False, True])
def test_direct_convolution_in_blocks_with_a_short_last_one_is_bitwise_the_oracle(dims, generator):
    dim_u, dim_h = dims
    space_u, space_h = HilbertSpec(dim_u), HilbertSpec(dim_h)
    rng = np.random.default_rng(13)
    noise = sample_increments(QWienerSpec(space_u, np.ones(dim_u)), TimeGrid(1.0, 37), 8, 5)
    entries = rng.normal(size=(dim_h, dim_u))
    phi = IntegrandSpec.from_constant(DenseOperator(space_u, space_h, entries))
    if generator:
        sg = SemigroupSpec(space_h, generator=rng.normal(size=(dim_h, dim_h)))
    else:
        sg = SemigroupSpec(space_h, rates=rng.uniform(0.0, 5.0, dim_h))
    req = ConvolutionRequest(phi, sg, noise)
    seen = []

    def spy(step, n_paths, dim, blocks, fill):
        seen.append(list(blocks))
        return direct_recursion(step, n_paths, dim, blocks, fill)

    with mock.patch.object(_parallel, "BLOCK_ELEMENTS", 4 * 5 * dim_h), \
            mock.patch.object(convolution, "direct_recursion", spy):
        fast = direct_convolution(req).values
    assert fast.tobytes() == _stepwise_direct_convolution(req).tobytes()
    assert len(seen) == 1  # four steps a block, and a short last one
    assert seen[0] == [(start, min(start + 4, 37)) for start in range(0, 37, 4)]


@pytest.mark.parametrize("dims, n_paths, n_steps", [((4, 4), 200, 2000), ((2, 1), 500, 3000)])
def test_direct_convolution_holds_no_array_of_all_the_products(dims, n_paths, n_steps):
    # tracemalloc sees numpy's allocations: the values, the finiteness mask of
    # PathEnsemble (one byte per value) and a block buffer, not a (P, N, d) products array;
    # (2, 1) is a dense constant onto a one-dimensional H, whose products go to BLAS gemv
    dim_u, dim_h = dims
    space_u, space_h = HilbertSpec(dim_u), HilbertSpec(dim_h)
    noise = sample_increments(
        QWienerSpec(space_u, np.ones(dim_u)), TimeGrid(1.0, n_steps), 3, n_paths
    )
    if dim_u == dim_h:
        phi = IntegrandSpec.from_constant(SpectralOperator(space_u, space_h, np.ones(dim_h)))
    else:
        entries = np.random.default_rng(5).normal(size=(dim_h, dim_u))
        phi = IntegrandSpec.from_constant(DenseOperator(space_u, space_h, entries))
    rates = np.arange(1.0, dim_h + 1.0)
    req = ConvolutionRequest(phi, SemigroupSpec(space_h, rates=rates), noise)
    tracemalloc.start()
    try:
        values = direct_convolution(req).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = 8 * BLOCK_ELEMENTS
    assert values.nbytes >= 20 * block_bytes
    assert peak < values.nbytes + values.size + 4 * block_bytes


# ------------------------------------------------------- kernel pipeline


def test_kernel_beta_zero_reproduces_direct():
    req = _scalar_request(n_steps=150, n_paths=60, rate=1.0, beta=0.0)
    a = kernel_convolution(req).values
    b = direct_convolution(req).values
    scale = np.max(np.abs(b))
    assert np.max(np.abs(a - b)) <= 1e-12 * scale


def test_kernel_zero_integrand_is_zero():
    req = _scalar_request(n_paths=10)
    zero_phi = IntegrandSpec.from_constant(
        SpectralOperator(req.semigroup.space, req.semigroup.space, [0.0])
    )
    req0 = ConvolutionRequest(zero_phi, req.semigroup, req.noise, beta=0.25, r=req.r)
    assert np.all(kernel_convolution(req0).values == 0.0)


def test_kernel_isometry_riemann_sum_oracle():
    # lambda = 0, beta = 1/4: E[Y(T)^2] equals the left Riemann sum of s^(-1/2)
    n_steps, n_paths = 1000, 4000
    space = HilbertSpec(1)
    noise = sample_increments(QWienerSpec(space, [1.0]), TimeGrid(1.0, n_steps), 1212, n_paths)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0]))
    sg = SemigroupSpec(space, rates=[0.0], horizon=1.0)
    req = ConvolutionRequest(phi, sg, noise, beta=0.25, r=4.0)
    finals = kernel_convolution(req).values[:, -1, 0]
    dt = 1.0 / n_steps
    nodes = np.arange(n_steps) * dt
    discrete_sum = float(np.sum((1.0 - nodes) ** (-0.5) * dt))
    assert abs(discrete_sum - 2.0) <= 0.05 * 2.0
    second_moment = np.mean(finals**2)
    se = np.std(finals**2, ddof=1) / math.sqrt(n_paths)
    assert abs(second_moment - discrete_sum) <= 4.0 * se


def test_kernel_small_beta_continuity():
    req = _scalar_request(n_steps=200, n_paths=40)
    tiny = ConvolutionRequest(req.phi, req.semigroup, req.noise, beta=1e-8, r=4.0)
    a = kernel_convolution(tiny).values
    b = direct_convolution(req).values
    scale = np.max(np.abs(b))
    assert np.max(np.abs(a - b)) <= 1e-5 * scale


def _nonnormal_semigroup(space):
    """Dense, non-normal generator: covers the matrix-power branch of the lag loop."""
    return SemigroupSpec(space, generator=[[-0.6, 1.5], [0.0, -1.7]], horizon=1.0)


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_kernel_explicit_sum_oracle(kind):
    if kind == "diagonal":
        req = _scalar_request(n_steps=10, n_paths=3, rate=0.8, beta=0.4, seed=31)
    else:
        space = HilbertSpec(2)
        noise = sample_increments(QWienerSpec(space, [1.0, 0.5]), TimeGrid(1.0, 10), 31, 3)
        phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0, 1.0]))
        req = ConvolutionRequest(phi, _nonnormal_semigroup(space), noise, beta=0.4, r=4.0)
    ens = kernel_convolution(req)
    dt = req.noise.grid.dt
    inc = req.noise.increments
    for k in range(11):
        oracle = np.zeros(ens.values[:, k].shape)
        for i in range(k):
            s_mat = operator_matrix(semigroup_eval(req.semigroup, (k - i) * dt))
            oracle += ((k - i) * dt) ** (-0.4) * inc[:, i] @ s_mat.T
        assert np.allclose(ens.values[:, k], oracle, rtol=1e-12, atol=1e-15)


# --------------------------------------------------- smoothing pipeline


def test_smoothing_zero_input_is_zero():
    space = HilbertSpec(1)
    grid = TimeGrid(1.0, 50)
    zero = PathEnsemble(np.zeros((5, 51, 1)), grid)
    sg = SemigroupSpec(space, rates=[1.0], horizon=1.0)
    out = factorization_smoothing(zero, sg, beta=0.5, r=4.0)
    assert np.all(out.values == 0.0)


def test_smoothing_constant_input_telescopes():
    # Y = 1, identity semigroup: output at t is c_beta * t^beta / beta
    space = HilbertSpec(1)
    grid = TimeGrid(1.0, 64)
    ones = PathEnsemble(np.ones((2, 65, 1)), grid)
    sg = SemigroupSpec(space, rates=[0.0], horizon=1.0)
    beta = 0.6
    out = factorization_smoothing(ones, sg, beta=beta, r=4.0)
    expected = c_beta(beta) * grid.nodes**beta / beta
    assert np.allclose(out.values[:, :, 0], expected[None, :], rtol=1e-12, atol=1e-14)


def test_smoothing_requires_beta_above_one_over_r():
    space = HilbertSpec(1)
    grid = TimeGrid(1.0, 10)
    ens = PathEnsemble(np.ones((1, 11, 1)), grid)
    sg = SemigroupSpec(space, rates=[0.0], horizon=1.0)
    with pytest.raises(StochConvError):
        factorization_smoothing(ens, sg, beta=0.2, r=4.0)


def test_smoothing_pathwise_holder_bound():
    req = _scalar_request(n_steps=400, n_paths=200, beta=0.3, r=4.0, seed=808)
    rough = kernel_convolution(req)
    smoothed = factorization_smoothing(rough, req.semigroup, req.beta, req.r)
    factor = (
        c_beta(req.beta)
        * req.semigroup.bound
        * smoothing_bound_factor(req.beta, req.r, 1.0)
    )
    sups = path_sup_norms(smoothed)
    rough_norms = left_lr_norm(rough, req.r)
    assert np.all(sups <= factor * rough_norms + 1e-10)


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_smoothing_explicit_sum_oracle(rng, kind):
    # brute-force the product-integration sum on a tiny grid, with decay
    space = HilbertSpec(2)
    grid = TimeGrid(1.0, 9)
    values = rng.normal(size=(3, 10, 2))
    ens = PathEnsemble(values, grid)
    rates = np.array([0.6, 1.7])
    if kind == "diagonal":
        sg = SemigroupSpec(space, rates=rates, horizon=1.0)
    else:
        sg = _nonnormal_semigroup(space)
    beta, r = 0.45, 4.0
    out = factorization_smoothing(ens, sg, beta, r)
    dt = grid.dt
    cb = c_beta(beta)
    for path in range(3):
        for k in range(10):
            oracle = np.zeros(2)
            for i in range(k):
                weight = ((k - i) * dt) ** beta - ((k - i - 1) * dt) ** beta
                s_mat = operator_matrix(semigroup_eval(sg, (k - i) * dt))
                oracle += cb * weight / beta * (s_mat @ values[path, i])
            assert np.allclose(out.values[path, k], oracle, rtol=1e-11, atol=1e-14)


def test_smoothing_bound_factor_closed_form():
    # integral of w^((beta-1)r/(r-1)) over (0, T), then the (r-1)/r power
    beta, r, horizon = 0.3, 4.0, 1.0
    expo = (beta - 1.0) * r / (r - 1.0)
    oracle = (horizon ** (expo + 1.0) / (expo + 1.0)) ** ((r - 1.0) / r)
    assert smoothing_bound_factor(beta, r, horizon) == pytest.approx(oracle, rel=1e-14)
    with pytest.raises(StochConvError):
        smoothing_bound_factor(0.25, 4.0, 1.0)


# ---------------------------------------------------- lag engine


def _loop_lag_convolve(x, weights, semigroup, dt):
    """The O(P N^2 d) lag-by-lag sum that the FFT engine replaced, kept as its oracle."""
    n_lags = weights.size
    lags = lag_table(semigroup, dt, n_lags)
    values = np.zeros((x.shape[0], n_lags + 1, x.shape[2]))
    for j in range(1, n_lags + 1):
        block = x[:, : n_lags - j + 1, :]
        applied = block * lags[j] if lags.ndim == 2 else block @ lags[j].T
        values[:, j:, :] += weights[j - 1] * applied
    return values


@st.composite
def _lag_cases(draw):
    """A semigroup, lag weights and input shape of the two lag-engine callers."""
    dim = draw(st.integers(1, 4))
    n_lags = draw(st.integers(1, 70))  # 2N crosses the powers of two 2..128
    n_paths = draw(st.integers(1, 5))
    horizon = draw(st.floats(0.1, 3.0))
    beta = draw(st.floats(0.0, 1.0, exclude_max=True))
    space = HilbertSpec(dim)
    kind = draw(st.sampled_from(["diagonal", "dense", "triangular"]))
    if kind == "diagonal":
        rates = draw(st.lists(st.floats(0.0, 50.0), min_size=dim, max_size=dim))
        sg = SemigroupSpec(space, rates=rates, horizon=horizon)
    else:
        bound = 4.0 if kind == "dense" else 20.0
        entries = draw(st.lists(st.floats(-bound, bound), min_size=dim * dim, max_size=dim * dim))
        gen = np.array(entries).reshape(dim, dim)
        if kind == "triangular":  # strongly non-normal: transient growth before decay
            gen = np.triu(gen, 1) - np.diag(np.abs(np.diag(gen)))
        sg = SemigroupSpec(space, generator=gen, horizon=horizon)
    dt = horizon / n_lags
    if beta < 0.01 or draw(st.booleans()):  # kernel_convolution weights
        weights = (np.arange(1, n_lags + 1) * dt) ** (-beta)
    else:  # factorization_smoothing weights
        edges = (np.arange(n_lags + 1) * dt) ** beta
        weights = (edges[1:] - edges[:-1]) / beta
    return sg, weights, dt, (n_paths, n_lags + 1, dim)


@given(case=_lag_cases(), seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-3.0, 3.0))
@settings(max_examples=150, deadline=None)
def test_fft_lag_engine_matches_loop_oracle(case, seed, log_scale):
    # FFT rounding is relative to the largest input and kernel values, not to each node
    sg, weights, dt, shape = case
    x = np.random.default_rng(seed).normal(size=shape) * 10.0**log_scale
    fast = _lag_convolve(x, kernel_table(sg, dt, weights))
    slow = _loop_lag_convolve(x, weights, sg, dt)
    n_lags, dim = weights.size, shape[2]
    table = lag_table(sg, dt, n_lags)[1:]
    s_max = max(np.linalg.norm(np.diag(s) if s.ndim == 1 else s, 2) for s in table)
    eps = np.finfo(float).eps
    scale = np.max(np.abs(x[:, :n_lags])) * np.sum(np.abs(weights)) * s_max
    assert fast.shape == slow.shape
    assert np.all(fast[:, 0] == 0.0)
    assert np.max(np.abs(fast - slow)) <= 4.0 * eps * math.log2(4 * n_lags) * dim * scale


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_kernel_table_scales_the_lag_table_in_place(rng, kind):
    space, dt, n_lags = HilbertSpec(3), 0.05, 6
    if kind == "diagonal":
        sg = SemigroupSpec(space, rates=rng.uniform(0.0, 5.0, 3), horizon=1.0)
    else:
        sg = SemigroupSpec(space, generator=rng.normal(size=(3, 3)))
    weights = singular_weights(0.3, dt, n_lags)
    lag = lag_table(sg, dt, n_lags)
    expected = [w * s for w, s in zip(weights, lag[1:])]
    kernel = kernel_table(sg, dt, weights)
    # rows 1..N of its own lag table, scaled in place: no second table
    assert np.shares_memory(kernel, kernel.base) and kernel.base.shape == lag.shape
    assert kernel.shape == lag[1:].shape
    for got, want in zip(kernel, expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
@pytest.mark.parametrize("dim", [1, 3, 4])
def test_lag_engine_path_output_is_bitwise_independent_of_its_block(rng, kind, dim):
    # path blocks are sized by bytes, so which paths share a block depends on P, N and d
    space = HilbertSpec(dim)
    if kind == "diagonal":
        sg = SemigroupSpec(space, rates=rng.uniform(0.0, 5.0, dim), horizon=1.0)
    else:
        sg = SemigroupSpec(space, generator=rng.normal(size=(dim, dim)), horizon=1.0)
    n_lags = 300
    block = BLOCK_ELEMENTS // (_fft_length(2 * n_lags) * dim)
    n_paths = 2 * block + 3
    dt = 1.0 / n_lags
    weights = (np.arange(1, n_lags + 1) * dt) ** (-0.3)
    x = rng.normal(size=(n_paths, n_lags + 1, dim))
    kernel = kernel_table(sg, dt, weights)
    together = _lag_convolve(x, kernel)
    for path in (0, 1, block - 1, block, n_paths - 1):
        alone = _lag_convolve(x[path : path + 1], kernel)
        assert np.array_equal(alone[0], together[path])
    reversed_order = _lag_convolve(x[::-1], kernel)
    assert np.array_equal(reversed_order[::-1], together)


# ------------------------------------------------- factorized pipeline


def test_factorized_zero_integrand_is_zero():
    req = _scalar_request(n_paths=10)
    zero_phi = IntegrandSpec.from_constant(
        SpectralOperator(req.semigroup.space, req.semigroup.space, [0.0])
    )
    req0 = ConvolutionRequest(zero_phi, req.semigroup, req.noise, beta=0.3, r=4.0)
    assert np.all(factorized_convolution(req0).values == 0.0)


def test_factorized_linear_in_integrand():
    space = HilbertSpec(2)
    noise = sample_increments(QWienerSpec(space, [1.0, 0.7]), TimeGrid(1.0, 120), 55, 30)
    sg = SemigroupSpec(space, rates=[0.5, 1.5], horizon=1.0)
    phi_m = np.array([[1.0, 0.2], [0.0, 1.0]])
    psi_m = np.array([[0.3, -1.0], [0.8, 0.1]])
    a, b = 0.75, -1.25

    def run(matrix):
        phi = IntegrandSpec.from_constant(DenseOperator(space, space, matrix))
        return factorized_convolution(
            ConvolutionRequest(phi, sg, noise, beta=0.4, r=4.0)
        ).values

    lhs = run(a * phi_m + b * psi_m)
    rhs = a * run(phi_m) + b * run(psi_m)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_factorized_requires_admissible_beta():
    req = _scalar_request(beta=0.2, r=4.0)
    with pytest.raises(StochConvError):
        factorized_convolution(req)


def test_factorization_identity_refines_with_common_noise():
    space = HilbertSpec(1)
    fine = sample_increments(QWienerSpec(space, [1.0]), TimeGrid(1.0, 400), 606, 500)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0]))
    sg = SemigroupSpec(space, rates=[1.0], horizon=1.0)
    errors = []
    for factor in (4, 2, 1):
        noise = coarsen_increments(fine, factor)
        req = ConvolutionRequest(phi, sg, noise, beta=0.3, r=4.0)
        report = compare(direct_convolution(req), factorized_convolution(req))
        errors.append(report.max_node_mean)
    assert errors[2] < errors[1] < errors[0]


def test_factorization_identity_eight_mode_heat_case():
    dim = 8
    space = HilbertSpec(dim)
    rates = np.array([(k + 1) ** 2 for k in range(dim)], float)
    qs = np.array([(k + 1) ** (-2.0) for k in range(dim)])
    fine = sample_increments(QWienerSpec(space, qs), TimeGrid(1.0, 400), 7007, 200)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, np.ones(dim)))
    sg = SemigroupSpec(space, rates=rates, horizon=1.0)
    errors = []
    for factor in (4, 2, 1):
        noise = coarsen_increments(fine, factor)
        req = ConvolutionRequest(phi, sg, noise, beta=0.3, r=4.0)
        report = compare(direct_convolution(req), factorized_convolution(req))
        errors.append(report.max_node_mean)
    assert errors[2] < errors[1] < errors[0]


# ------------------------------------------------------------- compare


def test_compare_identical_ensembles_is_zero():
    req = _scalar_request(n_paths=20)
    x = direct_convolution(req)
    report = compare(x, x)
    assert report.sup_abs == 0.0
    assert np.all(report.per_node_mean_abs == 0.0)


def test_compare_opposite_ensembles_doubles_sup():
    req = _scalar_request(n_paths=20)
    x = direct_convolution(req)
    neg = PathEnsemble(-x.values, x.grid)
    report = compare(x, neg)
    assert report.sup_abs == 2.0 * np.max(path_sup_norms(x))


def test_compare_shape_mismatch():
    req = _scalar_request(n_paths=4, n_steps=16)
    other = _scalar_request(n_paths=4, n_steps=32)
    with pytest.raises(DimensionMismatchError):
        compare(direct_convolution(req), direct_convolution(other))


def test_request_validation():
    space = HilbertSpec(1)
    noise = sample_increments(QWienerSpec(space, [1.0]), TimeGrid(1.0, 8), 3, 2)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0]))
    sg = SemigroupSpec(space, rates=[1.0], horizon=1.0)
    with pytest.raises(StochConvError):
        ConvolutionRequest(phi, sg, noise, beta=1.0, r=4.0)
    with pytest.raises(StochConvError):
        ConvolutionRequest(phi, sg, noise, beta=0.5, r=1.0)
    wrong_space = HilbertSpec(2)
    tall = IntegrandSpec.from_constant(
        SpectralOperator(wrong_space, wrong_space, [1.0, 1.0])
    )
    with pytest.raises(DimensionMismatchError):
        ConvolutionRequest(tall, sg, noise)


def test_request_rejects_a_nan_exponent():
    req = _scalar_request(n_steps=4, n_paths=2)
    with pytest.raises(StochConvError, match="r must be"):
        ConvolutionRequest(req.phi, req.semigroup, req.noise, beta=0.3, r=math.nan)


def test_request_rejects_an_infinite_exponent():
    req = _scalar_request(n_steps=4, n_paths=2)
    with pytest.raises(StochConvError, match="r must be"):
        ConvolutionRequest(req.phi, req.semigroup, req.noise, beta=0.3, r=math.inf)


def test_left_lr_norm_rejects_an_infinite_exponent():
    # x ** (1 / inf) is 1 for every path: a number that bounds nothing
    ens = direct_convolution(_scalar_request(n_steps=4, n_paths=4))
    with pytest.raises(StochConvError, match="r="):
        left_lr_norm(ens, math.inf)


def test_smoothing_bound_factor_rejects_an_infinite_exponent():
    with pytest.raises(StochConvError, match="r="):
        smoothing_bound_factor(0.3, math.inf, 1.0)


# ------------------------------------------------- exponent checks


@pytest.mark.parametrize("r", [math.nan, True, "2", 0.5])
def test_left_lr_norm_rejects_a_bad_exponent(r):
    ens = direct_convolution(_scalar_request(n_steps=4, n_paths=4))
    with pytest.raises(StochConvError, match="r must be a finite real >= 1, got r="):
        left_lr_norm(ens, r)


@pytest.mark.parametrize("r", [math.nan, math.inf, 1.0, "4"])
def test_request_rejects_a_bad_exponent(r):
    req = _scalar_request(n_steps=4, n_paths=2)
    with pytest.raises(StochConvError, match="r must be a finite real > 1, got r="):
        ConvolutionRequest(req.phi, req.semigroup, req.noise, beta=0.3, r=r)


@pytest.mark.parametrize(
    "beta, r", [(0.2, 4.0), (0.5, math.inf), (1.5, 4.0), (math.nan, 4.0), (0.5, math.nan)]
)
@pytest.mark.parametrize("name", ["factorization_smoothing", "smoothing_bound_factor"])
def test_factorization_exponents_have_one_admissibility_check(name, beta, r):
    # 1/r < beta < 1 with a finite r, for the smoothing stage and its bound alike
    ens = PathEnsemble(np.ones((1, 11, 1)), TimeGrid(1.0, 10))
    sg = SemigroupSpec(HilbertSpec(1), rates=[1.0], horizon=1.0)
    with pytest.raises(StochConvError, match=r"requires beta in \(1/r, 1\) and a finite r"):
        if name == "factorization_smoothing":
            factorization_smoothing(ens, sg, beta, r)
        else:
            smoothing_bound_factor(beta, r, 1.0)


@pytest.mark.parametrize("beta, dt", [(0.99, 1e-315), (0.5, 0.0)])
def test_singular_weights_refuse_a_weight_that_overflows(beta, dt):
    # Python's pow raised OverflowError, or ZeroDivisionError at dt = 0
    with pytest.raises(StochConvError, match=re.escape(f"beta={beta}, dt={dt}")):
        singular_weights(beta, dt, 3)


@pytest.mark.parametrize("beta, dt", [(0.0, 5e-324), (0.5, 5e-324), (0.99, 1e-300)])
def test_singular_weights_take_a_tiny_step_whose_weights_are_finite(beta, dt):
    # the overflow check refuses only a weight that does not fit in a double
    got = singular_weights(beta, dt, 3)
    assert np.all(np.isfinite(got))
    assert got.tolist() == [(j * dt) ** (-beta) for j in range(1, 4)]


@pytest.mark.parametrize("beta", [0.0, 0.3, 0.75])
def test_singular_weights_are_the_scalar_pow_of_each_lag(beta):
    dt = 1.0 / 7.0
    got = singular_weights(beta, dt, 7)
    assert got.tolist() == [(j * dt) ** (-beta) for j in range(1, 8)]
