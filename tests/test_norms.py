import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochconv import (
    ConvolutionRequest,
    DenseOperator,
    DimensionMismatchError,
    HilbertSpec,
    IntegrandSpec,
    NormReport,
    PathEnsemble,
    QWienerSpec,
    SemigroupSpec,
    SpectralOperator,
    StochConvError,
    TimeGrid,
    TwoParameterField,
    c_beta,
    estimate_lpq,
    estimate_lpqr,
    factorization_smoothing,
    ito_integrate,
    kernel_convolution,
    lr_path_norm,
    sample_increments,
)
from stochconv import _parallel, norms
from stochconv.convolution import smoothing_bound_factor
from stochconv.hilbert import lag_table, operator_matrix, semigroup_eval
from stochconv.ito import node_magnitudes
from stochconv.norms import deterministic_lpq_norm, integral_norm_estimate, singular_kernel_field


def _constant_ensemble(value, n_paths=5, n_steps=8, horizon=1.0, dim=1):
    grid = TimeGrid(horizon, n_steps)
    return PathEnsemble(np.full((n_paths, n_steps + 1, dim), value), grid)


def test_lpq_constant_process():
    for horizon, q in ((1.0, 2.0), (2.0, 3.0), (0.5, 1.0)):
        ens = _constant_ensemble(1.3, horizon=horizon)
        report = estimate_lpq(ens, 2.0, q, n_boot=10)
        assert report.estimate == pytest.approx(1.3 * horizon ** (1.0 / q), rel=1e-12)
        assert report.standard_error == pytest.approx(0.0, abs=1e-12)


def test_lpq_exponent_collapse_plain_lp(rng):
    grid = TimeGrid(1.0, 40)
    values = rng.normal(size=(30, 41, 2))
    ens = PathEnsemble(values, grid)
    p = 3.0
    mags = np.sqrt(np.sum(values**2, axis=-1))
    oracle = float(np.trapezoid(np.mean(mags**p, axis=0), grid.nodes) ** (1.0 / p))
    report = estimate_lpq(ens, p, p, n_boot=5)
    assert report.estimate == pytest.approx(oracle, rel=1e-12)


def test_lpq_brownian_closed_form():
    space = HilbertSpec(1)
    noise = sample_increments(QWienerSpec(space, [1.0]), TimeGrid(1.0, 500), 1618, 10_000)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0]))
    walk = ito_integrate(phi, noise)
    report = estimate_lpq(walk, 2.0, 2.0, n_boot=200, seed=3)
    # E W_t^2 = t, so the norm is (T^2/2)^(1/2) at T = 1
    assert abs(report.estimate - 1.0 / math.sqrt(2.0)) <= 4.0 * report.standard_error
    assert report.standard_error > 0.0


def test_lpq_homogeneity(rng):
    grid = TimeGrid(1.0, 16)
    values = rng.normal(size=(12, 17, 1))
    ens = PathEnsemble(values, grid)
    base = estimate_lpq(ens, 2.0, 2.0, n_boot=0)
    doubled = estimate_lpq(PathEnsemble(2.0 * values, grid), 2.0, 2.0, n_boot=0)
    assert doubled.estimate == 2.0 * base.estimate
    scaled = estimate_lpq(PathEnsemble(-0.7 * values, grid), 3.0, 2.0, n_boot=0)
    ref = estimate_lpq(ens, 3.0, 2.0, n_boot=0)
    assert scaled.estimate == pytest.approx(0.7 * ref.estimate, rel=1e-12)


def test_lpq_monotone_in_exponents(rng):
    grid = TimeGrid(1.0, 24)
    for _ in range(25):
        ens = PathEnsemble(rng.normal(size=(40, 25, 2)), grid)
        p1, p2 = sorted(rng.uniform(1.0, 4.0, 2))
        q = float(rng.uniform(1.0, 4.0))
        low = estimate_lpq(ens, p1, q, n_boot=0).estimate
        high = estimate_lpq(ens, p2, q, n_boot=0).estimate
        assert low <= high * (1.0 + 1e-12)
        # q-monotonicity on the horizon-normalized time measure
        q1, q2 = sorted(rng.uniform(1.0, 4.0, 2))
        p = float(rng.uniform(1.0, 4.0))
        low_q = estimate_lpq(ens, p, q1, n_boot=0).estimate / 1.0 ** (1.0 / q1)
        high_q = estimate_lpq(ens, p, q2, n_boot=0).estimate / 1.0 ** (1.0 / q2)
        assert low_q <= high_q * (1.0 + 1e-12)


def test_lpq_rejects_bad_exponents():
    ens = _constant_ensemble(1.0)
    with pytest.raises(StochConvError):
        estimate_lpq(ens, 0.5, 2.0)
    with pytest.raises(StochConvError):
        estimate_lpqr(
            TwoParameterField(np.zeros((1, 9, 9)), TimeGrid(1.0, 8)), 1.0, 1.0, 0.5
        )


def test_lpqr_zero_field():
    field = TwoParameterField(np.zeros((3, 11, 11)), TimeGrid(1.0, 10))
    assert estimate_lpqr(field, 2.0, 2.0, 4.0, n_boot=5).estimate == 0.0


def test_lpqr_constant_field_factorizes():
    horizon = 2.0
    grid = TimeGrid(horizon, 10)
    c = 0.8
    field = TwoParameterField(np.full((4, 11, 11), c), grid)
    for (q, r) in ((2.0, 4.0), (1.0, 2.0), (3.0, 3.0)):
        report = estimate_lpqr(field, 2.0, q, r, n_boot=5)
        oracle = c * horizon ** (1.0 / q) * horizon ** (1.0 / r)
        assert report.estimate == pytest.approx(oracle, rel=1e-12)


def _lpqr_riemann_oracle(rate, beta, p, q, r, n_steps, horizon=1.0):
    """Riemann nested double quadrature of the singular OU field norm.

    The path mean is trivial for deterministic data, so the p exponent drops
    out; inner sum is the left rule in s over [0, t), outer the right rule in
    t over (0, horizon] (the integrand vanishes at t = 0).
    """
    dt = horizon / n_steps
    outer = 0.0
    for t_ix in range(1, n_steps + 1):
        inner = 0.0
        for s_ix in range(t_ix):
            lag = (t_ix - s_ix) * dt
            val = lag ** (-beta) * math.exp(-rate * lag)
            inner += val**q * dt
        outer += inner ** (r / q) * dt
    return outer ** (1.0 / r)


def test_lpqr_singular_ou_field_against_riemann_oracle():
    # deterministic integrand makes the path mean trivial
    rate, beta, p, q, r = 1.0, 0.3, 2.0, 2.0, 4.0
    n_steps = 800
    space = HilbertSpec(1)
    grid = TimeGrid(1.0, n_steps)
    sg = SemigroupSpec(space, rates=[rate], horizon=1.0)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0]))
    field = singular_kernel_field(phi, sg, grid, beta)
    report = estimate_lpqr(field, p, q, r, n_boot=0)
    oracle = _lpqr_riemann_oracle(rate, beta, p, q, r, n_steps)
    assert report.estimate == pytest.approx(oracle, rel=0.01)
    assert np.isfinite(report.estimate) and report.estimate > 0.0


def test_singular_field_dense_semigroup_matches_diagonal():
    space = HilbertSpec(2)
    grid = TimeGrid(1.0, 30)
    rates = np.array([0.5, 2.0])
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0, 0.5]))
    diag = singular_kernel_field(
        phi, SemigroupSpec(space, rates=rates, horizon=1.0), grid, 0.3
    )
    dense = singular_kernel_field(
        phi, SemigroupSpec(space, generator=-np.diag(rates), horizon=1.0), grid, 0.3
    )
    assert np.max(np.abs(diag.magnitudes - dense.magnitudes)) <= 1e-9


def _field_from_ensembles(ensembles, grid):
    """Stack one s-indexed path ensemble per t-node into a field."""
    return TwoParameterField(np.stack([node_magnitudes(e.values) for e in ensembles], axis=2), grid)


def test_field_from_ensembles_matches_direct_construction(rng):
    grid = TimeGrid(1.0, 6)
    stacks = [PathEnsemble(rng.normal(size=(3, 7, 2)), grid) for _ in range(7)]
    field = _field_from_ensembles(stacks, grid)
    for t_ix in (0, 3, 6):
        expected = np.sqrt(np.sum(stacks[t_ix].values ** 2, axis=-1))
        assert np.array_equal(field.magnitudes[:, :, t_ix], expected)


def test_factorized_norm_ratio_below_bound_constant():
    """The end-to-end boundedness chain of the two-stage pipeline holds."""
    rate, beta, p, q, r = 1.0, 0.3, 2.0, 2.0, 4.0
    n_steps, n_paths = 160, 800
    space = HilbertSpec(1)
    grid = TimeGrid(1.0, n_steps)
    sg = SemigroupSpec(space, rates=[rate], horizon=1.0)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0]))
    weight = SpectralOperator(space, space, [1.0])
    noise = sample_increments(QWienerSpec(space, [1.0]), grid, 9090, n_paths)
    req = ConvolutionRequest(phi, sg, noise, beta=beta, r=r)
    rough = kernel_convolution(req)
    smoothed = factorization_smoothing(rough, sg, beta, r)

    numerator = estimate_lpq(smoothed, r, r, n_boot=0).estimate
    field = singular_kernel_field(phi, sg, grid, beta, weight=weight)
    denominator = estimate_lpqr(field, p, q, r, n_boot=0).estimate
    assert np.isfinite(numerator)

    j_estimate = integral_norm_estimate(phi, sg, noise, beta, q, r, weight=weight)

    bound = (
        grid.horizon ** (1.0 / r)
        * c_beta(beta)
        * sg.bound
        * smoothing_bound_factor(beta, r, grid.horizon)
        * j_estimate
    )
    assert numerator / denominator <= bound


def _slice_battery_oracle(phi_mats, sg, noise, beta, q, r, weight):
    """The battery with S(t_k - s_i) from ``semigroup_eval`` for every (k, i) pair."""
    grid = noise.grid
    space_u, space_h = noise.spec.space, sg.space
    best = 0.0
    for k in range(1, grid.n_steps + 1):
        mats = np.zeros((grid.n_steps, space_h.dim, space_u.dim))
        for i in range(k):
            lag = (k - i) * grid.dt
            mats[i] = lag ** (-beta) * (operator_matrix(semigroup_eval(sg, lag)) @ phi_mats[i])
        slice_phi = IntegrandSpec.from_matrices(space_u, space_h, mats)
        norm = deterministic_lpq_norm(slice_phi, grid, q, weight=weight)
        if norm > 0.0:
            best = max(best, lr_path_norm(ito_integrate(slice_phi, noise), r).estimate / norm)
    return best


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_integral_norm_estimate_matches_per_pair_oracle(rng, kind):
    dim, n_steps, beta, q, r = 3, 12, 0.3, 2.0, 4.0
    space = HilbertSpec(dim)
    grid = TimeGrid(1.0, n_steps)
    rates = np.array([0.5, 1.0, 3.0])
    if kind == "diagonal":
        sg = SemigroupSpec(space, rates=rates, horizon=1.0)
    else:  # non-normal: strict upper coupling on top of the diagonal decay
        sg = SemigroupSpec(space, generator=np.triu(rng.normal(size=(3, 3)), 1) - np.diag(rates))
    phi_mats = rng.normal(size=(n_steps, dim, dim))
    phi = IntegrandSpec.from_matrices(space, space, phi_mats)
    weight = SpectralOperator(space, space, [1.0, 0.5, 0.25])
    noise = sample_increments(QWienerSpec(space, [1.0, 0.5, 0.25]), grid, 4, 30)
    got = integral_norm_estimate(phi, sg, noise, beta, q, r, weight=weight)
    oracle = _slice_battery_oracle(phi_mats, sg, noise, beta, q, r, weight)
    if kind == "diagonal":
        assert got == oracle
    else:  # S(dt)^j against expm(j dt A): rounding only
        assert got == pytest.approx(oracle, rel=1e-12)


def _padded_slice_battery(phi, nodes, sg, noise, beta, q, r, weight):
    """The battery with every slice a zero-padded N-step integrand, integrated over all N steps."""
    grid = noise.grid
    n_steps, dt = grid.n_steps, grid.dt
    lag_mats = lag_table(sg, dt, n_steps)
    if lag_mats.ndim == 2:
        lag_mats = np.stack([np.diag(row) for row in lag_mats])
    kernel = np.array([(j * dt) ** (-beta) for j in range(1, n_steps + 1)])
    best = 0.0
    for k in range(1, n_steps + 1):
        mats = np.zeros((n_steps, phi.codomain.dim, phi.domain.dim))
        mats[:k] = kernel[k - 1 :: -1, None, None] * (lag_mats[k:0:-1] @ nodes[:k])
        slice_phi = IntegrandSpec.from_matrices(phi.domain, phi.codomain, mats)
        norm = deterministic_lpq_norm(slice_phi, grid, q, weight=weight)
        if norm > 0.0:
            best = max(best, lr_path_norm(ito_integrate(slice_phi, noise), r).estimate / norm)
    return best


@given(
    dim_u=st.integers(1, 3),
    dim_h=st.sampled_from([1, 2, 3, 7, 8, 9]),
    n_steps=st.integers(1, 24),
    n_paths=st.integers(1, 6),
    beta=st.floats(0.0, 1.0, exclude_max=True),
    dense=st.booleans(),
    kind=st.sampled_from(["spectral", "dense", "time_varying"]),
    q=st.sampled_from([1.0, 2.0, 3.5]),
    r=st.sampled_from([1.0, 2.0, 4.0]),
    weighted=st.booleans(),
    slices_per_block=st.one_of(st.none(), st.integers(1, 3)),
    seed=st.integers(0, 2**32 - 1),
)
# 64 paths at dim_H 8 and 9, where numpy's sum of the squares turns pairwise
@example(3, 8, 16, 64, 0.3, True, "time_varying", 2.0, 4.0, False, None, 1)
@example(2, 9, 16, 64, 0.3, False, "dense", 2.0, 4.0, True, 2, 2)
@settings(max_examples=200, deadline=None)
def test_integral_norm_estimate_matches_padded_slice_oracle(
    dim_u, dim_h, n_steps, n_paths, beta, dense, kind, q, r, weighted, slices_per_block, seed
):
    rng = np.random.default_rng(seed)
    space_u, space_h = HilbertSpec(dim_u), HilbertSpec(dim_h)
    rates = rng.uniform(0.0, 3.0, dim_h)
    if dense:  # non-normal: strict upper coupling on top of the diagonal decay
        coupling = np.triu(rng.normal(size=(dim_h, dim_h)), 1)
        sg = SemigroupSpec(space_h, generator=coupling - np.diag(rates))
    else:
        sg = SemigroupSpec(space_h, rates=rates, horizon=1.0)
    if kind == "spectral" and dim_u == dim_h:
        eigenvalues = rng.normal(size=dim_u)
        phi = IntegrandSpec.from_constant(SpectralOperator(space_u, space_h, eigenvalues))
    elif kind == "time_varying":  # N or N + 1 node matrices
        mats = rng.normal(size=(n_steps + int(rng.integers(0, 2)), dim_h, dim_u))
        phi = IntegrandSpec.from_matrices(space_u, space_h, mats)
    else:
        phi = IntegrandSpec.from_constant(
            DenseOperator(space_u, space_h, rng.normal(size=(dim_h, dim_u)))
        )
    nodes = (
        phi.node_matrices[:n_steps] if kind == "time_varying"
        else np.broadcast_to(operator_matrix(phi.constant), (n_steps, dim_h, dim_u))
    )
    # some weight eigenvalues are zero, so whole slices can vanish at dim_U 1
    weight = (
        SpectralOperator(space_u, space_u, rng.uniform(0.0, 1.0, dim_u) * (rng.random(dim_u) < 0.8))
        if weighted else None
    )
    noise = sample_increments(
        QWienerSpec(space_u, rng.uniform(0.1, 1.0, dim_u)), TimeGrid(1.0, n_steps), seed, n_paths
    )
    want = _padded_slice_battery(phi, nodes, sg, noise, beta, q, r, weight)
    with pytest.MonkeyPatch.context() as mp:
        if slices_per_block is not None:  # every step past the last 3 splits into blocks
            mp.setattr(_parallel, "BLOCK_ELEMENTS", slices_per_block * dim_h * n_paths)
        assert integral_norm_estimate(phi, sg, noise, beta, q, r, weight=weight) == want


@pytest.mark.parametrize("block_elements", [None, 25])
def test_integral_norm_estimate_multiplies_each_open_slice_once_per_step(
    monkeypatch, block_elements
):
    n_steps = 7
    space, grid = HilbertSpec(2), TimeGrid(1.0, n_steps)
    sg = SemigroupSpec(space, rates=[1.0, 2.0], horizon=1.0)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0, 0.5]))
    noise = sample_increments(QWienerSpec(space, [1.0, 1.0]), grid, 3, 5)
    pairs = Counter()
    original = norms.step_products

    def recording(mats, inc, out=None):
        step = [i for i in range(n_steps) if np.array_equal(inc, noise.increments[:, i : i + 1])]
        assert len(step) == 1, "one step's increments per call"
        pairs[step[0]] += mats.shape[0]
        return original(mats, inc, out=out)

    def refuse(self):
        raise AssertionError(f"the battery built a {type(self).__name__}")

    monkeypatch.setattr(norms, "step_products", recording)
    if block_elements is not None:  # 10 elements per slice: blocks of 2 slices
        monkeypatch.setattr(_parallel, "BLOCK_ELEMENTS", block_elements)
    for cls in (IntegrandSpec, PathEnsemble, NormReport):
        monkeypatch.setattr(cls, "__post_init__", refuse)
    assert integral_norm_estimate(phi, sg, noise, 0.3, 2.0, 4.0) > 0.0
    # step i multiplies dW_i by the N - i slices k > i still open, and by no other
    assert pairs == {i: n_steps - i for i in range(n_steps)}
    assert sum(pairs.values()) == n_steps * (n_steps + 1) // 2


def _weight_mismatch_calls():
    space, grid = HilbertSpec(2), TimeGrid(1.0, 6)
    sg = SemigroupSpec(space, rates=[1.0, 2.0], horizon=1.0)
    phi = IntegrandSpec.from_matrices(space, space, np.ones((6, 2, 2)))
    noise = sample_increments(QWienerSpec(space, [1.0, 1.0]), grid, 3, 4)
    wrong = SpectralOperator(HilbertSpec(3), HilbertSpec(3), [1.0, 1.0, 1.0])
    return {
        "singular_kernel_field": lambda: singular_kernel_field(phi, sg, grid, 0.3, weight=wrong),
        "deterministic_lpq_norm": lambda: deterministic_lpq_norm(phi, grid, 2.0, weight=wrong),
        "integral_norm_estimate": lambda: integral_norm_estimate(
            phi, sg, noise, 0.3, 2.0, 4.0, weight=wrong
        ),
    }


@pytest.mark.parametrize("name", sorted(_weight_mismatch_calls()))
def test_weight_on_another_space_is_a_dimension_mismatch(name):
    with pytest.raises(DimensionMismatchError, match="weight must act"):
        _weight_mismatch_calls()[name]()


def test_deterministic_lpq_norm_rejects_negative_weight():
    space, grid = HilbertSpec(2), TimeGrid(1.0, 6)
    phi = IntegrandSpec.from_matrices(space, space, np.ones((6, 2, 2)))
    weight = SpectralOperator(space, space, [1.0, -0.5])
    with pytest.raises(StochConvError, match="nonnegative"):
        deterministic_lpq_norm(phi, grid, 2.0, weight=weight)


def test_singular_field_needs_one_matrix_per_step(rng):
    # the node-N matrix never enters the field, so N matrices give the same field as N + 1
    space, grid = HilbertSpec(2), TimeGrid(1.0, 6)
    sg = SemigroupSpec(space, rates=[1.0, 2.0], horizon=1.0)
    mats = rng.normal(size=(7, 2, 2))
    fields = [
        singular_kernel_field(IntegrandSpec.from_matrices(space, space, m), sg, grid, 0.3)
        for m in (mats, mats[:6])
    ]
    assert np.array_equal(fields[0].magnitudes, fields[1].magnitudes)


@pytest.mark.parametrize("name", ["deterministic_lpq_norm", "integral_norm_estimate"])
def test_integrand_short_of_one_matrix_per_step_is_a_dimension_mismatch(name):
    # 4 node matrices on a 10-step grid
    space, grid = HilbertSpec(1), TimeGrid(1.0, 10)
    phi = IntegrandSpec.from_matrices(space, space, np.ones((4, 1, 1)))
    sg = SemigroupSpec(space, rates=[1.0], horizon=1.0)
    noise = sample_increments(QWienerSpec(space, [1.0]), grid, 3, 4)
    with pytest.raises(DimensionMismatchError, match="one operator per step"):
        if name == "deterministic_lpq_norm":
            deterministic_lpq_norm(phi, grid, 2.0)
        else:
            integral_norm_estimate(phi, sg, noise, 0.3, 2.0, 4.0)


# an exponent that is NaN, infinite or below 1 gives a number that bounds nothing
_BAD_EXPONENT = r"[pqr] must be a finite real >= 1"


@pytest.mark.parametrize(
    "p, q", [(math.nan, 2.0), (2.0, math.inf), (math.inf, 2.0), (10**400, 2.0)]
)
def test_estimate_lpq_rejects_a_bad_exponent(p, q):
    with pytest.raises(StochConvError, match=_BAD_EXPONENT):
        estimate_lpq(_constant_ensemble(1.0), p, q)


@pytest.mark.parametrize(
    "p, q, r", [(2.0, 2.0, math.inf), (math.nan, 2.0, 2.0), (2.0, math.nan, 2.0), (2.0, 2.0, "2")]
)
def test_estimate_lpqr_rejects_a_bad_exponent(p, q, r):
    field = TwoParameterField(np.ones((1, 9, 9)), TimeGrid(1.0, 8))
    with pytest.raises(StochConvError, match=_BAD_EXPONENT):
        estimate_lpqr(field, p, q, r)


@pytest.mark.parametrize("q", [math.nan, math.inf, "2"])
def test_deterministic_lpq_norm_rejects_a_bad_exponent(q):
    space = HilbertSpec(1)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0]))
    with pytest.raises(StochConvError, match=_BAD_EXPONENT):
        deterministic_lpq_norm(phi, TimeGrid(1.0, 6), q)


def _battery_case():
    space, grid = HilbertSpec(1), TimeGrid(1.0, 6)
    sg = SemigroupSpec(space, rates=[1.0], horizon=1.0)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0]))
    return phi, sg, sample_increments(QWienerSpec(space, [1.0]), grid, 3, 4)


@pytest.mark.parametrize(
    "q, r", [(math.nan, 4.0), (math.inf, 4.0), (0.5, 4.0), (2.0, math.nan), (2.0, math.inf)]
)
def test_integral_norm_estimate_rejects_a_bad_exponent(q, r):
    phi, sg, noise = _battery_case()
    with pytest.raises(StochConvError, match=_BAD_EXPONENT):
        integral_norm_estimate(phi, sg, noise, 0.3, q, r)


@pytest.mark.parametrize("beta", [math.nan, 1.5, -1.0])
def test_integral_norm_estimate_rejects_a_kernel_exponent_outside_0_1(beta):
    phi, sg, noise = _battery_case()
    with pytest.raises(StochConvError, match=r"beta must lie in \[0, 1\)"):
        integral_norm_estimate(phi, sg, noise, beta, 2.0, 4.0)
