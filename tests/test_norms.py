import math

import numpy as np
import pytest

from stochconv import (
    ConvolutionRequest,
    HilbertSpec,
    IntegrandSpec,
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
from stochconv.convolution import smoothing_bound_factor
from stochconv.hilbert import operator_matrix, semigroup_eval
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


def test_field_from_ensembles_matches_direct_construction(rng):
    grid = TimeGrid(1.0, 6)
    stacks = [PathEnsemble(rng.normal(size=(3, 7, 2)), grid) for _ in range(7)]
    field = TwoParameterField.from_ensembles(stacks, grid)
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
