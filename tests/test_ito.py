import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochconv import (
    DenseOperator,
    DimensionMismatchError,
    HilbertSpec,
    IntegrandSpec,
    PathEnsemble,
    PredictabilityError,
    QWienerSpec,
    SpectralOperator,
    StochConvError,
    TimeGrid,
    apply_operator,
    hs_norm,
    ito_integrate,
    lr_path_norm,
    probe_predictability,
    sample_increments,
)
from stochconv.ito import export_paths_csv, integrand_products, path_sup_norms, step_products

from conftest import wiener_values

# (E sup_{[0,1]} |W|^2)^(1/2) from a reflection-principle Monte Carlo oracle
# run at dt = 1e-4 with 1e5 paths (series CDF value in the continuum: 1.353489).
BROWNIAN_SUP_L2_ORACLE = 1.347505
BROWNIAN_SUP_L2_ORACLE_SE = 0.0019


def _scalar_noise(n_steps, n_paths, seed=11):
    space = HilbertSpec(1)
    return sample_increments(QWienerSpec(space, [1.0]), TimeGrid(1.0, n_steps), seed, n_paths)


def test_zero_integrand_gives_zero_ensemble(scalar_wiener, scalar_space):
    phi = IntegrandSpec.from_constant(SpectralOperator(scalar_space, scalar_space, [0.0]))
    ens = ito_integrate(phi, scalar_wiener)
    assert np.all(ens.values == 0.0)


def test_unit_integrand_telescopes_to_wiener_path(scalar_wiener, unit_integrand):
    ens = ito_integrate(unit_integrand, scalar_wiener)
    for path in (0, 7, 133):
        assert np.array_equal(ens.values[path], wiener_values(scalar_wiener, path))


def test_ito_isometry_scalar_unit_case():
    noise = _scalar_noise(100, 10_000, seed=314)
    phi = IntegrandSpec.from_constant(
        SpectralOperator(HilbertSpec(1), HilbertSpec(1), [1.0])
    )
    finals = ito_integrate(phi, noise).values[:, -1, 0]
    second_moment = np.mean(finals**2)
    se = np.std(finals**2, ddof=1) / np.sqrt(finals.size)
    assert abs(second_moment - 1.0) <= 4.0 * se


def test_ito_isometry_weighted_time_varying():
    space_u, space_h = HilbertSpec(2), HilbertSpec(2)
    q = [1.0, 0.5]
    grid = TimeGrid(1.0, 50)
    noise = sample_increments(QWienerSpec(space_u, q), grid, 2024, 10_000)
    rng = np.random.default_rng(5)
    mats = rng.normal(size=(grid.n_steps, 2, 2))
    phi = IntegrandSpec.from_matrices(space_u, space_h, mats)
    finals = ito_integrate(phi, noise).values[:, -1, :]
    norms_sq = np.sum(finals**2, axis=1)
    weight = SpectralOperator(space_u, space_u, q)
    target = sum(
        hs_norm(DenseOperator(space_u, space_h, m), weight) ** 2 * grid.dt for m in mats
    )
    se = np.std(norms_sq, ddof=1) / np.sqrt(norms_sq.size)
    assert abs(np.mean(norms_sq) - target) <= 4.0 * se


def test_linearity_on_common_noise(rng):
    space = HilbertSpec(3)
    noise = sample_increments(QWienerSpec(space, [1.0, 0.5, 2.0]), TimeGrid(1.0, 80), 17, 100)
    mats_a = rng.normal(size=(80, 3, 3))
    mats_b = rng.normal(size=(80, 3, 3))
    a, b = 1.3, -0.4
    phi = IntegrandSpec.from_matrices(space, space, mats_a)
    psi = IntegrandSpec.from_matrices(space, space, mats_b)
    mixed = IntegrandSpec.from_matrices(space, space, a * mats_a + b * mats_b)
    lhs = ito_integrate(mixed, noise).values
    rhs = a * ito_integrate(phi, noise).values + b * ito_integrate(psi, noise).values
    scale = np.max(np.abs(rhs)) or 1.0
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_commutation_with_bounded_operator(rng):
    space = HilbertSpec(3)
    noise = sample_increments(QWienerSpec(space, [1.0, 1.0, 0.2]), TimeGrid(1.0, 60), 23, 50)
    mats = rng.normal(size=(60, 3, 3))
    phi = IntegrandSpec.from_matrices(space, space, mats)
    integral = ito_integrate(phi, noise)
    for _ in range(10):
        q_mat = rng.normal(size=(3, 3))
        q_op = DenseOperator(space, space, q_mat)
        lhs = apply_operator(q_op, integral.values)
        rhs = ito_integrate(
            IntegrandSpec.from_matrices(space, space, q_mat @ mats), noise
        ).values
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_adapted_integrand_uses_past_only(scalar_wiener, scalar_space):
    def running_level_gain(i, increments):
        # reads only increments with step index < i
        level = increments[:, :i, :].sum(axis=(1, 2))
        return np.tanh(level)[:, None, None] * np.ones((1, 1, 1))

    phi = IntegrandSpec.from_callback(scalar_space, scalar_space, running_level_gain)
    probe_predictability(phi, scalar_wiener)
    ens = ito_integrate(phi, scalar_wiener)
    assert np.all(np.isfinite(ens.values))


def test_adapted_matches_time_varying_when_deterministic(scalar_wiener, scalar_space):
    gains = np.linspace(0.5, 2.0, scalar_wiener.grid.n_steps)

    def deterministic_gain(i, increments):
        return np.array([[gains[i]]])

    via_callback = ito_integrate(
        IntegrandSpec.from_callback(scalar_space, scalar_space, deterministic_gain),
        scalar_wiener,
    )
    via_matrices = ito_integrate(
        IntegrandSpec.from_matrices(scalar_space, scalar_space, gains[:, None, None]),
        scalar_wiener,
    )
    assert np.allclose(via_callback.values, via_matrices.values, rtol=1e-14, atol=0.0)


def test_scaling_by_one_is_the_integrand_itself(scalar_space):
    # 1.0 * x is exact: no copy of a node table, no wrapper round a callback
    callback = IntegrandSpec.from_callback(scalar_space, scalar_space, lambda i, inc: [[2.0]])
    for phi in (
        callback,
        IntegrandSpec.from_constant(SpectralOperator(scalar_space, scalar_space, [3.0])),
        IntegrandSpec.from_matrices(scalar_space, scalar_space, np.ones((4, 1, 1))),
    ):
        assert phi.scaled(1.0) is phi
        assert phi.scaled(-1.0) is not phi
    assert callback.scaled(-1.0).callback(0, None).tolist() == [[-2.0]]


def test_adapted_probe_catches_future_peeking(scalar_wiener, scalar_space):
    def cheater(i, increments):
        # reads the step-i increment, which is not yet known at node i
        return np.abs(increments[:, i, :])[:, :, None]

    phi = IntegrandSpec.from_callback(scalar_space, scalar_space, cheater)
    with pytest.raises(PredictabilityError):
        probe_predictability(phi, scalar_wiener)
    with pytest.raises(PredictabilityError):
        ito_integrate(phi, scalar_wiener, probe=True)


def test_sup_norm_examples():
    grid = TimeGrid(1.0, 2)
    zero = PathEnsemble(np.zeros((1, 3, 1)), grid)
    assert path_sup_norms(zero)[0] == 0.0
    monotone = PathEnsemble(np.array([[[0.0], [1.0], [3.0]]]), grid)
    assert path_sup_norms(monotone)[0] == 3.0


def test_sup_norm_homogeneity(rng):
    grid = TimeGrid(1.0, 9)
    values = rng.normal(size=(4, 10, 3))
    ens = PathEnsemble(values, grid)
    for a in (-2.5, 0.0, 0.3):
        scaled = PathEnsemble(a * values, grid)
        assert path_sup_norms(scaled) == pytest.approx(
            abs(a) * path_sup_norms(ens), rel=1e-12, abs=1e-300
        )


def test_lr_path_norm_constant_and_zero():
    grid = TimeGrid(1.0, 4)
    const = PathEnsemble(np.full((6, 5, 1), 2.5), grid)
    for r in (1.0, 2.0, 3.7):
        report = lr_path_norm(const, r)
        assert report.estimate == pytest.approx(2.5, rel=1e-12)
        assert report.standard_error == pytest.approx(0.0, abs=1e-12)
    zero = PathEnsemble(np.zeros((6, 5, 1)), grid)
    assert lr_path_norm(zero, 2.0).estimate == 0.0


@pytest.mark.parametrize(
    "sups, r, estimate, se",
    [
        # moment 2, SE of the mean sqrt(2) / sqrt(2) = 1, scaled by 2 / (1 * 2)
        ([1.0, 3.0], 1.0, 2.0, 1.0),
        # moment 5, SE of the mean 4, scaled by sqrt(5) / (2 * 5)
        ([1.0, 3.0], 2.0, math.sqrt(5.0), 2.0 / math.sqrt(5.0)),
        # one path: no spread to estimate, the SE is 0
        ([3.0], 2.0, 3.0, 0.0),
    ],
    ids=["r1", "r2", "one-path"],
)
def test_lr_path_norm_hand_moment_and_delta_se(sups, r, estimate, se):
    # each path's sup sits at its last node, behind a larger negative coordinate elsewhere
    values = np.zeros((len(sups), 3, 2))
    for path, sup in enumerate(sups):
        values[path, 1] = [0.0, -0.5 * sup]
        values[path, 2] = [0.6 * sup, -0.8 * sup]
    report = lr_path_norm(PathEnsemble(values, TimeGrid(1.0, 2)), r)
    assert report.estimate == pytest.approx(estimate, rel=1e-14)
    assert report.standard_error == pytest.approx(se, rel=1e-14, abs=0.0)
    assert (report.p, report.q, report.r, report.n_paths) == (r, r, r, len(sups))


def test_lr_path_norm_brownian_against_frozen_oracle():
    space = HilbertSpec(1)
    noise = sample_increments(QWienerSpec(space, [1.0]), TimeGrid(1.0, 1000), 161803, 20_000)
    phi = IntegrandSpec.from_constant(SpectralOperator(space, space, [1.0]))
    report = lr_path_norm(ito_integrate(phi, noise), 2.0)
    # node-sampled sup is a lower bound; 0.035 covers the dt=1e-3 deficit
    upper = BROWNIAN_SUP_L2_ORACLE + 4.0 * (report.standard_error + BROWNIAN_SUP_L2_ORACLE_SE)
    assert report.estimate <= upper
    assert report.estimate >= BROWNIAN_SUP_L2_ORACLE - 0.035


def test_lr_path_norm_rejects_small_exponent():
    grid = TimeGrid(1.0, 1)
    ens = PathEnsemble(np.zeros((1, 2, 1)), grid)
    with pytest.raises(StochConvError):
        lr_path_norm(ens, 0.5)


def test_lr_path_norm_rejects_an_infinite_exponent():
    # x ** (1 / inf) is 1: an estimate of 1.0 whatever the paths
    ens = PathEnsemble(np.full((3, 5, 1), 2.5), TimeGrid(1.0, 4))
    with pytest.raises(StochConvError, match="r="):
        lr_path_norm(ens, np.inf)


@pytest.mark.parametrize("r", [np.inf, np.nan])
def test_lr_path_norm_rejects_a_non_finite_exponent(r):
    ens = PathEnsemble(np.full((3, 5, 1), 2.5), TimeGrid(1.0, 4))
    with pytest.raises(StochConvError, match="r="):
        lr_path_norm(ens, r)


def test_path_sup_norms_matches_per_path(rng):
    grid = TimeGrid(1.0, 5)
    ens = PathEnsemble(rng.normal(size=(7, 6, 2)), grid)
    batch = path_sup_norms(ens)
    for path in range(7):
        alone = PathEnsemble(ens.values[path : path + 1], grid)
        assert batch[path] == path_sup_norms(alone)[0]


def test_csv_export_roundtrip(tmp_path, scalar_wiener, unit_integrand):
    ens = ito_integrate(unit_integrand, scalar_wiener)
    path = tmp_path / "paths.csv"
    export_paths_csv(ens, str(path))
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "path_id,t,coord_0"
    assert len(lines) == 1 + ens.n_paths * (ens.grid.n_steps + 1)
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0 and float(first[2]) == 0.0


def test_dimension_mismatch_raises(scalar_wiener):
    space2 = HilbertSpec(2)
    phi = IntegrandSpec.from_constant(SpectralOperator(space2, space2, [1.0, 1.0]))
    with pytest.raises(DimensionMismatchError):
        ito_integrate(phi, scalar_wiener)


def test_time_varying_needs_enough_operators(scalar_wiener, scalar_space):
    phi = IntegrandSpec.from_matrices(scalar_space, scalar_space, np.ones((10, 1, 1)))
    with pytest.raises(DimensionMismatchError):
        ito_integrate(phi, scalar_wiener)


def _einsum_step_products(mats, inc, out=None):
    """The step products as one non-BLAS einsum: the slow oracle of ``step_products``."""
    return np.einsum("ihu,piu->pih", mats, inc, out=out)


def _signed_entries(rng, shape):
    """Magnitudes over six decades, random signs, and about one entry in five a signed zero."""
    sign = rng.choice([-1.0, 1.0], size=shape)
    magnitude = 10.0 ** rng.uniform(-3.0, 3.0, size=shape) * (rng.random(shape) >= 0.2)
    return sign * magnitude


@given(
    d_u=st.integers(1, 9),
    d_h=st.integers(1, 9),
    n_steps=st.integers(1, 40),
    n_paths=st.integers(1, 8),
    out_kind=st.sampled_from(["none", "array", "view"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_step_products_match_einsum_oracle(d_u, d_h, n_steps, n_paths, out_kind, seed):
    rng = np.random.default_rng(seed)
    mats = _signed_entries(rng, (n_steps, d_h, d_u))
    inc = _signed_entries(rng, (n_paths, n_steps, d_u))
    buf = np.full((n_paths, n_steps + int(rng.integers(1, 4)), d_h), np.nan)
    out = {"none": None, "array": np.empty((n_paths, n_steps, d_h)), "view": buf[:, :n_steps]}[
        out_kind
    ]
    got = step_products(mats, inc, out=out)
    want = _einsum_step_products(mats, inc)
    if out is not None:
        assert np.shares_memory(got, out) and got.shape == out.shape
    assert np.all(np.isnan(buf[:, n_steps:]))  # a view is written only where it points
    if d_u == 1:  # one product and no sum: the same bytes, signed zeros included
        assert got.tobytes() == want.tobytes()
    else:  # each side sums d_u products within (d_u / 2) eps sum |M||x| (Higham, 3.1)
        bound = d_u * np.finfo(float).eps * _einsum_step_products(np.abs(mats), np.abs(inc))
        assert np.all(np.abs(got - want) <= bound)


def test_step_products_give_a_zero_product_the_sign_of_a_sum():
    # a sum started from +0.0 turns -0.0 into +0.0; the dim_U == 1 product must too
    mats = np.array([[[-0.0], [1.0]]])
    inc = np.array([[[1.0]], [[-0.0]]])
    got = step_products(mats, inc)
    assert got.tobytes() == _einsum_step_products(mats, inc).tobytes()
    assert not np.any(np.signbit(got))


@pytest.mark.parametrize(
    "dim_u, dim_h, n_paths, n_steps",
    [(4, 4, 1, 30), (4, 4, 3, 1), (8, 1, 5, 37), (2, 1, 1, 1), (3, 2, 4, 6)],
)
def test_a_dense_constant_is_one_product_per_step_over_all_paths(dim_u, dim_h, n_paths, n_steps):
    # each step is its own call over all paths: at one path, one step or dim_H = 1 < dim_U
    # other splits of the products reach BLAS gemv, which sums in another order than gemm
    space_u, space_h = HilbertSpec(dim_u), HilbertSpec(dim_h)
    rng = np.random.default_rng(dim_u * 100 + n_paths * 10 + n_steps)
    op = DenseOperator(space_u, space_h, _signed_entries(rng, (dim_h, dim_u)))
    noise = sample_increments(
        QWienerSpec(space_u, np.ones(dim_u)), TimeGrid(1.0, n_steps), 9, n_paths
    )
    products = integrand_products(IntegrandSpec.from_constant(op), noise)
    for i in range(n_steps):
        want = apply_operator(op, noise.increments[:, i])
        assert products[:, i].tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [True, "2", 0.5])
def test_lr_path_norm_takes_only_a_real_exponent_of_at_least_one(r):
    ens = PathEnsemble(np.full((3, 5, 1), 2.5), TimeGrid(1.0, 4))
    with pytest.raises(StochConvError, match="r must be a finite real >= 1, got r="):
        lr_path_norm(ens, r)
