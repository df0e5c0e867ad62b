import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochconv import (
    DenseOperator,
    FubiniFamily,
    HilbertSpec,
    IntegrandSpec,
    PathEnsemble,
    QWienerSpec,
    SpectralOperator,
    StochConvError,
    TimeGrid,
    fubini_report,
    integrate_then_ito,
    ito_integrate,
    ito_then_integrate,
    sample_increments,
)
from stochconv import experiments, fubini
from stochconv.config import parse_config
from stochconv.convolution import compare
from stochconv.experiments import run_experiment
from stochconv.ito import fill_products, integrand_products

from conftest import relative_gap

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _noise(dim=1, n_steps=100, n_paths=50, seed=101):
    space = HilbertSpec(dim)
    return sample_increments(
        QWienerSpec(space, [1.0] * dim), TimeGrid(1.0, n_steps), seed, n_paths
    )


def _constant_integrand(dim=1, scale=1.0):
    space = HilbertSpec(dim)
    return IntegrandSpec.from_constant(
        SpectralOperator(space, space, [scale] * dim)
    )


def test_single_atom_weight_one_equals_plain_integral():
    noise = _noise()
    base = _constant_integrand()
    family = FubiniFamily.from_factory([1.0], [1.0], lambda y: base.scaled(y))
    lhs = integrate_then_ito(family, noise)
    plain = ito_integrate(base, noise)
    assert np.array_equal(lhs.values, plain.values)


def test_single_atom_any_weight_commutes_bitwise():
    noise = _noise(seed=7)
    base = _constant_integrand()
    for weight in (0.37, 2.0, 1e-3, 123.456):
        family = FubiniFamily.from_factory([1.0], [weight], lambda y: base.scaled(y))
        report = fubini_report(family, noise)
        assert report.sup_abs == 0.0


def test_all_weights_zero_gives_zero():
    noise = _noise()
    base = _constant_integrand()
    family = FubiniFamily.from_factory([0.5, 1.5], [0.0, 0.0], lambda y: base.scaled(y))
    assert np.all(integrate_then_ito(family, noise).values == 0.0)
    assert np.all(ito_then_integrate(family, noise).values == 0.0)


def test_midpoint_rule_weighted_sum_oracle():
    # g(y) = y * Phi with a midpoint rule: the mix equals (sum w_j y_j) * I(Phi)
    noise = _noise(seed=33)
    base = _constant_integrand()
    n_atoms = 8
    h = 1.0 / n_atoms
    atoms = (np.arange(n_atoms) + 0.5) * h
    weights = np.full(n_atoms, h)
    family = FubiniFamily.from_factory(atoms, weights, lambda y: base.scaled(float(y)))
    mean_value = float(np.sum(weights * atoms))
    assert mean_value == pytest.approx(0.5, abs=1e-15)
    lhs = integrate_then_ito(family, noise)
    oracle = mean_value * ito_integrate(base, noise).values
    assert relative_gap(lhs.values, oracle) <= 1e-12
    rhs = ito_then_integrate(family, noise)
    assert relative_gap(rhs.values, oracle) <= 1e-12


def test_two_atom_family_headline(rng):
    noise = _noise(dim=2, seed=9)
    space = HilbertSpec(2)

    def factory(y):
        return IntegrandSpec.from_constant(
            DenseOperator(space, space, rng.normal(size=(2, 2)) * (1.0 + y))
        )

    family = FubiniFamily.from_factory([0.2, 0.8], [0.6, 1.1], factory)
    report = fubini_report(family, noise)
    lhs = integrate_then_ito(family, noise)
    scale = float(np.max(np.abs(lhs.values)))
    assert report.sup_abs <= 1e-10 * scale


def test_large_quadrature_family_headline(rng):
    # 64-node quadrature family on an 8-dimensional space, 100 paths
    dim, n_atoms = 8, 64
    noise = _noise(dim=dim, n_steps=200, n_paths=100, seed=404)
    space = HilbertSpec(dim)
    mats = rng.normal(size=(n_atoms, dim, dim))
    weights = rng.uniform(0.0, 0.1, n_atoms)
    family = FubiniFamily(
        atoms=tuple(range(n_atoms)),
        weights=weights,
        integrands=tuple(
            IntegrandSpec.from_constant(DenseOperator(space, space, m)) for m in mats
        ),
    )
    report = fubini_report(family, noise)
    lhs = integrate_then_ito(family, noise)
    scale = float(np.max(np.abs(lhs.values)))
    assert report.sup_abs <= 1e-9 * scale


def test_weight_doubling_scales_both_sides_exactly():
    noise = _noise(seed=77)
    base = _constant_integrand()
    atoms = [0.3, 0.9, 1.7]
    weights = np.array([0.25, 0.5, 0.125])
    fam = FubiniFamily.from_factory(atoms, weights, lambda y: base.scaled(y))
    fam2 = FubiniFamily.from_factory(atoms, 2.0 * weights, lambda y: base.scaled(y))
    assert np.array_equal(
        integrate_then_ito(fam2, noise).values, 2.0 * integrate_then_ito(fam, noise).values
    )
    assert np.array_equal(
        ito_then_integrate(fam2, noise).values, 2.0 * ito_then_integrate(fam, noise).values
    )


def test_time_varying_members_commute(rng):
    noise = _noise(n_steps=60, n_paths=30, seed=21)
    space = HilbertSpec(1)

    def factory(y):
        mats = (1.0 + y * np.linspace(0.0, 1.0, 60))[:, None, None]
        return IntegrandSpec.from_matrices(space, space, mats)

    family = FubiniFamily.from_factory([0.1, 0.5, 0.9], [0.3, 0.3, 0.4], factory)
    lhs = integrate_then_ito(family, noise)
    rhs = ito_then_integrate(family, noise)
    assert relative_gap(lhs.values, rhs.values) <= 1e-12


def test_adapted_members_commute_and_single_atom_is_bitwise():
    noise = _noise(n_steps=80, n_paths=25, seed=61)
    space = HilbertSpec(1)

    def factory(y):
        def gain(i, increments):
            level = increments[:, :i, :].sum(axis=(1, 2))
            return (y + np.tanh(level))[:, None, None] * np.ones((1, 1, 1))

        return IntegrandSpec.from_callback(space, space, gain)

    single = FubiniFamily.from_factory([0.4], [1.7], factory)
    assert fubini_report(single, noise).sup_abs == 0.0
    several = FubiniFamily.from_factory([0.1, 0.4, 1.2], [0.2, 0.5, 0.3], factory)
    lhs = integrate_then_ito(several, noise)
    rhs = ito_then_integrate(several, noise)
    assert relative_gap(lhs.values, rhs.values) <= 1e-12


def test_family_validation():
    base = _constant_integrand()
    with pytest.raises(StochConvError):
        FubiniFamily.from_factory([], [], lambda y: base.scaled(y))
    with pytest.raises(StochConvError):
        FubiniFamily.from_factory([1.0], [-0.5], lambda y: base.scaled(y))
    with pytest.raises(StochConvError):
        FubiniFamily.from_factory([1.0], [np.inf], lambda y: base.scaled(y))
    two = _constant_integrand(dim=2)
    with pytest.raises(StochConvError):
        FubiniFamily(
            atoms=(0.0, 1.0),
            weights=np.array([1.0, 1.0]),
            integrands=(base, two),
        )


def test_each_atom_step_product_is_filled_once(tmp_path, monkeypatch):
    # one walk over the steps builds both sides: A * N (atom, step) products in all; a
    # scaled family shares one integrand object, so atoms are counted by index
    filled = []
    original = fubini._fill_share

    def counting(share, inc, start, stop, rows, buffer):
        filled.extend((j, i) for j in range(share[0], share[1]) for i in range(start, stop))
        return original(share, inc, start, stop, rows, buffer)

    monkeypatch.setattr(fubini, "_fill_share", counting)
    data = json.loads((CONFIG_DIR / "fubini_midpoint.json").read_text())
    data["n_paths"] = 3
    cfg = parse_config(data)
    _, ok = run_experiment(cfg, str(tmp_path))
    assert ok
    n_atoms = data["options"]["family"]["quadrature"]["n"]
    assert len(filled) == len(set(filled)) == n_atoms * cfg.grid.n_steps
    assert len({j for j, _ in filled}) == n_atoms

    filled.clear()  # more atoms than steps: several atom groups, one step per block
    noise = _noise(dim=2, n_steps=5, n_paths=4, seed=5)
    base = _constant_integrand(dim=2)
    family = FubiniFamily.from_factory(np.arange(13) + 1.0, [0.2] * 13, base.scaled)
    fubini_report(family, noise)
    assert sorted(filled) == [(j, i) for j in range(13) for i in range(5)]


def test_both_orders_memory_does_not_grow_with_the_atoms():
    # temporaries stay within one atom's products, P * N * dim_H values, at 4N atoms
    n_paths, n_steps, dim = 128, 40, 4
    noise = _noise(dim=dim, n_steps=n_steps, n_paths=n_paths, seed=8)
    space = HilbertSpec(dim)
    mats = np.random.default_rng(8).normal(size=(4 * n_steps, dim, dim))
    family = FubiniFamily.from_factory(
        range(4 * n_steps),
        np.full(4 * n_steps, 0.01),
        lambda j: IntegrandSpec.from_constant(DenseOperator(space, space, mats[j])),
    )
    tracemalloc.start()
    try:
        fubini._both_orders(family, noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * n_paths * (n_steps + 1) * dim * 8


def test_both_orders_memory_with_more_noise_modes_than_paths():
    # one step block of a share's scaled matrices, dense or time-varying, holds up to
    # dim_U * N * dim_H values: the bound is max(P, dim_U) * N * dim_H, at 4N atoms
    n_paths, n_steps, dim_u, dim_h = 2, 40, 16, 4
    noise = _noise(dim=dim_u, n_steps=n_steps, n_paths=n_paths, seed=9)
    space_u, space_h = HilbertSpec(dim_u), HilbertSpec(dim_h)
    rng = np.random.default_rng(9)
    entries = rng.normal(size=(2 * n_steps, dim_h, dim_u))
    mats = rng.normal(size=(2 * n_steps, n_steps, dim_h, dim_u))

    def member(j):
        if j < 2 * n_steps:
            return IntegrandSpec.from_constant(DenseOperator(space_u, space_h, entries[j]))
        return IntegrandSpec.from_matrices(space_u, space_h, mats[j - 2 * n_steps])

    family = FubiniFamily.from_factory(range(4 * n_steps), np.full(4 * n_steps, 0.01), member)
    tracemalloc.start()
    try:
        fubini._both_orders(family, noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * max(n_paths, dim_u) * (n_steps + 1) * dim_h * 8


# ------------------------------------------- oracle: one products loop per side


def _scaled_products(family, noise, j):
    products = integrand_products(family.integrands[j], noise)
    products *= family.weights[j]
    return products


def _mix_first_oracle(family, noise):
    """Mix-first side built by its own loop over the atoms (atoms inside the steps)."""
    mixed = _scaled_products(family, noise, 0)
    for j in range(1, family.n_atoms):
        mixed += _scaled_products(family, noise, j)
    values = np.zeros((mixed.shape[0], mixed.shape[1] + 1, mixed.shape[2]))
    np.cumsum(mixed, axis=1, out=values[:, 1:, :])
    return values


def _mix_last_oracle(family, noise):
    """Mix-last side built by its own loop over the atoms (atoms reduced last)."""
    first = np.cumsum(_scaled_products(family, noise, 0), axis=1)
    total = np.zeros((first.shape[0], noise.grid.n_steps + 1, first.shape[2]))
    total[:, 1:, :] = first
    for j in range(1, family.n_atoms):
        total[:, 1:, :] += np.cumsum(_scaled_products(family, noise, j), axis=1)
    return total


KINDS = ["spectral", "dense", "time_varying", "adapted"]


def _random_family(rng, dim_u, dim_h, n_steps, n_atoms, kind):
    space_u, space_h = HilbertSpec(dim_u), HilbertSpec(dim_h)
    kinds = [k for k in KINDS if dim_u == dim_h or k != "spectral"]

    def member(_):
        pick = rng.choice(kinds) if kind == "mixed" else kind
        if pick == "spectral":
            eigenvalues = rng.normal(size=dim_h)
            return IntegrandSpec.from_constant(SpectralOperator(space_u, space_h, eigenvalues))
        if pick == "dense":
            mat = rng.normal(size=(dim_h, dim_u))
            return IntegrandSpec.from_constant(DenseOperator(space_u, space_h, mat))
        if pick == "time_varying":
            mats = rng.normal(size=(n_steps, dim_h, dim_u))
            return IntegrandSpec.from_matrices(space_u, space_h, mats)
        mat, per_path = rng.normal(size=(dim_h, dim_u)), rng.random() < 0.5

        def gain(i, increments):  # reads the steps before i only
            level = np.tanh(increments[:, :i, :].sum(axis=(1, 2)))
            return (1.0 + level)[:, None, None] * mat if per_path else (1.0 + i) * mat

        return IntegrandSpec.from_callback(space_u, space_h, gain)

    return FubiniFamily.from_factory(range(n_atoms), rng.uniform(0.0, 1.0, n_atoms), member)


@given(
    dim_u=st.integers(1, 8),
    dim_h=st.integers(1, 5),
    n_steps=st.integers(1, 39),
    n_paths=st.integers(1, 8),
    n_atoms=st.integers(1, 11),
    kind=st.sampled_from(KINDS + ["mixed"]),
    seed=st.integers(0, 2**32 - 1),
)
# P = 1 with dim_H = 1 and 8 or more atoms: np.add.reduce over the atoms would sum pairwise
@example(dim_u=5, dim_h=1, n_steps=3, n_paths=1, n_atoms=8, kind="mixed", seed=1)
@example(dim_u=1, dim_h=1, n_steps=17, n_paths=1, n_atoms=11, kind="time_varying", seed=2)
# a dense constant onto dim_H = 1 (one BLAS gemv per step) among other kinds, several atom groups
@example(dim_u=3, dim_h=1, n_steps=4, n_paths=6, n_atoms=11, kind="mixed", seed=3)
@example(dim_u=8, dim_h=1, n_steps=17, n_paths=2, n_atoms=2, kind="dense", seed=1638591437)
# step blocks of 1, 2 and many steps
@example(dim_u=2, dim_h=3, n_steps=7, n_paths=8, n_atoms=11, kind="mixed", seed=5)
@example(dim_u=3, dim_h=2, n_steps=22, n_paths=3, n_atoms=11, kind="mixed", seed=6)
@example(dim_u=2, dim_h=2, n_steps=39, n_paths=7, n_atoms=2, kind="mixed", seed=7)
@settings(max_examples=200, deadline=None)
def test_both_orders_match_one_loop_per_side_oracle(
    dim_u, dim_h, n_steps, n_paths, n_atoms, kind, seed
):
    if kind == "spectral" and dim_u != dim_h:
        kind = "dense"
    rng = np.random.default_rng(seed)
    family = _random_family(rng, dim_u, dim_h, n_steps, n_atoms, kind)
    noise = _noise(dim=dim_u, n_steps=n_steps, n_paths=n_paths, seed=seed)
    first, last = _mix_first_oracle(family, noise), _mix_last_oracle(family, noise)
    assert np.array_equal(integrate_then_ito(family, noise).values, first)
    assert np.array_equal(ito_then_integrate(family, noise).values, last)
    grid = noise.grid
    oracle = compare(PathEnsemble(first, grid), PathEnsemble(last, grid))
    assert fubini_report(family, noise).sup_abs == oracle.sup_abs


# ----------------------------- oracle: one fill and one += per atom and step block


def _random_member(rng, space_u, space_h, n_steps, kind, zeros):
    """One integrand of the given kind; with ``zeros`` about half its entries are 0."""
    dim_u, dim_h = space_u.dim, space_h.dim

    def normal(shape):
        values = rng.normal(size=shape)
        return values * (rng.random(shape) < 0.5) if zeros else values

    if kind == "spectral":
        return IntegrandSpec.from_constant(SpectralOperator(space_u, space_h, normal(dim_h)))
    if kind == "dense":
        return IntegrandSpec.from_constant(DenseOperator(space_u, space_h, normal((dim_h, dim_u))))
    if kind == "time_varying":
        return IntegrandSpec.from_matrices(space_u, space_h, normal((n_steps, dim_h, dim_u)))
    mat, per_path = normal((dim_h, dim_u)), rng.random() < 0.5

    def gain(i, increments):  # reads the steps before i only
        level = np.tanh(increments[:, :i, :].sum(axis=(1, 2)))
        return (1.0 + level)[:, None, None] * mat if per_path else (1.0 + i) * mat

    return IntegrandSpec.from_callback(space_u, space_h, gain)


def _add_atom_by_atom(rows, nodes, out, onto):
    """out (paths, n, dim_H) = [out +] rows[:, 0] + rows[:, 1] + ..., one += per atom."""
    np.copyto(nodes, out.swapaxes(0, 1) if onto else rows[:, 0])
    for j in range(0 if onto else 1, rows.shape[1]):
        nodes += rows[:, j]
    out[:] = nodes.swapaxes(0, 1)


def _per_atom_both_orders(family, noise):
    """Both sides of the step walk with one fill per (atom, step block), the atoms added by +=."""
    phis, weights, inc = family.integrands, family.weights, noise.increments
    n_paths, n_steps, _ = inc.shape
    first = np.zeros((n_paths, n_steps + 1, phis[0].codomain.dim))
    last = np.zeros_like(first)
    for a0, a1 in fubini._atom_groups(family, n_steps):
        group, scale = phis[a0:a1], weights[a0:a1, None, None]
        size = max(1, n_steps // len(group))
        block = np.empty((size, len(group), n_paths, first.shape[2]))
        nodes = np.empty((size, n_paths, first.shape[2]))
        state = np.empty(block.shape[1:])
        for start in range(0, n_steps, size):
            stop = min(start + size, n_steps)
            rows, sums = block[: stop - start], nodes[: stop - start]
            for j, phi in enumerate(group):
                fill_products(phi, inc, start, stop, rows[:, j].swapaxes(0, 1))
            rows *= scale
            _add_atom_by_atom(rows, sums, first[:, start + 1 : stop + 1], a0 > 0)
            if start:
                rows[0] += state
            for i in range(1, stop - start):
                rows[i] += rows[i - 1]
            state[:] = rows[-1]
            _add_atom_by_atom(rows, sums, last[:, start + 1 : stop + 1], a0 > 0)
    np.cumsum(first[:, 1:], axis=1, out=first[:, 1:])
    return first, last


@given(
    dim_u=st.integers(1, 8),
    dim_h=st.integers(1, 5),
    n_steps=st.integers(1, 30),
    n_paths=st.integers(1, 6),
    runs=st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(1, 12)), min_size=1, max_size=4
    ),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# P * dim_H == 1: the atoms are added one by one (np.add.reduce sums 8 or more pairwise)
@example(dim_u=3, dim_h=1, n_steps=20, n_paths=1, runs=[("time_varying", 12)], zeros=True, seed=1)
@example(dim_u=1, dim_h=1, n_steps=9, n_paths=1, runs=[("spectral", 12)], zeros=True, seed=2)
# two values per step and many atoms: one reduce, left to right
@example(dim_u=1, dim_h=1, n_steps=25, n_paths=2, runs=[("spectral", 12), ("time_varying", 12)],
         zeros=True, seed=3)
@example(dim_u=4, dim_h=2, n_steps=25, n_paths=1, runs=[("dense", 12), ("time_varying", 12)],
         zeros=False, seed=4)
# more atoms than steps: later groups add onto the earlier groups' sums
@example(dim_u=2, dim_h=3, n_steps=3, n_paths=4, runs=[("dense", 7), ("time_varying", 6)],
         zeros=True, seed=5)
# a dense constant onto dim_H = 1 at dim_U = 8 (one BLAS gemv per step) between time-varying atoms
@example(dim_u=8, dim_h=1, n_steps=17, n_paths=3,
         runs=[("time_varying", 3), ("dense", 1), ("time_varying", 3)], zeros=False, seed=6)
# one step or one path: dense constants through the matrix operand
@example(dim_u=3, dim_h=2, n_steps=1, n_paths=5, runs=[("dense", 4)], zeros=False, seed=7)
@example(dim_u=3, dim_h=2, n_steps=8, n_paths=1, runs=[("dense", 4), ("adapted", 2)],
         zeros=True, seed=8)
# one path at dim_U = 8 and dim_H = 1 at several paths: each atom's product is a BLAS
# gemv, which one wide gemm over the atoms does not reproduce bitwise
@example(dim_u=8, dim_h=3, n_steps=12, n_paths=1, runs=[("dense", 5), ("time_varying", 6)],
         zeros=False, seed=9)
@example(dim_u=4, dim_h=1, n_steps=10, n_paths=5, runs=[("time_varying", 4), ("dense", 3)],
         zeros=False, seed=10)
# distinct dense constants at dim_U == 1: one share per atom, each through the outer product
@example(dim_u=1, dim_h=3, n_steps=9, n_paths=4, runs=[("dense", 6)], zeros=True, seed=20)
# 64 time-varying atoms at several paths and dim_H > 1: one wide gemm per step for all atoms
@example(dim_u=3, dim_h=2, n_steps=70, n_paths=3, runs=[("time_varying", 64)], zeros=False,
         seed=11)
@settings(max_examples=300, deadline=None)
def test_batched_fill_is_bitwise_the_per_atom_fill(
    dim_u, dim_h, n_steps, n_paths, runs, zeros, seed
):
    rng = np.random.default_rng(seed)
    space_u, space_h = HilbertSpec(dim_u), HilbertSpec(dim_h)
    kinds = [
        "dense" if kind == "spectral" and dim_u != dim_h else kind
        for kind, length in runs for _ in range(length)
    ]
    weights = rng.uniform(0.0, 1.0, len(kinds))
    if zeros:
        weights[rng.random(len(kinds)) < 0.3] = 0.0
    family = FubiniFamily.from_factory(
        kinds, weights, lambda kind: _random_member(rng, space_u, space_h, n_steps, kind, zeros)
    )
    noise = _noise(dim=dim_u, n_steps=n_steps, n_paths=n_paths, seed=seed)
    first, last = _per_atom_both_orders(family, noise)
    lhs, rhs = fubini._both_orders(family, noise)
    # bytes, not ==: a -0.0 must stay -0.0
    assert lhs.values.tobytes() == first.tobytes()
    assert rhs.values.tobytes() == last.tobytes()


# ----------------------------- oracle: one scaled integrand object per atom


SCALES = st.sampled_from([0.0, -0.0, -1.0, -2.5, 1.0, 0.3]) | st.floats(-4.0, 4.0)


@given(
    dim_u=st.integers(1, 4),
    dim_h=st.integers(1, 4),
    n_steps=st.integers(1, 12),
    n_paths=st.integers(1, 4),
    kind=st.sampled_from(KINDS),
    scales=st.lists(SCALES, min_size=1, max_size=20),
    zero_weights=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# every kind, with dim_U == 1 (a time-varying share filled atom by atom) and dim_U > 1
@example(dim_u=2, dim_h=2, n_steps=6, n_paths=3, kind="spectral", scales=[0.5, -0.0, -2.0],
         zero_weights=True, seed=1)
@example(dim_u=3, dim_h=2, n_steps=6, n_paths=3, kind="dense", scales=[0.5, -0.0, -2.0],
         zero_weights=True, seed=2)
@example(dim_u=1, dim_h=3, n_steps=6, n_paths=3, kind="time_varying", scales=[0.5, -0.0, -2.0],
         zero_weights=True, seed=3)
@example(dim_u=3, dim_h=2, n_steps=6, n_paths=3, kind="time_varying", scales=[0.5, -0.0, -2.0],
         zero_weights=True, seed=4)
@example(dim_u=2, dim_h=3, n_steps=6, n_paths=3, kind="adapted", scales=[0.5, -0.0, -2.0],
         zero_weights=True, seed=5)
# a dense constant at dim_U == 1: the outer product of step_products, at one and at 3 paths
@example(dim_u=1, dim_h=3, n_steps=5, n_paths=1, kind="dense", scales=[0.5, -0.0, -2.0, 0.0],
         zero_weights=True, seed=8)
@example(dim_u=1, dim_h=3, n_steps=5, n_paths=3, kind="dense", scales=[0.5, -0.0, -2.0, 0.0],
         zero_weights=True, seed=9)
# P * dim_H == 1, and more atoms than steps: several atom groups
@example(dim_u=1, dim_h=1, n_steps=4, n_paths=1, kind="time_varying",
         scales=[1.0, -0.0, 0.0, -3.0, 2.0, 0.5, -0.5, 4.0, 0.0, -1.0, 1.5], zero_weights=True,
         seed=6)
@example(dim_u=3, dim_h=2, n_steps=2, n_paths=2, kind="time_varying",
         scales=[1.0, -0.0, 0.0, -3.0, 2.0, 0.5, -0.5], zero_weights=False, seed=7)
@settings(max_examples=300, deadline=None)
def test_a_scaled_family_is_bitwise_one_scaled_integrand_per_atom(
    dim_u, dim_h, n_steps, n_paths, kind, scales, zero_weights, seed
):
    # the oracle is the family of IntegrandSpec.scaled copies, one per atom
    if kind == "spectral" and dim_u != dim_h:
        kind = "dense"
    rng = np.random.default_rng(seed)
    space_u, space_h = HilbertSpec(dim_u), HilbertSpec(dim_h)
    base = _random_member(rng, space_u, space_h, n_steps, kind, zeros=True)
    weights = rng.uniform(0.0, 1.0, len(scales))
    if zero_weights:
        weights[rng.random(len(scales)) < 0.3] = 0.0
    shared = FubiniFamily(tuple(scales), weights, (base,) * len(scales), scales)
    copies = FubiniFamily.from_factory(scales, weights, base.scaled)
    noise = _noise(dim=dim_u, n_steps=n_steps, n_paths=n_paths, seed=seed)
    for lhs, rhs in zip(fubini._both_orders(shared, noise), fubini._both_orders(copies, noise)):
        assert lhs.values.tobytes() == rhs.values.tobytes()


def test_a_scaled_time_varying_family_holds_one_node_table():
    # 64 atoms of y * Phi for a time-varying Phi (8 x 8 at 201 nodes): the family holds
    # Phi's node table once (a copy per atom is 6.6 MB), and a run adds the noise, the two
    # sides and the walk's temporaries: the time-major (steps, atoms, dim_H, paths) block,
    # the atoms' running sums, and one step block's scaled matrices, each within
    # max(P, dim_U) * (N + 1) * dim_H values
    n_paths, n_steps, dim, n_atoms = 16, 200, 8, 64
    rng = np.random.default_rng(12)
    rows = rng.uniform(-1.0, 1.0, size=(n_steps + 1, dim, dim)).round(12).tolist()
    data = {
        "experiment": "fubini",
        "dims": {"U": dim, "H": dim},
        "grid": {"T": 1.0, "N": n_steps},
        "semigroup": {"kind": "diagonal", "rates": [0.0] * dim},
        "q_eigenvalues": [1.0 / (k + 1) for k in range(dim)],
        "integrand": {"kind": "time_varying",
                      "operators": [{"kind": "dense", "rows": r} for r in rows]},
        "exponents": {"p": 2.0, "q": 2.0, "r": 4.0},
        "beta": 0.3,
        "seed": 12,
        "n_paths": n_paths,
        "options": {"family": {"quadrature": {"n": n_atoms, "interval": [0.0, 1.0]}}},
    }
    cfg = parse_config(data)
    experiments._run_fubini(cfg)  # warm-up: imports and first-call caches
    tracemalloc.start()
    try:
        family = experiments._build_family(cfg)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        noise = experiments._sample_noise(cfg)
        fubini_report(family, noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert family.n_atoms == n_atoms
    assert built <= 4096 + 256 * n_atoms
    side = 8 * n_paths * (n_steps + 1) * dim
    block = 8 * max(n_paths, dim) * (n_steps + 1) * dim
    assert peak <= noise.increments.nbytes + 2 * side + 3 * block + 64 * 1024
