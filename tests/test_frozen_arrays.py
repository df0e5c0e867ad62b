"""errors.frozen_array: every array field of a value object is frozen, float64 and finite."""

import re
import tracemalloc

import numpy as np
import pytest

import stochconv
from stochconv import (
    ConvolutionRequest,
    DenseOperator,
    DimensionMismatchError,
    DiscreteFunction,
    DiscreteMeasureSpace,
    DiscrepancyReport,
    FubiniFamily,
    HilbertSpec,
    IntegrandSpec,
    KernelSpec,
    PathEnsemble,
    QWienerSpec,
    SemigroupSpec,
    SpectralOperator,
    StochConvError,
    TimeGrid,
    TwoParameterField,
)
from stochconv.errors import frozen_array

S2 = HilbertSpec(2)
GRID = TimeGrid(1.0, 2)
PHI = IntegrandSpec.from_constant(SpectralOperator(S2, S2, [1.0, 1.0]))


def _first(x, shape):
    """An array of ones of ``shape`` whose first entry is ``x``."""
    arr = np.ones(shape)
    arr.flat[0] = x
    return arr


# (what the error names, nonnegative, build the object with x as the field's first entry)
FIELDS = [
    ("eigenvalues", False, lambda x: SpectralOperator(S2, S2, _first(x, 2))),
    ("operator entries", False, lambda x: DenseOperator(S2, S2, _first(x, (2, 2)))),
    ("diagonal semigroup rates", True, lambda x: SemigroupSpec(S2, rates=_first(x, 2))),
    ("generator", False, lambda x: SemigroupSpec(S2, generator=_first(x, (2, 2)))),
    ("node matrices", False, lambda x: IntegrandSpec.from_matrices(S2, S2, _first(x, (3, 2, 2)))),
    ("path ensemble values", False, lambda x: PathEnsemble(_first(x, (2, 3, 2)), GRID)),
    ("covariance eigenvalues", True, lambda x: QWienerSpec(S2, _first(x, 2))),
    ("atom weights", True, lambda x: DiscreteMeasureSpace((0, 1), _first(x, 2))),
    (
        "kernel masses",
        True,
        lambda x: KernelSpec(DiscreteMeasureSpace((0, 1), [1.0, 1.0]), (0, 1, 2), _first(x, (2, 3))),
    ),
    ("function values", False, lambda x: DiscreteFunction(_first(x, (2, 3)))),
    ("field magnitudes", True, lambda x: TwoParameterField(_first(x, (2, 3, 3)), GRID)),
    ("discrepancy statistics", True, lambda x: DiscrepancyReport(_first(x, 3), 1.0, 0.5)),
    ("weights", True, lambda x: FubiniFamily((0, 1), _first(x, 2), (PHI, PHI))),
    ("scales", False, lambda x: FubiniFamily((0, 1), [1.0, 1.0], (PHI, PHI), _first(x, 2))),
]

CASES = [
    pytest.param(what, build, bad, f"{what} must be finite", id=f"{what.replace(' ', '_')}-{bad}")
    for what, nonnegative, build in FIELDS
    for bad in (np.nan, np.inf, -np.inf)
] + [
    pytest.param(
        what, build, -1.0, f"{what} must be finite and nonnegative", id=f"{what.replace(' ', '_')}--1"
    )
    for what, nonnegative, build in FIELDS
    if nonnegative
]


@pytest.mark.parametrize("what, build, bad, message", CASES)
def test_every_array_field_rejects_a_bad_entry_at_construction(what, build, bad, message):
    build(1.0)  # the same object with a good entry is accepted
    with pytest.raises(StochConvError, match=re.escape(message)):
        build(bad)


@pytest.mark.parametrize("scales", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]], 1.0, []])
def test_family_scales_need_one_value_per_atom(scales):
    with pytest.raises(DimensionMismatchError, match="scales must hold one value per atom"):
        FubiniFamily((0, 1), [1.0, 1.0], (PHI, PHI), scales)


def test_family_scales_take_any_finite_sign_and_default_to_one():
    family = FubiniFamily((0, 1, 2), [1.0, 1.0, 1.0], (PHI,) * 3, [-2.5, -0.0, 0.0])
    assert family.scales.tobytes() == np.array([-2.5, -0.0, 0.0]).tobytes()
    assert not family.scales.flags.writeable
    assert np.array_equal(FubiniFamily((0, 1), [1.0, 1.0], (PHI, PHI)).scales, [1.0, 1.0])
    assert np.array_equal(FubiniFamily.from_factory((0, 1), [1.0, 1.0], lambda y: PHI).scales, [1, 1])


def test_a_nan_eigenvalue_fails_before_any_noise_is_sampled(monkeypatch):
    monkeypatch.setattr(
        stochconv, "sample_increments", lambda *args, **kw: pytest.fail("noise was sampled")
    )
    with pytest.raises(StochConvError, match="eigenvalues must be finite"):
        phi = IntegrandSpec.from_constant(SpectralOperator(S2, S2, [1.0, np.nan]))
        noise = stochconv.sample_increments(QWienerSpec(S2, [1.0, 1.0]), TimeGrid(1.0, 8), 0, 4)
        semigroup = SemigroupSpec(S2, rates=[1.0, 1.0])
        stochconv.direct_convolution(ConvolutionRequest(phi, semigroup, noise, beta=0.3, r=4.0))


def test_copy_false_shares_memory_and_copy_true_leaves_the_caller_writeable():
    shared = np.arange(6.0)
    view = frozen_array(shared, "x", copy=False)
    assert np.shares_memory(view, shared)
    assert not view.flags.writeable

    owned = np.arange(6.0)
    frozen = frozen_array(owned, "x")
    assert not np.shares_memory(frozen, owned)
    assert owned.flags.writeable and not frozen.flags.writeable
    owned[0] = 7.0
    assert frozen[0] == 0.0


def test_a_value_object_leaves_the_callers_buffer_writable():
    # copy=False freezes a view: the caller may reuse its buffer after construction
    buf = np.zeros((2, 3, 2))
    ensemble = PathEnsemble(buf, GRID)
    assert np.shares_memory(ensemble.values, buf)
    assert buf.flags.writeable and not ensemble.values.flags.writeable
    buf[0, 0, 0] = 1.0
    assert ensemble.values[0, 0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        ensemble.values[0, 0, 0] = 2.0


def test_frozen_array_converts_to_float64_and_passes_an_empty_array():
    assert frozen_array([1, 2], "x").dtype == np.float64
    assert frozen_array(np.float32([0.5]), "x", copy=False).dtype == np.float64
    assert frozen_array([], "x", nonnegative=True).shape == (0,)


def test_building_a_path_ensemble_allocates_no_mask():
    # the finiteness test reads min and max: no temporary of one byte per value
    values = np.random.default_rng(0).standard_normal((50, 1001, 16))  # 6.4 MB
    grid = TimeGrid(1.0, 1000)
    tracemalloc.start()
    try:
        PathEnsemble(values, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes // 100


def test_node_matrices_are_copied_from_the_caller_once_and_not_again():
    # from_matrices and direct construction copy the caller's array: a later write to it
    # does not show through
    mats = np.ones((3, 2, 2))
    specs = [
        IntegrandSpec.from_matrices(S2, S2, mats),
        IntegrandSpec(S2, S2, "time_varying", node_matrices=mats),
    ]
    mats[0, 0, 0] = 5.0
    for spec in specs:
        assert not np.shares_memory(spec.node_matrices, mats)
        assert spec.node_matrices[0, 0, 0] == 1.0 and not spec.node_matrices.flags.writeable
    # from_operators and scaled freeze the array they have just built, with no second copy
    space = HilbertSpec(8)
    values = np.random.default_rng(3).normal(size=(501, 8, 8))  # 256 kB
    base = IntegrandSpec.from_matrices(space, space, values)
    ops = [DenseOperator(space, space, m) for m in values]
    for build in (lambda: base.scaled(0.5), lambda: IntegrandSpec.from_operators(ops)):
        tracemalloc.start()
        try:
            spec = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * values.nbytes
        assert not spec.node_matrices.flags.writeable
    assert np.array_equal(base.scaled(0.5).node_matrices, 0.5 * values)
    assert np.array_equal(IntegrandSpec.from_operators(ops).node_matrices, values)
