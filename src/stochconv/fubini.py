"""Commutation of parameter averaging with Euler-Ito integration.

For a finite weighted family of integrands the two pipelines

* mix first:  integrate the weighted sum of the integrands,
* mix last:   integrate each member, then form the weighted sum,

agree up to floating-point reassociation of a finite double sum.  Member j
of a family is s_j * g_j: a scale times an integrand.  One walk over the
time steps builds both sides: each (atom, step) product
w_j * ((s_j g_j)(t_i) dW_i) is filled once and feeds both reduction orders
(atoms inner vs. atoms outer), so a single-atom family commutes bitwise.
A run of dense constant atoms keeps one copy of its entries times their
scales; a run of time-varying atoms scales one step block of its matrices at
a time.  Consecutive atoms that hold one integrand are scaled by one
broadcast multiply.  The walk holds a step block as (steps, atoms, dim_H,
paths).  With two or more paths and dim_H > 1, one ``matmul`` fills a run's
block by one BLAS gemm per step for all its atoms, (atoms * dim_H, dim_U) by
(dim_U, paths).  With one path or dim_H == 1 an atom's own product is a gemv,
which the wide gemm does not reproduce bitwise, so those shapes keep one
product per (step, atom), as do spectral constants, adapted atoms and
time-varying atoms with dim_U == 1.  The weight multiply, each side's atom sum (one
``np.add.reduce``) and the running sums then go over sub-blocks of at most
``_parallel.BLOCK_ELEMENTS`` values, which stay in cache.  The atoms are
reduced left to right on both sides, with the bytes of one
``integrand_products`` call per atom on ``IntegrandSpec.scaled(s_j)``.

Memory: the scaled family that ``experiments`` builds from a config holds
one integrand and n_atoms scales, so a time-varying node table is stored
once, whatever the number of atoms.  No temporary of the walk holds more
than max(P, dim_U) * N * dim_H values, whatever the number of atoms: one
block of products, the atoms' running sums, or the scaled matrices of at
most N atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._parallel import BLOCK_ELEMENTS
from .convolution import DiscrepancyReport, compare
from .errors import DimensionMismatchError, StochConvError, frozen_array
from .hilbert import DenseOperator
from .ito import (
    TIME_VARYING, IntegrandSpec, PathEnsemble, check_compatible, fill_products, step_matrices,
    step_products,
)
from .noise import NoiseEnsemble

__all__ = [
    "FubiniFamily",
    "integrate_then_ito",
    "ito_then_integrate",
    "fubini_report",
]


@dataclass(frozen=True)
class FubiniFamily:
    """Finitely many parameter atoms, weights and per-atom integrands.

    Member j is ``scales[j]`` times ``integrands[j]``: a scaled family such as
    y * Phi holds Phi once per atom by reference, and its node table once.
    The scales default to 1.0, which leaves every member as given.
    """

    atoms: tuple
    weights: np.ndarray
    integrands: tuple
    scales: np.ndarray | None = None

    def __post_init__(self):
        w = frozen_array(self.weights, "weights", nonnegative=True)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "integrands", tuple(self.integrands))
        if w.shape != (len(self.atoms),) or len(self.integrands) != len(self.atoms):
            raise DimensionMismatchError(
                "atoms, weights and integrands must align",
                expected=len(self.atoms),
                got=(w.shape, len(self.integrands)),
            )
        scales = np.ones(w.size) if self.scales is None else frozen_array(self.scales, "scales")
        object.__setattr__(self, "scales", scales)
        if scales.shape != w.shape:
            raise DimensionMismatchError(
                "scales must hold one value per atom", expected=w.shape, got=scales.shape
            )
        if w.size == 0:
            raise StochConvError("family needs at least one atom")
        dims = {(g.domain.dim, g.codomain.dim) for g in self.integrands}
        if len(dims) != 1:
            raise DimensionMismatchError(
                "all family integrands must share dimensions", got=dims
            )

    @classmethod
    def from_factory(
        cls,
        atoms: Sequence,
        weights: Sequence[float],
        factory: Callable[[object], IntegrandSpec],
    ) -> "FubiniFamily":
        return cls(tuple(atoms), np.asarray(weights, float), tuple(factory(y) for y in atoms))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


def _atom_groups(family: FubiniFamily, n_steps: int) -> list[tuple[int, int]]:
    """Contiguous atom ranges (start, stop) of at most n_steps atoms, in atom order."""
    n_atoms = family.n_atoms
    return [(start, min(start + n_steps, n_atoms)) for start in range(0, n_atoms, n_steps)]


def _run_kind(phi: IntegrandSpec) -> str | None:
    """The kind of atom run that ``_fill_run`` fills from scaled matrices, or None.

    Dense constants and time-varying atoms join runs; spectral constants and
    adapted atoms (kind None) go through ``fill_products`` one by one.
    """
    if phi.kind == TIME_VARYING:
        return TIME_VARYING
    return "dense" if isinstance(phi.constant, DenseOperator) else None


def _shares(phis: tuple, start: int, stop: int) -> list[tuple[int, int]]:
    """Maximal ranges (a, b) of consecutive atoms start <= j < stop that hold one integrand."""
    cuts = [j for j in range(start + 1, stop) if phis[j] is not phis[j - 1]]
    return list(zip([start] + cuts, cuts + [stop]))


def _atom_runs(family: FubiniFamily, a0: int, a1: int, n_steps: int, size: int) -> list[tuple]:
    """Maximal ranges (start, stop, kind, operand) of consecutive atoms a0 <= j < a1 of one kind.

    A run's atoms come in shares: ranges of atoms that hold one integrand,
    each scaled by one broadcast multiply (a run of distinct integrands is a
    run of one-atom shares).  The operand holds a dense run's entries times
    their scales, (atoms, dim_H, dim_U); for time-varying atoms, each share's
    step matrices and scales and a (size, atoms, dim_H, dim_U) buffer for one
    step block of them; for kind None, each atom's ``IntegrandSpec.scaled``:
    a constant operator, or a callback wrapper (the atom itself at a scale of
    1.0).  No operand holds a scaled node table.
    """
    phis, scales = family.integrands, family.scales
    runs, start = [], a0
    for stop in range(a0 + 1, a1 + 1):
        kind = _run_kind(phis[start])
        if stop < a1 and _run_kind(phis[stop]) == kind:
            continue
        dims = (phis[start].codomain.dim, phis[start].domain.dim)
        shares = [(a - start, b - start, phis[a], scales[a:b, None, None])
                  for a, b in _shares(phis, start, stop)]
        if kind == TIME_VARYING:
            parts = [(a, b, step_matrices(phi, n_steps)[:, None], s) for a, b, phi, s in shares]
            operand = parts, np.empty((size, stop - start) + dims)
        elif kind == "dense":
            operand = np.empty((stop - start,) + dims)
            for a, b, phi, s in shares:
                np.multiply(phi.constant.entries, s, out=operand[a:b])
        else:
            operand = [phi.scaled(float(s)) for phi, s in zip(phis[start:stop], scales[start:stop])]
        runs.append((start, stop, kind, operand))
        start = stop
    return runs


def _fill_run(run: tuple, inc: np.ndarray, start: int, stop: int, rows: np.ndarray):
    """(s_j Phi_j)_{t_i} dW_i of a run's atoms j, start <= i < stop, into rows.

    ``rows`` is a time-major block (steps, atoms, dim_H, paths).  Each
    product has the bytes of the call that ``fill_products`` makes for that
    step on ``IntegrandSpec.scaled(s_j)``, whose matrices are s_j times the
    atom's.  With two or more paths and dim_H > 1 that call is a BLAS gemm,
    and one ``matmul`` fills a dense run or a time-varying run with dim_U > 1
    by one gemm per step for all its atoms, (atoms * dim_H, dim_U) by
    (dim_U, paths).  With one path or dim_H == 1 the atom's product is a
    gemv, which the wide gemm does not reproduce bitwise, so one ``matmul``
    makes one product per (step, atom); (dim_H, paths) and (paths, dim_H)
    are then the same bytes.  ``step_products`` fills the atoms of a
    time-varying run with dim_U == 1 one by one.
    """
    _, _, kind, operand = run
    if kind is None:
        for j, phi in enumerate(operand):
            fill_products(phi, inc, start, stop, rows[:, j].transpose(2, 0, 1))
        return
    if kind == "dense":
        scaled = operand
    else:
        parts, buffer = operand
        scaled = buffer[: stop - start]
        for a, b, mats, factors in parts:
            np.multiply(mats[start:stop], factors, out=scaled[:, a:b])
    n_steps, n_atoms, dim_h, n_paths = rows.shape
    if kind == TIME_VARYING and inc.shape[2] == 1:
        for j in range(n_atoms):
            step_products(scaled[:, j], inc[:, start:stop], out=rows[:, j].transpose(2, 0, 1))
    elif n_paths == 1 or dim_h == 1:
        steps = inc[:, start:stop].swapaxes(0, 1)[:, None]  # (steps, 1, paths, dim_U)
        np.matmul(steps, scaled.swapaxes(-1, -2), out=rows.swapaxes(2, 3))
    else:
        wide = scaled.reshape(scaled.shape[:-3] + (n_atoms * dim_h, inc.shape[2]))
        out = rows.reshape(n_steps, n_atoms * dim_h, n_paths)
        np.matmul(wide, inc.transpose(1, 2, 0)[start:stop], out=out)


def _add_atoms(rows: np.ndarray, out: np.ndarray, onto_out: bool):
    """out (paths, n, dim_H) = [out +] rows[:, 0] + rows[:, 1] + ..., left to right.

    ``rows`` is a time-major block (n, atoms, dim_H, paths).  One
    ``np.add.reduce`` over the atom axis adds the atoms left to right at every
    value; it starts from -0.0, so that atoms that are all -0.0 sum to -0.0.
    It is not used when a step holds one value (P * dim_H == 1), where numpy
    sums pairwise, nor onto earlier groups' sums, which must stay the first
    term.
    """
    target = out.transpose(1, 2, 0)
    if onto_out or rows.shape[2] * rows.shape[3] == 1:
        if not onto_out:
            np.copyto(target, rows[:, 0])
        for j in range(0 if onto_out else 1, rows.shape[1]):
            target += rows[:, j]
    else:
        np.add.reduce(rows, axis=1, out=target, initial=-0.0)


def _walk_steps(
    family: FubiniFamily, a0: int, a1: int, inc: np.ndarray, first: np.ndarray, last: np.ndarray
):
    """Add the products of the atoms a0 <= j < a1 into ``first`` and their integrals into ``last``.

    The steps go in blocks of max(1, N // g) for g atoms, so the time-major block
    (steps, g, dim_H, paths) and the atoms' running sums (g, dim_H, paths) hold
    at most P * N * dim_H values each, and a run's scaled matrices, dense or
    for one block of time-varying atoms, at most dim_U * N * dim_H.  Each block
    takes one ``_fill_run`` call per run of atoms.  The weight multiply, each
    side's atom sum and the running sums then go over sub-blocks of at most
    ``BLOCK_ELEMENTS`` values, which stay in cache.  After the first group
    both sides add onto what earlier atoms left there.
    """
    n_paths, n_steps, _ = inc.shape
    size = max(1, n_steps // (a1 - a0))
    runs = _atom_runs(family, a0, a1, n_steps, size)
    weights = family.weights[a0:a1, None, None]
    block = np.empty((size, a1 - a0, first.shape[2], n_paths))
    state = np.empty(block.shape[1:])  # each atom's sum over the steps so far
    part_size = max(1, BLOCK_ELEMENTS // state.size)
    for start in range(0, n_steps, size):
        stop = min(start + size, n_steps)
        rows = block[: stop - start]
        for run in runs:
            _fill_run(run, inc, start, stop, rows[:, run[0] - a0 : run[1] - a0])
        for p0 in range(0, stop - start, part_size):
            p1 = min(p0 + part_size, stop - start)
            part, nodes = rows[p0:p1], slice(start + p0 + 1, start + p1 + 1)
            part *= weights
            _add_atoms(part, first[:, nodes], a0 > 0)
            if start + p0:
                part[0] += rows[p0 - 1] if p0 else state
            for i in range(1, p1 - p0):
                part[i] += part[i - 1]
            _add_atoms(part, last[:, nodes], a0 > 0)
        state[:] = rows[-1]


def _both_orders(family: FubiniFamily, noise: NoiseEnsemble) -> tuple[PathEnsemble, PathEnsemble]:
    """Mix-first and mix-last integrals from one walk over the steps per atom group.

    The groups go left to right, so both sides reduce the atoms left to right;
    the mix-first products take their prefix sum over time at the end.
    """
    phi, inc = family.integrands[0], noise.increments
    check_compatible(phi, noise)
    n_paths, n_steps, _ = inc.shape
    first = np.zeros((n_paths, n_steps + 1, phi.codomain.dim))
    last = np.zeros_like(first)
    for a0, a1 in _atom_groups(family, n_steps):
        _walk_steps(family, a0, a1, inc, first, last)
    np.cumsum(first[:, 1:], axis=1, out=first[:, 1:])
    return PathEnsemble(first, noise.grid), PathEnsemble(last, noise.grid)


def integrate_then_ito(family: FubiniFamily, noise: NoiseEnsemble) -> PathEnsemble:
    """Average the family first, then integrate (atoms reduced inside steps).

    Returns the Euler-Ito integral of sum_j w_j g(y_j) on the given noise.
    """
    return _both_orders(family, noise)[0]


def ito_then_integrate(family: FubiniFamily, noise: NoiseEnsemble) -> PathEnsemble:
    """Integrate each member first, then average (atoms reduced last).

    Returns sum_j w_j I(g(y_j)) computed on the same noise: each member's
    running prefix sums advance step by step and are added atom by atom at
    every node, from the scaled per-step products that ``integrate_then_ito``
    sums, bit for bit.
    """
    return _both_orders(family, noise)[1]


def fubini_report(family: FubiniFamily, noise: NoiseEnsemble) -> DiscrepancyReport:
    """Discrepancy between the two reduction orders on common noise.

    The headline number is the ``sup_abs`` field: the maximum over paths and
    nodes of the absolute difference.  ``meta["scale"]`` is the largest
    absolute value on either side, the yardstick for a relative headline.
    """
    lhs, rhs = _both_orders(family, noise)
    scale = max(float(np.max(np.abs(lhs.values))), float(np.max(np.abs(rhs.values))), 0.0)
    return compare(
        lhs,
        rhs,
        meta={"seed": noise.master_seed, "n_atoms": family.n_atoms, "scale": scale},
    )
