"""Commutation of parameter averaging with Euler-Ito integration.

For a finite weighted family of integrands the two pipelines

* mix first:  integrate the weighted sum of the integrands,
* mix last:   integrate each member, then form the weighted sum,

agree up to floating-point reassociation of a finite double sum.  Member j
of a family is s_j * g_j: a scale times an integrand.  One walk over the
time steps builds both sides: each (atom, step) product
w_j * ((s_j g_j)(t_i) dW_i) is filled once and feeds both reduction orders
(atoms inner vs. atoms outer), so a single-atom family commutes bitwise.
The atoms come in shares: ranges of consecutive atoms that hold one
integrand object, as every family built from a config is one share.  The
walk holds a step block as (steps, atoms, dim_H, paths) and fills it one
share at a time.  A time-varying or dense constant share scales one step
block of its matrices by one broadcast multiply.  With dim_U == 1 its atoms
take the outer product of ``step_products``.  With two or more paths and
dim_H > 1, one ``matmul`` fills the share by one BLAS gemm per step for all
its atoms, (atoms * dim_H, dim_U) by (dim_U, paths).  With one path or
dim_H == 1 an atom's own product is a gemv, which the wide gemm does not
reproduce bitwise, so those shapes keep one product per (step, atom).
Spectral constants and adapted atoms keep the per-atom ``fill_products``.
The weight multiply, each side's atom sum (one ``np.add.reduce``) and the
running sums then go over sub-blocks of at most ``_parallel.BLOCK_ELEMENTS``
values, which stay in cache.  The atoms are reduced left to right on both
sides, with the bytes of one ``integrand_products`` call per atom on
``IntegrandSpec.scaled(s_j)``.

Memory: the scaled family that ``experiments`` builds from a config holds
one integrand and n_atoms scales, so a time-varying node table is stored
once, whatever the number of atoms.  No temporary of the walk holds more
than max(P, dim_U) * N * dim_H values, whatever the number of atoms: one
block of products, the atoms' running sums, or one step block of a share's
scaled matrices.
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


def _atom_shares(family: FubiniFamily, a0: int, a1: int, n_steps: int) -> list[tuple]:
    """Maximal ranges (a, b, operand) of consecutive atoms a0 <= j < a1 that hold one integrand.

    A time-varying integrand or a dense constant has the matrix operand, a
    tuple: its step matrices as (N, 1, dim_H, dim_U) (for a constant, the
    broadcast view that ``step_matrices`` returns) and the share's scales as
    (atoms, 1, 1).  A spectral constant or an adapted integrand has a list of
    each atom's ``IntegrandSpec.scaled``: a constant operator, or a callback
    wrapper (the atom itself at a scale of 1.0).  No operand holds a scaled
    node table.
    """
    phis, scales = family.integrands, family.scales
    cuts = [j for j in range(a0 + 1, a1) if phis[j] is not phis[j - 1]]
    shares = []
    for a, b in zip([a0] + cuts, cuts + [a1]):
        phi = phis[a]
        if phi.kind == TIME_VARYING or isinstance(phi.constant, DenseOperator):
            operand = step_matrices(phi, n_steps)[:, None], scales[a:b, None, None]
        else:
            operand = [phi.scaled(float(s)) for s in scales[a:b]]
        shares.append((a, b, operand))
    return shares


def _fill_share(
    share: tuple, inc: np.ndarray, start: int, stop: int, rows: np.ndarray, buffer: np.ndarray
):
    """(s_j Phi_{t_i}) dW_i of a share's atoms j, start <= i < stop, into rows.

    ``rows`` is the share's columns of a time-major block (steps, atoms,
    dim_H, paths).  Each product has the bytes of the call that
    ``fill_products`` makes for that step on ``IntegrandSpec.scaled(s_j)``.
    A matrix share scales one step block of its matrices into ``buffer``
    (steps, widest share, dim_H, dim_U) by one broadcast multiply, s_j times
    the atom's matrices as ``scaled`` makes them.  With dim_U == 1,
    ``step_products`` fills its atoms one by one: its outer product writes a
    zero product as +0.0, as the K = 1 product of a dense constant does.  With
    two or more paths and dim_H > 1 one ``matmul`` fills them by one BLAS gemm
    per step, (atoms * dim_H, dim_U) by (dim_U, paths).  With one path or
    dim_H == 1 the atom's product is a gemv, which the wide gemm does not
    reproduce bitwise, so one ``matmul`` makes one product per (step, atom);
    (dim_H, paths) and (paths, dim_H) are then the same bytes.  A list share
    goes through ``fill_products`` atom by atom: through a gemm, a -0.0
    product of a spectral constant would come out +0.0.
    """
    a, b, operand = share
    if isinstance(operand, list):
        for j, phi in enumerate(operand):
            fill_products(phi, inc, start, stop, rows[:, j].transpose(2, 0, 1))
        return
    mats, factors = operand
    scaled = np.multiply(mats[start:stop], factors, out=buffer[: stop - start, : b - a])
    n_steps, n_atoms, dim_h, n_paths = rows.shape
    if inc.shape[2] == 1:
        for j in range(n_atoms):
            step_products(scaled[:, j], inc[:, start:stop], out=rows[:, j].transpose(2, 0, 1))
    elif n_paths == 1 or dim_h == 1:
        steps = inc[:, start:stop].swapaxes(0, 1)[:, None]  # (steps, 1, paths, dim_U)
        np.matmul(steps, scaled.swapaxes(-1, -2), out=rows.swapaxes(2, 3))
    else:
        wide = scaled.reshape(n_steps, n_atoms * dim_h, inc.shape[2])
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
    at most P * N * dim_H values each, and the buffer of one step block of a
    share's scaled matrices at most dim_U * N * dim_H.  Each block takes one
    ``_fill_share`` call per share, left to right.  The weight multiply, each
    side's atom sum and the running sums then go over sub-blocks of at most
    ``BLOCK_ELEMENTS`` values, which stay in cache.  After the first group
    both sides add onto what earlier atoms left there.
    """
    n_paths, n_steps, dim_u = inc.shape
    size = max(1, n_steps // (a1 - a0))
    shares = _atom_shares(family, a0, a1, n_steps)
    width = max((b - a for a, b, operand in shares if isinstance(operand, tuple)), default=0)
    buffer = np.empty((size, width, first.shape[2], dim_u))
    weights = family.weights[a0:a1, None, None]
    block = np.empty((size, a1 - a0, first.shape[2], n_paths))
    state = np.empty(block.shape[1:])  # each atom's sum over the steps so far
    part_size = max(1, BLOCK_ELEMENTS // state.size)
    for start in range(0, n_steps, size):
        stop = min(start + size, n_steps)
        rows = block[: stop - start]
        for share in shares:
            _fill_share(share, inc, start, stop, rows[:, share[0] - a0 : share[1] - a0], buffer)
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
