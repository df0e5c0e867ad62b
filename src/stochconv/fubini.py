"""Commutation of parameter averaging with Euler-Ito integration.

For a finite weighted family of integrands the two pipelines

* mix first:  integrate the weighted sum of the integrands,
* mix last:   integrate each member, then form the weighted sum,

agree up to floating-point reassociation of a finite double sum.  One pass
over the atoms builds both sides from one ``integrand_products`` call per atom:
they share the scaled per-step products w_j * (g_j(t_i) dW_i) and differ only
in the reduction order (atoms inner vs. atoms outer), so a single-atom family
commutes bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .convolution import DiscrepancyReport, compare
from .errors import DimensionMismatchError, StochConvError, frozen_array
from .ito import IntegrandSpec, PathEnsemble, integrand_products
from .noise import NoiseEnsemble, prefix_sums

__all__ = [
    "FubiniFamily",
    "integrate_then_ito",
    "ito_then_integrate",
    "fubini_report",
]


@dataclass(frozen=True)
class FubiniFamily:
    """Finitely many parameter atoms, weights and per-atom integrands."""

    atoms: tuple
    weights: np.ndarray
    integrands: tuple

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


def _both_orders(family: FubiniFamily, noise: NoiseEnsemble) -> tuple[PathEnsemble, PathEnsemble]:
    """Mix-first and mix-last integrals from one ``integrand_products`` call per atom."""
    for j, (phi, weight) in enumerate(zip(family.integrands, family.weights)):
        products = integrand_products(phi, noise)
        products *= weight
        if j == 0:  # both sums start from atom 0
            mixed, total = products, prefix_sums(products)
        else:  # atoms reduced inside the steps, and after the prefix sums
            mixed += products
            total[:, 1:, :] += np.cumsum(products, axis=1, out=products)
    return PathEnsemble(prefix_sums(mixed), noise.grid), PathEnsemble(total, noise.grid)


def integrate_then_ito(family: FubiniFamily, noise: NoiseEnsemble) -> PathEnsemble:
    """Average the family first, then integrate (atoms reduced inside steps).

    Returns the Euler-Ito integral of sum_j w_j g(y_j) on the given noise.
    """
    return _both_orders(family, noise)[0]


def ito_then_integrate(family: FubiniFamily, noise: NoiseEnsemble) -> PathEnsemble:
    """Integrate each member first, then average (atoms reduced last).

    Returns sum_j w_j I(g(y_j)) computed on the same noise, with the scaled
    per-step products shared bit-for-bit with ``integrate_then_ito``.
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
