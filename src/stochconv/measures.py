"""Finite discrete measure spaces, measure kernels and mixed-exponent norms.

Everything here is a finite sum over atoms, evaluated in double precision with
numpy's pairwise summation, so inequalities between the quantities below hold
up to floating-point reassociation only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, StochConvError, check_exponent, frozen_array

__all__ = [
    "DiscreteMeasureSpace",
    "KernelSpec",
    "DiscreteFunction",
    "lpq_norm",
    "holder_constant",
    "abs_integral",
]


@dataclass(frozen=True)
class DiscreteMeasureSpace:
    """Finitely many atoms with nonnegative weights."""

    points: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = frozen_array(self.weights, "atom weights", nonnegative=True)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", tuple(self.points))
        if w.shape != (len(self.points),):
            raise DimensionMismatchError(
                "one weight per atom required",
                expected=(len(self.points),),
                got=w.shape,
            )


@dataclass(frozen=True)
class KernelSpec:
    """A measure kernel over a shared first-factor atom list.

    ``base`` carries the second-factor atoms and their weights; row ``x`` of
    ``atom_masses`` gives the kernel measure of each first-factor atom at the
    second-factor atom ``x``.
    """

    base: DiscreteMeasureSpace
    d1_points: tuple
    atom_masses: np.ndarray

    def __post_init__(self):
        m = frozen_array(self.atom_masses, "kernel masses", nonnegative=True)
        object.__setattr__(self, "atom_masses", m)
        object.__setattr__(self, "d1_points", tuple(self.d1_points))
        if m.shape != (len(self.base.points), len(self.d1_points)):
            raise DimensionMismatchError(
                "kernel masses must be (n_base_atoms, n_d1_atoms)",
                expected=(len(self.base.points), len(self.d1_points)),
                got=m.shape,
            )

    @property
    def first_factor_masses(self) -> np.ndarray:
        """Total kernel mass of the first factor at each base atom."""
        return np.sum(self.atom_masses, axis=1)


@dataclass(frozen=True)
class DiscreteFunction:
    """Values on every (first-factor atom, second-factor atom) pair.

    ``values`` has shape (n_d1, n_d2) for scalar functions or
    (n_d1, n_d2, k) for vector-valued ones; the pointwise magnitude is the
    Euclidean norm over the trailing axis in the vector case.
    """

    values: np.ndarray

    def __post_init__(self):
        v = frozen_array(self.values, "function values")
        object.__setattr__(self, "values", v)
        if v.ndim not in (2, 3):
            raise StochConvError("values must be a 2-d (scalar) or 3-d (vector) array")

    def magnitudes(self) -> np.ndarray:
        if self.values.ndim == 2:
            return np.abs(self.values)
        return np.sqrt(np.sum(self.values**2, axis=-1))


def _check_kernel_function(f: DiscreteFunction, k: KernelSpec):
    shape = (len(k.d1_points), len(k.base.points))
    if f.values.shape[:2] != shape:
        raise DimensionMismatchError(
            "function must be defined on every atom pair",
            expected=shape,
            got=f.values.shape[:2],
        )


def abs_integral(f: DiscreteFunction, k: KernelSpec) -> float:
    """Integral of |f| against the product measure."""
    _check_kernel_function(f, k)
    inner = np.sum(f.magnitudes() * k.atom_masses.T, axis=0)
    return float(np.sum(inner * k.base.weights))


def lpq_norm(f: DiscreteFunction, k: KernelSpec, p: float, q: float) -> float:
    """Mixed (p, q) norm: inner p-mean over the kernel, outer q-mean.

    Computes ``(sum_x (sum_x1 |f(x1,x)|^p m(x1,x))^(q/p) w(x))^(1/q)`` where
    ``m`` are the kernel atom masses and ``w`` the base weights.

    Raises:
      StochConvError: unless p and q are finite and >= 1.
    """
    check_exponent("p", p)
    check_exponent("q", q)
    _check_kernel_function(f, k)
    inner = np.sum(f.magnitudes() ** p * k.atom_masses.T, axis=0)
    return float(np.sum(inner ** (q / p) * k.base.weights) ** (1.0 / q))


def holder_constant(k: KernelSpec, p: float, q: float) -> float:
    """Constant dominating the plain integral by the mixed (p, q) norm.

    For q > 1 this is ``(sum_x m(x)^(q(p-1)/(p(q-1))) w(x))^((q-1)/q)`` with
    ``m(x)`` the first-factor mass at atom ``x``; for q = 1, p > 1 it is the
    sup of ``m(x)^((p-1)/p)`` over atoms of positive base weight; for
    p = q = 1 it is 1.
    """
    check_exponent("p", p)
    check_exponent("q", q)
    masses = k.first_factor_masses
    # null base atoms never contribute; skipping them also avoids inf * 0
    # when the exponent blows up as q -> 1
    positive = k.base.weights > 0.0
    if q > 1.0:
        expo = q * (p - 1.0) / (p * (q - 1.0))
        with np.errstate(over="ignore"):
            total = np.sum(masses[positive] ** expo * k.base.weights[positive])
            return float(total ** ((q - 1.0) / q))
    if p > 1.0:
        if not np.any(positive):
            return 0.0
        return float(np.max(masses[positive] ** ((p - 1.0) / p)))
    return 1.0
