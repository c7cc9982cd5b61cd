"""Weighted operator families and their frame operator.

A family is a finite set of weighted points, each carrying an operator from
the common module into its own block-vector space.  The frame operator is
the weighted sum of gram terms ``adjoint(lam) o lam``; the family is a frame
exactly when that operator's spectrum is bounded away from zero, and the
optimal bounds are its extreme eigenvalues.  It is built as ``L L^H`` from
the family's weighted synthesis matrix ``L``; both are kept on the family,
and so are its extreme eigenvalues, so every caller of ``frame_operator``
shares one build and every verdict on the family one decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (DEFAULT_TOL, AlgebraElement, _check_tol, _finite, _gram,
                      _hermitian_part, _sandwich)
from .errors import NotAFrame
from .module_space import ModuleVector
from .operators import ModuleOperator
from .rng import complex_normal, stream

FRAME = "frame"
BESSEL_ONLY = "bessel_only"


@dataclass(frozen=True, eq=False)
class MeasurePoint:
    """One weighted point: a positive weight and the operator attached to it."""

    weight: float
    lam: ModuleOperator

    def __post_init__(self):
        w = float(self.weight)
        if not np.isfinite(w) or w <= 0:
            raise ValueError(f"weight must be positive and finite, got {self.weight}")
        object.__setattr__(self, "weight", w)

    @property
    def codomain_rank(self) -> int:
        return self.lam.codomain_rank


@dataclass(frozen=True, eq=False)
class GFrameFamily:
    """A finite weighted family of operators out of a common module."""

    algebra_dim: int
    module_rank: int
    points: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("a family needs at least one point")
        for i, p in enumerate(pts):
            if p.lam.algebra_dim != self.algebra_dim or p.lam.domain_rank != self.module_rank:
                raise ValueError(
                    f"point {i} operator domain ({p.lam.algebra_dim}, {p.lam.domain_rank}) "
                    f"does not match family ({self.algebra_dim}, {self.module_rank})")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def synthesis_matrix(self) -> np.ndarray:
        """``L = [sqrt(weight_w) * lam_w]``, side by side, taken on first use."""
        mat = np.hstack([np.sqrt(p.weight) * p.lam.action for p in self.points])
        mat.flags.writeable = False
        return mat

    @cached_property
    def _frame_operator(self) -> ModuleOperator:
        """``S = L L^H``, taken on first use; read it through ``frame_operator``."""
        l = self.synthesis_matrix
        d = self.module_rank
        return ModuleOperator(self.algebra_dim, d, d, l @ l.conj().T)

    @cached_property
    def _frame_spectrum(self) -> tuple[float, float]:
        """The extreme eigenvalues of ``S``, taken on first use."""
        return _extremes((self._frame_operator,))[0]


@dataclass(frozen=True)
class FrameBounds:
    lower: float
    upper: float


def _check_bounds(lower: float, upper: float) -> None:
    """Refuse frame bounds that are not both positive and finite."""
    if not (0 < lower < np.inf and 0 < upper < np.inf):
        raise ValueError("bounds must be positive and finite")


@dataclass(frozen=True, eq=False)
class FrameVerdict:
    """Classification outcome; ``bounds`` is present exactly for frames and
    ``witnesses`` records the extreme eigenvalues either way."""

    kind: str
    bounds: FrameBounds | None
    witnesses: dict


def frame_operator(family: GFrameFamily) -> ModuleOperator:
    """Weighted sum of ``adjoint(lam) o lam`` over points, as ``L L^H``,
    built once per family and then kept."""
    return family._frame_operator


def _extremes(ops) -> list[tuple[float, float]]:
    """The smallest and largest eigenvalue of each operator in ``ops``, all
    of one shape, from one ``eigvalsh`` over their stack.  LAPACK takes each
    slice alone, so every value is the one-operator one."""
    stack = np.stack([op.action for op in ops])
    return [(float(w[0]), float(w[-1]))
            for w in np.linalg.eigvalsh(_hermitian_part(stack))]


def _verdict_from(lo: float, hi: float, tol: float) -> FrameVerdict:
    """The verdict of a frame operator with extreme eigenvalues ``lo`` and
    ``hi``: a frame when ``lo > tol * hi``, witnessed by both."""
    wit = {"lambda_min": lo, "lambda_max": hi}
    return (FrameVerdict(FRAME, FrameBounds(lo, hi), wit) if lo > tol * hi
            else FrameVerdict(BESSEL_ONLY, None, wit))


def _verdicts(ops, tol: float = DEFAULT_TOL) -> list[FrameVerdict]:
    """Frame / Bessel-only verdict of each frame operator in ``ops``, all of
    one shape, from the ``_extremes`` of their stack.  The threshold is
    relative, so rescaling an operator leaves its verdict alone; its
    default, ``DEFAULT_TOL``, is the one frame threshold of the library, the
    verifier and every CLI command.
    """
    _check_tol(tol)
    return [_verdict_from(lo, hi, tol) for lo, hi in _extremes(ops)]


def optimal_bounds(family: GFrameFamily, tol: float = DEFAULT_TOL) -> FrameBounds:
    """Extreme eigenvalues of the frame operator; ``NotAFrame`` if the lower
    one does not clear ``tol`` (default ``DEFAULT_TOL``) times the upper one."""
    verdict = classify(family, tol)
    if verdict.bounds is None:
        raise NotAFrame(f"lower spectral edge {verdict.witnesses['lambda_min']:.3e} "
                        f"is not positive")
    return verdict.bounds


def classify(family: GFrameFamily, tol: float = DEFAULT_TOL) -> FrameVerdict:
    """Frame / Bessel-only verdict from the frame operator's spectrum: a
    frame when its smallest eigenvalue exceeds ``tol`` (default
    ``DEFAULT_TOL``) times its largest.  The family keeps both."""
    _check_tol(tol)
    return _verdict_from(*family._frame_spectrum, tol)


def _energy(points, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_w weight * (x lam_w)(y lam_w)^H`` over ``points`` in point order,
    on flattened vectors or stacks of them, slice by slice."""
    acc = None
    for p in points:
        l = p.lam.action
        xl = x @ l
        yl = xl if y is x else y @ l
        term = p.weight * (xl @ yl.conj().swapaxes(-1, -2))
        acc = term if acc is None else acc + term
    return acc


def sandwich_sum(family: GFrameFamily, x: ModuleVector) -> AlgebraElement:
    """Pointwise-accumulated energy ``sum_w weight * inner(lam_w x, lam_w x)``.

    Deliberately sums per-point inner products instead of using the assembled
    frame operator, so checks against it exercise an independent path.
    """
    if x.algebra_dim != family.algebra_dim or x.rank != family.module_rank:
        raise ValueError("vector does not live in the family's module")
    return AlgebraElement(_energy(family.points, x.flat, x.flat))


def check_sandwich(family: GFrameFamily, lower: float, upper: float,
                   samples: int, seed: int, tol: float = DEFAULT_TOL) -> bool:
    """Test the algebra-valued two-sided bound on ``samples`` seeded random
    vectors: ``lower * inner(x,x) <= sandwich_sum(x) <= upper * inner(x,x)``,
    decided on their stack by ``_sandwich`` with no separate Hermitian test."""
    _check_tol(tol)
    _check_bounds(lower, upper)
    if samples < 1:
        raise ValueError("need at least one sample")
    if not 0 <= seed < (1 << 64):
        raise ValueError(f"seed must be a 64-bit nonnegative integer, got {seed}")
    n, d = family.algebra_dim, family.module_rank
    rng = stream(seed, 0)
    xs = np.stack([complex_normal(rng, (n, d * n)) for _ in range(samples)])
    xx, val = _gram(xs), _energy(family.points, xs, xs)
    _finite(lower * xx - val, upper * xx - val)
    return _sandwich(lower, upper, xx[None], val[None])[0] <= tol
