"""Weighted operator families and their frame operator.

A family is a finite set of weighted points, each carrying an operator from
the common module into its own block-vector space.  The frame operator is
the weighted sum of gram terms ``adjoint(lam) o lam``; the family is a frame
exactly when that operator's spectrum is bounded away from zero, and the
optimal bounds are its extreme eigenvalues.  It is built as ``L L^H`` from
the family's weighted synthesis matrix ``L``; both are kept on the family,
so every caller of ``frame_operator`` shares one build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraElement, _hermitian_part, loewner_leq
from .errors import NotAFrame
from .module_space import ModuleVector, inner
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


@dataclass(frozen=True)
class FrameBounds:
    lower: float
    upper: float


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


def _verdicts(ops, tol: float = DEFAULT_TOL) -> list[FrameVerdict]:
    """Frame / Bessel-only verdict of each frame operator in ``ops``, all of
    one shape, from one ``eigvalsh`` over their stack: a frame when
    ``lambda_min > tol * lambda_max``.  LAPACK takes each slice alone, so
    every value is the one-operator one.  The threshold is relative, so
    rescaling an operator leaves its verdict alone; its default,
    ``DEFAULT_TOL``, is the one frame threshold of the library, the verifier
    and every CLI command.  Each verdict's witnesses are the extreme
    eigenvalues.
    """
    out = []
    stack = np.stack([op.action for op in ops])
    for w in np.linalg.eigvalsh(_hermitian_part(stack)):
        lo, hi = float(w[0]), float(w[-1])
        wit = {"lambda_min": lo, "lambda_max": hi}
        out.append(FrameVerdict(FRAME, FrameBounds(lo, hi), wit) if lo > tol * hi
                   else FrameVerdict(BESSEL_ONLY, None, wit))
    return out


def _verdict(op: ModuleOperator, tol: float = DEFAULT_TOL) -> FrameVerdict:
    """``_verdicts`` of the one operator ``op``."""
    return _verdicts((op,), tol)[0]


def optimal_bounds(family: GFrameFamily, tol: float = DEFAULT_TOL) -> FrameBounds:
    """Extreme eigenvalues of the frame operator; ``NotAFrame`` if the lower
    one does not clear ``tol`` (default ``DEFAULT_TOL``) times the upper one."""
    verdict = _verdict(frame_operator(family), tol)
    if verdict.bounds is None:
        raise NotAFrame(f"lower spectral edge {verdict.witnesses['lambda_min']:.3e} "
                        f"is not positive")
    return verdict.bounds


def classify(family: GFrameFamily, tol: float = DEFAULT_TOL) -> FrameVerdict:
    """Frame / Bessel-only verdict from the frame operator's spectrum: a
    frame when its smallest eigenvalue exceeds ``tol`` (default
    ``DEFAULT_TOL``) times its largest."""
    return _verdict(frame_operator(family), tol)


def _point_stacks(point_lists) -> list:
    """The points of each list in ``point_lists`` by codomain rank: per
    rank, the list index, point index and weight of each point with it, as
    arrays, and the points' actions, stacked."""
    by_rank: dict[int, list] = {}
    for i, points in enumerate(point_lists):
        for j, p in enumerate(points):
            by_rank.setdefault(p.codomain_rank, []).append((i, j, p))
    return [(np.array([i for i, _, _ in pts]), np.array([j for _, j, _ in pts]),
             np.array([p.weight for _, _, p in pts]),
             np.stack([p.lam.action for _, _, p in pts]))
            for pts in by_rank.values()]


def _point_grams(stacks, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``(x_i lam)(y_i lam)^H`` at ``[j, i]`` for the action ``lam`` of
    point ``j`` of list ``i`` of ``stacks``, on stacks of flattened vectors
    led by the list axis, and zero past a list's last point.  A list's
    points of one rank are adjacent in ``stacks``, so they meet its vectors
    in one stacked matmul, which runs BLAS on each slice alone and copies no
    vector once per point."""
    size = 1 + max(int(jj.max()) for _, jj, _, _ in stacks)
    out = np.zeros((size,) + x.shape[:-1] + x.shape[-2:-1], dtype=np.complex128)
    for ii, jj, _, acts in stacks:
        lam = acts.reshape(acts.shape[:1] + (1,) * (x.ndim - 3) + acts.shape[1:])
        starts = np.flatnonzero(np.diff(ii, prepend=-1)).tolist()
        for start, end in zip(starts, starts[1:] + [len(ii)]):
            i = ii[start]
            xl = x[i] @ lam[start:end]
            yl = xl if y is x else y[i] @ lam[start:end]
            out[jj[start:end], i] = xl @ yl.conj().swapaxes(-1, -2)
    return out


def _energies(stacks, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_w weight * (x_i lam_w)(y_i lam_w)^H`` over the points of each
    list ``i`` of ``stacks`` in point order, led by the list axis; a list
    with fewer points adds exact zeros."""
    grams = _point_grams(stacks, x, y)
    weights = np.zeros(grams.shape[:2])
    for ii, jj, w, _ in stacks:
        weights[jj, ii] = w
    terms = weights.reshape(weights.shape + (1,) * (grams.ndim - 2)) * grams
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return acc


def _energy(points, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_w weight * (x lam_w)(y lam_w)^H`` over ``points`` in point order,
    on flattened vectors or stacks of them, slice by slice."""
    x1 = x[None]
    return _energies(_point_stacks([points]), x1, x1 if y is x else y[None])[0]


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
    vectors: ``lower * inner(x,x) <= sandwich_sum(x) <= upper * inner(x,x)``."""
    if lower <= 0 or upper <= 0:
        raise ValueError("bounds must be positive")
    if samples < 1:
        raise ValueError("need at least one sample")
    n, d = family.algebra_dim, family.module_rank
    rng = stream(seed, 0)
    for _ in range(samples):
        x = ModuleVector(n, d, complex_normal(rng, (n, d * n)))
        xx = inner(x, x)
        val = sandwich_sum(family, x)
        if not (loewner_leq(lower * xx, val, tol) and loewner_leq(val, upper * xx, tol)):
            return False
    return True
