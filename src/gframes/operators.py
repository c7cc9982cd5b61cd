"""Adjointable maps between block-vector spaces, realized as right actions.

A map from rank-d vectors to rank-e vectors over an n-dimensional matrix
algebra is a (d*n)-by-(e*n) complex matrix applied on the right of the
flattened vector.  Right actions commute with the left algebra action, so
every operator here is algebra-linear by construction; the adjoint for the
algebra-valued inner product is the conjugate transpose of the action, and
the operator norm is its largest singular value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (DEFAULT_TOL, _check_tol, _finite, _gram, _hermitian_part,
                      _hmin, _sandwich, _top_singular, spectral_norm)
from .errors import NotHermitian, NotPositiveDefinite, NotSurjective
from .module_space import ModuleVector

# Relative threshold under which a smallest singular value counts as zero.
SURJECTIVITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ModuleOperator:
    """Right-action matrix of shape (domain_rank * n, codomain_rank * n)."""

    algebra_dim: int
    domain_rank: int
    codomain_rank: int
    action: np.ndarray

    def __post_init__(self):
        n, d, e = self.algebra_dim, self.domain_rank, self.codomain_rank
        if n < 1 or d < 1 or e < 1:
            raise ValueError("algebra_dim and ranks must be positive")
        arr = np.array(self.action, dtype=np.complex128)
        if arr.shape != (d * n, e * n):
            raise ValueError(f"action must have shape {(d * n, e * n)}, got {arr.shape}")
        _finite(arr, what="action")
        arr.flags.writeable = False
        object.__setattr__(self, "action", arr)

    @classmethod
    def identity(cls, n: int, d: int) -> "ModuleOperator":
        return cls(n, d, d, np.eye(d * n, dtype=np.complex128))

    @classmethod
    def zero(cls, n: int, d: int, e: int) -> "ModuleOperator":
        return cls(n, d, e, np.zeros((d * n, e * n), dtype=np.complex128))

    @property
    def is_square(self) -> bool:
        return self.domain_rank == self.codomain_rank


def op_apply(t: ModuleOperator, x: ModuleVector) -> ModuleVector:
    """Apply the operator: flatten, multiply on the right, reblock."""
    if x.algebra_dim != t.algebra_dim or x.rank != t.domain_rank:
        raise ValueError(
            f"operator domain ({t.algebra_dim}, {t.domain_rank}) does not accept "
            f"vector of shape ({x.algebra_dim}, {x.rank})")
    return ModuleVector(t.algebra_dim, t.codomain_rank, x.flat @ t.action)


def op_adjoint(t: ModuleOperator) -> ModuleOperator:
    """Adjoint for the algebra-valued inner product: conjugate-transposed action."""
    return ModuleOperator(t.algebra_dim, t.codomain_rank, t.domain_rank,
                          t.action.conj().T)


def op_compose(s: ModuleOperator, t: ModuleOperator) -> ModuleOperator:
    """Composition ``x -> s(t(x))``; on right actions the product reverses."""
    if s.algebra_dim != t.algebra_dim or s.domain_rank != t.codomain_rank:
        raise ValueError("composition shape mismatch")
    return ModuleOperator(t.algebra_dim, t.domain_rank, s.codomain_rank,
                          t.action @ s.action)


def op_norm(t: ModuleOperator) -> float:
    """Operator norm: largest singular value of the action."""
    return spectral_norm(t.action)


def energy_bound_check(t: ModuleOperator, x: ModuleVector,
                       tol: float = DEFAULT_TOL) -> bool:
    """Check ``inner(t x, t x) <= op_norm(t)**2 * inner(x, x)`` in the
    semidefinite order at ``tol`` by ``_sandwich``, as the verifier does, with
    no separate Hermitian test.  Holds for every adjointable operator."""
    _check_tol(tol)
    val = _gram(op_apply(t, x).flat)
    hi, xx = op_norm(t) ** 2, _gram(x.flat)
    _finite(hi * xx - val)
    return _sandwich(None, hi, xx[None], val[None])[0] <= tol


def is_bounded_below(t: ModuleOperator,
                     tol: float = SURJECTIVITY_TOL) -> tuple[bool, float]:
    """Smallest singular value of the action, seen from the domain side.

    Returns ``(m > tol * sigma_max, m)``.  When the domain dimension
    exceeds the codomain dimension the map compresses and m is zero by
    convention (deficient directions count), which makes the boolean agree
    exactly with surjectivity of ``op_adjoint(t)``.
    """
    _check_tol(tol)
    s = np.linalg.svd(t.action, compute_uv=False)
    m = 0.0 if t.action.shape[0] > t.action.shape[1] else float(s[-1])
    return (_clears_floor(m, float(s[0]), tol), m)


def _clears_floor(m: float, top: float, tol: float) -> bool:
    """Whether ``m``, a smallest singular value, counts as nonzero next to
    the largest, ``top``: ``m > tol * top``, so a zero operator fails it."""
    return m > tol * top


def is_surjective(t: ModuleOperator, tol: float = SURJECTIVITY_TOL) -> bool:
    """Surjectivity onto the codomain, equivalent to the adjoint being
    bounded below."""
    ok, _ = is_bounded_below(op_adjoint(t), tol)
    return ok


def gram_sandwich_check(t: ModuleOperator, tol: float = DEFAULT_TOL) -> bool:
    """For surjective ``t`` (else ``NotSurjective``), check by ``_sandwich``,
    as the verifier does, with no separate Hermitian test, the two-sided bound
    on ``g = t t*``: ``norm(g^-1)^-1 * id <= g <= op_norm(t)**2 * id``."""
    _check_tol(tol)
    if not is_surjective(t):
        raise NotSurjective("gram sandwich requires a surjective operator")
    g = op_compose(t, op_adjoint(t)).action
    return _sandwich(_hmin(g), op_norm(t) ** 2, np.eye(len(g)), g[None])[0] <= tol


@dataclass(frozen=True, eq=False)
class PositiveInvertibleOperator:
    """A square operator certified positive definite at construction, with its
    inverse cached, and its norm, its inverse's norm and whether it is the
    identity decided on first use."""

    base: ModuleOperator
    inverse: ModuleOperator
    condition_number: float

    @cached_property
    def norm(self) -> float:
        return op_norm(self.base)

    @cached_property
    def inverse_norm(self) -> float:
        return op_norm(self.inverse)

    @cached_property
    def is_identity(self) -> bool:
        """Whether the action is exactly the identity matrix."""
        a = self.base.action
        return np.array_equal(a, np.eye(a.shape[0], dtype=np.complex128))


def make_positive_invertible(m: ModuleOperator,
                             tol: float = DEFAULT_TOL) -> PositiveInvertibleOperator:
    """Certify ``m`` Hermitian positive definite and cache its inverse.

    Hermitian within ``tol * norm`` (else ``NotHermitian``); smallest
    eigenvalue > ``tol * norm`` (else ``NotPositiveDefinite``).
    """
    if not m.is_square:
        raise ValueError("positive operators must be square")
    _check_tol(tol)
    a = m.action
    # op_norm(m) and the asymmetry's norm, from one stacked SVD
    nrm, asym = _top_singular(np.stack((a, a - a.conj().T)))
    if asym > tol * nrm:
        raise NotHermitian(f"operator is not Hermitian within tol={tol}")
    w, v = np.linalg.eigh(_hermitian_part(a))
    lo, hi = float(w[0]), float(w[-1])
    if lo <= tol * nrm:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {lo:.3e} not above tol * norm = {tol * nrm:.3e}")
    inverse = ModuleOperator(m.algebra_dim, m.domain_rank, m.domain_rank,
                             (v * (1.0 / w)) @ v.conj().T)
    pos = PositiveInvertibleOperator(base=m, inverse=inverse,
                                     condition_number=hi / lo)
    vars(pos)["norm"] = nrm  # op_norm(m), already taken above
    return pos


def identity_control(n: int, d: int) -> PositiveInvertibleOperator:
    """The identity as a certified positive invertible operator."""
    eye = ModuleOperator.identity(n, d)
    return PositiveInvertibleOperator(base=eye, inverse=eye, condition_number=1.0)
