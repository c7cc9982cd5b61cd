"""Matrix *-algebra layer: adjoints, positivity, the semidefinite order,
square roots and norms of square complex matrices, and the spectral
kernels and the one relative scale every module shares, ``_rel``, so that
every tolerance rule holds alike at every scale.

The norm is the largest singular value, so the C*-identity
``alg_norm(a* a) == alg_norm(a)**2`` holds up to roundoff.  The order
``a <= b`` has one rule, ``_order_violations``, shared with the verifier:
``-lambda_min(b - a)`` relative to ``max(norm(a), norm(b))``, and by it
``_sandwich`` decides every two-sided bound of the library and the verifier.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotPositive

# Default working tolerance, relative; every predicate takes an override.
DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A square complex matrix, immutable after construction."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        _finite(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def identity(cls, n: int) -> "AlgebraElement":
        return cls(np.eye(n, dtype=np.complex128))

    @classmethod
    def zero(cls, n: int) -> "AlgebraElement":
        return cls(np.zeros((n, n), dtype=np.complex128))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same_dim(self, other)
        return AlgebraElement(self.entries + other.entries)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same_dim(self, other)
        return AlgebraElement(self.entries - other.entries)

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same_dim(self, other)
        return AlgebraElement(self.entries @ other.entries)

    def __mul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.entries * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(-self.entries)


def _check_same_dim(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _finite(*arrays: np.ndarray, what: str = "matrix") -> None:
    """Refuse arrays with an entry that is not finite, as every wrapper does."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{what} entries must be finite")


def _check_tol(tol: float) -> None:
    """Refuse a tolerance that is NaN, negative or infinite."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol!r}")


def _rel(*norms: float) -> float:
    """``max(tiny, *norms)``, tiny the smallest normal double: what every
    relative tolerance and residual is scaled by, so that a rule is relative
    at every scale."""
    return max(sys.float_info.min, *norms)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix or of each matrix in a stack."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _hmin(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Hermitian part of each matrix in a stack."""
    return np.linalg.eigvalsh(_hermitian_part(m))[..., 0]


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a matrix, bit for bit the matrix 2-norm of
    numpy's ``norm`` without its axis handling."""
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _top_singular(stack: np.ndarray) -> list:
    """``spectral_norm`` of each matrix in a stack, as nested lists of Python
    floats, from one SVD: LAPACK takes each slice alone."""
    return np.linalg.svd(stack, compute_uv=False)[..., 0].tolist()


def _per_shape(f, mats) -> list:
    """``f`` of each matrix of ``mats``, in input order, from one call of
    ``f`` on the stack of each shape, shapes in first-seen order."""
    out = [None] * len(mats)
    for shape in dict.fromkeys(m.shape for m in mats):
        idx = [i for i, m in enumerate(mats) if m.shape == shape]
        for i, v in zip(idx, f(np.stack([mats[i] for i in idx]))):
            out[i] = v
    return out


def alg_adjoint(a: AlgebraElement) -> AlgebraElement:
    """Conjugate transpose."""
    return AlgebraElement(a.entries.conj().T)


def alg_norm(a: AlgebraElement) -> float:
    """Largest singular value."""
    return spectral_norm(a.entries)


def _order_violations(a: np.ndarray, b: np.ndarray) -> list:
    """How far ``a <= b`` fails in the semidefinite order, relative, for
    each index of the leading axis: the largest violation over the matrices
    of ``a[i]`` and ``b[i]``, two equal-shape stacks.

    A finite slice of ``b - a`` with no negative eigenvalue gives 0.0 whatever
    the scale, so the scale ``_rel(norm(a_s), norm(b_s))`` is taken only
    for the others, the norms of all of them from one stacked SVD.  A slice
    whose difference is not finite, or whose smallest eigenvalue is NaN,
    cannot show the order and gives inf; it still reaches that SVD, which
    raises ``LinAlgError`` on NaN.  The violation is a maximum, so neither
    the order of the slices nor slices of exact zeros change it.
    """
    diff = b - a
    h = _hmin(diff)
    finite = np.isfinite(diff).all(axis=(-2, -1)) & ~np.isnan(h)
    bad = ~((h >= 0) & finite)
    viol = [0.0] * len(a)
    if not bad.any():
        return viol
    norms_a, norms_b = _top_singular(np.stack((a[bad], b[bad])))
    for i, hb, fb, na, nb in zip(np.nonzero(bad)[0].tolist(), h[bad].tolist(),
                                 finite[bad].tolist(), norms_a, norms_b):
        viol[i] = max(viol[i], -hb / _rel(na, nb) if fb else np.inf)
    return viol


def _gram(x: np.ndarray) -> np.ndarray:
    """``x x^H`` for each matrix in a stack."""
    return x @ x.conj().swapaxes(-1, -2)


def _sandwich(lo, hi, xx: np.ndarray, val: np.ndarray) -> list:
    """Violation of ``lo * xx <= val <= hi * xx`` for each case, the leading
    axis of ``val``: the largest over its slices.  A bound holds one value
    per case, or per case and slice, and broadcasts over the leading axes of
    ``val``, as ``xx`` does.  A ``lo`` of None checks the upper side only; a
    None entry of ``lo`` leaves its case's lower side exact zeros."""

    def spread(a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape + (1,) * (val.ndim - a.ndim))

    upper = spread(np.asarray(hi, dtype=float)) * xx
    if lo is None:
        return _order_violations(val, upper)
    has_lo = np.not_equal(lo, None)
    lo_xx = spread(np.where(has_lo, lo, 0.0).astype(float)) * xx
    return _order_violations(
        np.stack((lo_xx, val), axis=1),
        np.stack((np.where(spread(has_lo), val, 0.0), upper), axis=1))


def is_positive(a: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """Positive semidefinite within ``tol``: ``loewner_leq(0, a, tol)``."""
    return loewner_leq(AlgebraElement.zero(a.dim), a, tol)


def loewner_leq(a: AlgebraElement, b: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """Semidefinite order within ``tol``: ``b - a`` is Hermitian up to
    ``tol * _rel(norm(a), norm(b))`` and ``_order_violations`` of the pair
    is at most ``tol``."""
    _check_tol(tol)
    diff = (b - a).entries
    asym, na, nb = _top_singular(np.stack((diff - diff.conj().T, a.entries, b.entries)))
    return (asym <= tol * _rel(na, nb)
            and _order_violations(a.entries[None], b.entries[None])[0] <= tol)


def alg_sqrt(a: AlgebraElement, tol: float = DEFAULT_TOL) -> AlgebraElement:
    """Positive square root of a positive element via an eigendecomposition.

    Raises ``NotPositive`` if ``a`` fails ``is_positive`` at ``tol``.  Eigenvalues
    pushed below zero by roundoff are clamped to zero before the square root, so
    the result is always Hermitian positive semidefinite.
    """
    if not is_positive(a, tol):
        raise NotPositive(f"element is not positive within tol={tol}")
    return AlgebraElement(_psd_sqrt(a.entries))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Positive square root of the Hermitian part of ``m`` via ``eigh``, with
    eigenvalues below zero clamped to zero first; no positivity check."""
    w, v = np.linalg.eigh(_hermitian_part(m))
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T
