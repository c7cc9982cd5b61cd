"""Block vectors over the matrix algebra with an algebra-valued inner product.

A vector with ``rank`` blocks, each an n-by-n matrix, is stored flattened as
the n-by-(rank*n) matrix ``[x_1 ... x_rank]``.  The inner product
``inner(x, y) = sum_i x_i @ y_i*`` (adjoint on the second argument) is then a
single matrix product of the flattened forms, and left multiplication by an
algebra element acts on the flattened matrix as a whole, which makes
algebra-linearity in the first slot structural rather than checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import AlgebraElement, _finite, alg_norm, alg_sqrt


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """Flattened block vector: ``flat`` has shape (algebra_dim, rank * algebra_dim)."""

    algebra_dim: int
    rank: int
    flat: np.ndarray

    def __post_init__(self):
        n, d = self.algebra_dim, self.rank
        if n < 1 or d < 1:
            raise ValueError("algebra_dim and rank must be positive")
        arr = np.array(self.flat, dtype=np.complex128)
        if arr.shape != (n, d * n):
            raise ValueError(f"flat must have shape {(n, d * n)}, got {arr.shape}")
        _finite(arr, what="vector")
        arr.flags.writeable = False
        object.__setattr__(self, "flat", arr)

    @classmethod
    def from_blocks(cls, blocks: Sequence) -> "ModuleVector":
        """Build from a sequence of n-by-n blocks (arrays or AlgebraElement)."""
        if len(blocks) == 0:
            raise ValueError("need at least one block")
        mats = [b.entries if isinstance(b, AlgebraElement) else np.asarray(b, dtype=np.complex128)
                for b in blocks]
        n = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (n, n):
                raise ValueError(f"block {i} has shape {m.shape}, expected {(n, n)}")
        return cls(n, len(mats), np.concatenate(mats, axis=1))

    @classmethod
    def zero(cls, n: int, d: int) -> "ModuleVector":
        return cls(n, d, np.zeros((n, d * n), dtype=np.complex128))

    def block(self, i: int) -> AlgebraElement:
        if not 0 <= i < self.rank:
            raise IndexError(f"block index {i} out of range for rank {self.rank}")
        n = self.algebra_dim
        return AlgebraElement(self.flat[:, i * n:(i + 1) * n])

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        _check_compatible(self, other)
        return ModuleVector(self.algebra_dim, self.rank, self.flat + other.flat)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        _check_compatible(self, other)
        return ModuleVector(self.algebra_dim, self.rank, self.flat - other.flat)

    def __mul__(self, scalar) -> "ModuleVector":
        return ModuleVector(self.algebra_dim, self.rank, self.flat * complex(scalar))

    __rmul__ = __mul__


def _check_compatible(x: ModuleVector, y: ModuleVector) -> None:
    if x.algebra_dim != y.algebra_dim or x.rank != y.rank:
        raise ValueError(
            f"shape mismatch: ({x.algebra_dim}, {x.rank}) vs ({y.algebra_dim}, {y.rank})")


def inner(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """Algebra-valued inner product, adjoint taken on the second argument."""
    _check_compatible(x, y)
    return AlgebraElement(x.flat @ y.flat.conj().T)


def a_valued_abs(x: ModuleVector) -> AlgebraElement:
    """Algebra-valued modulus: the positive square root of ``inner(x, x)``."""
    return alg_sqrt(inner(x, x))


def vec_norm(x: ModuleVector) -> float:
    """Scalar norm ``alg_norm(inner(x, x)) ** 0.5``."""
    return float(np.sqrt(alg_norm(inner(x, x))))


def module_action(a: AlgebraElement, x: ModuleVector) -> ModuleVector:
    """Left action: multiply every block of ``x`` by ``a`` on the left."""
    if a.dim != x.algebra_dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {x.algebra_dim}")
    return ModuleVector(x.algebra_dim, x.rank, a.entries @ x.flat)
