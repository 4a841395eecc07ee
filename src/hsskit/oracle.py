"""Black-box matvec access: oracles, query accounting, compressed operators.

An oracle exposes products with an N x N operator A and its transpose on
vectors or dense blocks of vectors; ``oracle.T`` is the oracle of A^T.  Each
reply of a user's product is checked once, where it is made, for its shape
and finite entries.  ``CountingOracle`` wraps any oracle and charges one
query per vector (a width-s block costs s).

``compress_oracle`` is the oracle of the compressed operator U^T (A - D) V of
one fixed level; chained once per level, it reaches every coarser operator
at one query against A per operand column.
"""

from __future__ import annotations

import numpy as np

from .structures import (
    LevelFactors,
    TelescopingFactorization,
    _as_operand,
    block_apply,
    block_apply_t,
    hss_apply,
)

__all__ = [
    "CountingOracle",
    "MatvecOracle",
    "QueryCounter",
    "compress_oracle",
    "dense_from_oracle",
    "oracle_from_factorization",
]


def _checked(product, direction: str):
    """Wrap a user's product so that each reply is checked where it is made.
    A method of another oracle checks its own replies and stays unwrapped."""
    if isinstance(getattr(product, "__self__", None), MatvecOracle):
        return product

    def call(x: np.ndarray) -> np.ndarray:
        y = np.asarray(product(x), dtype=np.float64)
        if y.shape != x.shape:
            raise ValueError(f"oracle {direction} reply has shape {y.shape}, expected {x.shape}")
        if not np.isfinite(y).all():
            raise ValueError(f"oracle {direction} reply of shape {y.shape} has non-finite entries")
        return y

    return call


class MatvecOracle:
    """Linear operator accessed only through apply / apply_transpose, whose
    replies must have the operand's shape and finite entries."""

    def __init__(self, dim: int, apply, apply_transpose):
        self._bind(dim, _checked(apply, "forward"), _checked(apply_transpose, "transpose"))

    def _bind(self, dim: int, apply, apply_transpose) -> "MatvecOracle":
        """Set the two products, which must reply with checked arrays."""
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._apply = apply
        self._apply_transpose = apply_transpose
        return self

    def apply(self, x) -> np.ndarray:
        """A @ x for a vector or a dense block of vectors."""
        return self._apply(_as_operand(x, self.dim))

    def apply_transpose(self, x) -> np.ndarray:
        """A.T @ x for a vector or a dense block of vectors."""
        return self._apply_transpose(_as_operand(x, self.dim))

    @property
    def T(self) -> "MatvecOracle":
        """The oracle of A^T: the two products swapped."""
        return _internal_oracle(self.dim, self._apply_transpose, self._apply)

    @classmethod
    def from_dense(cls, A) -> "MatvecOracle":
        A = np.ascontiguousarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {A.shape}")
        return cls(A.shape[0], A.__matmul__, A.T.__matmul__)


def _internal_oracle(dim: int, apply, apply_transpose) -> MatvecOracle:
    """An oracle over products built from already-checked replies."""
    return object.__new__(MatvecOracle)._bind(dim, apply, apply_transpose)


class QueryCounter:
    """Monotone counters of single-vector queries; reset only on request."""

    def __init__(self):
        self.forward_count = 0
        self.transpose_count = 0

    def add_forward(self, n: int):
        self.forward_count += n

    def add_transpose(self, n: int):
        self.transpose_count += n

    def reset(self):
        self.forward_count = 0
        self.transpose_count = 0

    @property
    def total(self) -> int:
        return self.forward_count + self.transpose_count


def _width(x: np.ndarray) -> int:
    return 1 if x.ndim == 1 else x.shape[1]


class CountingOracle(MatvecOracle):
    """Wrap an oracle and count the single-vector queries each call costs."""

    def __init__(self, inner: MatvecOracle, counter: QueryCounter | None = None):
        self.counter = counter if counter is not None else QueryCounter()

        def fwd(x):
            self.counter.add_forward(_width(x))
            return inner.apply(x)

        def tr(x):
            self.counter.add_transpose(_width(x))
            return inner.apply_transpose(x)

        self._bind(inner.dim, fwd, tr)


def _compressed_product(oracle: MatvecOracle, lf: LevelFactors):
    def apply(x):
        hat = block_apply(lf.V, x)
        return block_apply_t(lf.U, oracle.apply(hat) - block_apply(lf.D, hat))

    return apply


def compress_oracle(oracle: MatvecOracle, lf: LevelFactors) -> MatvecOracle:
    """The oracle of U^T (A - D) V, where ``oracle`` serves A and ``lf`` holds
    one level's fixed factors.

    Each operand column costs one query against ``oracle``: forward for
    ``apply``, transpose for ``apply_transpose``, whose product is the same
    body on ``(oracle.T, lf.T)``.
    """
    return _internal_oracle(
        lf.block_count * lf.rank_param,
        _compressed_product(oracle, lf),
        _compressed_product(oracle.T, lf.T),
    )


def dense_from_oracle(oracle: MatvecOracle) -> np.ndarray:
    """Extract the dense matrix by probing with the identity (N forward
    queries)."""
    return oracle.apply(np.eye(oracle.dim))


def oracle_from_factorization(T: TelescopingFactorization) -> MatvecOracle:
    """Oracle backed by the fast apply of a telescoping factorization."""
    return MatvecOracle(T.dim, lambda x: hss_apply(T, x), lambda x: hss_apply(T.T, x))
