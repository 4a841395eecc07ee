"""Black-box matvec access: oracles, query accounting, compressed operators.

An oracle exposes products with an N x N operator A and its transpose on
vectors or dense blocks of vectors; ``oracle.T`` is the oracle of A^T.  The
products behind it, a user's included, receive (N, w) float64 blocks only:
a vector goes in as one column and its reply comes back as a vector.  A
user's product receives a read-only view of its operand, so a product that
writes into it raises numpy's read-only ``ValueError`` instead of corrupting
a build's test matrices; the caller's array stays writable.  Each reply of
a user's product is checked once, where it is made, for its shape and
finite entries.  ``CountingOracle`` wraps any oracle and charges one
query per vector (a width-s block costs s).

``compress_oracle`` is the oracle of the compressed operator U^T (A - D) V of
one fixed level.  Applied to a compressed operator it nests rather than
wraps: every coarser operator is one flat view over the user's oracle, and
its query costs one query against A and one basis product per side per
operand column, at any depth.
"""

from __future__ import annotations

import weakref
from types import MethodType

import numpy as np

from .kernels import _as_real, _read_only
from .structures import (
    LevelFactors,
    TelescopingFactorization,
    _in_panels,
    _on_columns,
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


def _checked(product, direction: str, oracle: "MatvecOracle"):
    """Wrap a user's product of ``oracle`` so that each reply is checked
    where it is made.  A method of an oracle checks its own replies and
    stays unwrapped; one of ``oracle`` itself is bound to a weak proxy, so
    that an oracle holding its own products forms no reference cycle and a
    dropped view frees its bases at once.  The product receives a read-only
    view of its operand.  A non-finite reply names the operand if that is
    non-finite too."""
    owner = getattr(product, "__self__", None)
    if owner is oracle:
        return MethodType(product.__func__, weakref.proxy(oracle))
    if isinstance(owner, MatvecOracle):
        return product

    def call(x: np.ndarray) -> np.ndarray:
        y = _as_real(product(_read_only(x)), f"oracle {direction} reply")
        if y.shape != x.shape:
            raise ValueError(f"oracle {direction} reply has shape {y.shape}, expected {x.shape}")
        if not np.isfinite(y).all():
            culprit = "reply" if np.isfinite(x).all() else "operand"
            raise ValueError(f"oracle {direction} {culprit} of shape {y.shape} has non-finite entries")
        return y

    return call


class MatvecOracle:
    """Linear operator accessed only through apply / apply_transpose.  Its
    two products receive (dim, w) float64 blocks and must reply with blocks
    of the same shape and finite entries, and must not write into their
    operands, which they receive read-only.  Every oracle, a view or a
    wrapper included, sets its two products here."""

    def __init__(self, dim: int, apply, apply_transpose):
        if not isinstance(dim, (int, np.integer)):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._apply = _checked(apply, "forward", self)
        self._apply_transpose = _checked(apply_transpose, "transpose", self)

    def apply(self, x) -> np.ndarray:
        """A @ x for a vector or a dense block of vectors."""
        return _on_columns(x, self.dim, self._apply)

    def apply_transpose(self, x) -> np.ndarray:
        """A.T @ x for a vector or a dense block of vectors."""
        return _on_columns(x, self.dim, self._apply_transpose)

    @property
    def T(self) -> "MatvecOracle":
        """The oracle of A^T: the two products swapped."""
        return MatvecOracle(self.dim, self.apply_transpose, self.apply)

    @classmethod
    def from_dense(cls, A) -> "MatvecOracle":
        A = np.ascontiguousarray(_as_real(A, "A"))
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {A.shape}")
        return cls(A.shape[0], A.__matmul__, A.T.__matmul__)


class QueryCounter:
    """Monotone counters of single-vector queries."""

    def __init__(self):
        self.forward_count = 0
        self.transpose_count = 0

    def add_forward(self, n: int):
        self.forward_count += n

    def add_transpose(self, n: int):
        self.transpose_count += n

    @property
    def total(self) -> int:
        return self.forward_count + self.transpose_count


class CountingOracle(MatvecOracle):
    """Wrap an oracle and count the single-vector queries each call costs."""

    def __init__(self, inner: MatvecOracle):
        self._inner, self.counter = inner, QueryCounter()
        super().__init__(inner.dim, self._forward, self._transpose)

    def _forward(self, x):
        self.counter.add_forward(x.shape[1])
        return self._inner.apply(x)

    def _transpose(self, x):
        self.counter.add_transpose(x.shape[1])
        return self._inner.apply_transpose(x)


class _CompressedOracle(MatvecOracle):
    """The compressed operator of some level as one flat view over a base
    oracle serving A: Wu^T A Wv - blockdiag(E).

    Wu and Wv are the nested bases, (b, N/b, k) blocks that map the level's
    k-dimensional block coordinates to A's N rows; E is the accumulated
    block-diagonal correction, (b, k, k) blocks.  A query costs one base
    query per operand column and one flat basis product per side, at any
    depth.
    """

    def __init__(self, base: MatvecOracle, Wu: np.ndarray, Wv: np.ndarray, E: np.ndarray):
        self.base, self.Wu, self.Wv, self.E = base, Wu, Wv, E
        super().__init__(E.shape[0] * E.shape[1], self._forward, self._transpose)

    def _forward(self, x):
        Ax = self.base.apply(block_apply(self.Wv, x))
        return block_apply_t(self.Wu, Ax) - block_apply(self.E, x)

    def _transpose(self, x):
        return self.T._forward(x)

    @property
    def T(self) -> "_CompressedOracle":
        """The same view of A^T: the bases swap and the E blocks transpose."""
        return _CompressedOracle(self.base.T, self.Wv, self.Wu, self.E.transpose(0, 2, 1))


def _nest(W: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Blocks blockdiag(W[2i], W[2i+1]) @ B[i]: the nested bases of a finer
    view, (2b, n, k), carried one level down by that level's (b, 2k, k)
    bases."""
    b, _, k = B.shape
    n = W.shape[1]
    return np.matmul(W.reshape(b, 2, n, k), B.reshape(b, 2, k, k)).reshape(b, 2 * n, k)


def compress_oracle(oracle: MatvecOracle, lf: LevelFactors) -> MatvecOracle:
    """The oracle of U^T (A - D) V, where ``oracle`` serves A and ``lf`` holds
    one level's fixed factors.

    When ``oracle`` is itself a compressed operator, the result nests rather
    than wraps: it is one flat view over the same base oracle, whose bases
    are the finer view's bases times this level's and whose correction
    U^T (D + blockdiag(E pairs)) V absorbs the finer correction E.  Nesting
    costs O(N k^2) and the view holds O(N k) numbers.  Each operand column
    costs one query against the base oracle: forward for ``apply``,
    transpose for ``apply_transpose``, whose product is the same view on
    ``(oracle.T, lf.T)``.
    """
    b, w, k = lf.U.shape
    if oracle.dim != b * w:
        raise ValueError(
            f"level of {b} blocks of size {w} has dim {b * w}, "
            f"but the oracle it compresses has dim {oracle.dim}"
        )
    D = lf.D
    if isinstance(oracle, _CompressedOracle):
        D = D.copy()
        D[:, :k, :k] += oracle.E[0::2]
        D[:, k:, k:] += oracle.E[1::2]
        base, Wu, Wv = oracle.base, _nest(oracle.Wu, lf.U), _nest(oracle.Wv, lf.V)
    else:
        base, Wu, Wv = oracle, lf.U, lf.V
    E = np.matmul(lf.U.transpose(0, 2, 1), np.matmul(D, lf.V))
    return _CompressedOracle(base, Wu, Wv, E)


def dense_from_oracle(oracle: MatvecOracle) -> np.ndarray:
    """Extract the dense matrix by probing with the identity (N forward
    queries).  Each call probes one panel of max(1, PANEL_BYTES // (16 N))
    identity columns, the probe and its reply taking 16 N bytes a column,
    so the N x N identity is never formed."""
    n = oracle.dim
    return _in_panels(lambda a, z: oracle.apply(np.eye(n, z - a, -a)), n, n, 16 * n)


def oracle_from_factorization(T: TelescopingFactorization) -> MatvecOracle:
    """Oracle backed by the fast apply of a telescoping factorization, which
    runs a wide operand in column panels (see :func:`hss_apply`)."""
    return MatvecOracle(T.dim, lambda x: hss_apply(T, x), lambda x: hss_apply(T.T, x))
