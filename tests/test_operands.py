"""The one operand rule of every product: a vector or a (dim, w) block, real.

Products behind an oracle, ``hss_apply`` and ``blr2_apply`` receive
(dim, w) float64 blocks only; a vector goes in as one column and comes back
as a vector.  Complex input is rejected, not truncated, and a non-finite
reply to a non-finite operand names the operand.
"""

import re

import numpy as np
import pytest

from hsskit import (
    BLR2Factorization,
    BLR2Pattern,
    CountingOracle,
    LevelFactors,
    MatvecConfig,
    MatvecOracle,
    RngStream,
    banded_inverse_oracle,
    blr2_apply,
    blr2_factors_from_sketches,
    blr2_from_matvecs,
    blr2_remainder,
    compress_oracle,
    dense_from_oracle,
    frobenius_error,
    greedy_hss_explicit,
    grid_schur_oracle,
    hss_apply,
    hss_from_matvecs_fresh,
    hss_from_matvecs_reused,
    nullspace_basis,
    oracle_from_factorization,
    random_blr2_matrix,
    random_hss_matrix,
    random_telescoping,
    right_pinv_apply,
    write_dense,
)
from hsskit import oracle as oracle_module
from hsskit.kernels import _as_stack, as_matrix

from helpers import side_stacks

L, K = 3, 2
DIM = (1 << (L + 1)) * K
PATTERN = BLR2Pattern.tridiagonal(4, 8)


def _blocks_only(M, widths):
    """A product with M that asserts it receives a (dim, w) float64 block
    and records w."""

    def product(x):
        assert isinstance(x, np.ndarray) and x.dtype == np.float64
        assert x.ndim == 2 and x.shape[0] == M.shape[1], x.shape
        widths.append(x.shape[1])
        return M @ x

    return product


def _strict_oracle(A, widths):
    return MatvecOracle(A.shape[0], _blocks_only(A, widths), _blocks_only(A.T, widths))


@pytest.fixture
def A():
    return random_hss_matrix(L, K, seed=3)


@pytest.fixture
def T():
    return random_telescoping(L, K, RngStream(4).child("operands"))


@pytest.fixture
def F():
    A = random_blr2_matrix(PATTERN, K, seed=5)
    return blr2_from_matvecs(MatvecOracle.from_dense(A), PATTERN, K, 28, seed=6)


class TestProductsReceiveBlocks:
    @pytest.mark.parametrize("build", [
        lambda o: hss_from_matvecs_fresh(o, MatvecConfig(L, K, 8, seed=0)),
        lambda o: hss_from_matvecs_reused(
            o, MatvecConfig(L, K, 6, seed=0, basis_method="pivoted-qr", sketch_policy="reused")),
        lambda o: dense_from_oracle(o),
    ], ids=["fresh", "reused-qr", "dense_from_oracle"])
    def test_builds(self, A, build):
        widths = []
        build(_strict_oracle(A, widths))
        assert widths

    def test_blr2_build(self):
        A = random_blr2_matrix(PATTERN, K, seed=7)
        widths = []
        blr2_from_matvecs(_strict_oracle(A, widths), PATTERN, K, 28, seed=8)
        assert widths

    @pytest.mark.parametrize("wrap", [
        lambda o: o,
        lambda o: o.T,
        CountingOracle,
        lambda o: compress_oracle(o, random_telescoping(L, K, RngStream(9).child("c")).levels[-1]),
    ], ids=["plain", "T", "counting", "compressed"])
    @pytest.mark.parametrize("width", [None, 1, 5])
    def test_vector_and_block_calls(self, A, wrap, width):
        widths = []
        o = wrap(_strict_oracle(A, widths))
        shape = (o.dim,) if width is None else (o.dim, width)
        x = np.random.default_rng(10).standard_normal(shape)
        for product in (o.apply, o.apply_transpose):
            assert product(x).shape == shape
        assert widths == [width or 1] * 2

    @pytest.mark.parametrize("width", [None, 1, 5])
    def test_factorization_oracle(self, T, monkeypatch, width):
        widths = []

        def recorded(T, x):
            assert isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim == 2
            widths.append(x.shape[1])
            return hss_apply(T, x)

        monkeypatch.setattr(oracle_module, "hss_apply", recorded)
        o = oracle_from_factorization(T)
        shape = (T.dim,) if width is None else (T.dim, width)
        x = np.random.default_rng(11).standard_normal(shape)
        for product in (o.apply, o.apply_transpose):
            assert product(x).shape == shape
        assert widths == [width or 1] * 2


@pytest.mark.parametrize("make", [
    lambda: banded_inverse_oracle(100, 5, 0),
    lambda: grid_schur_oracle(100),
    lambda: oracle_from_factorization(random_telescoping(L, K, RngStream(14).child("f"))),
], ids=["banded", "grid", "factorization"])
def test_vector_reply_is_the_one_column_reply_bit_for_bit(make):
    """The compressed oracle's vector reply is checked at every depth in
    test_oracle.py."""
    o = make()
    x = np.random.default_rng(15).standard_normal(o.dim)
    for product in (o.apply, o.apply_transpose):
        y = product(x)
        assert y.shape == (o.dim,)
        assert np.array_equal(y, product(x[:, None])[:, 0])


def _applies(A, T, F):
    o = MatvecOracle.from_dense(A)
    return {
        "apply": (o.apply, DIM),
        "apply_transpose": (o.apply_transpose, DIM),
        "hss_apply": (lambda x: hss_apply(T, x), T.dim),
        "blr2_apply": (lambda x: blr2_apply(F, x), F.dim),
    }


PRODUCTS = ["apply", "apply_transpose", "hss_apply", "blr2_apply"]


@pytest.mark.parametrize("name", PRODUCTS)
@pytest.mark.parametrize("shape", [lambda d: (d + 1,), lambda d: (d, 2, 1), lambda d: ()],
                         ids=["dim + 1", "(dim, 2, 1)", "0-d"])
def test_operand_of_another_shape_is_rejected(A, T, F, name, shape):
    product, dim = _applies(A, T, F)[name]
    x = np.ones(shape(dim))
    message = rf"^operand shape {re.escape(str(x.shape))} does not match dim {dim}$"
    with pytest.raises(ValueError, match=message):
        product(x)


@pytest.mark.parametrize("name", PRODUCTS)
@pytest.mark.parametrize("width", [None, 3])
def test_integer_operand_is_read_as_float64(A, T, F, name, width):
    product, dim = _applies(A, T, F)[name]
    x = np.arange(dim * (width or 1)).reshape((dim,) if width is None else (dim, width)) - dim
    assert x.dtype.kind == "i"
    y = product(x)
    assert y.dtype == np.float64
    assert np.array_equal(y, product(x.astype(np.float64)))


class TestComplexIsRejected:
    """Each entry point names the argument and its dtype; none truncates."""

    Z = np.full((DIM, 2), 1 + 1j)

    @pytest.mark.parametrize("name", PRODUCTS)
    def test_products(self, A, T, F, name):
        product, dim = _applies(A, T, F)[name]
        for x in (np.full(dim, 1 + 1j), np.full((dim, 2), 1 + 1j, dtype=np.complex64)):
            with pytest.raises(ValueError, match=rf"^operand has complex dtype {x.dtype}"):
                product(x)

    def test_example_from_dense_identity(self):
        with pytest.raises(ValueError, match=r"^operand has complex dtype complex128"):
            MatvecOracle.from_dense(np.eye(8)).apply(np.full(8, 1 + 1j))

    def test_from_dense(self):
        with pytest.raises(ValueError, match=r"^A has complex dtype complex128"):
            MatvecOracle.from_dense(np.eye(8) * 1j)

    def test_as_matrix(self):
        with pytest.raises(ValueError, match=r"^M has complex dtype complex128"):
            as_matrix(self.Z, "M")

    def test_write_dense(self, tmp_path):
        path = tmp_path / "z.dmat"
        with pytest.raises(ValueError, match=r"^A has complex dtype complex128"):
            write_dense(self.Z, path)
        assert not path.exists()

    def test_greedy_hss_explicit(self, A):
        with pytest.raises(ValueError, match=r"^A has complex dtype complex128"):
            greedy_hss_explicit(A + 0j, L, K)

    def test_frobenius_error(self, A):
        with pytest.raises(ValueError, match=r"^A has complex dtype complex128"):
            frobenius_error(A + 0j, A)
        with pytest.raises(ValueError, match=r"^approx has complex dtype complex128"):
            frobenius_error(A, A + 0j)

    def test_as_stack(self):
        with pytest.raises(ValueError, match=r"^B has complex dtype complex128"):
            _as_stack(np.ones((2, 4, 3)) + 0j, "B")

    def test_stacked_kernels(self):
        with pytest.raises(ValueError, match=r"^omega has complex dtype complex128"):
            nullspace_basis(np.ones((4, 6)) + 0j)
        with pytest.raises(ValueError, match=r"^Y has complex dtype complex128"):
            right_pinv_apply(np.ones((3, 6)) + 0j, np.ones((4, 6)))

    def test_complex_reply(self):
        op = MatvecOracle(4, lambda x: x + 1j, lambda x: x - 1j)
        for direction, apply in (("forward", op.apply), ("transpose", op.apply_transpose)):
            with pytest.raises(ValueError, match=rf"^oracle {direction} reply has complex dtype complex128"):
                apply(np.ones(4))

    @pytest.mark.parametrize("name", ["U", "V", "D"])
    def test_level_factors(self, T, name):
        lf = T.levels[0]
        factors = {"U": lf.U, "V": lf.V, "D": lf.D}
        factors[name] = factors[name] + 1j
        with pytest.raises(ValueError, match=rf"^{name} has complex dtype complex128"):
            LevelFactors(**factors)

    @pytest.mark.parametrize("name", ["U", "V", "X", "D"])
    def test_blr2_factorization(self, F, name):
        factors = {"U": F.U, "V": F.V, "X": F.X, "D": F.D}
        factors[name] = factors[name] + 0j
        with pytest.raises(ValueError, match=rf"^{name} has complex dtype complex128"):
            BLR2Factorization(F.pattern, **factors)


SKETCH_NAMES = ("omega", "psi", "omega_diag", "psi_diag", "Y", "Z", "Y_diag", "Z_diag")
# The argument of the one-level step that holds each sketch, on side 0 (A)
# or side 1 (A^T), and the argument of blr2_remainder that takes it there.
HOLDERS = {"omega": "tests", "psi": "tests", "Y": "images", "Z": "images",
           "omega_diag": "tests_diag", "psi_diag": "tests_diag",
           "Y_diag": "images_diag", "Z_diag": "images_diag"}


def _sketch_args(rng):
    return side_stacks(*rng.standard_normal((8, PATTERN.dim, 28)))


def _bases(rng):
    return np.linalg.qr(rng.standard_normal((2, PATTERN.block_count, PATTERN.block_size, K)))[0]


@pytest.mark.parametrize("name", SKETCH_NAMES)
def test_complex_sketch_is_rejected_by_name(name):
    # The one-level step takes its sketches through the same rule as factors
    # and replies: an array that holds a complex one is named, not cast with
    # a warning.
    rng = np.random.default_rng(9)
    sketches = dict(zip(SKETCH_NAMES, rng.standard_normal((8, PATTERN.dim, 28))))
    sketches[name] = sketches[name] + 0j
    args = side_stacks(*sketches.values())
    with pytest.raises(ValueError, match=rf"^{HOLDERS[name]} has complex dtype complex128"):
        blr2_factors_from_sketches(PATTERN, K, *args)
    if name.endswith("_diag"):
        holder = HOLDERS[name].removesuffix("_diag")
        with pytest.raises(ValueError, match=rf"^{holder} has complex dtype complex128"):
            blr2_remainder(PATTERN, _bases(rng), *args[2:])


def test_complex_bases_are_rejected_by_name():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError, match=r"^bases has complex dtype complex128"):
        blr2_remainder(PATTERN, _bases(rng) + 0j, *_sketch_args(rng)[2:])


STEP_ARGS = ("tests", "images", "tests_diag", "images_diag")


@pytest.mark.parametrize("name", STEP_ARGS)
@pytest.mark.parametrize("shape", [(1, PATTERN.dim, 28), (3, PATTERN.dim, 28), (2, PATTERN.dim - 8, 28),
                                   (PATTERN.dim, 28), (2, 1, PATTERN.dim, 28)],
                         ids=["one-side", "three-sides", "short", "no-side-axis", "4-d"])
def test_misshapen_sketch_array_is_named(name, shape):
    # All four arrays share one (2, dim, s) shape; the first that does not
    # is named, by the step and, for the diagonal-recovery pair, by the
    # remainder that it hands them to.
    rng = np.random.default_rng(11)
    args = dict(zip(STEP_ARGS, _sketch_args(rng)))
    args[name] = rng.standard_normal(shape)
    message = rf"has shape {re.escape(str(shape))}, expected \(2, {PATTERN.dim}, 28\)$"
    with pytest.raises(ValueError, match=rf"^{name} {message}"):
        blr2_factors_from_sketches(PATTERN, K, *args.values())
    if name.endswith("_diag"):
        with pytest.raises(ValueError, match=rf"^{name.removesuffix('_diag')} {message}"):
            blr2_remainder(PATTERN, _bases(rng), args["tests_diag"], args["images_diag"])


@pytest.mark.parametrize("name", STEP_ARGS[1:])
def test_sketch_widths_must_agree(name):
    # s is read from tests: another width names the array that has it.
    rng = np.random.default_rng(13)
    args = dict(zip(STEP_ARGS, _sketch_args(rng)))
    args[name] = rng.standard_normal((2, PATTERN.dim, 29))
    message = rf"^{name} has shape \(2, {PATTERN.dim}, 29\), expected \(2, {PATTERN.dim}, 28\)$"
    with pytest.raises(ValueError, match=message):
        blr2_factors_from_sketches(PATTERN, K, *args.values())


@pytest.mark.parametrize("shape", [(1, 4, 8, K), (3, 4, 8, K), (2, 3, 8, K), (2, 4, 7, K), (4, 8, K),
                                   (2, 2, 4, 8, K)],
                         ids=["one-side", "three-sides", "wrong-b", "wrong-m", "no-side-axis", "5-d"])
def test_misshapen_bases_are_named(shape):
    # blr2_remainder takes U and V as the two sides of one (2, b, m, k)
    # array; any other shape is named before a product can broadcast it.
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError, match=rf"^bases has shape {re.escape(str(shape))}, expected \(2, 4, 8, k\)$"):
        blr2_remainder(PATTERN, rng.standard_normal(shape), *_sketch_args(rng)[2:])


class TestOperandsAreReadOnly:
    """A user product receives a read-only view of its operand, so one that
    writes into it fails inside the product, by numpy's read-only error,
    instead of corrupting the build's stored test matrices."""

    @staticmethod
    def _rescaling(M):
        def product(x):
            x *= 2.0
            return M @ x

        return product

    @staticmethod
    def _zeroing(M):
        def product(x):
            y = M @ x
            x[...] = 0.0
            return y

        return product

    @pytest.mark.parametrize("writer", ["_rescaling", "_zeroing"])
    @pytest.mark.parametrize("side", ["forward", "transpose"])
    def test_writing_product_fails_the_build(self, writer, side):
        A = random_hss_matrix(4, 4, seed=1)
        if side == "forward":
            products = getattr(self, writer)(A), A.T.__matmul__
        else:
            products = A.__matmul__, getattr(self, writer)(A.T)
        with pytest.raises(ValueError, match="read-only"):
            hss_from_matvecs_fresh(MatvecOracle(A.shape[0], *products), MatvecConfig(4, 4, 14, seed=0))

    @pytest.mark.parametrize("shape", [(8,), (8, 3)], ids=["vector", "block"])
    def test_caller_operand_stays_writable(self, shape):
        seen = []

        def product(x):
            seen.append(x.flags.writeable)
            return x + 1.0

        o = MatvecOracle(8, product, product)
        x = np.ones(shape)
        o.apply(x)
        o.apply_transpose(x)
        assert seen == [False, False]
        assert x.flags.writeable


class TestNonFiniteOperandIsNamed:
    @staticmethod
    def _oracle():
        return MatvecOracle(8, lambda x: x, lambda x: x)

    @pytest.mark.parametrize("direction", ["forward", "transpose"])
    def test_vector(self, direction):
        o = self._oracle()
        product = o.apply if direction == "forward" else o.apply_transpose
        with pytest.raises(
            ValueError, match=rf"^oracle {direction} operand of shape \(8, 1\) has non-finite entries$"
        ):
            product(np.full(8, np.nan))

    @pytest.mark.parametrize("direction", ["forward", "transpose"])
    def test_block_with_one_nan_column(self, direction):
        o = self._oracle()
        product = o.apply if direction == "forward" else o.apply_transpose
        x = np.ones((8, 3))
        x[:, 1] = np.nan
        with pytest.raises(
            ValueError, match=rf"^oracle {direction} operand of shape \(8, 3\) has non-finite entries$"
        ):
            product(x)

    def test_finite_operand_still_blames_the_reply(self):
        o = MatvecOracle(8, lambda x: np.full_like(x, np.inf), lambda x: x)
        with pytest.raises(
            ValueError, match=r"^oracle forward reply of shape \(8, 1\) has non-finite entries$"
        ):
            o.apply(np.ones(8))

    def test_a_finite_reply_is_not_checked_against_the_operand(self):
        o = MatvecOracle(8, np.zeros_like, np.zeros_like)
        assert np.array_equal(o.apply(np.full(8, np.nan)), np.zeros(8))
