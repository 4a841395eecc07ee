"""hsskit: rank-structured matrix approximation from entries or matvec queries.

Builds telescoping (hierarchical) and uniform block low-rank (BLR2)
factorizations of a square matrix accessed either explicitly or only through
black-box products with the matrix and its transpose; a one-level
factorization is BLR2 with a diagonal pattern.  Includes query accounting,
quasi-optimality constants, test-problem generators, and an experiment
harness.
"""

from .blr2 import (
    BLR2Factorization,
    BLR2Pattern,
    blr2_apply,
    blr2_factors_from_sketches,
    blr2_from_matvecs,
    blr2_reconstruct,
    blr2_remainder,
)
from .experiment import (
    CSV_HEADER,
    ConfigError,
    ExperimentRecord,
    parse_config,
    records_to_csv,
    run_experiment,
    run_sweep,
)
from .formats import (
    BadMagicError,
    FormatError,
    TruncatedPayloadError,
    VersionMismatchError,
    deserialize,
    read_dense,
    serialize,
    write_dense,
)
from .greedy import greedy_hss_explicit, sss_step_explicit
from .kernels import (
    RngStream,
    gaussian,
    nullspace_basis,
    pivoted_qr_basis,
    right_pinv_apply,
    truncated_svd_left,
)
from .matvec import (
    MatvecConfig,
    TheoremBounds,
    hss_from_matvecs_fresh,
    hss_from_matvecs_reused,
    theorem_bounds,
)
from .oracle import (
    CountingOracle,
    MatvecOracle,
    QueryCounter,
    compress_oracle,
    dense_from_oracle,
    oracle_from_factorization,
)
from .structures import (
    LevelFactors,
    TelescopingFactorization,
    hss_apply,
    hss_apply_transpose,
    reconstruct_dense,
    validate_hss_ranks,
)
from .testbed import (
    banded_inverse_oracle,
    bie_star_matrix,
    frobenius_error,
    grid_schur_oracle,
    hard_instance,
    random_blr2_matrix,
    random_hss_matrix,
    random_telescoping,
)

__version__ = "0.1.0"
