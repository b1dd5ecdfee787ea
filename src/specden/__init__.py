"""Matrix-free spectral density estimation under an exact matvec budget."""

from .block_krylov import DeflationResult, block_krylov_deflation
from .chebyshev import estimate_moments
from .lanczos import lanczos, tridiag_eig
from .metrics import (
    DiscreteDistribution,
    average_densities,
    exact_density,
    wasserstein1,
)
from .moment_matching import kpm_density, solve_moment_matching
from .operators import (
    BudgetLedger,
    DenseOperator,
    DiagonalOperator,
    SparseOperator,
    SymmetricOperator,
    deflate,
    spectral_norm_upper_bound,
)
from .randgen import SeededStream
from .sde import (
    ALGORITHMS,
    BudgetExhaustedError,
    SdeConfig,
    SdeEstimate,
    run,
    schatten1_estimate,
)

__all__ = [
    "ALGORITHMS",
    "BudgetExhaustedError",
    "BudgetLedger",
    "DeflationResult",
    "DenseOperator",
    "DiagonalOperator",
    "DiscreteDistribution",
    "SdeConfig",
    "SdeEstimate",
    "SeededStream",
    "SparseOperator",
    "SymmetricOperator",
    "average_densities",
    "block_krylov_deflation",
    "deflate",
    "estimate_moments",
    "exact_density",
    "kpm_density",
    "lanczos",
    "run",
    "schatten1_estimate",
    "solve_moment_matching",
    "spectral_norm_upper_bound",
    "tridiag_eig",
    "wasserstein1",
]

__version__ = "0.1.0"
