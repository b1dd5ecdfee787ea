"""Matrix-free spectral density estimation under an exact matvec budget."""

from .metrics import (
    DiscreteDistribution,
    average_densities,
    exact_density,
    wasserstein1,
)
from .operators import (
    BudgetLedger,
    DenseOperator,
    DiagonalOperator,
    SparseOperator,
    SymmetricOperator,
    deflate,
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
    "DenseOperator",
    "DiagonalOperator",
    "DiscreteDistribution",
    "SdeConfig",
    "SdeEstimate",
    "SeededStream",
    "SparseOperator",
    "SymmetricOperator",
    "average_densities",
    "deflate",
    "exact_density",
    "run",
    "schatten1_estimate",
    "wasserstein1",
]

__version__ = "0.1.0"
