"""Admittance matrices of AC networks: assembly, rank structure, reduction.

The package builds nodal admittance matrices from branch/shunt lists,
verifies their rank structure numerically (including the virtual-ground
construction and diagonal-block invertibility), performs Kron reduction
of zero-injection nodes, and extracts hybrid network parameters.  A CLI
(``ybuskit``) exposes the same operations on JSON/CSV files.
"""

from .errors import (
    FileFormatError,
    HypothesisError,
    NotReducibleError,
    NotSolvableError,
    NumericalError,
    PreconditionError,
    SingularMatrixError,
    SizeLimitError,
    StructuralError,
    YbusError,
)
from .network_model import (
    DEFAULT_ZERO_TOL,
    Branch,
    Network,
    Shunt,
    ValidationReport,
    is_connected,
    shunt_totals,
    validate,
)
from .linalg_core import (
    RankCertificate,
    RankResult,
    full_rank_certificate,
    numerical_rank,
)
from .ybus import AdmittanceMatrix, assemble, shunt_vector
from .rank_analysis import (
    RankVerdict,
    rank_verdicts,
    verify_matrix_rank,
    verify_rank,
    verify_rank_via_augmentation,
)
from .partition import (
    BlockRankReport,
    BlockView,
    ClassBlockReport,
    ComponentReport,
    Partition,
    block_view,
    verify_block_rank,
)
from .reduction import (
    HybridResult,
    ReductionResult,
    hybrid_parameters,
    kron_reduce,
    kron_reduce_nodes,
    recover_eliminated,
)
from .generator import (
    PHASE_POLICIES,
    GenSpec,
    generate,
    random_partition,
)
from .suites import SUITE_NAMES, SuiteOutcome, run_suite

__version__ = "0.1.0"

__all__ = [
    "AdmittanceMatrix",
    "BlockRankReport",
    "BlockView",
    "Branch",
    "ClassBlockReport",
    "ComponentReport",
    "DEFAULT_ZERO_TOL",
    "FileFormatError",
    "GenSpec",
    "HybridResult",
    "HypothesisError",
    "Network",
    "NotReducibleError",
    "NotSolvableError",
    "NumericalError",
    "PHASE_POLICIES",
    "Partition",
    "PreconditionError",
    "RankCertificate",
    "RankResult",
    "RankVerdict",
    "ReductionResult",
    "SUITE_NAMES",
    "Shunt",
    "SingularMatrixError",
    "SizeLimitError",
    "StructuralError",
    "SuiteOutcome",
    "ValidationReport",
    "YbusError",
    "assemble",
    "block_view",
    "full_rank_certificate",
    "generate",
    "hybrid_parameters",
    "is_connected",
    "kron_reduce",
    "kron_reduce_nodes",
    "numerical_rank",
    "random_partition",
    "rank_verdicts",
    "recover_eliminated",
    "run_suite",
    "shunt_totals",
    "shunt_vector",
    "validate",
    "verify_block_rank",
    "verify_matrix_rank",
    "verify_rank",
    "verify_rank_via_augmentation",
]
