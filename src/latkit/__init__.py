"""Exact rational lattice toolkit.

Solves the maximum-distance sub-lattice problem exactly and greedily,
bridges it to the closest vector problem in rational Gram form, verifies
shift-vector certificates, and accelerates LLL reduction with the greedy
improvement sweep. All correctness-bearing arithmetic is exact.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateFixedVector,
    DegenerateResidual,
    DependentInput,
    IndexOutOfRange,
    LatkitError,
    LengthMismatch,
    NonSquare,
    NotSPD,
    ParseError,
    RankError,
    SingularMatrix,
)
from .qlinalg import (
    QMatrix,
    QVector,
    dist_sq_to_span,
    inverse,
    is_unimodular,
    rational,
    rel_volume_sq,
)
from .lattice import (
    CertificateBounds,
    DMDSPQuery,
    EquivalenceWitness,
    LatticeBasis,
    MDSPInstance,
    apply_shift,
    certificate_bounds,
    same_lattice,
    verify_dmdsp_certificate,
)
from .exact import (
    MDSPSolution,
    ShiftRanges,
    shift_dist_sq,
    shift_ranges,
    solve_exact,
)
from .heuristic import (
    HeuristicConfig,
    HeuristicOutcome,
    improve_coordinate,
    improve_pass,
    run_heuristic,
)
from .cvp import (
    CVPGramInstance,
    CVPSolution,
    cvp_to_mdsp,
    enumerate_cvp,
    mdsp_to_cvp,
    recover_mdsp_distance_sq,
    solve_cvp_bruteforce,
)
from .lll import (
    AccelConfig,
    LLLParams,
    ReductionTrace,
    accelerated_reduce,
    lll_reduce,
    shortest_basis_vector,
)
