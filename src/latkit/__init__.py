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
    GramSchmidtResult,
    LDLDecomposition,
    QMatrix,
    QVector,
    Rational,
    determinant,
    dist_sq_to_span,
    gram_schmidt,
    inverse,
    is_unimodular,
    ldl_decompose,
    project_onto_span,
    rational,
    rel_volume_sq,
)
from .lattice import (
    CertificateBounds,
    DMDSPQuery,
    EquivalenceWitness,
    LatticeBasis,
    MDSPInstance,
    ShiftVector,
    apply_shift,
    certificate_bounds,
    minkowski_bound_sq,
    same_lattice,
    verify_dmdsp_certificate,
)
from .exact import (
    MDSPSolution,
    ShiftRanges,
    projection_length_sq,
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
    EmbeddedCVPInstance,
    cvp_to_mdsp,
    embed_cvp,
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
    det_identity_check,
    lll_reduce,
    shortest_basis_vector,
)
from .basisio import (
    frac_str,
    parse_basis_file,
    parse_basis_text,
    serialize_matrix,
    write_basis_file,
)
from .bench import BenchReport, bench_compare, generate_random_basis, report_to_json
