"""ptakkit: exact minimax covering constants on hereditary set families.

Library surface: family construction and structure checks, the exact game
value with verifiable certificates, the associated family norm and its
l1-equivalence bounds, maximum homogeneous-member search, and adequate
families traced from interval systems.
"""

from .families import (
    FamilySpec,
    HereditaryFamily,
    TraceResult,
    cardinality_bound_family,
    cycle_edges,
    family_from_json_dict,
    hereditary_closure,
    is_full_powerset,
    maximal_cliques,
    maximal_independent_sets,
    maximal_up_set,
    membership,
    random_family,
    realize,
    trace,
)
from .game import (
    ConvexMean,
    FictitiousPlayResult,
    FractionalCover,
    GameValueResult,
    VerificationResult,
    delta_exact,
    evaluate_mean,
    fictitious_play,
    verify_certificate,
)
from .intervals import (
    IntervalSet,
    IntervalSystem,
    MeasureBoundReport,
    NotApplicableError,
    helly_check,
    measure_lower_bound,
    random_system,
    trace_family,
)
from .norms import (
    EquivalenceReport,
    FamilyVector,
    MinRatioProbe,
    check_equivalence,
    f_norm,
    l1_norm,
    min_ratio_nonneg,
    min_ratio_signed_bruteforce,
)
from .search import (
    BoundReport,
    SearchResult,
    greedy_member,
    max_member,
    ptak_bound_check,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
