"""Near-feasible stable solutions for three NP-hard matching problems.

A fractional stable solution is computed by complementary pivoting and
iteratively rounded to an integral stable solution under provably small
capacity revisions: at most L - 1 per vertex for hypergraph matching with
largest edge size L, at most 2L - 1 per quota for college admission where
each college sits in at most L quota sets, and at most k - 1 per arc for
k-commodity stable flows.
"""

from .cacq import (
    CacqResult,
    break_cacq_ties,
    build_cacq_scarf,
    compute_cacq_quotas,
    round_cacq,
    solve_cacq,
    verify_cacq,
)
from .errors import (
    InputError,
    InternalError,
    NearstableError,
    PreconditionError,
    ResourceLimitError,
    UnstableInputError,
)
from .model import (
    Arc,
    CacqEdge,
    CacqInstance,
    CapacityRevision,
    CollegeSet,
    Commodity,
    FlowInstance,
    HyperEdge,
    HypergraphInstance,
    Violation,
    normalize_cacq,
    validate,
)
from .oracle import (
    GeneratorConfig,
    SplitMix64,
    enumerate_near_feasible,
    enumerate_stable,
    generate,
)
from .orders import WeakOrder, break_ties, strict_order
from .polytope import LinearRow, LinearSystem, extreme_point
from .scarf import (
    DominatingPoint,
    ScarfProblem,
    certify_extreme,
    make_problem,
    solve_scarf,
    verify_dominating,
)
from .shm import (
    ShmResult,
    add_saturation_gadget,
    break_instance_ties,
    build_shm_scarf,
    compute_shm_capacities,
    round_shm,
    solve_shm,
    strip_gadget,
    verify_shm,
)
from .smf import (
    AugmentingStructure,
    BlockingWalk,
    FlowCapacities,
    SmfResult,
    compute_flow_capacities,
    find_fractional_structure,
    round_flow,
    round_stable_flow,
    verify_flow,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
