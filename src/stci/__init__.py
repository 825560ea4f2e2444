"""Exact combinatorial invariants of rational double point surface-curve
pairs, intersection arithmetic on iterated curve blowups of projective
3-space, and degree-pair enumeration for set-theoretic complete
intersections."""

from .errors import ContextMismatchError, DomainError, ParseError
from .exact import (
    EuclidProfile,
    euclid_profile,
    format_rational,
    parse_rational,
)
from .rdp import (
    Config,
    ConfigInvariants,
    E6,
    E7,
    RdpPair,
    ScalarInvariants,
    TypeSeq,
    add_types,
    blowup_of,
    classified_pairs,
    classify,
    config_invariants,
    config_miyaoka,
    format_config,
    format_pair,
    format_type,
    make_config,
    miyaoka_contribution,
    normalize_type,
    pair_a,
    pair_d_first,
    pair_d_last,
    parse_config,
    parse_type,
    phi,
    scalar_invariants,
    type_of,
    weighted_type_sum,
)
from .chow import (
    BlowupContext,
    CycleClass,
    StExpansion,
    a_closed_form,
    beta_from_p,
    canonical_class,
    class_to_json,
    format_class,
    make_context,
    mul,
    st_expansion,
    surface_class,
)
from .graphs import (
    ConeCheck,
    LabeledGraph,
    apply_op,
    cone_decompose,
    decompose,
    from_parts,
    graph_from_json,
    graph_order,
    graph_to_json,
    parse_history,
    format_history,
    replay,
    single_vertex,
    snort_check,
    spitup_decomposition,
    strict_transform_class,
    truncate,
)
from .theorems import (
    StciParams,
    Thm1Result,
    Thm3Result,
    ThmAVerdict,
    bungobungo_solve,
    config_search,
    kformula_bound,
    miyaoka_budget,
    resolution_bound,
    thm1_value,
    thm2_margins,
    thm2_rhs,
    thm3_check,
    thmA_verdict,
)
from .degrees import (
    DegreePairRecord,
    enumerate_pairs,
)

__version__ = "0.1.0"
