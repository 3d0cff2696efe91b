"""Exact-arithmetic laboratory for ordered-group-valued metric spaces.

The package builds partially ordered groups and modules over the
rationals, equips them with strict-dominance structures and convergence
certificates, defines group-valued metric spaces with a finite-set
distance, checks set-valued contraction bounds, and solves for endpoints
(points whose whole image is themselves) with reproducible traces. A
harness runs every law and solver check over registered instances and
emits a deterministic traceability report; a CLI drives the same checks
from instance description files.
"""

from .order_core import (
    DomainError,
    IncomparableError,
    LawReport,
    LawResult,
    Order,
    OrderedGroupInstance,
    OrderedModuleInstance,
    RingDescriptor,
    SamplePlan,
    check_group_laws,
    check_module_laws,
    compare,
    coord_cone_group,
    coord_cone_module,
    format_element,
    order_max,
    order_min,
    rational_ring,
    real_group,
    real_module,
)
from .topo import (
    ConvergenceCertificate,
    ConvergenceFailure,
    PositiveSequence,
    TopoStructure,
    check_limit_uniqueness,
    check_regularity,
    check_topo_laws,
    constant,
    from_function,
    from_terms,
    geometric,
    harmonic,
    interior_cone_structure,
    inverse_square,
    is_certificate,
    strict_order_structure,
    sum_convergence,
    sum_of,
    sandwich_convergence,
    verify_convergence,
    verify_convergence_twosided,
)
from .cone_metric import (
    ConeMetricSpace,
    PointSequence,
    SetDistanceUndefined,
    cauchy_check,
    check_metric_laws,
    hausdorff,
    min_positive_distance,
    point_convergence,
    point_seq,
)
from .contraction import (
    ApproxEndpointValue,
    CConditionStatus,
    CStatus,
    ContractionWitness,
    EndpointSet,
    Hypotheses,
    PsiProperties,
    SetValuedMap,
    WitnessClass,
    approximate_endpoint_property_finite,
    approximate_endpoint_sequence,
    bound_table,
    c_condition_status,
    check_hypotheses,
    endpoints_bruteforce,
    is_global_weak_contraction,
    is_weak_contraction,
    validate_witness,
)
from .solver import (
    BanachReport,
    IffReport,
    SelectionRule,
    SolverConfig,
    SolverOutcome,
    SolverReport,
    banach_iterate,
    endpoint_census,
    endpoint_iff_report,
    iterate_endpoint,
    iterate_fixed_point,
)
from .harness import (
    ALL_CHECKS,
    Budgets,
    SuiteSpec,
    TraceabilityReport,
    default_suite,
    fault_inject,
    run_fault_sensitivity,
    run_suite,
)
from .corpus import (
    CorpusInstance,
    build_instance,
    global_alpha_corpus,
    weak_contraction_corpus,
)
from .instance_files import (
    BUILTIN_INSTANCE_TEXTS,
    InstanceBundle,
    InstanceDescription,
    InstanceFileError,
    build_bundle,
    builtin_bundles,
    export_instance_text,
    load_instance,
    parse_instance_text,
)

__version__ = "0.1.0"
