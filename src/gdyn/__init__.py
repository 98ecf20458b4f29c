"""Decision procedures for equivariant dynamics on finite topological
spaces: transitivity, total transitivity, weak and strong mixing, and
minimality of continuous maps commuting (up to orbits) with a finite
group action."""

from .algebra import (
    Action,
    Group,
    QuotientSystem,
    catalog,
    cyclic_group,
    equivariance_failure,
    is_equivariant,
    is_pseudoequivariant,
    klein_group,
    product_action,
    product_group,
    pseudoequivariance_failure,
    quotient,
    symmetric_group_3,
    trivial_action,
)
from .checkers import (
    Preconditions,
    ProductMinimality,
    PropertyReport,
    QuotientMinimality,
    SgmCondition,
    diagram_violations,
    full_report,
    g_minimal_sets,
    g_transitive_points,
    is_g_minimal,
    is_g_transitive,
    is_n_fold_transitive,
    is_strongly_g_mixing,
    is_totally_g_transitive,
    is_weakly_g_mixing,
    minimality_cover_criterion,
    precondition_flags,
    product_minimality_criterion,
    quotient_minimality,
    sgm_sufficient_condition,
)
from .corpus import (
    Fixture,
    GeneratorConfig,
    MineResult,
    SuiteReport,
    all_spaces,
    enumerate_systems,
    fixtures,
    generate,
    generate_robust,
    mine,
    parse_target,
    run_implication_suite,
    suite_configs,
)
from .dynamics import (
    GSystem,
    IterateCache,
    f_orbit,
    gf_orbit,
    gf_periodic_mask,
    gf_periodic_points,
    nfold_system,
    periodic_points,
    product_system,
    trivialized,
)
from .errors import (
    Error,
    GenerationError,
    LimitError,
    ParseError,
    PreconditionError,
    ValidationError,
)
from .sysfile import parse, serialize
from .topology import (
    Space,
    automorphisms,
    discrete_space,
    is_continuous,
    product,
    space_from_subbasis,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
