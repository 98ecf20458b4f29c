"""Decision procedures for equivariant dynamics on finite topological
spaces: transitivity, total transitivity, weak and strong mixing, and
minimality of continuous maps commuting (up to orbits) with a finite
group action.

Names resolve on first access: ``import gdyn`` loads no submodule, and
reading ``gdyn.mine`` (or ``from gdyn import mine``) imports
``gdyn.corpus`` then.  A command that only decides a system never loads
the generator, the miner or the oracle."""

import importlib as _importlib

_SUBMODULES = ("algebra", "bitsets", "checkers", "corpus", "dynamics", "errors",
               "oracle", "sysfile", "topology")

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "Action",
        "Group",
        "QuotientSystem",
        "catalog",
        "cyclic_group",
        "equivariance_failure",
        "is_equivariant",
        "is_pseudoequivariant",
        "klein_group",
        "pseudoequivariance_failure",
        "quotient",
        "symmetric_group_3",
        "trivial_action",
    ), "algebra"),
    **dict.fromkeys((
        "ProductMinimality",
        "PropertyReport",
        "QuotientMinimality",
        "SgmCondition",
        "diagram_violations",
        "g_minimal_sets",
        "g_transitive_points",
        "is_g_minimal",
        "is_g_transitive",
        "is_n_fold_transitive",
        "is_strongly_g_mixing",
        "is_totally_g_transitive",
        "is_weakly_g_mixing",
        "minimality_cover_criterion",
        "product_minimality_criterion",
        "profile",
        "quotient_minimality",
        "sgm_sufficient_condition",
    ), "checkers"),
    **dict.fromkeys((
        "Fixture",
        "GeneratorConfig",
        "MineResult",
        "SuiteReport",
        "all_spaces",
        "enumerate_systems",
        "fixtures",
        "generate",
        "generate_robust",
        "mine",
        "parse_target",
        "run_implication_suite",
        "suite_configs",
    ), "corpus"),
    **dict.fromkeys((
        "GSystem",
        "IterateCache",
        "gf_periodic_mask",
        "nfold_system",
        "periodic_points",
        "product_system",
    ), "dynamics"),
    **dict.fromkeys((
        "Error",
        "GenerationError",
        "LimitError",
        "ParseError",
        "PreconditionError",
        "ValidationError",
    ), "errors"),
    **dict.fromkeys(("parse", "serialize"), "sysfile"),
    **dict.fromkeys((
        "Space",
        "automorphisms",
        "discrete_space",
        "is_continuous",
        "space_from_subbasis",
    ), "topology"),
}

__all__ = sorted([*_SUBMODULES, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = _importlib.import_module(f"{__name__}.{name}")
    elif name in _EXPORTS:
        value = getattr(_importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
