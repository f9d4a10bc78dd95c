"""matchlab: a laboratory for two-sided matching markets.

One-to-one (marriage) and many-to-one (college admissions) markets,
deferred-acceptance rules with traces, stability and manipulation
machinery, preference-domain property checkers, and a catalog of
verification suites runnable from the command line.

The package namespace is lazy (PEP 562): ``import matchlab`` loads no
submodule, and each public name imports the submodule that defines it the
first time it is looked up, so a command pays only for the code it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "core": (
        "OUTSIDE",
        "SUITE_IDS",
        "AgentId",
        "Matching",
        "Preference",
        "Profile",
        "Side",
        "blocking_pairs",
        "enumerate_matchings",
        "is_individually_rational",
        "is_stable",
        "man",
        "men",
        "stable_set",
        "woman",
        "women",
    ),
    "da": ("DaStep", "DaTrace", "RuleId", "da_matching", "proposer_optimality_check", "run_da"),
    "domains": (
        "PreferenceDomain",
        "PriorOrdering",
        "all_preferences",
        "domain_is_single_peaked",
        "exists_stable_sp_rule",
        "is_anonymous",
        "is_single_peaked",
        "maximal_single_peaked_domain",
        "minimal_utp_rankings",
        "satisfies_cyclical_inclusion",
        "satisfies_top_dominance",
        "satisfies_unrestricted_top_pairs",
        "theorem3_equivalence_suite",
    ),
    "errors": (
        "BudgetExceededError",
        "FormatError",
        "MatchlabError",
        "NotResponsiveError",
        "PreconditionError",
    ),
    "manipulation": (
        "ManipulationWitness",
        "MatchingRule",
        "crossing_market_example",
        "find_manipulation",
        "is_group_strategy_proof",
        "is_strategy_proof",
        "iter_manipulations",
        "mpda_rule",
        "validate_witness",
        "welfare_shift",
        "wpda_rule",
    ),
    "mto": (
        "CollegePreference",
        "MtoDomain",
        "MtoMatching",
        "MtoProfile",
        "StudentPreference",
        "find_manipulation_mto",
        "is_responsive",
        "is_stable_mto",
        "mixed_coalition_counterexample",
        "run_spda",
        "spda_matching",
        "students_satisfy_utp",
        "validate_mto_witness",
    ),
    "suites": ("SuiteParams", "SuiteReport", "run_all_suites", "run_suite"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | _SOURCE.keys())
