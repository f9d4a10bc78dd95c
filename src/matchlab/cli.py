"""Command-line entry point.

Subcommands: solve, stable-set, manipulate, check-domain, verify.
Exit codes: 0 pass, 1 fail (or no witness), 2 budget/size guard, 64 bad input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Optional

from . import formats
from .core import DEFAULT_EVAL_BUDGET, OUTSIDE, SUITE_IDS, Matching, Side, stable_set
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    FormatError,
    MatchlabError,
    NotResponsiveError,
    PreconditionError,
    SizeGuardError,
    UnknownOutcomeError,
    ValidationError,
)

# Only `core`, `errors` and `formats` (which imports no more) load with this
# module; each handler imports the engines it runs when it is called.
if TYPE_CHECKING:
    from .mto import MtoMatching

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64

BUDGET_ENV_VAR = "MATCHLAB_BUDGET"


class UsageError(MatchlabError):
    """Bad flags, files, or flag/input combinations. Exits 64."""


class _Parser(argparse.ArgumentParser):
    # raise instead of sys.exit so main() owns the exit code
    def error(self, message: str):
        raise UsageError(message)


# --- input helpers -----------------------------------------------------------------


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FormatError(path, exc.strerror or "cannot read file")
    except UnicodeDecodeError as exc:
        raise FormatError(path, f"invalid JSON: not UTF-8 text ({exc.reason})")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(path, f"invalid JSON: {exc.msg} (line {exc.lineno})")
    except ValueError:
        # the decoder's only other ValueError: int() refusing a literal
        # longer than the interpreter's digit limit
        raise FormatError(
            path,
            f"invalid JSON: an integer literal has more than {sys.get_int_max_str_digits()} digits",
        )
    except RecursionError:
        raise FormatError(path, "invalid JSON: nested too deeply")


def _is_college_market(doc: Any) -> bool:
    return isinstance(doc, dict) and (
        doc.get("kind") == "college-market" or "colleges" in doc
    )


def _college_rule(args: argparse.Namespace, doc: Any) -> bool:
    """True for spda on a college market, False for mpda or wpda on a
    marriage market; UsageError when the market's kind does not fit ``--rule``."""
    college = _is_college_market(doc)
    if college != (args.rule == "spda"):
        needs, given = ("college", "marriage") if args.rule == "spda" else ("marriage", "college")
        raise UsageError(f"--rule {args.rule} needs a {needs} market; {args.market} is a {given} market")
    return college


def _default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_EVAL_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{BUDGET_ENV_VAR}: expected an integer, got {raw!r}")
    if value <= 0:
        raise UsageError(f"{BUDGET_ENV_VAR}: must be positive")
    return value


def _resolve_budget(args: argparse.Namespace) -> int:
    if args.budget is not None:
        if args.budget <= 0:
            raise UsageError("--budget: must be positive")
        return args.budget
    return _default_budget()


def _emit(doc: Any) -> None:
    print(json.dumps(doc, indent=2))


# --- text renderers ----------------------------------------------------------------


def _matching_text(matching: Matching) -> str:
    lines = [f"{m.name} -- {w.name}" for m, w in matching.pairs]
    if matching.unmatched:
        lines.append("unmatched: " + ", ".join(a.name for a in matching.unmatched))
    else:
        lines.append("unmatched: (none)")
    return "\n".join(lines)


def _mto_matching_text(matching: MtoMatching) -> str:
    from .mto import colleges

    lines = []
    for i, c in enumerate(colleges(len(matching.quotas))):
        names = ", ".join(s.name for s in matching.students_of(c)) or "(empty)"
        lines.append(f"{c.name} [quota {matching.quotas[i]}]: {names}")
    free = matching.unmatched_students
    lines.append(
        "unmatched: " + (", ".join(s.name for s in free) if free else "(none)")
    )
    return "\n".join(lines)


def _ranking_text(ranking) -> str:
    return ", ".join(formats._outcome_token(x) for x in ranking)


def _witness_block(rule: str, witness, reports: list[str], matching_text) -> str:
    """A witness as text: rule, coalition, each member's report, then the
    outcomes before and after the misreports, indented."""
    lines = [f"rule: {rule}", "coalition: " + ", ".join(a.name for a in witness.coalition)]
    lines += reports
    for label, matching in (("before", witness.outcome_before), ("after", witness.outcome_after)):
        lines.append(f"{label}:")
        lines.append("  " + matching_text(matching).replace("\n", "\n  "))
    return "\n".join(lines)


def _witness_text(witness) -> str:
    reports = [f"{a.name} reports: {_ranking_text(pref.ranking)}" for a, pref in witness.misreports]
    return _witness_block(witness.rule_name, witness, reports, _matching_text)


def _mto_witness_text(witness) -> str:
    reports = []
    for a, pref in witness.misreports:
        if hasattr(pref, "quota"):
            ranked = " > ".join(
                "{" + ", ".join(s.name for s in subset) + "}" for subset in pref.ranking
            )
            reports.append(f"{a.name} reports (quota {pref.quota}): {ranked}")
        else:
            reports.append(f"{a.name} reports: {_ranking_text(pref.ranking)}")
    return _witness_block("spda", witness, reports, _mto_matching_text)


def _no_witness(fmt: str) -> int:
    """Say that the scan found no witness; the exit code that says so."""
    print(json.dumps("none") if fmt == "json" else "none")
    return EXIT_FAIL


def _show(fmt: str, value: Any, to_json, to_text) -> int:
    """Print a result as JSON or as text, or, for None, that no witness was found."""
    if value is None:
        return _no_witness(fmt)
    if fmt == "json":
        _emit(to_json(value))
    else:
        print(to_text(value))
    return EXIT_PASS


# --- solve -------------------------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> int:
    doc = _load_json(args.market)
    if _college_rule(args, doc):
        from .mto import run_spda, spda_matching

        profile = formats.mto_profile_from_json(doc)
        if args.trace:
            matching, steps = run_spda(profile)
            names = (
                formats.agent_names("c", profile.n_colleges),
                formats.agent_names("s", profile.n_students),
            )
            for step in steps:
                print(json.dumps(formats.mto_step_to_json(step, names)))
        else:
            matching = spda_matching(profile)
        return _show(args.fmt, matching, formats.mto_matching_to_json, _mto_matching_text)
    from .da import RuleId, _traced_rule, da_matching

    profile = formats.profile_from_json(doc)
    rule = RuleId(args.rule)
    if args.trace:
        step, final = formats.da_trace_writer(profile.p, profile.q, rule is RuleId.MPDA)
        for line in _traced_rule(rule, profile, step):
            print(line)
        matching = final()
    else:
        matching = da_matching(rule, profile)
    return _show(args.fmt, matching, formats.matching_to_json, _matching_text)


# --- stable-set --------------------------------------------------------------------


def _cmd_stable_set(args: argparse.Namespace) -> int:
    doc = _load_json(args.market)
    if _is_college_market(doc):
        raise UsageError("stable-set works on marriage markets only")
    profile = formats.profile_from_json(doc)
    matchings = stable_set(profile)
    if args.fmt == "json":
        _emit(
            {
                "schema": formats.SCHEMA,
                "kind": "stable-set",
                "count": len(matchings),
                "matchings": [formats.matching_to_json(mu) for mu in matchings],
            }
        )
    else:
        print(f"{len(matchings)} stable matching(s)")
        for i, mu in enumerate(matchings, start=1):
            pairs = ", ".join(f"{m.name}--{w.name}" for m, w in mu.pairs)
            free = ", ".join(a.name for a in mu.unmatched)
            suffix = f" | unmatched: {free}" if free else ""
            print(f"{i}. {pairs or '(all unmatched)'}{suffix}")
    return EXIT_PASS


# --- manipulate --------------------------------------------------------------------


def _cmd_manipulate(args: argparse.Namespace) -> int:
    if args.max_coalition < 1:
        raise UsageError("--max-coalition: must be at least 1")
    budget = _resolve_budget(args)
    market_doc = _load_json(args.market)
    domain_doc = _load_json(args.domain)

    if args.rule == "spda" and args.all:
        raise UsageError("--all is only available for mpda/wpda")
    if _college_rule(args, market_doc):
        from .mto import find_manipulation_mto

        base = formats.mto_profile_from_json(market_doc)
        domain = formats.mto_domain_from_json(domain_doc)
        witness = find_manipulation_mto(domain, base, args.max_coalition, budget)
        return _show(args.fmt, witness, formats.mto_witness_to_json, _mto_witness_text)
    from .manipulation import find_manipulation, iter_manipulations, mpda_rule, wpda_rule

    base = formats.profile_from_json(market_doc)
    domain = formats.domain_from_json(domain_doc)
    rule = mpda_rule() if args.rule == "mpda" else wpda_rule()
    if not args.all:
        witness = find_manipulation(rule, domain, base, args.max_coalition, budget)
        return _show(args.fmt, witness, formats.witness_to_json, _witness_text)
    witness = None
    # each witness printed as the scan yields it: one JSON line, or a text block
    for witness in iter_manipulations(rule, domain, base, args.max_coalition, budget):
        if args.fmt == "json":
            print(json.dumps(formats.witness_to_json(witness)))
        else:
            print(_witness_text(witness) + "\n")
    return EXIT_PASS if witness is not None else _no_witness(args.fmt)


# --- check-domain ------------------------------------------------------------------

_SIDES = {"men": (Side.MAN,), "women": (Side.WOMAN,), "both": (Side.MAN, Side.WOMAN)}

# property -> the name of its one-side checker in `domains`
_SIDED_CHECKS = {
    "top-dominance": "satisfies_top_dominance",
    "utp": "satisfies_unrestricted_top_pairs",
    "cyclical-inclusion": "satisfies_cyclical_inclusion",
}


def _detail_json(detail: Optional[tuple]) -> Any:
    if detail is None:
        return None

    def conv(x: Any) -> Any:
        if x is OUTSIDE:
            return "@"
        if isinstance(x, Side):
            return "men" if x is Side.MAN else "women"
        if hasattr(x, "ranking"):
            return formats._ranking_tokens(x)
        if hasattr(x, "name"):
            return x.name
        if isinstance(x, (tuple, list, frozenset, set)):
            return [conv(t) for t in x]
        return x

    return conv(detail)


def _cmd_check_domain(args: argparse.Namespace) -> int:
    from . import domains

    domain = formats.domain_from_json(_load_json(args.domain))
    sides = _SIDES[args.side]
    single_peaked = args.property == "single-peaked"
    if single_peaked and args.orderings is None:
        raise UsageError("--orderings is required for --property single-peaked")
    if not single_peaked and args.orderings is not None:
        raise UsageError("--orderings only applies to --property single-peaked")
    if single_peaked:
        men_line, women_line = formats.orderings_from_json(_load_json(args.orderings))
        checks = [domains.domain_is_single_peaked(domain, men_line, women_line, sides)]
    elif args.property == "anonymity":
        checks = [domains.is_anonymous(domain, sides)]
    else:
        checker = getattr(domains, _SIDED_CHECKS[args.property])
        checks = (checker(domain, side) for side in sides)
    # the first failing check, or a pass
    verdict = next((check for check in checks if not check), domains.PropertyCheck(True))
    holds, detail = verdict.holds, verdict.detail
    if args.fmt == "json":
        _emit(
            {
                "schema": formats.SCHEMA,
                "kind": "domain-check",
                "property": args.property,
                "side": args.side,
                "holds": holds,
                "detail": _detail_json(detail),
            }
        )
    else:
        print("true" if holds else "false")
        if detail is not None:
            print(f"violation: {_detail_json(detail)}")
    return EXIT_PASS if holds else EXIT_FAIL


# --- verify ------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    from .suites import SuiteParams, run_suite

    for flag, value in (("--men", args.men), ("--women", args.women), ("--trials", args.trials)):
        if value is not None and value < 1:
            raise UsageError(f"{flag}: must be at least 1")
    params = SuiteParams(
        men=args.men,
        women=args.women,
        seed=args.seed,
        trials=args.trials,
        budget=_resolve_budget(args),
    )
    report = run_suite(args.suite, params)
    if args.fmt == "json":
        _emit(report.to_json_dict())
    else:
        print(f"suite: {report.suite}")
        print(
            "params: " + " ".join(f"{k}={v}" for k, v in report.params.items())
        )
        print(f"mode: {report.mode}")
        print(f"trials: {report.trials}")
        if report.notes:
            print(f"notes: {report.notes}")
        if report.counterexample is not None:
            print(f"counterexample: {json.dumps(report.counterexample)}")
        print(f"verdict: {report.verdict}")
    return EXIT_PASS if report.passed else EXIT_FAIL


# --- parser ------------------------------------------------------------------------


def _add_format_flags(parser: argparse.ArgumentParser, default: str) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--json", dest="fmt", action="store_const", const="json",
        help="machine-readable JSON output",
    )
    group.add_argument(
        "--text", dest="fmt", action="store_const", const="text",
        help="human-readable output",
    )
    parser.set_defaults(fmt=default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="matchlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_solve = sub.add_parser("solve", help="run a deferred-acceptance rule on a market")
    p_solve.add_argument("market", help="market JSON file")
    p_solve.add_argument("--rule", required=True, choices=("mpda", "wpda", "spda"))
    p_solve.add_argument(
        "--trace", action="store_true", help="emit one JSON line per round first"
    )
    _add_format_flags(p_solve, "json")
    p_solve.set_defaults(handler=_cmd_solve)

    p_stable = sub.add_parser("stable-set", help="enumerate all stable matchings")
    p_stable.add_argument("market", help="marriage market JSON file")
    _add_format_flags(p_stable, "json")
    p_stable.set_defaults(handler=_cmd_stable_set)

    p_manip = sub.add_parser(
        "manipulate", help="search for a profitable coalition misreport"
    )
    p_manip.add_argument("market", help="true-preference market JSON file")
    p_manip.add_argument("domain", help="admissible-preference domain JSON file")
    p_manip.add_argument("--rule", required=True, choices=("mpda", "wpda", "spda"))
    p_manip.add_argument("--max-coalition", type=int, default=1, metavar="K")
    p_manip.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help=f"rule-evaluation budget (default ${BUDGET_ENV_VAR} or {DEFAULT_EVAL_BUDGET})",
    )
    p_manip.add_argument(
        "--all", action="store_true", help="stream every witness (mpda/wpda only)"
    )
    _add_format_flags(p_manip, "json")
    p_manip.set_defaults(handler=_cmd_manipulate)

    p_check = sub.add_parser("check-domain", help="decide a preference-domain property")
    p_check.add_argument("domain", help="domain JSON file")
    p_check.add_argument(
        "--property",
        required=True,
        choices=("top-dominance", "utp", "cyclical-inclusion", "anonymity", "single-peaked"),
    )
    p_check.add_argument("--side", choices=("men", "women", "both"), default="both")
    p_check.add_argument(
        "--orderings", default=None, metavar="FILE",
        help="prior-orderings JSON file (single-peaked only)",
    )
    _add_format_flags(p_check, "text")
    p_check.set_defaults(handler=_cmd_check_domain)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITE_IDS)
    p_verify.add_argument("--men", type=int, default=2, metavar="P")
    p_verify.add_argument("--women", type=int, default=2, metavar="Q")
    p_verify.add_argument("--seed", type=int, default=42, metavar="S")
    p_verify.add_argument("--trials", type=int, default=None, metavar="N")
    p_verify.add_argument(
        "--budget", type=int, default=None, metavar="B",
        help=f"rule-evaluation budget (default ${BUDGET_ENV_VAR} or {DEFAULT_EVAL_BUDGET})",
    )
    _add_format_flags(p_verify, "text")
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (UsageError, FormatError, PreconditionError, NotResponsiveError,
            ValidationError, UnknownOutcomeError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExceededError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
