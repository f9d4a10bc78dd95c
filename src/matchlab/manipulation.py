"""Manipulation machinery: rules as functions, witnesses, and searches.

A manipulation witness is a coalition plus a joint misreport after which
every member is strictly better off by their true preference. The search
enumerates coalitions by size, then lexicographically by agent, then
misreports in admissible-list order, so the first witness found is
canonical and runs are reproducible. Searches count their planned rule
evaluations, one per joint misreport, up front and refuse budgets they
would blow through.

Every search runs one loop over classes of reports. A report's class is
the report itself, except under a DA rule, whose outcome depends on a
report only through its acceptable list: that list is the class. For each
coalition the search evaluates the rule once per combination of the
members' classes and reads every joint misreport's outcome from its
combination, so the witnesses and their order are those of a search that
evaluates every joint misreport, and the budget still counts each one.
Certifications of a DA rule share one step further: on a small market they
read every outcome from the shape's store in `core.ListKeys`, one memo per
rule keyed by the profile's acceptable lists, so DA runs once per vector
of lists however many domains are certified.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Container, Iterable, Iterator, Optional, Sequence

from .core import (
    DEFAULT_EVAL_BUDGET,
    EXHAUSTIVE_PROFILE_BUDGET,
    MAX_LOT_SIDE,
    OUTSIDE,
    AgentId,
    Matching,
    Preference,
    Profile,
    Side,
    assignment_lots,
    axis_gains,
    gain_sets,
    list_keys,
    lot_codes,
    market_shape,
    size_guard,
)
from .da import RuleId, _assignment, _view_engine, da_assignment
from .errors import BudgetExceededError, PreconditionError, UnknownOutcomeError, ValidationError

if TYPE_CHECKING:
    from .domains import PreferenceDomain, ProductDomain


class MatchingRule:
    """A deterministic total map from profiles to matchings.

    `assignment` maps the men's and the women's preference tuples to each
    man's partner index (None when unmatched). A rule keeps no results.

    `_da` marks a DA rule: it is the rule's `RuleId`, else None. A DA
    rule's scans and certifications evaluate it with `da._view_engine` on
    reports taken from a `ProductDomain`, whose construction has checked
    their shape; every other rule's pass them to `assignment`. A DA
    outcome depends on a report only through its acceptable list, the
    agents ranked above the outside option in order, so a DA rule's
    coalition scan evaluates one report per list, and a certification of
    it on a market shape with at most EXHAUSTIVE_PROFILE_BUDGET vectors of
    acceptable lists reads its outcomes from the shape's `core.ListKeys`
    store, in the memo whose kind is its `RuleId`, which every such
    certification in the process shares; every other certification keeps
    its own outcome table for one run. The rule search keeps its stable
    options in the same store under its own kind, and neither reads the
    other's: the search never runs DA.
    """

    __slots__ = ("name", "stable", "_assign_fn", "_da")

    def __init__(self, name: str, assign_fn: Callable, stable: bool):
        self.name = name
        self.stable = stable
        self._assign_fn = assign_fn
        self._da: Optional[RuleId] = None

    def assignment(self, men_prefs: tuple, women_prefs: tuple) -> tuple:
        return self._assign_fn(men_prefs, women_prefs)

    def apply(self, profile: Profile) -> Matching:
        return Matching.from_assignment(
            profile.p, profile.q, self.assignment(profile.men_prefs, profile.women_prefs)
        )

    def __call__(self, profile: Profile) -> Matching:
        return self.apply(profile)

    def __repr__(self) -> str:
        return f"MatchingRule({self.name})"

    @classmethod
    def deferred_acceptance(cls, rule_id: RuleId) -> "MatchingRule":
        def assign(men_prefs, women_prefs, _rule=rule_id):
            return da_assignment(_rule, men_prefs, women_prefs)

        rule = cls(rule_id.value, assign, stable=True)
        rule._da = rule_id
        return rule

    @classmethod
    def from_table(cls, table: dict, name: str, stable: bool) -> "MatchingRule":
        """Explicit rule: table maps (men_prefs, women_prefs) to assignments."""

        def assign(men_prefs, women_prefs):
            try:
                return table[(men_prefs, women_prefs)]
            except KeyError:
                raise PreconditionError(
                    f"profile outside the table of rule {name!r}"
                ) from None

        return cls(name, assign, stable=stable)

    @classmethod
    def from_profile_function(cls, fn: Callable[[Profile], Matching], name: str, stable: bool) -> "MatchingRule":
        def assign(men_prefs, women_prefs):
            return fn(Profile(men_prefs + women_prefs)).assignment

        return cls(name, assign, stable=stable)


def mpda_rule() -> MatchingRule:
    return MatchingRule.deferred_acceptance(RuleId.MPDA)


def wpda_rule() -> MatchingRule:
    return MatchingRule.deferred_acceptance(RuleId.WPDA)


@dataclass(frozen=True)
class ManipulationWitness:
    """A successful joint deviation, stored with both outcomes."""

    rule_name: str
    base: Profile
    coalition: tuple[AgentId, ...]
    misreports: tuple[tuple[AgentId, Preference], ...]
    outcome_before: Matching
    outcome_after: Matching

    @property
    def misreport_map(self) -> dict[AgentId, Preference]:
        return dict(self.misreports)

    def deviated_profile(self) -> Profile:
        return self.base.replace(self.misreport_map)

    def __repr__(self) -> str:
        members = " ".join(a.name for a in self.coalition)
        return f"Witness[{self.rule_name}: {{{members}}} -> {self.outcome_after!r}]"


def _check_witness(
    witness,
    domain,
    evaluate: Callable[[object], object],
    rank: Callable[[object, object, object], int],
) -> None:
    """Re-derive every condition of a witness on either market; raise
    PreconditionError on failure. `evaluate(profile)` is the rule's outcome,
    `rank(base, agent, outcome)` the agent's true rank of its lot (0 is the
    top)."""
    w = witness
    if not w.coalition:
        raise PreconditionError("empty coalition")
    position = {a: i for i, a in enumerate(w.base.agents)}
    at = [position.get(a) for a in w.coalition]
    if None in at:
        raise PreconditionError(f"coalition member {w.coalition[at.index(None)]!r} is not an agent of the base")
    if any(i >= j for i, j in zip(at, at[1:])):
        raise PreconditionError("coalition must be strictly increasing in the base's agent order")
    reported = dict(w.misreports)
    if set(reported) != set(w.coalition):
        raise PreconditionError("misreports must cover exactly the coalition")
    for a, pref in reported.items():
        if pref.owner != a:
            raise PreconditionError(f"misreport for {a} is owned by {pref.owner}")
        if domain is not None and pref not in domain.admissible(a):
            raise PreconditionError(f"misreport for {a} is not admissible")
    if domain is not None and not domain.contains(w.base):
        raise PreconditionError("base profile is not admissible in the domain")
    if all(reported[a] == w.base[a] for a in w.coalition):
        raise PreconditionError("at least one coalition member's report must differ")
    if evaluate(w.base) != w.outcome_before:
        raise PreconditionError("stored outcome_before does not match the rule")
    if evaluate(w.deviated_profile()) != w.outcome_after:
        raise PreconditionError("stored outcome_after does not match the rule")
    for a in w.coalition:
        if rank(w.base, a, w.outcome_after) >= rank(w.base, a, w.outcome_before):
            raise PreconditionError(f"{a} does not strictly improve")


def validate_witness(
    rule: MatchingRule,
    witness: ManipulationWitness,
    domain: Optional["PreferenceDomain"] = None,
) -> None:
    """Re-derive every witness condition; raise PreconditionError on failure.

    A member may report their true preference as part of the joint deviation,
    but at least one member's report must differ, and every member must end
    strictly better off by their true preference.
    """
    _check_witness(witness, domain, rule.apply, lambda base, a, mu: base[a].rank_of(mu.partner(a)))


def planned_evaluations(
    alternative_counts: Iterable[int], max_coalition: int
) -> int:
    """Total joint misreports over all coalitions up to the given size:
    the elementary symmetric sums e_1..e_k of the counts, added up."""
    sums = [1] + [0] * max_coalition
    for c in alternative_counts:
        for size in range(max_coalition, 0, -1):
            sums[size] += sums[size - 1] * c
    return sum(sums[1:])


# --- the coalition scanner -----------------------------------------------------


class _Market:
    """One market and rule as the scans and certifications see them, over
    report vectors whose position i holds agent i's report.

    `engine()` returns the rule's (view, evaluate, insert, proposers), built
    when a scan or a table needs them: `view(report)` is a report as
    `evaluate` reads it (None: the report), and `evaluate(views)` returns the
    rule's lot vector, agent i's partner's or college's index, the other
    side's size when unmatched (`core.assignment_lots`), or a college's
    sorted student group, in a fresh list; it neither changes nor keeps the
    views. `proposers` holds the agents whose reports the rule's proposers
    make, and for agent i among them `insert(views, i)` warm-starts DA with
    the others' views: it returns a callable that returns the lot vector of
    the views with i's view replaced by the one it is given, as `evaluate`
    would, and neither changes nor keeps the views; while it is in use the
    caller changes no slot but i's. A market without a warm start has
    neither (None, ()). Both are gain first: `evaluate(views, i, rank,
    bar)`, and the callable given `(viewed, rank, bar)`, return None unless
    agent i ranks its lot strictly above bar by rank, `ranks(true)[i]` in a
    scan, and the lot vector otherwise; they then write no lot vector, and
    the engines read i's lot from their own state. `ranks(true)`
    returns ranks[i][lot], agent i's rank by true[i] of a lot (0 is the
    top). `witness(base, coalition, reports, before, after)` builds the
    witness of one hit of `_search`. `class_key`, when given, keys each
    report for `_search`'s classes: reports of one agent with equal keys
    must give the same outcome whatever the others report; without it each
    report is its own class. The certification walk also needs
    `table(domain)`, which returns (ids, lots): ids[k] numbers the outcome
    at the domain's k-th profile in product order, and lots[i][n] is agent
    i's lot code in the outcome numbered n, the code its reports'
    `ranking_idx` gives that lot.
    """

    def __init__(self, engine: Callable, ranks: Callable, witness: Callable, table=None, class_key=None):
        self.engine, self.ranks, self.witness, self.table, self.class_key = engine, ranks, witness, table, class_key


def _witnesses(make: Callable, outcome: Callable) -> Callable:
    """A `_Market.witness` that names the coalition's agents by the base and
    calls make(base, members, misreports, outcome(before), outcome(after))."""

    def witness(base, coalition: tuple, reports: tuple, before, after):
        members = tuple(base.agents[i] for i in coalition)
        return make(base, members, tuple(zip(members, reports)), outcome(before), outcome(after))

    return witness


def _coalition_cap(alternative_counts: Sequence[int], max_coalition: int, budget: int) -> int:
    """The coalition size bound clipped to the pool, once the evaluations
    the scan at one base (`alternative_counts` per pool agent) plans with
    it fit the budget."""
    if max_coalition < 1:
        raise ValidationError(f"coalition size bound must be at least 1, got {max_coalition}")
    # the floor of 1 only matters for an empty pool, which plans nothing
    max_coalition = max(1, min(max_coalition, len(alternative_counts)))
    planned = planned_evaluations(alternative_counts, max_coalition)
    if planned > budget:
        raise BudgetExceededError(
            f"coalition scan at one base exceeds the evaluation budget of {budget}",
            planned,
        )
    return max_coalition


def _scan(
    market: _Market,
    domain: "ProductDomain",
    base,
    pool: Sequence[int],
    max_coalition: int,
    budget: int,
) -> Iterator:
    """Yield the witness of each deviation at `base` after which every
    member strictly gains: by size, then coalition from `pool` (increasing
    agent indices), then reports in list order, in the market's classes.
    The planned evaluations over the whole pool, one per joint misreport,
    are checked against the budget first."""
    true, alternatives = domain.deviations(base)
    cap = _coalition_cap([len(alternatives[i]) for i in pool], max_coalition, budget)
    classes = None if market.class_key is None else [tuple(map(market.class_key, alts)) for alts in alternatives]
    view, evaluate, insert, proposers = market.engine()
    for hit in _search(true, alternatives, pool, evaluate, market.ranks(true), cap, classes, view, insert, proposers):
        yield market.witness(base, *hit)


def _search(
    true_reports: Sequence,
    alternatives: Sequence[tuple],
    pool: Sequence[int],
    evaluate: Callable[[list], Sequence],
    ranks: Sequence,
    cap: int,
    classes: Optional[Sequence[tuple]] = None,
    view: Optional[Callable] = None,
    insert: Optional[Callable] = None,
    proposers: Container[int] = (),
) -> Iterator[tuple[tuple[int, ...], tuple, object, object]]:
    """Yield (coalition, reports, before, after) for each deviation after
    which every member strictly gains, in `_scan`'s order, at a coalition
    bound that `_coalition_cap` has already clipped and checked against
    the budget. alternatives[i] holds agent i's admissible reports other
    than true_reports[i], and classes[i], when given, the class key of
    each; without classes every report is its own class. `evaluate`,
    `view`, `insert` and `proposers` are a `_Market`'s engine and `ranks`
    its ranks; `view`, when given, views each true report and each class's
    first report once, and the hits carry the reports. Without `proposers`
    every evaluation is a call of `evaluate`.

    A coalition's scan evaluates one joint misreport per combination of
    its members' classes, the first of each class in list order; a
    member's true class is a class like any other, since the others'
    deviation can make it gain. The innermost member is the coalition's
    last proposer, or its last member when none proposes. The outer
    members' views are written once per combination of their classes and
    then the innermost member's, one per evaluation, which is gain first:
    it takes that member's true rank row and base rank and returns a lot
    vector only when the member gains, and only then are the outer
    members' ranks read. A proposer's evaluations come from one `insert`,
    so DA runs once there for the others. The outcomes stay keyed by class
    numbers in coalition order. Only when some combination left every
    member strictly better off does it walk the joint misreports in list
    order and yield each one whose combination did, so the hits and their
    order are those of a scan that evaluates every joint misreport, and
    each scan evaluates as often whichever member is innermost.
    """
    views = list(true_reports if view is None else map(view, true_reports))
    true_views = tuple(views)
    before = evaluate(views)
    base_rank = [rank[lot] for rank, lot in zip(ranks, before)]
    # agents at their true top can never strictly improve
    candidates = [i for i in pool if base_rank[i] > 0 and alternatives[i]]
    # firsts[i]: the class number and view of the first report of each of
    # agent i's classes; number[i]: the class number of each of its reports
    firsts, number = {}, {}
    for i in candidates:
        if classes is None:
            firsts[i], number[i] = alternatives[i], range(len(alternatives[i]))
        else:
            index = {}
            number[i] = [index.setdefault(key, len(index)) for key in classes[i]]
            firsts[i] = [alternatives[i][number[i].index(n)] for n in range(len(index))]
        firsts[i] = list(enumerate(firsts[i] if view is None else map(view, firsts[i])))
    for size in range(1, cap + 1):
        for coalition in itertools.combinations(candidates, size):
            # the innermost member: the last proposer, else the last member
            at = max([k for k, i in enumerate(coalition) if i in proposers], default=size - 1)
            inner, outer = coalition[at], coalition[:at] + coalition[at + 1 :]
            inner_rank, inner_bar, warm = ranks[inner], base_rank[inner], inner in proposers
            outcomes = {}
            for head in itertools.product(*(firsts[i] for i in outer)):
                for i, (_, viewed) in zip(outer, head):
                    views[i] = viewed
                evaluate_with = insert(views, inner) if warm else None
                for n, viewed in firsts[inner]:
                    if evaluate_with is None:
                        views[inner] = viewed
                        after = evaluate(views, inner, inner_rank, inner_bar)
                    else:
                        after = evaluate_with(viewed, inner_rank, inner_bar)
                    if after is not None:
                        for i in outer:
                            if ranks[i][after[i]] >= base_rank[i]:
                                break
                        else:
                            numbers = tuple([m for m, _ in head])
                            outcomes[numbers[:at] + (n,) + numbers[at:]] = after
            for i in coalition:
                views[i] = true_views[i]
            if outcomes:
                joint = itertools.product(*(alternatives[i] for i in coalition))
                for misreports, numbers in zip(joint, itertools.product(*(number[i] for i in coalition))):
                    after = outcomes.get(numbers)
                    if after is not None:
                        yield coalition, misreports, before, after


def _marriage_market(rule: MatchingRule, p: int, q: int) -> _Market:
    """The market record of a rule on a p-by-q marriage market, whose agents
    are numbered men first and whose reports the domain has checked.

    A DA rule's engine is `da._view_engine` and its classes are the reports'
    acceptable lists; every other rule's engine evaluates `assignment` on
    reports and codes its lots with `core.assignment_lots`, has no warm
    start, and each report is its own class. A DA rule's `table`, on a domain with keys (`profile_keys`), reads its
    outcomes from the shape's `core.ListKeys` store, numbered among the
    shape's matchings (`core.market_shape`), and builds the engine only
    to fill the keys the store does not hold yet; every other table
    evaluates the rule once per profile and numbers its outcomes in the
    order they first appear."""

    def evaluate(reports: Sequence, i: Optional[int] = None, rank: Sequence = (), bar: int = 0) -> Optional[list]:
        lots = [lot[0] for lot in assignment_lots(p, q, [rule.assignment(tuple(reports[:p]), tuple(reports[p:]))])]
        return None if i is not None and rank[lots[i]] >= bar else lots

    engine = (lambda: (None, evaluate, None, ())) if rule._da is None else partial(_view_engine, rule._da, p, q)

    # the engine's evaluate, and the views of the profiles of `lists` in product order
    def viewed(lists: Sequence) -> tuple[Callable, Iterator]:
        view, evaluate, _, _ = engine()
        return evaluate, itertools.product(*(lists if view is None else [list(map(view, l)) for l in lists]))

    def table(domain: "PreferenceDomain") -> tuple[Sequence[int], Sequence]:
        lists = domain.product_order().lists
        keys = None if rule._da is None else domain.profile_keys()
        if keys is not None:
            _, index, lots = market_shape(p, q)

            def fill(memo: dict) -> None:
                evaluate, profiles = viewed(lists)
                for key, views in zip(keys, profiles):
                    if key not in memo:
                        memo[key] = index[_assignment(evaluate(views), p, q)]

            return list_keys(p, q).values(rule._da, keys, fill), lots
        evaluate, profiles = viewed(lists)
        number: dict = {}
        ids = [number.setdefault(tuple(evaluate(views)), len(number)) for views in profiles]
        return ids, list(zip(*number))

    def outcome(lots: Sequence) -> Matching:
        return Matching.from_assignment(p, q, _assignment(lots, p, q))

    witness = _witnesses(partial(ManipulationWitness, rule.name), outcome)
    by_list = None if rule._da is None else operator.attrgetter("acceptable_idx")
    return _Market(engine, lambda true: [pref.rank_row for pref in true], witness, table, by_list)


def _marriage_scan(
    rule: MatchingRule,
    domain: "PreferenceDomain",
    base: Profile,
    coalition_pool: Optional[Iterable[AgentId]],
    max_coalition: int,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> Iterator[ManipulationWitness]:
    """The coalition scanner on a marriage market, yielding witnesses."""
    position = {a: i for i, a in enumerate(domain.agents)}
    pool = set()
    for a in domain.agents if coalition_pool is None else coalition_pool:
        if a not in position:
            raise UnknownOutcomeError(f"no such agent {a!r} in the domain")
        pool.add(position[a])
    yield from _scan(_marriage_market(rule, domain.p, domain.q), domain, base, sorted(pool), max_coalition, budget)


def find_manipulation(
    rule: MatchingRule,
    domain: "PreferenceDomain",
    base: Profile,
    max_coalition: int,
    budget: int = DEFAULT_EVAL_BUDGET,
    coalition_pool: Optional[Iterable[AgentId]] = None,
) -> Optional[ManipulationWitness]:
    """First manipulation witness in canonical order, or None."""
    return next(
        _marriage_scan(rule, domain, base, coalition_pool, max_coalition, budget), None
    )


def iter_manipulations(
    rule: MatchingRule,
    domain: "PreferenceDomain",
    base: Profile,
    max_coalition: int,
    budget: int = DEFAULT_EVAL_BUDGET,
    coalition_pool: Optional[Iterable[AgentId]] = None,
) -> Iterator[ManipulationWitness]:
    """Every witness at this base, canonical order. Used by exhaustive suites."""
    return _marriage_scan(rule, domain, base, coalition_pool, max_coalition, budget)


@dataclass(frozen=True)
class StrategyProofness:
    """Outcome of an exhaustive certification scan."""

    holds: bool
    witness: Optional[ManipulationWitness]

    def __bool__(self) -> bool:
        return self.holds


def _certify(
    market: _Market,
    domain: "PreferenceDomain",
    budget: int,
    max_coalition: Optional[int],
) -> StrategyProofness:
    """Certify the rule on every admissible profile, taken as a digit vector
    in the domain's product order. Reports are digits, so a profile's index
    is its key in the run's outcome table.

    The walk first reads from the market's `table` the rule's outcome at
    every profile, in index order, and each agent's lot code in each
    outcome, hence at every profile (`core.lot_codes`). It then picks the
    bases that can hold a witness; every other base is skipped, which
    changes neither the verdict nor the first witness:
    - at a coalition bound of 1, the bases where some agent gains by a
      report of its own, all read at once along the agents' axis lines
      (`core.axis_gains`); the search runs at the first of them, where it
      finds its hit, or nowhere when the rule is strategy-proof;
    - at a larger bound, each base from which some deviation, by a
      coalition of any size, leaves every deviator strictly better off
      (`core.gain_sets`), one base at a time.
    Each picked base is scanned by `_search`, which reads its outcomes from
    the table, gain first: the innermost member's lot code, and a lot
    vector only for the base and where that member gains. A certification
    thus evaluates the rule at most once per profile, whether it holds or
    fails at its first base: a DA rule's table evaluates only the lists its
    engine's memo in the shape's `core.ListKeys` store does not hold yet,
    so after the first certification on a shape it usually evaluates none. Preferences are
    looked up only to build the table, to rank a scanned base's lots or to
    build the witness.

    At a bound of 1, or at one that covers the pool, the first picked base
    holds a witness, so a search that finds none there raises RuntimeError.
    A bound in between may pick bases whose gaining coalitions are larger
    than it, and skips them.

    Before it evaluates anything, the walk refuses a coalition bound below
    1, a budget below the profile count, which is what the table may cost,
    and a side past MAX_LOT_SIDE agents. It plans no scan: a base's joint
    misreports reach each other profile once, so no plan passes the count.
    A rule that is not total on the domain, such as a table rule built from
    a partial table, raises PreconditionError while the table is built,
    before any base is scanned.
    """
    count = domain.exhaustive_count("exhaustive certification")
    order = domain.product_order()
    lists, strides = order.lists, order.strides
    pool = range(len(lists))
    if max_coalition is not None and max_coalition < 1:
        raise ValidationError(f"coalition size bound must be at least 1, got {max_coalition}")
    cap = len(pool) if max_coalition is None else min(max_coalition, len(pool))
    if count > budget:
        raise BudgetExceededError(
            f"certification may evaluate the rule at all {count} profiles, over the budget of {budget}",
            count,
        )
    size_guard("certifying this domain", max(domain.sizes), MAX_LOT_SIDE, lambda: "lot codes past a byte")
    ids, lots = market.table(domain)
    codes = lot_codes(ids, lots)
    orders = order.orders
    if cap == 1:
        gains = axis_gains(codes, orders, strides, (1 << count) - 1)
        bases = [(gains & -gains).bit_length() - 1] if gains else []
    else:
        reachable = gain_sets(codes, orders, strides)
        bases = (key for key, digits in enumerate(order.digits()) if reachable(digits, key) != 1 << key)

    def evaluate(digits: list, i: Optional[int] = None, rank: Sequence = (), bar: int = 0) -> Optional[list]:
        n = ids[sum(map(operator.mul, digits, strides))]
        if i is not None and rank[lots[i][n]] >= bar:
            return None
        return [lot[n] for lot in lots]

    for key in bases:
        digits = order.digits_at(key)
        true = order.preferences(digits)
        alternatives = [tuple(range(d)) + tuple(range(d + 1, len(l))) for l, d in zip(lists, digits)]
        hit = next(_search(digits, alternatives, pool, evaluate, market.ranks(true), cap), None)
        if hit is not None:
            coalition, reports, before, after = hit
            misreports = tuple(lists[i][d] for i, d in zip(coalition, reports))
            witness = market.witness(domain.make_profile(true), coalition, misreports, before, after)
            return StrategyProofness(False, witness)
        if cap in (1, len(pool)):
            raise RuntimeError(f"the gain bitsets flag base {key}, where the search finds no witness")
    return StrategyProofness(True, None)


def is_strategy_proof(
    rule: MatchingRule,
    domain: "PreferenceDomain",
    budget: int = DEFAULT_EVAL_BUDGET,
) -> StrategyProofness:
    """Exhaustive single-agent certification over every admissible profile."""
    return _certify(_marriage_market(rule, domain.p, domain.q), domain, budget, 1)


def is_group_strategy_proof(
    rule: MatchingRule,
    domain: "PreferenceDomain",
    budget: int = DEFAULT_EVAL_BUDGET,
    max_coalition: Optional[int] = None,
) -> StrategyProofness:
    """Exhaustive coalition certification over every admissible profile."""
    return _certify(_marriage_market(rule, domain.p, domain.q), domain, budget, max_coalition)


@dataclass(frozen=True)
class WelfareShift:
    """Per-agent movement between the two outcomes of a witness."""

    directions: tuple[tuple[AgentId, str], ...]
    men_weakly_worse: bool
    women_weakly_better: bool
    unmatched_preserved: bool

    def direction_of(self, agent: AgentId) -> str:
        for a, d in self.directions:
            if a == agent:
                return d
        raise ValidationError(f"no direction recorded for {agent}")


def welfare_shift(
    rule: MatchingRule, base: Profile, witness: ManipulationWitness
) -> WelfareShift:
    """Compare everyone's lot before and after a validated witness."""
    if witness.base != base:
        raise PreconditionError("witness was recorded at a different base profile")
    validate_witness(rule, witness)
    before, after = witness.outcome_before, witness.outcome_after
    if before == after:
        raise PreconditionError("witness does not change the outcome")
    directions = []
    men_weakly_worse = True
    women_weakly_better = True
    for a in base.agents:
        pref = base[a]
        rb = pref.rank_of(before.partner(a))
        ra = pref.rank_of(after.partner(a))
        d = "better" if ra < rb else "worse" if ra > rb else "same"
        directions.append((a, d))
        if a.side is Side.MAN and d == "better":
            men_weakly_worse = False
        if a.side is Side.WOMAN and d == "worse":
            women_weakly_better = False
    return WelfareShift(
        directions=tuple(directions),
        men_weakly_worse=men_weakly_worse,
        women_weakly_better=women_weakly_better,
        unmatched_preserved=frozenset(before.unmatched) == frozenset(after.unmatched),
    )


# --- a worked 2x2 market -------------------------------------------------------


@dataclass(frozen=True)
class CrossingMarketExample:
    """A 2x2 market whose stable set holds two matchings, plus both truncations.

    Men want the straight pairing, women the crossed one, so each DA rule
    lands on its own side's favorite.  Truncating the less preferred partner
    below the outside option tips the opposite rule: the receiving side
    manipulates by feigning a shorter list.
    """

    base: Profile
    man_truncated: Profile
    woman_truncated: Profile
    straight: Matching
    crossed: Matching
    mpda_witness: ManipulationWitness
    wpda_witness: ManipulationWitness


def crossing_market_example() -> CrossingMarketExample:
    from .core import man, woman

    m1, m2, w1, w2 = man(0), man(1), woman(0), woman(1)
    base = Profile(
        [
            Preference(m1, (w1, w2, OUTSIDE)),
            Preference(m2, (w2, w1, OUTSIDE)),
            Preference(w1, (m2, m1, OUTSIDE)),
            Preference(w2, (m1, m2, OUTSIDE)),
        ]
    )
    m1_cut = Preference(m1, (w1, OUTSIDE, w2))
    w1_cut = Preference(w1, (m2, OUTSIDE, m1))
    straight = Matching(2, 2, [(m1, w1), (m2, w2)])
    crossed = Matching(2, 2, [(m1, w2), (m2, w1)])
    return CrossingMarketExample(
        base=base,
        man_truncated=base.replace({m1: m1_cut}),
        woman_truncated=base.replace({w1: w1_cut}),
        straight=straight,
        crossed=crossed,
        mpda_witness=ManipulationWitness(
            rule_name="mpda",
            base=base,
            coalition=(w1,),
            misreports=((w1, w1_cut),),
            outcome_before=straight,
            outcome_after=crossed,
        ),
        wpda_witness=ManipulationWitness(
            rule_name="wpda",
            base=base,
            coalition=(m1,),
            misreports=((m1, m1_cut),),
            outcome_before=crossed,
            outcome_after=straight,
        ),
    )
