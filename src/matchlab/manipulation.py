"""Manipulation machinery: rules as functions, witnesses, and searches.

A manipulation witness is a coalition plus a joint misreport after which
every member is strictly better off by their true preference. The search
enumerates coalitions by size, then lexicographically by agent, then
misreports in admissible-list order, so the first witness found is
canonical and runs are reproducible. Searches count their planned rule
evaluations up front and refuse budgets they would blow through.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from .core import AgentId, Matching, Preference, Profile, Side
from .da import RuleId, da_assignment
from .errors import BudgetExceededError, PreconditionError, ValidationError

if TYPE_CHECKING:
    from .domains import PreferenceDomain

DEFAULT_EVAL_BUDGET = 10_000_000
EXHAUSTIVE_PROFILE_BUDGET = 100_000


class MatchingRule:
    """A deterministic total map from profiles to matchings.

    Evaluations go through an assignment-level cache keyed by the preference
    tuples, so table-backed and search-heavy uses stay cheap.
    """

    __slots__ = ("name", "stable", "_assign_fn", "_cache")

    def __init__(self, name: str, assign_fn: Callable, stable: bool):
        self.name = name
        self.stable = stable
        self._assign_fn = assign_fn
        self._cache: dict = {}

    def assignment(self, men_prefs: tuple, women_prefs: tuple) -> tuple:
        key = (men_prefs, women_prefs)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._assign_fn(men_prefs, women_prefs)
            self._cache[key] = hit
        return hit

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

        return cls(rule_id.value, assign, stable=True)

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
    w = witness
    if not w.coalition:
        raise PreconditionError("empty coalition")
    if list(w.coalition) != sorted(set(w.coalition)):
        raise PreconditionError("coalition must be sorted and duplicate-free")
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
    if rule.apply(w.base) != w.outcome_before:
        raise PreconditionError("stored outcome_before does not match the rule")
    after = rule.apply(w.deviated_profile())
    if after != w.outcome_after:
        raise PreconditionError("stored outcome_after does not match the rule")
    for a in w.coalition:
        true_pref = w.base[a]
        if not true_pref.prefers(w.outcome_after.partner(a), w.outcome_before.partner(a)):
            raise PreconditionError(f"{a} does not strictly improve")


def _outcome_rank(pref: Preference, partner_idx) -> int:
    return pref.outside_rank if partner_idx is None else pref.rank_by_index[partner_idx]


def _invert(assignment: tuple, q: int) -> list:
    man_of = [None] * q
    for i, j in enumerate(assignment):
        if j is not None:
            man_of[j] = i
    return man_of


def _agent_outcome(agent: AgentId, assignment: tuple, inverse: list):
    return assignment[agent.index] if agent.side is Side.MAN else inverse[agent.index]


def planned_evaluations(
    alternative_counts: Iterable[int], max_coalition: int
) -> int:
    """Total joint misreports over all coalitions up to the given size."""
    counts = list(alternative_counts)
    total = 0
    for size in range(1, max_coalition + 1):
        for combo in itertools.combinations(counts, size):
            block = 1
            for c in combo:
                block *= c
            total += block
    return total


def _scan_candidates(
    rule: MatchingRule,
    domain: "PreferenceDomain",
    base: Profile,
    max_coalition: int,
    budget: int,
    coalition_pool: Optional[Iterable[AgentId]] = None,
) -> Iterator[ManipulationWitness]:
    """Yield every witness at this base in canonical order."""
    if not domain.contains(base):
        raise PreconditionError("base profile is not admissible in the domain")
    agents = list(coalition_pool) if coalition_pool is not None else list(base.agents)
    alternatives = {
        a: tuple(p for p in domain.admissible(a) if p != base[a]) for a in agents
    }
    max_coalition = max(1, min(max_coalition, len(agents)))
    planned = planned_evaluations(
        (len(alternatives[a]) for a in agents), max_coalition
    )
    if planned > budget:
        raise BudgetExceededError(
            f"coalition scan at one base exceeds the evaluation budget of {budget}",
            planned,
        )
    base_assign = rule.assignment(base.men_prefs, base.women_prefs)
    base_inverse = _invert(base_assign, base.q)
    base_rank = {
        a: _outcome_rank(base[a], _agent_outcome(a, base_assign, base_inverse))
        for a in agents
    }
    # agents at their true top can never strictly improve
    candidates = [a for a in agents if base_rank[a] > 0 and alternatives[a]]
    men_list = list(base.men_prefs)
    women_list = list(base.women_prefs)
    for size in range(1, max_coalition + 1):
        for coalition in itertools.combinations(candidates, size):
            for reports in itertools.product(*(alternatives[a] for a in coalition)):
                for a, rep in zip(coalition, reports):
                    if a.side is Side.MAN:
                        men_list[a.index] = rep
                    else:
                        women_list[a.index] = rep
                assign = rule.assignment(tuple(men_list), tuple(women_list))
                for a in coalition:
                    if a.side is Side.MAN:
                        men_list[a.index] = base.men_prefs[a.index]
                    else:
                        women_list[a.index] = base.women_prefs[a.index]
                inverse = _invert(assign, base.q)
                if all(
                    _outcome_rank(base[a], _agent_outcome(a, assign, inverse)) < base_rank[a]
                    for a in coalition
                ):
                    yield ManipulationWitness(
                        rule_name=rule.name,
                        base=base,
                        coalition=coalition,
                        misreports=tuple(zip(coalition, reports)),
                        outcome_before=Matching.from_assignment(base.p, base.q, base_assign),
                        outcome_after=Matching.from_assignment(base.p, base.q, assign),
                    )


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
        _scan_candidates(rule, domain, base, max_coalition, budget, coalition_pool),
        None,
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
    return _scan_candidates(rule, domain, base, max_coalition, budget, coalition_pool)


def find_manipulation_sampled(
    rule: MatchingRule,
    domain: "PreferenceDomain",
    base: Profile,
    trials: int,
    rng: random.Random,
    max_coalition: Optional[int] = None,
    coalition_pool: Optional[Iterable[AgentId]] = None,
    collect: bool = False,
) -> list[ManipulationWitness]:
    """Seeded random deviation scan at one base.

    Draws a coalition size, then members, then one misreport per member.
    Returns the witnesses found (at most one unless collect=True).
    """
    if not domain.contains(base):
        raise PreconditionError("base profile is not admissible in the domain")
    agents = list(coalition_pool) if coalition_pool is not None else list(base.agents)
    base_assign = rule.assignment(base.men_prefs, base.women_prefs)
    base_inverse = _invert(base_assign, base.q)
    alternatives = {
        a: tuple(p for p in domain.admissible(a) if p != base[a]) for a in agents
    }
    pool = [
        a
        for a in agents
        if alternatives[a]
        and _outcome_rank(base[a], _agent_outcome(a, base_assign, base_inverse)) > 0
    ]
    found: list[ManipulationWitness] = []
    if not pool:
        return found
    top = len(pool) if max_coalition is None else min(max_coalition, len(pool))
    base_rank = {
        a: _outcome_rank(base[a], _agent_outcome(a, base_assign, base_inverse))
        for a in pool
    }
    men_list = list(base.men_prefs)
    women_list = list(base.women_prefs)
    for _ in range(trials):
        size = rng.randint(1, top)
        coalition = tuple(sorted(rng.sample(pool, size)))
        reports = tuple(rng.choice(alternatives[a]) for a in coalition)
        for a, rep in zip(coalition, reports):
            if a.side is Side.MAN:
                men_list[a.index] = rep
            else:
                women_list[a.index] = rep
        assign = rule.assignment(tuple(men_list), tuple(women_list))
        for a in coalition:
            if a.side is Side.MAN:
                men_list[a.index] = base.men_prefs[a.index]
            else:
                women_list[a.index] = base.women_prefs[a.index]
        inverse = _invert(assign, base.q)
        if all(
            _outcome_rank(base[a], _agent_outcome(a, assign, inverse)) < base_rank[a]
            for a in coalition
        ):
            found.append(
                ManipulationWitness(
                    rule_name=rule.name,
                    base=base,
                    coalition=coalition,
                    misreports=tuple(zip(coalition, reports)),
                    outcome_before=Matching.from_assignment(base.p, base.q, base_assign),
                    outcome_after=Matching.from_assignment(base.p, base.q, assign),
                )
            )
            if not collect:
                break
    return found


@dataclass(frozen=True)
class StrategyProofness:
    """Outcome of an exhaustive certification scan."""

    holds: bool
    witness: Optional[ManipulationWitness]

    def __bool__(self) -> bool:
        return self.holds


def is_strategy_proof(
    rule: MatchingRule,
    domain: "PreferenceDomain",
    budget: int = DEFAULT_EVAL_BUDGET,
) -> StrategyProofness:
    """Exhaustive single-agent certification over every admissible profile."""
    count = domain.profile_count
    if count > EXHAUSTIVE_PROFILE_BUDGET:
        raise BudgetExceededError(
            f"exhaustive certification is limited to {EXHAUSTIVE_PROFILE_BUDGET} profiles; "
            "use the sampled variant",
            count,
        )
    for base in domain.profiles():
        w = find_manipulation(rule, domain, base, max_coalition=1, budget=budget)
        if w is not None:
            return StrategyProofness(False, w)
    return StrategyProofness(True, None)


def is_group_strategy_proof(
    rule: MatchingRule,
    domain: "PreferenceDomain",
    budget: int = DEFAULT_EVAL_BUDGET,
    max_coalition: Optional[int] = None,
) -> StrategyProofness:
    """Exhaustive coalition certification over every admissible profile."""
    count = domain.profile_count
    if count > EXHAUSTIVE_PROFILE_BUDGET:
        raise BudgetExceededError(
            f"exhaustive certification is limited to {EXHAUSTIVE_PROFILE_BUDGET} profiles; "
            "use the sampled variant",
            count,
        )
    for base in domain.profiles():
        cap = max_coalition if max_coalition is not None else base.p + base.q
        w = find_manipulation(rule, domain, base, max_coalition=cap, budget=budget)
        if w is not None:
            return StrategyProofness(False, w)
    return StrategyProofness(True, None)


def is_strategy_proof_sampled(
    rule: MatchingRule,
    domain: "PreferenceDomain",
    n_bases: int,
    deviations_per_base: int,
    seed: int,
    max_coalition: Optional[int] = 1,
) -> StrategyProofness:
    """Seeded random certification for domains past the exhaustive budget."""
    rng = random.Random(seed)
    for _ in range(n_bases):
        base = domain.sample_profile(rng)
        found = find_manipulation_sampled(
            rule, domain, base, deviations_per_base, rng, max_coalition=max_coalition
        )
        if found:
            return StrategyProofness(False, found[0])
    return StrategyProofness(True, None)


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
        if ra < rb:
            d = "better"
        elif ra > rb:
            d = "worse"
        else:
            d = "same"
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
    from .core import OUTSIDE, man, woman

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
