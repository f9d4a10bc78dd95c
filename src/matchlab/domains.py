"""Preference domains and their structural properties.

A domain fixes, for every agent, the set of preferences they may report.
The checkers here decide the structural properties that separate markets
where a stable and strategy-proof rule can exist from markets where every
stable rule is manipulable, and the constructive searches either exhibit
such a rule as an explicit table or prove none exists.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

from .core import (
    EXHAUSTIVE_PROFILE_BUDGET,
    MAX_ENUMERATION_SIDE,
    OUTSIDE,
    AgentId,
    Outcome,
    Preference,
    Profile,
    Ranking,
    Side,
    axis_gains,
    list_keys,
    lot_codes,
    market_shape,
    men,
    size_guard,
    women,
)
from .errors import (
    BudgetExceededError,
    PreconditionError,
    UnknownOutcomeError,
    ValidationError,
)

if TYPE_CHECKING:
    from .manipulation import ManipulationWitness, MatchingRule

MAX_SINGLE_PEAKED_SIDE = 8


def _rankings_guard(n_opposite: int) -> None:
    size_guard(
        f"enumerating every ranking of {n_opposite} agents and the outside option",
        n_opposite,
        MAX_ENUMERATION_SIDE,
        lambda: f"{math.factorial(n_opposite + 1)} preferences",
    )


def all_preferences(owner: AgentId, n_opposite: int) -> tuple[Preference, ...]:
    """Every strict ranking for this agent, in lexicographic order.

    There are (n_opposite + 1)! of them, so past MAX_ENUMERATION_SIDE
    opposite agents this raises SizeGuardError before building any.
    """
    _rankings_guard(n_opposite)
    return tuple(Preference.from_idx(owner, idx) for idx in itertools.permutations(range(n_opposite + 1)))


class ProductOrder:
    """A domain's profiles as mixed-radix numbers over its agents, in agent order.

    Digit d of agent i stands for lists[i][d]. A profile's index is the dot
    product of its digits with `strides`, so the last agent varies fastest.
    """

    def __init__(self, lists: tuple[tuple, ...], strides: tuple[int, ...]):
        self.lists, self.strides = lists, strides

    @functools.cached_property
    def orders(self) -> list[list[tuple[int, ...]]]:
        """Each marriage report's code order (`Ranking.ranking_idx`), per agent."""
        return [[pref.ranking_idx for pref in l] for l in self.lists]

    def digits(self) -> Iterator[tuple[int, ...]]:
        """Every digit vector, in index order."""
        return itertools.product(*(range(len(l)) for l in self.lists))

    def digits_at(self, index: int) -> list[int]:
        """The digit vector of the profile with this index."""
        return [index // stride % len(l) for l, stride in zip(self.lists, self.strides)]

    def preferences(self, digits: Sequence[int]) -> tuple:
        return tuple([l[d] for l, d in zip(self.lists, digits)])


class ProductDomain:
    """Per-agent admissible preference sets over a two-sided market.

    The admissible profiles are the product of the sets. Agents are ordered
    by side, then by index. Each market names its two SIDES and supplies
    `side_of(agent)` (0, 1, or None for an agent of another market),
    `check_ranking(agent, pref, first)` (raise ValidationError for a ranking
    of the wrong type or size for the market; `first` heads the agent's set
    and is checked before the rest) and `make_profile(prefs)` (its profile
    from one preference per agent, in agent order) and `reports(profile)`
    (a profile's reports in agent order, or None for a profile of another
    market).

    Construction checks every shape the DA engine relies on, so reports
    taken from a domain go to the engine unchecked. A domain does not change
    once built, so its product order is built on first use and kept.
    """

    __slots__ = ("agents", "sizes", "_lists", "_lookups", "_order")

    SIDES: tuple[str, str]

    def __init__(self, sets: Mapping):
        sides: tuple[list, list] = ([], [])
        for a in sets:
            side = self.side_of(a)
            if side is None:
                raise ValidationError(f"{a!r} is not an agent of this market: expected {' or '.join(self.SIDES)}")
            sides[side].append(a)
        first, second = sorted(sides[0]), sorted(sides[1])
        if not first or not second:
            raise ValidationError(f"domain needs at least one agent per side: {' and '.join(self.SIDES)}")
        if any([a.index for a in agents] != list(range(len(agents))) for agents in (first, second)):
            raise ValidationError("domain agent indices must be contiguous from 0")
        self.agents = tuple(first + second)
        self.sizes = (len(first), len(second))
        lists: dict = {}
        for a, prefs in sets.items():
            tup = tuple(prefs)
            if not tup:
                raise ValidationError(f"empty admissible set for {a}")
            for pref in tup:
                self.check_ranking(a, pref, tup[0])
                if pref.owner != a:
                    raise ValidationError(f"set for {a} contains a preference owned by {pref.owner}")
            if len(set(tup)) != len(tup):
                raise ValidationError(f"duplicate preference in the set for {a}")
            lists[a] = tup
        self._lists = lists
        # per position in agent order: each admissible report's digit, and the list
        self._lookups = tuple([({pref: i for i, pref in enumerate(lists[a])}, lists[a]) for a in self.agents])

    def admissible(self, agent) -> tuple:
        try:
            return self._lists[agent]
        except KeyError:
            raise UnknownOutcomeError(f"no such agent {agent!r} in the domain") from None

    def index_of(self, agent, pref) -> int:
        try:
            return self._lookups[self.agents.index(agent)][0][pref]
        except (ValueError, KeyError):
            raise PreconditionError(f"preference of {agent} is not admissible") from None

    @property
    def profile_count(self) -> int:
        return math.prod(len(tup) for tup in self._lists.values())

    def exhaustive_count(self, walk: str) -> int:
        """The profile count, once it is within EXHAUSTIVE_PROFILE_BUDGET:
        past it, BudgetExceededError refuses the named walk over them all."""
        count = self.profile_count
        if count > EXHAUSTIVE_PROFILE_BUDGET:
            raise BudgetExceededError(f"{walk} is limited to {EXHAUSTIVE_PROFILE_BUDGET} profiles", count)
        return count

    def product_order(self) -> ProductOrder:
        """The admissible lists in agent order, with the strides that number
        the profiles as in `profiles`."""
        try:
            return self._order
        except AttributeError:
            lists = tuple(self._lists[a] for a in self.agents)
            strides = [1] * len(lists)
            for i in range(len(lists) - 1, 0, -1):
                strides[i - 1] = strides[i] * len(lists[i])
            self._order = ProductOrder(lists, tuple(strides))
            return self._order

    def profiles(self) -> Iterator:
        """All admissible profiles, last agent's coordinate varying fastest."""
        order = self.product_order()
        for digits in order.digits():
            yield self.make_profile(order.preferences(digits))

    def digits_of(self, reports) -> Optional[list[int]]:
        """Each report's digit, the reports given in agent order, or None
        when they are not a profile of the domain. Reports are read by
        position: a report's equality includes its owner, so one at
        another agent's position is refused."""
        if len(reports) != len(self._lookups):
            return None
        digits = []
        for pref, (lookup, _) in zip(reports, self._lookups):
            d = lookup.get(pref)
            if d is None:
                return None
            digits.append(d)
        return digits

    def contains(self, profile) -> bool:
        reports = self.reports(profile)
        return reports is not None and self.digits_of(reports) is not None

    def deviations(self, profile) -> tuple[tuple, list[tuple]]:
        """The profile's reports in agent order, and each agent's admissible
        reports other than its own, in list order."""
        true = self.reports(profile)
        digits = None if true is None else self.digits_of(true)
        if digits is None:
            raise PreconditionError("base profile is not admissible in the domain")
        return true, [tup[:d] + tup[d + 1 :] for d, (_, tup) in zip(digits, self._lookups)]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._lists == other._lists

    def __repr__(self) -> str:
        shape = f"{self.sizes[0]} {self.SIDES[0]}, {self.sizes[1]} {self.SIDES[1]}"
        sizes = ", ".join(f"{a}:{len(self._lists[a])}" for a in self.agents)
        return f"{type(self).__name__}({shape}; {sizes})"

    @classmethod
    def from_profile(cls, profile):
        """Singleton sets: nobody can deviate."""
        return cls({a: (profile[a],) for a in profile.agents})


class PreferenceDomain(ProductDomain):
    """Per-agent admissible preference sets over a fixed p-by-q marriage market."""

    __slots__ = ("_keys",)

    SIDES = ("men", "women")

    @property
    def p(self) -> int:
        return self.sizes[0]

    @property
    def q(self) -> int:
        return self.sizes[1]

    @staticmethod
    def side_of(agent) -> Optional[int]:
        return int(agent.side) if isinstance(agent, AgentId) else None

    def check_ranking(self, agent: AgentId, pref: Preference, first: Preference) -> None:
        if not isinstance(pref, Preference):
            raise ValidationError(f"set for {agent} holds a {type(pref).__name__}, expected a Preference")
        expected = self.q if agent.side is Side.MAN else self.p
        if pref.n_opposite != expected:
            raise ValidationError(
                f"preference for {agent} ranks {pref.n_opposite} opposite agents, market has {expected}"
            )

    def make_profile(self, prefs: Sequence[Preference]) -> Profile:
        return Profile(prefs)

    @staticmethod
    def reports(profile) -> Optional[tuple]:
        return profile.men_prefs + profile.women_prefs if isinstance(profile, Profile) else None

    def profile_keys(self) -> Optional[list[int]]:
        """Each profile's key by acceptable lists (`core.list_keys`), in
        product order, or None when the market has more than
        EXHAUSTIVE_PROFILE_BUDGET keys. Built on first use and kept, so
        every certification and rule search of the domain reads one."""
        try:
            return self._keys
        except AttributeError:
            keys = list_keys(self.p, self.q)
            self._keys = None if keys is None else keys.keys(self.product_order().lists)
            return self._keys

    @classmethod
    def full(cls, p: int, q: int) -> "PreferenceDomain":
        """The unrestricted domain: every agent may report anything."""
        _rankings_guard(q)
        _rankings_guard(p)
        return cls({a: all_preferences(a, q if a.side is Side.MAN else p) for a in men(p) + women(q)})

    @classmethod
    def anonymous(
        cls,
        p: int,
        q: int,
        men_rankings: Iterable[Sequence[Outcome]],
        women_rankings: Iterable[Sequence[Outcome]],
    ) -> "PreferenceDomain":
        """Every man shares one ranking set, every woman the other."""
        men_rankings = [tuple(r) for r in men_rankings]
        women_rankings = [tuple(r) for r in women_rankings]
        sets: dict[AgentId, list[Preference]] = {}
        for a in men(p):
            sets[a] = [Preference(a, r) for r in men_rankings]
        for a in women(q):
            sets[a] = [Preference(a, r) for r in women_rankings]
        return cls(sets)


@dataclass(frozen=True)
class PriorOrdering:
    """A fixed left-to-right arrangement of one side of the market."""

    side: Side
    order: tuple[AgentId, ...]

    def __post_init__(self):
        if not self.order:
            raise ValidationError("empty ordering")
        if any(a.side is not self.side for a in self.order):
            raise ValidationError("ordering mixes sides")
        if sorted(a.index for a in self.order) != list(range(len(self.order))):
            raise ValidationError("ordering must be a permutation of one side")

    def position(self, agent: AgentId) -> int:
        try:
            return self.order.index(agent)
        except ValueError:
            raise UnknownOutcomeError(f"{agent} is not in the ordering") from None


@dataclass(frozen=True)
class PropertyCheck:
    """Boolean verdict plus a violation payload when it fails."""

    holds: bool
    detail: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.holds


# --- order-level helpers shared with the many-to-one side -------------------


def top_dominance_violation(orders: Sequence[Ranking], universe: Sequence) -> Optional[tuple]:
    """Search two orders realizing (x > y > z, y acceptable) and (x > z > y, z acceptable).

    Returns (pi, pj, x, y, z), the two orders and the three outcomes, or None.
    Works on any strict orders that rank ``universe`` plus OUTSIDE.
    """
    extended = list(universe) + [OUTSIDE]
    for i, pi in enumerate(orders):
        out_i = pi.rank_of(OUTSIDE)
        for j, pj in enumerate(orders):
            if i == j:
                continue
            out_j = pj.rank_of(OUTSIDE)
            for y, z in itertools.permutations(extended, 2):
                # y acceptable under pi, z acceptable under pj, order inverted
                ry_i, rz_i = pi.rank_of(y), pi.rank_of(z)
                if ry_i > out_i or ry_i > rz_i:
                    continue
                rz_j, ry_j = pj.rank_of(z), pj.rank_of(y)
                if rz_j > out_j or rz_j > ry_j:
                    continue
                for x in universe:
                    if x == y or x == z:
                        continue
                    if pi.rank_of(x) < ry_i and pj.rank_of(x) < rz_j:
                        return (pi, pj, x, y, z)
    return None


def utp_missing(orders: Sequence[Ranking], universe: Sequence) -> Optional[tuple]:
    """First unmet requirement of the unrestricted-top-pairs property, or None."""
    tops = {(o.ranking[0], o.ranking[1]) for o in orders if len(o.ranking) >= 2}
    first = {o.ranking[0] for o in orders}
    for u, v in itertools.permutations(universe, 2):
        if (u, v) not in tops:
            return ("pair", u, v)
    for u in universe:
        if (u, OUTSIDE) not in tops:
            return ("outside-second", u)
    if OUTSIDE not in first:
        return ("outside-top",)
    return None


def cyclical_inclusion_missing(orders: Sequence[Ranking], universe: Sequence) -> Optional[tuple]:
    """First unmet requirement of cyclical inclusion, or None."""
    if all(o.ranking[0] is not OUTSIDE for o in orders):
        return ("outside-top",)
    realized = set()
    for o in orders:
        out = o.rank_of(OUTSIDE)
        above = [x for x in o.ranking[:out]]
        for a, b in itertools.combinations(above, 2):  # a ranked over b, both acceptable
            realized.add((a, b))
    for a, b in sorted(realized):  # agents of one side, so by index
        if (b, a) not in realized:
            return ("swap", a, b)
    return None


def _sides(domain: ProductDomain, side: int) -> tuple[tuple, tuple]:
    """The agents of one side (0 or 1) and of the other, in agent order."""
    n = domain.sizes[0]
    first, second = domain.agents[:n], domain.agents[n:]
    return (second, first) if side else (first, second)


def _check_each_agent(domain: ProductDomain, side: int, missing) -> PropertyCheck:
    """Run `missing(orders, universe)` on each agent of one side of a product
    domain, the universe being the other side; the first requirement it
    reports unmet fails the check, prefixed by its agent."""
    own, universe = _sides(domain, side)
    for a in own:
        hit = missing(domain.admissible(a), universe)
        if hit is not None:
            return PropertyCheck(False, (a,) + hit)
    return PropertyCheck(True)


def satisfies_top_dominance(domain: PreferenceDomain, side: Side) -> PropertyCheck:
    """Do the admissible sets of this side's agents satisfy top dominance?"""
    return _check_each_agent(domain, side, top_dominance_violation)


def satisfies_unrestricted_top_pairs(domain: PreferenceDomain, side: Side) -> PropertyCheck:
    return _check_each_agent(domain, side, utp_missing)


def satisfies_cyclical_inclusion(domain: PreferenceDomain, side: Side) -> PropertyCheck:
    return _check_each_agent(domain, side, cyclical_inclusion_missing)


def is_anonymous(
    domain: PreferenceDomain, sides: tuple[Side, ...] = (Side.MAN, Side.WOMAN)
) -> PropertyCheck:
    """Same admissible ranking set (owner erased) within each listed side."""
    for side in sides:
        agents = _sides(domain, side)[0]
        reference = {p.ranking for p in domain.admissible(agents[0])}
        for a in agents[1:]:
            mine = {p.ranking for p in domain.admissible(a)}
            if mine != reference:
                return PropertyCheck(False, (side, agents[0], a))
    return PropertyCheck(True)


def is_single_peaked(pref: Preference, ordering: PriorOrdering) -> bool:
    """Quality falls monotonically on both flanks of the best opposite agent.

    The outside option's position is unconstrained.
    """
    if ordering.side is not pref.owner.side.opposite:
        raise PreconditionError(
            f"preference of {pref.owner} ranks the {pref.owner.side.opposite.prefix}-side, "
            f"ordering arranges the {ordering.side.prefix}-side"
        )
    line = ordering.order
    peak_agent = min((x for x in pref.ranking if x is not OUTSIDE), key=pref.rank_of)
    k = ordering.position(peak_agent)
    for i in range(k, len(line) - 1):
        if not pref.prefers(line[i], line[i + 1]):
            return False
    for i in range(k, 0, -1):
        if not pref.prefers(line[i], line[i - 1]):
            return False
    return True


def domain_is_single_peaked(
    domain: PreferenceDomain,
    men_line: PriorOrdering,
    women_line: PriorOrdering,
    sides: tuple[Side, ...] = (Side.MAN, Side.WOMAN),
) -> PropertyCheck:
    """Every admissible preference of the listed sides single-peaked w.r.t.
    its side's line; men rank women, so their line is the women's ordering."""
    for a in domain.agents:
        if a.side not in sides:
            continue
        line = women_line if a.side is Side.MAN else men_line
        for pref in domain.admissible(a):
            if not is_single_peaked(pref, line):
                return PropertyCheck(False, (a, pref))
    return PropertyCheck(True)


def single_peaked_guard(n: int) -> None:
    """Refuse a maximal single-peaked set over more than MAX_SINGLE_PEAKED_SIDE agents."""
    size_guard(
        f"the maximal single-peaked set over {n} agents",
        n,
        MAX_SINGLE_PEAKED_SIDE,
        lambda: f"{2 ** (n - 1) * (n + 1)} elements",
    )


def generate_maximal_single_peaked(ordering: PriorOrdering, owner: AgentId) -> tuple[Preference, ...]:
    """All preferences single-peaked w.r.t. the line: 2^(n-1) * (n+1) of them."""
    n = len(ordering.order)
    single_peaked_guard(n)
    if ordering.side is not owner.side.opposite:
        raise PreconditionError("owner must rank the side the ordering arranges")
    line = [a.index for a in ordering.order]  # the agents' codes; @ is code n

    def worst_first(lo: int, hi: int):
        """Every order of line[lo..hi], worst first, that takes each next
        agent from an end of what is left."""
        if lo == hi:
            yield [line[lo]]
            return
        for rest in worst_first(lo + 1, hi):
            yield [line[lo]] + rest
        for rest in worst_first(lo, hi - 1):
            yield [line[hi]] + rest

    # the walks differ in their worst agent, so every code tuple is new
    rankings = []
    for seq in worst_first(0, n - 1):
        best_first = seq[::-1]
        for slot in range(n + 1):
            rankings.append((*best_first[:slot], n, *best_first[slot:]))
    return tuple(Preference.from_idx(owner, idx) for idx in sorted(rankings))


def maximal_single_peaked_domain(
    men_line: PriorOrdering, women_line: PriorOrdering
) -> PreferenceDomain:
    """Every agent may report any preference single-peaked on their side's line."""
    p, q = len(men_line.order), len(women_line.order)
    sets: dict[AgentId, tuple[Preference, ...]] = {}
    for a in men(p):
        sets[a] = generate_maximal_single_peaked(women_line, a)
    for a in women(q):
        sets[a] = generate_maximal_single_peaked(men_line, a)
    return PreferenceDomain(sets)


def generate_minimal_utp(p: int, q: int) -> PreferenceDomain:
    """Smallest domain satisfying unrestricted top pairs on both sides.

    Completions are canonical: remaining agents ascending, outside last.
    """
    return PreferenceDomain.anonymous(p, q, minimal_utp_rankings(women(q)), minimal_utp_rankings(men(p)))


def minimal_utp_rankings(universe: Sequence) -> list[tuple[Outcome, ...]]:
    """The fewest rankings of one side's agents (of either market) with
    unrestricted top pairs, in code order (`Ranking.ranking_idx`): by the
    top agent's index, then the second's, ``@`` after every agent. Each
    ranking completes its top pair, or its top and ``@``, with the rest of
    the universe in the order given."""
    rankings = []
    ordered = sorted(universe)
    for u in ordered:
        for v in ordered:
            if v != u:
                rankings.append((u, v, *[x for x in universe if x != u and x != v], OUTSIDE))
        rankings.append((u, OUTSIDE, *[x for x in universe if x != u]))
    rankings.append((OUTSIDE, *universe))
    return rankings


# --- incompatibility witnesses ----------------------------------------------


@dataclass(frozen=True)
class AlternatingSequenceWitness:
    """An alternating chain certifying no stable strategy-proof rule exists.

    men_seq and women_seq pair up as m^1, w^1, ..., m^k, w^k. chain_prefs[i]
    is the admissible preference of w^(i+2) placing m^(i+2) over m^(i+1) over
    the outside option. For w^1 the pair (w1_pref, w1_tilde) and the pivot z
    realize the crossing condition.
    """

    men_seq: tuple[AgentId, ...]
    women_seq: tuple[AgentId, ...]
    chain_prefs: tuple[Preference, ...]
    w1_pref: Preference
    w1_tilde: Preference
    pivot: Outcome

    def validate(self, domain: PreferenceDomain) -> None:
        k = len(self.men_seq)
        if k < 2 or len(self.women_seq) != k:
            raise PreconditionError("sequence needs k >= 2 alternating pairs")
        if len(set(self.men_seq)) != k or len(set(self.women_seq)) != k:
            raise PreconditionError("sequence agents must be distinct")
        if len(self.chain_prefs) != k - 1:
            raise PreconditionError("need one chain preference per woman after the first")
        for i in range(1, k):
            pw = self.chain_prefs[i - 1]
            if pw.owner != self.women_seq[i] or pw not in domain.admissible(pw.owner):
                raise PreconditionError(f"chain preference {i} is not admissible for {self.women_seq[i]}")
            if not (pw.prefers(self.men_seq[i], self.men_seq[i - 1]) and pw.prefers(self.men_seq[i - 1], OUTSIDE)):
                raise PreconditionError(f"chain condition fails at position {i}")
        w1 = self.women_seq[0]
        for pref in (self.w1_pref, self.w1_tilde):
            if pref.owner != w1 or pref not in domain.admissible(w1):
                raise PreconditionError("w1 preferences must be admissible")
        m_first, m_last = self.men_seq[0], self.men_seq[-1]
        p, pt, z = self.w1_pref, self.w1_tilde, self.pivot
        if not (p.prefers(m_first, m_last) and p.prefers(m_last, OUTSIDE)):
            raise PreconditionError("w1 straight condition fails")
        if not p.prefers(m_last, z):
            raise PreconditionError("pivot must sit below the last man for w1")
        if not (pt.weakly_prefers(z, OUTSIDE) and pt.prefers(m_first, z) and pt.prefers(z, m_last)):
            raise PreconditionError("w1 crossed condition fails")


def find_incompatibility_witness(domain: PreferenceDomain) -> Optional[AlternatingSequenceWitness]:
    """Search alternating sequences in canonical order; requires UTP for men."""
    utp = satisfies_unrestricted_top_pairs(domain, Side.MAN)
    if not utp:
        raise PreconditionError(f"domain lacks unrestricted top pairs for men: {utp.detail}")
    p, q = domain.p, domain.q
    men_all, women_all = men(p), women(q)
    pivots = list(men_all) + [OUTSIDE]
    for k in range(2, min(p, q) + 1):
        for men_seq in itertools.permutations(men_all, k):
            for women_seq in itertools.permutations(women_all, k):
                chain = []
                ok = True
                for i in range(1, k):
                    wi = women_seq[i]
                    choice = None
                    for pw in domain.admissible(wi):
                        if pw.prefers(men_seq[i], men_seq[i - 1]) and pw.prefers(men_seq[i - 1], OUTSIDE):
                            choice = pw
                            break
                    if choice is None:
                        ok = False
                        break
                    chain.append(choice)
                if not ok:
                    continue
                w1 = women_seq[0]
                m_first, m_last = men_seq[0], men_seq[-1]
                admissible = domain.admissible(w1)
                for pref in admissible:
                    if not (pref.prefers(m_first, m_last) and pref.prefers(m_last, OUTSIDE)):
                        continue
                    for tilde in admissible:
                        if tilde is pref:
                            continue
                        for z in pivots:
                            if not pref.prefers(m_last, z):
                                continue
                            if not tilde.weakly_prefers(z, OUTSIDE):
                                continue
                            if tilde.prefers(m_first, z) and tilde.prefers(z, m_last):
                                witness = AlternatingSequenceWitness(
                                    men_seq=men_seq,
                                    women_seq=women_seq,
                                    chain_prefs=tuple(chain),
                                    w1_pref=pref,
                                    w1_tilde=tilde,
                                    pivot=z,
                                )
                                witness.validate(domain)
                                return witness
    return None


# --- constructive search for a stable strategy-proof rule -------------------


@dataclass
class StableSpSearch:
    """Result of the existence search for a stable strategy-proof rule.

    A rule the backtracking search found comes with the domain and
    `picked`, the number of its matching (`core.market_shape`) at each
    profile in product order; `table` maps each profile's
    (men_prefs, women_prefs) to that matching's assignment, built on first
    read."""

    rule: Optional[MatchingRule]
    path: str  # "shortcut-mpda" | "shortcut-wpda" | "backtracking"
    sp_witness: Optional[ManipulationWitness] = None
    domain: Optional[PreferenceDomain] = field(default=None, repr=False)
    picked: Optional[list[int]] = field(default=None, repr=False)

    @property
    def exists(self) -> bool:
        return self.rule is not None

    @functools.cached_property
    def table(self) -> Optional[dict]:
        if self.picked is None:
            return None
        p, lists = self.domain.p, self.domain.product_order().lists
        assignments, _, _ = market_shape(p, self.domain.q)
        keys = itertools.product(list(itertools.product(*lists[:p])), list(itertools.product(*lists[p:])))
        return dict(zip(keys, [assignments[k] for k in self.picked]))


def _stable_options(domain: PreferenceDomain) -> tuple[list, list]:
    """The stable matchings of every profile of a marriage domain.

    The matchings are the shape's record (`core.market_shape`), numbered in
    `iter_assignments` order, with each agent's lot code in each. Returns
    ``ranks[a][d]``, the rank that agent a's report d, men first, gives
    each lot code; and ``options``, for each profile in product order the
    numbers of its stable matchings, ascending, exactly as
    `stable_assignments` keeps them. A profile with a single option is one
    the rule search forces.

    A profile's stable matchings depend on its reports only through their
    acceptable lists, so where the domain has keys (`profile_keys`) they
    are read from the shape's `core.ListKeys` store: a domain whose keys
    are all known reads them there; otherwise `_stable_option_pass` runs
    on the domain's own ranks and its options are added. Elsewhere the pass
    runs on every call. The options come from rankings alone, never from
    DA outcomes.
    """
    p, q = domain.p, domain.q
    ranks = [[pref.rank_row for pref in l] for l in domain.product_order().lists]
    keys = domain.profile_keys()
    if keys is None:
        return ranks, _stable_option_pass(p, q, ranks)

    def fill(memo: dict) -> None:
        memo.update(zip(keys, _stable_option_pass(p, q, ranks)))

    return ranks, list_keys(p, q).values("stable options", keys, fill)


def _stable_option_pass(p: int, q: int, ranks: Sequence[Sequence[tuple]]) -> list[tuple[int, ...]]:
    """The options of every profile of a p-by-q product, in product order,
    as `_stable_options` returns them; ``ranks[a][d]`` is agent a's report
    d given as its rank of each lot code, men first.

    Per agent and report, one bitmask over the matchings holds those whose
    lot the report accepts, and one per opposite agent x those where the
    report ranks x above the lot. A profile's stable set is the AND of its
    agents' accept masks, less every matching where some man and woman each
    want the other.
    """
    _, _, lots = market_shape(p, q)
    bits = [1 << k for k in range(len(lots[0]))]
    accepts, wants = [], []
    for lot, rows in zip(lots, ranks):
        accepts.append([sum(b for b, c in zip(bits, lot) if r[c] <= r[-1]) for r in rows])
        wants.append(
            [tuple(sum(b for b, c in zip(bits, lot) if r[x] < r[c]) for x in range(len(r) - 1)) for r in rows]
        )

    # layer by layer in product order: each men's digit vector, with what
    # each man wants, then per woman and report the matchings it leaves
    men_layer = [(sum(bits), ())]
    for a in range(p):
        men_layer = [
            (mask & accepts[a][d], rows + (wants[a][d],))
            for mask, rows in men_layer
            for d in range(len(ranks[a]))
        ]
    masks: list[int] = []
    for mask, men_wants in men_layer:
        layer = [mask]
        for j in range(q):
            allowed = []
            for accept, want in zip(accepts[p + j], wants[p + j]):
                blocked = 0
                for i, row in enumerate(men_wants):
                    blocked |= row[j] & want[i]
                allowed.append(accept & ~blocked)
            layer = [m & x for m in layer for x in allowed]
        masks.extend(layer)

    memo: dict[int, tuple[int, ...]] = {}
    options = []
    for mask in masks:
        opts = memo.get(mask)
        if opts is None:
            opts = memo[mask] = tuple(k for k, b in enumerate(bits) if mask & b)
        options.append(opts)
    return options


def _backtracking_table(domain: PreferenceDomain) -> Optional[list[int]]:
    """The first stable strategy-proof table in lexicographic order, as the
    number of its matching (`core.market_shape`) at each profile in product
    order, or None when provably none exists.

    A table picks one stable option (`_stable_options`, remembered by
    acceptable lists where the domain has keys) per profile, and is
    strategy-proof when no agent gains, in either direction, between two
    profiles that differ in its report alone. The search runs in three steps
    over the domain's product order:
    1. every profile with exactly one stable option is forced to take it;
    2. `core.axis_gains`, masked to the forced profiles, finds every forced
       pair that conflicts at once, and any conflict means no table exists;
    3. chronological backtracking walks the free profiles by index, checking
       each option against every forced or already assigned profile on the
       agents' axis lines, by the ranks of the agents' lot codes.
    Forced profiles have one option, so this is the first table of a walk
    over every profile by index. No preference tuple is built.
    """
    total = domain.exhaustive_count("backtracking search")
    order = domain.product_order()
    strides = order.strides
    _, _, lots = market_shape(domain.p, domain.q)
    ranks, options = _stable_options(domain)
    # the matching at each profile: its first option, until the walk over
    # the free profiles picks another
    picked = [opts[0] for opts in options]
    free = [k for k, opts in enumerate(options) if len(opts) > 1]
    forced = ((1 << total) - 1) ^ sum(1 << k for k in free)
    if axis_gains(lot_codes(picked, lots), order.orders, strides, forced):
        return None
    free_set = set(free)

    def consistent(pos: int, k: int, digits: Sequence[int]) -> bool:
        for a, d in enumerate(digits):
            lot, rows, stride = lots[a], ranks[a], strides[a]
            here = lot[k]
            rank_here = rows[d]
            mine = rank_here[here]
            nb = pos - d * stride  # the profile where agent a reports 0
            for v, rank_there in enumerate(rows):
                # free profiles past pos have no option yet
                if v < d or v > d and nb not in free_set:
                    there = lot[picked[nb]]
                    if rank_here[there] < mine:
                        return False  # its report at nb would gain at this profile
                    if rank_there[here] < rank_there[there]:
                        return False  # its report here would gain at nb
                nb += stride
        return True

    chosen = [-1] * len(free)  # index into the options of free[at]
    at = 0
    while at < len(free):
        pos = free[at]
        opts = options[pos]
        digits = order.digits_at(pos)
        for opt_idx in range(chosen[at] + 1, len(opts)):
            if consistent(pos, opts[opt_idx], digits):
                chosen[at] = opt_idx
                picked[pos] = opts[opt_idx]
                at += 1
                break
        else:
            chosen[at] = -1
            at -= 1
            if at < 0:
                return None
    return picked


def _table_rule(domain: PreferenceDomain, picked: Sequence[int]) -> MatchingRule:
    """The stable rule that takes the matching numbered picked[k] at the
    domain's k-th profile, in product order. It finds a profile's index
    through the domain's lookups (`digits_of`) and raises PreconditionError
    for a profile outside the domain."""
    from .manipulation import MatchingRule

    name, strides = "stable-sp-table", domain.product_order().strides
    assignments, _, _ = market_shape(domain.p, domain.q)

    def assign(men_prefs: tuple, women_prefs: tuple) -> tuple:
        digits = domain.digits_of(men_prefs + women_prefs)
        if digits is None:
            raise PreconditionError(f"profile outside the table of rule {name!r}")
        return assignments[picked[sum(map(operator.mul, digits, strides))]]

    return MatchingRule(name, assign, stable=True)


def exists_stable_sp_rule(domain: PreferenceDomain, path: str = "auto") -> StableSpSearch:
    """Find a stable strategy-proof rule on the domain or certify none exists.

    With unrestricted top pairs on one side, only that side's proposing DA
    rule can qualify, so it is tested directly; otherwise a backtracking
    search over per-profile stable selections decides existence exactly.
    """
    from .manipulation import is_strategy_proof, mpda_rule, wpda_rule

    if path not in ("auto", "backtracking"):
        raise ValidationError(f"unknown path {path!r}")
    if path == "auto":
        for side, make_rule, shortcut in (
            (Side.MAN, mpda_rule, "shortcut-mpda"),
            (Side.WOMAN, wpda_rule, "shortcut-wpda"),
        ):
            if satisfies_unrestricted_top_pairs(domain, side):
                rule = make_rule()
                check = is_strategy_proof(rule, domain)
                if check:
                    return StableSpSearch(rule=rule, path=shortcut)
                return StableSpSearch(rule=None, path=shortcut, sp_witness=check.witness)
    picked = _backtracking_table(domain)
    if picked is None:
        return StableSpSearch(rule=None, path="backtracking")
    return StableSpSearch(_table_rule(domain, picked), "backtracking", domain=domain, picked=picked)


# --- the four-way equivalence ------------------------------------------------


@dataclass
class Theorem3Report:
    """Clause values of the four-way equivalence on one domain."""

    top_dominance: bool
    stable_sp_exists: bool
    stable_gsp_exists: bool
    da_stable_sp: bool
    details: dict = field(default_factory=dict)

    @property
    def clauses(self) -> tuple[bool, bool, bool, bool]:
        return (
            self.top_dominance,
            self.stable_sp_exists,
            self.stable_gsp_exists,
            self.da_stable_sp,
        )

    @property
    def equivalent(self) -> bool:
        return len(set(self.clauses)) == 1


def theorem3_equivalence_suite(
    domain: PreferenceDomain,
    men_line: PriorOrdering,
    women_line: PriorOrdering,
) -> Theorem3Report:
    """Evaluate all four clauses independently on an admissible domain.

    Preconditions: the domain is anonymous, single-peaked w.r.t. the given
    lines, and cyclically inclusive on both sides.
    """
    from .manipulation import is_group_strategy_proof, is_strategy_proof, mpda_rule, wpda_rule

    problems = []
    if not is_anonymous(domain):
        problems.append("not anonymous")
    if not domain_is_single_peaked(domain, men_line, women_line):
        problems.append("not single-peaked for the given lines")
    for side in (Side.MAN, Side.WOMAN):
        if not satisfies_cyclical_inclusion(domain, side):
            problems.append(f"cyclical inclusion fails for side {side.prefix}")
    if problems:
        raise PreconditionError("; ".join(problems))

    td_men = satisfies_top_dominance(domain, Side.MAN)
    td_women = satisfies_top_dominance(domain, Side.WOMAN)
    clause_a = bool(td_men) or bool(td_women)

    search = exists_stable_sp_rule(domain)
    clause_b = search.exists

    mpda, wpda = mpda_rule(), wpda_rule()
    mpda_sp = is_strategy_proof(mpda, domain)
    wpda_sp = is_strategy_proof(wpda, domain)
    clause_d = bool(mpda_sp) or bool(wpda_sp)

    # a stable group-strategy-proof rule can only be certified by exhibiting
    # one; candidates are the strategy-proof DA rules plus the search's rule
    gsp_results = {}
    clause_c = False
    candidates = []
    if mpda_sp:
        candidates.append(mpda)
    if wpda_sp:
        candidates.append(wpda)
    if search.rule is not None and search.path == "backtracking":
        candidates.append(search.rule)
    for rule in candidates:
        check = is_group_strategy_proof(rule, domain)
        gsp_results[rule.name] = bool(check)
        if check:
            clause_c = True
            break

    return Theorem3Report(
        top_dominance=clause_a,
        stable_sp_exists=clause_b,
        stable_gsp_exists=clause_c,
        da_stable_sp=clause_d,
        details={
            "td_men": bool(td_men),
            "td_women": bool(td_women),
            "td_men_violation": td_men.detail,
            "td_women_violation": td_women.detail,
            "search_path": search.path,
            "mpda_sp": bool(mpda_sp),
            "wpda_sp": bool(wpda_sp),
            "gsp_checks": gsp_results,
        },
    )
