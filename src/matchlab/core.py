"""One-to-one market primitives.

A market has p men and q women. Every agent holds a strict ranking of the
opposite side plus the outside option (staying unmatched, printed ``@``).
An outcome ranked above ``@`` is acceptable. A matching pairs up some men
and women mutually and injectively; it is stable when it is individually
rational and no man-woman pair prefers each other to their assignments.

Preferences store their ranking together with an inverse index, so every
comparison is O(1). All validation happens at construction, never at use.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import IntEnum
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import (
    DimensionMismatchError,
    SizeGuardError,
    UnknownOutcomeError,
    ValidationError,
)

MAX_ENUMERATION_SIDE = 6

# Defined here, not beside the code that uses them, so that the command
# line's parser and the domain checks can be loaded without importing that
# code; `manipulation` and `suites` re-export them.
DEFAULT_EVAL_BUDGET = 10_000_000
EXHAUSTIVE_PROFILE_BUDGET = 100_000
SUITE_IDS = (
    "theorem1",
    "prop-welfare",
    "prop-unmatched",
    "corollary-dubins",
    "prop-gsp-existence",
    "theorem2",
    "example1",
    "prop4",
    "theorem3",
    "blocking-lemma",
    "lemma-c1",
    "lemma-c2",
    "example2",
)


def size_guard(what: str, size: int, limit: int, count: Callable[[], str]) -> None:
    """Raise SizeGuardError when ``what`` needs more than ``limit`` agents per side.

    The message names ``count()`` only up to twice the limit: past that the
    count can take minutes to compute and have more digits than Python prints.
    """
    if size <= limit:
        return
    if size <= 2 * limit:
        raise SizeGuardError(f"{what} yields {count()}; the limit is {limit} agents per side")
    raise SizeGuardError(f"{what} is past the limit of {limit} agents per side")


class Side(IntEnum):
    MAN = 0
    WOMAN = 1

    @property
    def opposite(self) -> "Side":
        return Side.WOMAN if self is Side.MAN else Side.MAN

    @property
    def prefix(self) -> str:
        return "m" if self is Side.MAN else "w"


class AgentId(NamedTuple):
    side: Side
    index: int

    @property
    def name(self) -> str:
        return f"{self.side.prefix}{self.index + 1}"

    def __repr__(self) -> str:
        return self.name


class _Outside:
    """Singleton for the outside option."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "@"


OUTSIDE = _Outside()
Outcome = Union[AgentId, _Outside]


def man(index: int) -> AgentId:
    return AgentId(Side.MAN, index)


def woman(index: int) -> AgentId:
    return AgentId(Side.WOMAN, index)


def men(p: int) -> tuple[AgentId, ...]:
    return tuple(man(i) for i in range(p))


def women(q: int) -> tuple[AgentId, ...]:
    return tuple(woman(i) for i in range(q))


def outcome_key(x: Outcome) -> tuple[int, int]:
    """Deterministic sort key for the outcomes one agent ranks: agents of
    one side, of either market, by index; the outside option sorts last."""
    if x is OUTSIDE:
        return (1, 0)
    return (0, x.index)


class StrictOrder:
    """Strict linear order over hashable outcomes with O(1) rank lookup."""

    __slots__ = ("ranking", "_rank")

    def __init__(self, ranking: Iterable):
        self.ranking = tuple(ranking)
        rank: dict = {}
        for pos, x in enumerate(self.ranking):
            if x in rank:
                raise ValidationError(f"duplicate entry {x!r} in ranking")
            rank[x] = pos
        self._rank = rank

    def rank_of(self, x) -> int:
        try:
            return self._rank[x]
        except (KeyError, TypeError):
            raise UnknownOutcomeError(f"outcome {x!r} is not ranked") from None

    def __contains__(self, x) -> bool:
        try:
            return x in self._rank
        except TypeError:
            return False

    def prefers(self, x, y) -> bool:
        return self.rank_of(x) < self.rank_of(y)

    def weakly_prefers(self, x, y) -> bool:
        return self.rank_of(x) <= self.rank_of(y)

    def top(self):
        return self.ranking[0]


@functools.lru_cache(maxsize=32)
def _index_table(make: Callable[[int], Hashable], n: int) -> dict:
    """{make(i): i for i < n}: the first n agents of one kind, by index."""
    return {make(i): i for i in range(n)}


class Ranking(StrictOrder):
    """An owner's strict ranking of n agents of one kind plus ``@``.

    The ranked agents are make(0) .. make(n-1), where ``make`` is what the
    subclass's `_ranks` hook returns for the owner; n is inferred from the
    ranking's length. One walk of the ranking checks every entry and fills
    the rank dict, ``outside_rank``, ``acceptable_idx`` (the acceptable
    agents' indices, best first) and ``rank_by_index``. ``ranking_idx`` is
    derived on first use and kept.
    """

    __slots__ = ("owner", "outside_rank", "acceptable_idx", "rank_by_index", "_hash", "_ranking_idx")

    @staticmethod
    def _ranks(owner) -> Callable[[int], Hashable]:
        """The constructor of the agents ``owner`` ranks; ValidationError if
        ``owner`` may not hold this kind of ranking."""
        raise NotImplementedError

    def __init__(self, owner, ranking: Iterable):
        ranking = tuple(ranking)
        index_of = _index_table(self._ranks(owner), len(ranking) - 1)
        rank: dict = {}
        by_index = [-1] * len(index_of)
        acceptable = []
        outside_rank = -1
        for pos, x in enumerate(ranking):
            if x is OUTSIDE:
                if outside_rank >= 0:
                    break
                outside_rank = pos
            else:
                i = index_of.get(x)
                if i is None or by_index[i] >= 0:
                    break
                by_index[i] = pos
                if outside_rank < 0:
                    acceptable.append(i)
            rank[x] = pos
        else:
            # n + 1 distinct entries, each @ or one of the n agents, are all
            # of them unless the ranking is empty
            if outside_rank >= 0:
                self.owner = owner
                self.ranking = ranking
                self._rank = rank
                self.outside_rank = outside_rank
                self.acceptable_idx = tuple(acceptable)
                self.rank_by_index = tuple(by_index)
                self._hash = hash((owner, ranking))
                return
        raise ValidationError(_ranking_fault(owner, ranking, index_of))

    @property
    def n_opposite(self) -> int:
        return len(self.ranking) - 1

    @property
    def ranking_idx(self) -> tuple[int, ...]:
        """The ranking best first, each agent by its index and ``@`` by n."""
        try:
            return self._ranking_idx
        except AttributeError:
            n = len(self.rank_by_index)
            self._ranking_idx = tuple([n if x is OUTSIDE else x.index for x in self.ranking])
            return self._ranking_idx

    def acceptable(self) -> tuple:
        return self.ranking[: self.outside_rank]

    def is_acceptable(self, x) -> bool:
        return self.rank_of(x) < self.outside_rank

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Ranking):
            return NotImplemented
        return self.owner == other.owner and self.ranking == other.ranking

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.owner!r}: " + " ".join(repr(x) for x in self.ranking)


def _ranking_fault(owner, ranking: tuple, index_of: dict) -> str:
    """Why ``ranking`` is not a ranking of the agents in ``index_of`` plus ``@``."""
    if OUTSIDE not in ranking:
        return f"ranking of {owner!r} lacks the outside option"
    seen = set()
    for x in ranking:
        if x in seen:
            return f"duplicate entry {x!r} in the ranking of {owner!r}"
        if x is not OUTSIDE and x not in index_of:
            break
        seen.add(x)
    # a ranking holding @ and another entry expects at least one agent
    names = list(index_of)  # by index
    return f"ranking of {owner!r} contains {x!r:.40}; it must rank each of {names[0]!r}..{names[-1]!r} and @ exactly once"


class Preference(Ranking):
    """A marriage agent's strict ranking of the whole opposite side plus ``@``."""

    __slots__ = ()

    @staticmethod
    def _ranks(owner: AgentId) -> Callable[[int], AgentId]:
        if not isinstance(owner, AgentId):
            raise ValidationError(f"owner must be an AgentId, got {owner!r}")
        return woman if owner.side is Side.MAN else man


class Profile:
    """One preference per agent of a p-by-q market."""

    __slots__ = ("p", "q", "_men_prefs", "_women_prefs", "_hash")

    def __init__(self, preferences: Iterable[Preference]):
        by_agent: dict[AgentId, Preference] = {}
        for pref in preferences:
            if not isinstance(pref, Preference):
                raise ValidationError(f"expected Preference, got {pref!r}")
            if pref.owner in by_agent:
                raise ValidationError(f"duplicate preference for {pref.owner}")
            by_agent[pref.owner] = pref
        men_idx = sorted(a.index for a in by_agent if a.side is Side.MAN)
        women_idx = sorted(a.index for a in by_agent if a.side is Side.WOMAN)
        p, q = len(men_idx), len(women_idx)
        if p == 0 or q == 0:
            raise ValidationError("profile needs at least one agent per side")
        if men_idx != list(range(p)) or women_idx != list(range(q)):
            raise ValidationError("agent indices must be contiguous from 0")
        for a, pref in by_agent.items():
            expected = q if a.side is Side.MAN else p
            if pref.n_opposite != expected:
                raise ValidationError(
                    f"preference for {a} ranks {pref.n_opposite} opposite agents, market has {expected}"
                )
        self.p, self.q = p, q
        self._men_prefs = tuple(by_agent[man(i)] for i in range(p))
        self._women_prefs = tuple(by_agent[woman(j)] for j in range(q))
        self._hash = hash((self._men_prefs, self._women_prefs))

    @property
    def men_prefs(self) -> tuple[Preference, ...]:
        return self._men_prefs

    @property
    def women_prefs(self) -> tuple[Preference, ...]:
        return self._women_prefs

    @property
    def men(self) -> tuple[AgentId, ...]:
        return men(self.p)

    @property
    def women(self) -> tuple[AgentId, ...]:
        return women(self.q)

    @property
    def agents(self) -> tuple[AgentId, ...]:
        return self.men + self.women

    def __getitem__(self, agent: AgentId) -> Preference:
        if agent.side is Side.MAN:
            if 0 <= agent.index < self.p:
                return self._men_prefs[agent.index]
        else:
            if 0 <= agent.index < self.q:
                return self._women_prefs[agent.index]
        raise UnknownOutcomeError(f"no such agent {agent!r} in a {self.p}x{self.q} market")

    def replace(self, updates: Mapping[AgentId, Preference]) -> "Profile":
        """New profile with some agents' preferences swapped out."""
        for a, pref in updates.items():
            if pref.owner != a:
                raise ValidationError(f"update for {a} carries a preference owned by {pref.owner}")
        current = {pref.owner: pref for pref in self._men_prefs + self._women_prefs}
        current.update(updates)
        return Profile(current.values())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Profile):
            return NotImplemented
        return self._men_prefs == other._men_prefs and self._women_prefs == other._women_prefs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        lines = [repr(pref) for pref in self._men_prefs + self._women_prefs]
        return "Profile(" + "; ".join(lines) + ")"


class Matching:
    """Partial injective pairing between the two sides of a p-by-q market."""

    __slots__ = ("p", "q", "_woman_of", "_man_of", "_hash")

    def __init__(self, p: int, q: int, pairs: Iterable[tuple[AgentId, AgentId]]):
        woman_of: list = [None] * p
        man_of: list = [None] * q
        for m, w in pairs:
            if not (isinstance(m, AgentId) and m.side is Side.MAN and 0 <= m.index < p):
                raise ValidationError(f"bad man in pair: {m!r}")
            if not (isinstance(w, AgentId) and w.side is Side.WOMAN and 0 <= w.index < q):
                raise ValidationError(f"bad woman in pair: {w!r}")
            if woman_of[m.index] is not None:
                raise ValidationError(f"{m} appears in two pairs")
            if man_of[w.index] is not None:
                raise ValidationError(f"{w} appears in two pairs")
            woman_of[m.index] = w.index
            man_of[w.index] = m.index
        self.p, self.q = p, q
        self._woman_of = tuple(woman_of)
        self._man_of = tuple(man_of)
        self._hash = hash((p, q, self._woman_of))

    @classmethod
    def from_assignment(cls, p: int, q: int, woman_of: Sequence) -> "Matching":
        """Build from a per-man assignment of woman indices (None = unmatched)."""
        if len(woman_of) != p:
            raise ValidationError(f"assignment covers {len(woman_of)} men, market has {p}")
        # the checks of __init__ on the index tuple, with no AgentId built
        man_of: list = [None] * q
        for i, j in enumerate(woman_of):
            if j is None:
                continue
            if not 0 <= j < q:
                raise ValidationError(f"bad woman in pair: {woman(j)!r}")
            if man_of[j] is not None:
                raise ValidationError(f"{woman(j)} appears in two pairs")
            man_of[j] = i
        self = cls.__new__(cls)
        self.p, self.q = p, q
        self._woman_of = tuple(woman_of)
        self._man_of = tuple(man_of)
        self._hash = hash((p, q, self._woman_of))
        return self

    def partner(self, agent: AgentId) -> Outcome:
        """mu(agent): the partner, or OUTSIDE when unmatched."""
        if agent.side is Side.MAN and 0 <= agent.index < self.p:
            j = self._woman_of[agent.index]
            return OUTSIDE if j is None else woman(j)
        if agent.side is Side.WOMAN and 0 <= agent.index < self.q:
            i = self._man_of[agent.index]
            return OUTSIDE if i is None else man(i)
        raise UnknownOutcomeError(f"no such agent {agent!r} in a {self.p}x{self.q} matching")

    @property
    def assignment(self) -> tuple:
        return self._woman_of

    @property
    def inverse(self) -> tuple:
        """Each woman's partner index (None = unmatched)."""
        return self._man_of

    @property
    def pairs(self) -> tuple[tuple[AgentId, AgentId], ...]:
        return tuple(
            (man(i), woman(j)) for i, j in enumerate(self._woman_of) if j is not None
        )

    @property
    def unmatched(self) -> tuple[AgentId, ...]:
        loose = [man(i) for i, j in enumerate(self._woman_of) if j is None]
        loose += [woman(j) for j, i in enumerate(self._man_of) if i is None]
        return tuple(loose)

    @property
    def is_empty(self) -> bool:
        return all(j is None for j in self._woman_of)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Matching):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self._woman_of == other._woman_of

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inside = ", ".join(f"{m}-{w}" for m, w in self.pairs) or "(empty)"
        loose = self.unmatched
        tail = f" | unmatched: {' '.join(a.name for a in loose)}" if loose else ""
        return "{" + inside + tail + "}"


def _check_dims(matching: Matching, profile: Profile) -> None:
    if matching.p != profile.p or matching.q != profile.q:
        raise DimensionMismatchError(
            f"matching is {matching.p}x{matching.q}, profile is {profile.p}x{profile.q}"
        )


def is_individually_rational(matching: Matching, profile: Profile) -> bool:
    """No agent is matched to an unacceptable partner."""
    _check_dims(matching, profile)
    for i, j in enumerate(matching.assignment):
        if j is None:
            continue
        mp = profile.men_prefs[i]
        if mp.rank_by_index[j] > mp.outside_rank:
            return False
        wp = profile.women_prefs[j]
        if wp.rank_by_index[i] > wp.outside_rank:
            return False
    return True


def blocking_pairs(matching: Matching, profile: Profile) -> list[tuple[AgentId, AgentId]]:
    """All pairs who each prefer the other to their assignment, in (man, woman) lex order."""
    _check_dims(matching, profile)
    out = []
    man_of = [None] * profile.q
    for i, j in enumerate(matching.assignment):
        if j is not None:
            man_of[j] = i
    for i in range(profile.p):
        mp = profile.men_prefs[i]
        cur = matching.assignment[i]
        cur_rank = mp.outside_rank if cur is None else mp.rank_by_index[cur]
        for j in range(profile.q):
            if mp.rank_by_index[j] >= cur_rank:
                continue
            wp = profile.women_prefs[j]
            held = man_of[j]
            held_rank = wp.outside_rank if held is None else wp.rank_by_index[held]
            if wp.rank_by_index[i] < held_rank:
                out.append((man(i), woman(j)))
    return out


def is_stable(matching: Matching, profile: Profile) -> bool:
    _check_dims(matching, profile)
    return is_individually_rational(matching, profile) and not _blocked(
        matching.assignment, matching._man_of, profile.men_prefs, profile.women_prefs
    )


def count_matchings(p: int, q: int) -> int:
    """sum_k C(p,k) C(q,k) k! : closed form used as an oracle for the enumerator."""
    return sum(
        math.comb(p, k) * math.comb(q, k) * math.factorial(k)
        for k in range(min(p, q) + 1)
    )


def iter_assignments(p: int, q: int) -> Iterator[tuple[tuple, tuple]]:
    """Every matching of a p-by-q market as (assignment, inverse): each man's
    partner index and each woman's, None when unmatched. The order is by
    size, then men subset, then women subset, then pairing.

    Guarded for p, q <= MAX_ENUMERATION_SIDE.
    """
    if p < 1 or q < 1:
        raise ValidationError("market needs at least one agent per side")
    size_guard(
        f"enumerating a {p}x{q} market",
        max(p, q),
        MAX_ENUMERATION_SIDE,
        lambda: f"{count_matchings(p, q)} matchings",
    )
    for k in range(min(p, q) + 1):
        for men_sub in itertools.combinations(range(p), k):
            for women_sub in itertools.combinations(range(q), k):
                for perm in itertools.permutations(women_sub):
                    assignment: list = [None] * p
                    inverse: list = [None] * q
                    for i, j in zip(men_sub, perm):
                        assignment[i] = j
                        inverse[j] = i
                    yield tuple(assignment), tuple(inverse)


def enumerate_matchings(p: int, q: int) -> Iterator[Matching]:
    """Yield every matching of a p-by-q market in a fixed deterministic order.

    Guarded for p, q <= MAX_ENUMERATION_SIDE.
    """
    for assignment, _ in iter_assignments(p, q):
        yield Matching.from_assignment(p, q, assignment)


def stable_assignments(
    matchings: Iterable[tuple[tuple, tuple]],
    men_prefs: Sequence[Preference],
    women_prefs: Sequence[Preference],
) -> list[tuple[tuple, tuple]]:
    """The (assignment, inverse) pairs, in the order given, that are
    individually rational and have no blocking pair under the preferences."""
    stable = []
    for assignment, inverse in matchings:
        for i, j in enumerate(assignment):
            if j is not None:
                mp, wp = men_prefs[i], women_prefs[j]
                if mp.rank_by_index[j] > mp.outside_rank or wp.rank_by_index[i] > wp.outside_rank:
                    break
        else:
            if not _blocked(assignment, inverse, men_prefs, women_prefs):
                stable.append((assignment, inverse))
    return stable


def _blocked(assignment: tuple, inverse: tuple, men_prefs, women_prefs) -> bool:
    # the first blocking pair ends the scan; blocking_pairs lists them all
    for i, mp in enumerate(men_prefs):
        cur = assignment[i]
        cur_rank = mp.outside_rank if cur is None else mp.rank_by_index[cur]
        for j in mp.acceptable_idx:
            if mp.rank_by_index[j] >= cur_rank:
                break  # acceptable_idx is in preference order
            wp = women_prefs[j]
            held = inverse[j]
            if wp.rank_by_index[i] < (wp.outside_rank if held is None else wp.rank_by_index[held]):
                return True
    return False


def stable_set(profile: Profile) -> list[Matching]:
    """All stable matchings of the profile, in enumeration order. Never empty."""
    p, q = profile.p, profile.q
    stable = stable_assignments(iter_assignments(p, q), profile.men_prefs, profile.women_prefs)
    return [Matching.from_assignment(p, q, assignment) for assignment, _ in stable]


# --- outcome codes and gains over a product of report lists ------------------
#
# A product domain numbers its profiles by the dot product of their digit
# vectors (one report index per agent) with the strides, the last agent
# varying fastest. Sets of profiles are Python integers, bit k standing for
# profile k. An agent's lot is a small code at each profile: in a marriage
# market, its partner's index, or the other side's size when unmatched.

MAX_LOT_SIDE = 255  # codes are bytes, so neither side may be larger


def assignment_lots(p: int, q: int, assignments: Sequence[tuple]) -> list[tuple[int, ...]]:
    """lots[i][m]: the lot code of agent i, men first, in the p-by-q
    matching assignments[m], each man's partner index or None."""
    return [tuple([q if a[i] is None else a[i] for a in assignments]) for i in range(p)] + [
        tuple([a.index(j) if j in a else p for a in assignments]) for j in range(q)
    ]


@functools.lru_cache(maxsize=None)
def market_shape(p: int, q: int) -> tuple[tuple[tuple, ...], dict, list[tuple[int, ...]]]:
    """(assignments, index, lots) for every matching m of a p-by-q market,
    in `iter_assignments` order and under its guard: m as each man's partner
    index or None, m's number by assignment, and lots[i][m] from
    `assignment_lots`. Built once and shared (the guard passes at most 36
    shapes); callers must not change it."""
    assignments = tuple([assignment for assignment, _ in iter_assignments(p, q)])
    return assignments, {a: m for m, a in enumerate(assignments)}, assignment_lots(p, q, assignments)


class ListKeys:
    """The keys of a p-by-q market's profiles by acceptable lists, and the
    values remembered at them.

    A DA outcome, and a profile's set of stable matchings, depend on a
    report only through its acceptable list, the agents it ranks above the
    outside option in order; two profiles with the same lists share them,
    whatever domain each comes from. Each side numbers every list its
    agents can hold, the ordered selections of the other side's indices,
    shortest first (``numbers[i]`` for agent i, men first, in number
    order); a profile's key reads its agents' list numbers, in agent order,
    as the digits of one mixed-radix number below ``size``. So the keys of
    a product of lists come in its product order, and the product of every
    list, one report per list, holds every key in ascending order.

    `values` remembers one dict per kind of value, such as a DA engine's
    outcomes or the stable options, keyed by profile key and filled only
    by the callers that read it.
    """

    __slots__ = ("numbers", "size", "_memos")

    def __init__(self, p: int, q: int):
        per_side = []
        for n in (q, p):
            lists = itertools.chain.from_iterable(itertools.permutations(range(n), k) for k in range(n + 1))
            per_side.append({l: number for number, l in enumerate(lists)})
        self.numbers = (per_side[0],) * p + (per_side[1],) * q
        self.size = len(per_side[0]) ** p * len(per_side[1]) ** q
        self._memos: dict = {}

    def keys(self, lists: Sequence[Sequence[Preference]]) -> list[int]:
        """The key of every profile of the product of ``lists``, each
        agent's reports, in product order."""
        keys = [0]
        for l, number in zip(lists, self.numbers):
            digits = [number[pref.acceptable_idx] for pref in l]
            radix = len(number)
            keys = [k * radix + d for k in keys for d in digits]
        return keys

    def values(self, kind: Hashable, keys: Sequence[int], fill: Callable[[dict], None]) -> list:
        """The value of ``kind`` remembered at each of ``keys``, in order.
        When some key has none, ``fill(memo)`` first adds to the kind's
        memo, a dict from key to value, at least the missing keys."""
        memo = self._memos.setdefault(kind, {})
        try:
            return list(map(memo.__getitem__, keys))
        except KeyError:
            fill(memo)
            return list(map(memo.__getitem__, keys))


@functools.lru_cache(maxsize=None)
def list_keys(p: int, q: int) -> Optional[ListKeys]:
    """The shared `ListKeys` of a p-by-q market, or None when the market
    has more than EXHAUSTIVE_PROFILE_BUDGET keys. Kept for the process, so
    what its `values` remember is too."""
    # count the keys agent by agent, stopping past the budget
    size = 1
    for n in (q,) * p + (p,) * q:
        size *= sum(math.perm(n, k) for k in range(n + 1))
        if size > EXHAUSTIVE_PROFILE_BUDGET:
            return None
    return ListKeys(p, q)


def lot_codes(ids: Sequence[int], lots: Sequence[Sequence[int]]) -> list[bytes]:
    """Each agent's lot code at every profile, as bytes: ids[k] numbers the
    matching at profile k and lots[i][m] is agent i's code in matching m.

    With at most 256 matchings the numbers are bytes, and one `translate`
    per agent reads its codes; more matchings are looked up one by one.
    """
    if len(lots[0]) > 256:
        return [bytes(map(lot.__getitem__, ids)) for lot in lots]
    ids = bytes(ids)
    return [ids.translate(bytes(lot).ljust(256, b"\0")) for lot in lots]


def _axes(codes: Sequence[bytes], orders: Sequence, strides: Sequence[int], mask: int) -> Iterator[tuple]:
    """Yield the setup that `axis_gains` and `gain_sets` share for each agent
    i with more than one report, in order: (i, orders[i], strides[i],
    same(i, 0), {c: L(i, c) & mask}). An agent with one report never deviates."""
    full = (1 << len(codes[0])) - 1
    for i, (ranked, stride) in enumerate(zip(orders, strides)):
        if len(ranked) > 1:
            # same(i, 0): the first `stride` profiles of every period of the
            # digit; same(i, d) is that shifted by d strides
            first = ((1 << stride) - 1) * (full // ((1 << stride * len(ranked)) - 1))
            # int() reads the most significant digit first: reversed, profile k
            # lands on bit k
            backwards = codes[i][::-1]
            yield i, ranked, stride, first, {
                c: int(backwards.translate(b"0" * c + b"1" + b"0" * (255 - c)), 2) & mask for c in ranked[0]
            }


def axis_gains(
    codes: Sequence[bytes],
    orders: Sequence[Sequence[Sequence[int]]],
    strides: Sequence[int],
    mask: int,
) -> int:
    """The profiles x in `mask` at which some agent i strictly gains, by its
    report at x, from switching to another report alone, when the profile
    it lands on is also in `mask`.

    codes[i][k] is agent i's lot code at profile k, and orders[i][d] lists
    the codes best first by agent i's d-th report, so agent i has
    len(orders[i]) reports. Agent i's deviations from x are the profiles
    on its axis line through x, which differ from x in digit i alone.

    With same(i, d) the profiles where i reports d and L(i, c) those where
    its lot is c, the answer is the OR over agents, reports d and codes c
    of same(i, d) & L(i, c) & spread(L(i, c')) over the codes c' that
    report d ranks above c. spread(S) holds every profile whose axis line
    meets S: the digit blocks of S are folded onto digit 0, then copied to
    every digit by one multiplication. No profile is visited one by one.
    """
    gains = 0
    for _, ranked, stride, first, sets in _axes(codes, orders, strides, mask):
        n = len(ranked)
        # copies a set of digit-0 profiles to all n digits of their lines
        copies = ((1 << stride * n) - 1) // ((1 << stride) - 1)
        spreads = {}
        for c, s in sets.items():
            folded = s & first
            for e in range(1, n):
                folded |= s >> e * stride & first
            spreads[c] = folded * copies
        for d, order in enumerate(ranked):
            above = hits = 0
            for c in order:
                hits |= sets[c] & above
                above |= spreads[c]
            gains |= hits & first << d * stride
    return gains


def gain_sets(
    codes: Sequence[bytes],
    orders: Sequence[Sequence[Sequence[int]]],
    strides: Sequence[int],
) -> Callable[[Sequence[int], int], int]:
    """Return `reachable(digits, key)`: the bitset (bit k for profile k) of
    the profiles y to which the base x with these digits and this index can
    deviate so that every agent whose report differs strictly gains by its
    report at x. It always holds x itself.

    `codes`, `orders` and `strides` are as `axis_gains` takes them. The set
    is the AND over agents i of same(i, x_i) | better(i, x_i, lot_i(x)):
    the profiles where i reports x_i, or where i gets a lot that x_i ranks
    above its lot at x. A coalition walk needs this set base by base; a
    single agent's gains are read for every base at once by `axis_gains`.
    """
    full = (1 << len(codes[0])) - 1
    axes = []
    for i, ranked, stride, first, sets in _axes(codes, orders, strides, full):
        # better(i, d, c) ORs the lots that list d ranks above c; the lists
        # share one OR per set of codes, so an agent keeps at most
        # 2 ** (number of codes) of them however many lists it has
        unions = {0: 0}
        rows = []
        for order in ranked:
            row = {}
            above = 0
            for c in order:
                row[c] = unions[above]
                grown = above | 1 << c
                if grown not in unions:
                    unions[grown] = unions[above] | sets[c]
                above = grown
            rows.append(row)
        axes.append((i, stride, first, rows, codes[i]))

    def reachable(digits: Sequence[int], key: int) -> int:
        w = full
        for i, stride, first, rows, lots in axes:
            w &= first << digits[i] * stride | rows[digits[i]][lots[key]]
        return w

    return reachable
