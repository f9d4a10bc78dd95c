"""Deferred acceptance: a fast one-to-one engine and a traced round engine.

`_sequential_da` is the one-proposal-at-a-time form of McVitie & Wilson
(BIT 11, 1971): a free proposer proposes to the best receiver not yet
tried, and a receiver who ranks the newcomer above the proposer it holds
(or above staying unmatched) keeps the newcomer and frees the one it held.
The outcome does not depend on the order in which proposers enter. It is
the one untraced engine; it reads index arrays only, the proposers' lists
of receivers' slots and the receivers' `rank_row`s, and holds in place,
with each proposer's count of receivers tried in `next_choice`. A full run
enters every proposer from a fresh state; a warm start (`_warm_start`)
runs once without one proposer's list and then enters that proposer alone
into a copy of the state for each of its reports, so each report costs
only its own chain of rejections. `da_assignment` (so `da_matching`) and
`_traced_rule` run it once (`_one_shot`) on the proposers' lists and the
receivers' rows as the reports hold them. The scans and the certification
tables reach it through an engine on report views, whose evaluation
returns a fresh lot vector in `core.assignment_lots`' code and whose
insertion function warm-starts it for one proposer's reports; both are
gain first, returning None unless a given agent's lot, read from the
kernel's state, ranks above a bar: a
marriage market's `_view_engine`, and a college market's `mto._spda_engine`
on the seats of the seat market that college stability is judged on
(`mto._seat_ranges`).

The engine trusts the shape of what it is given: position i holds agent
i's report, sized for the other side. That shape is checked where reports
enter from outside: `da_assignment` (so `MatchingRule.assignment` of a DA
rule), the `Profile` constructor and the `ProductDomain` constructor; the
scans and certifications take every report from a domain.

`_da_rounds` is the simultaneous-round form (Gale & Shapley, 1962) with
receiver quotas: in each step every free proposer with an untried
acceptable partner proposes to the best one remaining, and every receiver
keeps the best acceptable proposals in hand up to its quota (those it holds
count as standing proposals). Rejected proposers propose again in the next
step; the run ends when a step has no proposals or no rejections. It yields
each step's index pairs and holdings as it goes and serves traced runs
through `_traced_da`: `_traced_rule` runs it with quota 1 per receiver, for
`run_da`'s steps and for the trace lines `formats.da_trace_writer` renders
from the index pairs, and `mto.run_spda` with the college quotas. Both forms
give the proposer-optimal stable matching, so `_traced_da` checks that the
last step holds the untraced engine's outcome; each is the other's oracle.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .core import (
    AgentId,
    Matching,
    Preference,
    Profile,
    Side,
    men,
    stable_set,
    women,
)
from .errors import ValidationError


class RuleId(Enum):
    MPDA = "mpda"  # men propose
    WPDA = "wpda"  # women propose


class DaStep(NamedTuple):
    """One simultaneous round: who proposed to whom, who got rejected by whom."""

    number: int
    proposals: tuple[tuple[AgentId, AgentId], ...]
    rejections: tuple[tuple[AgentId, AgentId], ...]
    tentative: Matching


class DaTrace(NamedTuple):
    rule: RuleId
    steps: tuple[DaStep, ...]

    @property
    def final(self) -> Matching:
        return self.steps[-1].tentative


def _da_rounds(lists: Sequence, rows: Sequence, quotas: Sequence) -> Iterator[tuple]:
    """Simultaneous-round engine: yield each round as (proposals, rejections,
    holding).

    lists[i] is proposer i's acceptable receivers, best first; rows[r] is
    receiver r's `rank_row` and quotas[r] how many proposers it may hold.
    proposals and rejections are (proposer, receiver) index pairs, holding
    each receiver's kept proposers after the round as a sorted tuple. An
    empty proposal list only appears in a lone first round.
    """
    next_choice = [0] * len(lists)
    held: list[tuple] = [()] * len(quotas)
    active = range(len(lists))
    while True:
        proposals = []
        by_receiver: dict[int, list[int]] = {}
        for i in active:
            k, lst = next_choice[i], lists[i]
            if k < len(lst):
                r = lst[k]
                next_choice[i] = k + 1
                proposals.append((i, r))
                if r in by_receiver:
                    by_receiver[r].append(i)
                else:
                    by_receiver[r] = [i]
        rejections = []
        for r in sorted(by_receiver):
            rank = rows[r]
            bar = rank[-1]
            pool = [*by_receiver[r], *held[r]]
            if quotas[r] == 1:
                # one seat: the best of the pool, if acceptable, needs no sort
                best = min(pool, key=rank.__getitem__)
                kept = [best] if rank[best] < bar else []
                rest = [i for i in pool if i != best] if kept else pool
            else:
                pool.sort(key=rank.__getitem__)
                # unacceptable proposers sort last and are never held
                kept = [i for i in pool[: quotas[r]] if rank[i] < bar]
                rest = pool[len(kept) :]
            held[r] = tuple(sorted(kept))
            if rest:
                rejections += [(i, r) for i in sorted(rest)]
        yield proposals, rejections, tuple(held)
        if not proposals:
            return
        active = sorted([i for i, _ in rejections if next_choice[i] < len(lists[i])])
        if not active:
            return


def _traced_da(
    proposer_prefs: Sequence, receiver_prefs: Sequence, quotas: Sequence, step: Callable, outcome: tuple
) -> tuple:
    """Run `_da_rounds` on the proposers' acceptable lists and the receivers'
    rank rows; return step(number, proposals, rejections, holding) of each
    round. outcome is what the untraced engine holds, each receiver's sorted
    proposer indices; a last holding that differs raises RuntimeError."""
    lists = [pref.acceptable_idx for pref in proposer_prefs]
    rounds = _da_rounds(lists, [pref.rank_row for pref in receiver_prefs], quotas)
    steps = []
    for number, (proposals, rejections, holding) in enumerate(rounds, start=1):
        steps.append(step(number, proposals, rejections, holding))
    if holding != outcome:
        raise RuntimeError(f"traced rounds end on {holding}, the untraced engine holds {outcome}")
    return tuple(steps)


def _one_shot(rule: RuleId, men_prefs: Sequence, women_prefs: Sequence) -> tuple[Sequence, Sequence, list]:
    """(proposer_prefs, receiver_prefs, held) of one untraced run of the rule:
    `_sequential_da` on the proposers' `acceptable_idx` and the receivers'
    rank rows, with held[r] the index of the proposer receiver r holds, or
    the proposer count. The proposers are the men under MPDA and the women
    under WPDA."""
    if rule is RuleId.MPDA:
        proposer_prefs, receiver_prefs = men_prefs, women_prefs
    elif rule is RuleId.WPDA:
        proposer_prefs, receiver_prefs = women_prefs, men_prefs
    else:
        raise ValidationError(f"unknown rule {rule!r}")
    n = len(proposer_prefs)
    held = [n] * len(receiver_prefs)
    lists = [pref.acceptable_idx for pref in proposer_prefs]
    _sequential_da(lists, [pref.rank_row for pref in receiver_prefs], held, [0] * n, range(n))
    return proposer_prefs, receiver_prefs, held


def _traced_rule(rule: RuleId, profile: Profile, step: Callable) -> tuple:
    """`_traced_da` of the rule on the profile, one receiver seat each,
    checked against `_one_shot`'s untraced outcome. `run_da` builds its
    steps through it, and `solve --trace` its trace lines
    (`formats.da_trace_writer`)."""
    proposer_prefs, receiver_prefs, held = _one_shot(rule, profile.men_prefs, profile.women_prefs)
    n = len(proposer_prefs)
    outcome = tuple([(i,) if i < n else () for i in held])
    return _traced_da(proposer_prefs, receiver_prefs, [1] * len(receiver_prefs), step, outcome)


def _sequential_da(lists: Sequence, rows: Sequence, held: list, next_choice: list, entrants: Iterable) -> None:
    """McVitie-Wilson engine. lists[i] is proposer i's acceptable receivers,
    best first, as slots; next_choice[i] how many of them i has tried. rows[r]
    is the `rank_row` of the receiver at slot r and held[r], preset to the
    proposer count n (the unmatched code), ends as the proposer index r
    holds, or n. Each of the entrants in turn proposes down its list; a
    displaced proposer resumes from next_choice. No other slot is read or
    written. A full run starts from [0] * n and enters range(n); a state it
    leaves can take further entrants, whose lists it has not tried yet."""
    n = len(lists)
    for start in entrants:
        i = start
        while i < n:
            lst = lists[i]
            k = next_choice[i]
            end = len(lst)
            while k < end:
                r = lst[k]
                k += 1
                row = rows[r]
                # row[n] is r's rank of staying alone while it holds no one
                if row[i] < row[held[r]]:
                    next_choice[i] = k
                    # i is held now; whoever r held before proposes next
                    i, held[r] = held[r], i
                    break
            else:
                i = n


def _held_lot(lst: Sequence, k: int, held: list, j: int, codes: Sequence, unmatched: int) -> int:
    """Proposer j's lot code in a state `_sequential_da` left, lst being
    j's list and k its next_choice: codes[r] of the slot r = lst[k - 1] it
    was last held by, while r still holds it, else unmatched."""
    return codes[lst[k - 1]] if k and held[lst[k - 1]] == j else unmatched


def _warm_start(
    views: list, i: int, proposers: range, rows: Sequence, held: list, codes: Sequence, lots_of: Callable
) -> Callable:
    """A warm start of `_sequential_da` for agent i, one of the proposers
    whose lists sit at `proposers` of the views: it copies their lists, runs
    once with i's list empty into `held` and keeps the state. Each call of
    the callable it returns takes a view of i's report, enters i alone with
    it into a copy of the state, so only i's proposal chain runs (the
    outcome does not depend on the order of entry), and returns
    lots_of(held) of the copy; the views are neither changed nor kept.

    Gain first: given i's rank row by lot code and a bar, the call returns
    None, without running lots_of, unless i ranks its lot strictly above
    the bar. i's lot is read from the copy (`_held_lot`), unmatched being
    the rank row's last code."""
    lists, j = views[proposers.start : proposers.stop], i - proposers.start
    lists[j] = ()
    next_choice = [0] * len(lists)
    _sequential_da(lists, rows, held, next_choice, range(len(lists)))

    def evaluate_with(viewed, rank: Optional[Sequence] = None, bar: int = 0) -> Optional[list]:
        lists[j] = viewed
        lots, choice = held.copy(), next_choice.copy()
        _sequential_da(lists, rows, lots, choice, (j,))
        if rank is not None and rank[_held_lot(viewed, choice[j], lots, j, codes, -1)] >= bar:
            return None
        return lots_of(lots)

    return evaluate_with


def _check_side(prefs: tuple, side: Side, n_opposite: int) -> None:
    """O(len(prefs)) shape check: prefs[i] is agent i's Preference over a
    market with n_opposite agents on the other side."""
    if not prefs:
        raise ValidationError("profile needs at least one agent per side")
    for i, pref in enumerate(prefs):
        if not isinstance(pref, Preference):
            raise ValidationError(f"expected Preference, got {pref!r}")
        owner_side, owner_index = pref.owner
        if owner_side is not side or owner_index != i:
            raise ValidationError(f"preference of {pref.owner} sits at {side.prefix}{i + 1}'s position")
        if len(pref._index_of) != n_opposite + 1:
            raise ValidationError(
                f"preference for {pref.owner} ranks {pref.n_opposite} opposite agents, market has {n_opposite}"
            )


def _view_engine(rule: RuleId, p: int, q: int) -> tuple[Callable, Callable, Callable, range]:
    """(view, evaluate, insert, proposers) of the rule on a p-by-q market: a
    report's view is its `rank_row` if its owner receives, else its
    acceptable list of the receivers' positions in the views (a woman's is
    her index plus p). evaluate(views), men first, runs `_sequential_da` in
    a fresh copy of the lot template [q] * p + [p] * q, writes the
    proposers' lots from the receivers' slots and returns it
    (`core.assignment_lots`). proposers holds the view slots of the
    proposers' reports, and for i among them insert(views, i) is a
    `_warm_start`: a callable that evaluates the views with i's view
    replaced by the one it is given. The one untraced DA evaluation of the
    scans and the tables.

    Gain first: evaluate(views, i, rank, bar) returns None, without writing
    the proposers' lots, unless agent i ranks its lot strictly above the
    bar by its rank row; a receiver's lot is its held slot, a proposer's
    the receiver it last proposed to, while that receiver still holds it.
    The insertion callable takes the rank row and bar after the view."""
    if rule is RuleId.MPDA:
        proposers, first, receivers, k, offset, shift = Side.MAN, slice(None, p), range(p, p + q), p, 0, p
    elif rule is RuleId.WPDA:
        proposers, first, receivers, k, offset, shift = Side.WOMAN, slice(p, None), range(p), q, p, 0
    else:
        raise ValidationError(f"unknown rule {rule!r}")
    template = [q] * p + [p] * q
    entrants, positions = range(k), range(offset, offset + k)  # the proposers' indices and view slots
    codes = range(-shift, p + q - shift)  # a receiver's slot to its lot code

    def view(pref: Preference):
        if pref.owner.side is not proposers:
            return pref.rank_row
        return tuple([shift + j for j in pref.acceptable_idx]) if shift else pref.acceptable_idx

    def lots_of(lots: list) -> list:
        for r in receivers:
            i = lots[r]
            if i < k:
                lots[offset + i] = r - shift
        return lots

    def evaluate(views: Sequence, i: Optional[int] = None, rank: Sequence = (), bar: int = 0) -> Optional[list]:
        lots, choice, lists = template.copy(), [0] * k, views[first]
        _sequential_da(lists, views, lots, choice, entrants)
        if i is not None:
            # a proposer's slot still holds the unmatched code
            j = i - offset
            lot = _held_lot(lists[j], choice[j], lots, j, codes, lots[i]) if 0 <= j < k else lots[i]
            if rank[lot] >= bar:
                return None
        return lots_of(lots)

    def insert(views: list, i: int) -> Callable:
        return _warm_start(views, i, positions, views.copy(), template.copy(), codes, lots_of)

    return view, evaluate, insert, positions


def _assignment(lots: Sequence, p: int, q: int) -> tuple:
    """Each of the p men's partner index (None = unmatched) in a lot vector."""
    return tuple([None if j == q else j for j in lots[:p]])


def da_assignment(rule: RuleId, men_prefs: tuple, women_prefs: tuple) -> tuple:
    """The DA outcome as a per-man tuple of woman indices (None = unmatched).

    men_prefs[i] must be the preference of man i and women_prefs[j] that of
    woman j; a malformed shape raises ValidationError.
    """
    p, q = len(men_prefs), len(women_prefs)
    _check_side(men_prefs, Side.MAN, q)
    _check_side(women_prefs, Side.WOMAN, p)
    _, _, held = _one_shot(rule, men_prefs, women_prefs)
    if rule is RuleId.WPDA:
        return _assignment(held, p, q)
    woman_of = [None] * p
    for j, i in enumerate(held):
        if i < p:
            woman_of[i] = j
    return tuple(woman_of)


def da_matching(rule: RuleId, profile: Profile) -> Matching:
    assignment = da_assignment(rule, profile.men_prefs, profile.women_prefs)
    return Matching.from_assignment(profile.p, profile.q, assignment)


def run_da(rule: RuleId, profile: Profile) -> tuple[Matching, DaTrace]:
    """Run deferred acceptance and keep the whole round-by-round trace."""
    p, q = profile.p, profile.q
    proposers, receivers = (men(p), women(q)) if rule is RuleId.MPDA else (women(q), men(p))

    def step(number: int, proposals: list, rejections: list, holding: tuple) -> DaStep:
        if rule is RuleId.WPDA:
            woman_of = [kept[0] if kept else None for kept in holding]
        else:
            woman_of = [None] * p
            for r, kept in enumerate(holding):
                for i in kept:
                    woman_of[i] = r
        return DaStep(
            number=number,
            proposals=tuple([(proposers[i], receivers[r]) for i, r in proposals]),
            rejections=tuple([(proposers[i], receivers[r]) for i, r in rejections]),
            tentative=Matching.from_assignment(p, q, woman_of),
        )

    trace = DaTrace(rule=rule, steps=_traced_rule(rule, profile, step))
    return trace.final, trace


def replay_trace(trace: DaTrace, p: int, q: int) -> Matching:
    """Reconstruct the outcome from proposals and rejections alone."""
    holding: dict[AgentId, set[AgentId]] = {}
    for step in trace.steps:
        for proposer, target in step.proposals:
            holding.setdefault(target, set()).add(proposer)
        for rejected, rejecting in step.rejections:
            holding.setdefault(rejecting, set()).discard(rejected)
    pairs = []
    for target, kept in holding.items():
        if len(kept) > 1:
            raise ValidationError(f"trace leaves {target} holding {len(kept)} proposals")
        for proposer in kept:
            pairs.append((proposer, target) if proposer.side is Side.MAN else (target, proposer))
    return Matching(p, q, pairs)


def proposer_optimality_check(rule: RuleId, profile: Profile) -> bool:
    """True when the DA outcome weakly tops every stable matching for each proposer."""
    outcome = da_matching(rule, profile)
    side_agents = profile.men if rule is RuleId.MPDA else profile.women
    for mu in stable_set(profile):
        for a in side_agents:
            if not profile[a].weakly_prefers(outcome.partner(a), mu.partner(a)):
                return False
    return True
