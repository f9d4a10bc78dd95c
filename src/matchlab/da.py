"""Deferred acceptance: a fast one-to-one engine and a traced round engine.

`_sequential_da` is the one-proposal-at-a-time form of McVitie & Wilson
(BIT 11, 1971): a free proposer proposes to the best receiver not yet
tried, and a receiver who ranks the newcomer above the proposer it holds
(or above staying unmatched) keeps the newcomer and frees the one it held.
The outcome does not depend on the order of proposals. It is the one
untraced engine; it reads index arrays only, the proposers' lists of
receivers' slots and the receivers' `rank_row`s, and holds in place. Each
market reaches it through one evaluation on report views that returns a
fresh lot vector in `core.assignment_lots`' code: a marriage market through
`_view_engine`, which serves `da_assignment` (so `da_matching`), the scans
and the certification tables, and a college market through
`mto._spda_engine` on the seats of the seat market that college stability
is judged on (`mto._seat_ranges`).

The engine trusts the shape of what it is given: position i holds agent
i's report, sized for the other side. That shape is checked where reports
enter from outside: `da_assignment` (so `MatchingRule.assignment` of a DA
rule), the `Profile` constructor and the `ProductDomain` constructor; the
scans and certifications take every report from a domain.

`_da_engine` is the simultaneous-round form (Gale & Shapley, 1962) with
receiver quotas: in each step every free proposer with an untried
acceptable partner proposes to the best one remaining, and every receiver
keeps the best acceptable proposals in hand up to its quota (those it holds
count as standing proposals). Rejected proposers propose again in the next
step; the run ends when a step has no proposals or no rejections. It serves
traced runs through `_traced_da`, which replays its rounds with
`_tentative_holdings` and checks that the replay ends on what the engine
holds: `_traced_rule` runs it with quota 1 per receiver, for `run_da`'s
steps and for the trace lines `formats.da_trace_writer` renders from the
index pairs, and `mto.run_spda` with the college quotas. Both forms give
the proposer-optimal stable matching, so each is the other's oracle.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterator, NamedTuple, Sequence

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


def _da_engine(lists: Sequence, rows: Sequence, quotas: Sequence) -> tuple[list, list]:
    """Index-level engine. Returns (held, rounds).

    lists[i] is proposer i's acceptable receivers, best first; rows[r] is
    receiver r's `rank_row` and quotas[r] how many proposers it may hold.
    held[r] lists the proposers r keeps, best first. rounds is a list of
    (proposals, rejections) with (proposer, receiver) index pairs, one
    entry per executed step; empty proposal lists only appear in a lone
    first step.
    """
    next_choice = [0] * len(lists)
    held: list[list[int]] = [[] for _ in quotas]
    active = range(len(lists))
    rounds = []
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
            pool = by_receiver[r] + held[r]
            if len(pool) > 1:
                pool.sort(key=rank.__getitem__)
            # unacceptable proposers sort last and are never held
            kept = [i for i in pool[: quotas[r]] if rank[i] < bar]
            held[r] = kept
            if len(kept) < len(pool):
                rejections += [(i, r) for i in sorted(pool[len(kept) :])]
        rounds.append((proposals, rejections))
        if not proposals:
            break
        active = sorted([i for i, _ in rejections if next_choice[i] < len(lists[i])])
        if not active:
            break
    return held, rounds


def _tentative_holdings(rounds: list, held: list) -> Iterator[tuple]:
    """Replay the engine's rounds: yield each one's proposals and rejections
    with every receiver's tentative holding after it, as a sorted tuple of
    proposer indices. Raises RuntimeError when the replay does not end on
    the engine's held lists."""
    snapshot = [()] * len(held)
    for proposals, rejections in rounds:
        pools: dict[int, list[int]] = {}
        for i, r in proposals:
            if r in pools:
                pools[r].append(i)
            else:
                pools[r] = [*snapshot[r], i]
        # only receivers proposed to in a round reject in it, so only they change
        for i, r in rejections:
            pools[r].remove(i)
        for r, pool in pools.items():
            pool.sort()
            snapshot[r] = tuple(pool)
        yield proposals, rejections, tuple(snapshot)
    final = [tuple(sorted(kept)) for kept in held]
    if snapshot != final:
        raise RuntimeError(f"trace replays to {tuple(snapshot)}, engine holds {tuple(final)}")


def _traced_da(proposer_prefs: Sequence, receiver_prefs: Sequence, quotas: Sequence, step: Callable) -> tuple:
    """Run `_da_engine` on the proposers' acceptable lists and the receivers'
    rank rows; return one step per round, step(number, proposals, rejections,
    holding) of the round's index pairs and its `_tentative_holdings` replay,
    which checks that the last step's holding is the engine's outcome."""
    lists = [pref.acceptable_idx for pref in proposer_prefs]
    held, rounds = _da_engine(lists, [pref.rank_row for pref in receiver_prefs], quotas)
    return tuple([step(n, *replayed) for n, replayed in enumerate(_tentative_holdings(rounds, held), start=1)])


def _traced_rule(rule: RuleId, profile: Profile, step: Callable) -> tuple:
    """`_traced_da` of the rule on the profile, one receiver seat each: the
    proposers are the men under MPDA and the women under WPDA. `run_da`
    builds its steps through it, and `solve --trace` its trace lines
    (`formats.da_trace_writer`)."""
    if not isinstance(rule, RuleId):
        raise ValidationError(f"unknown rule {rule!r}")
    proposer_prefs, receiver_prefs = profile.men_prefs, profile.women_prefs
    if rule is RuleId.WPDA:
        proposer_prefs, receiver_prefs = receiver_prefs, proposer_prefs
    return _traced_da(proposer_prefs, receiver_prefs, [1] * len(receiver_prefs), step)


def _sequential_da(lists: Sequence, rows: Sequence, held: list) -> None:
    """McVitie-Wilson engine. lists[i] is proposer i's acceptable receivers,
    best first, as slots; rows[r] is the `rank_row` of the receiver at slot
    r and held[r], preset to the proposer count n (the unmatched code), ends
    as the proposer index r holds, or n. No other slot is read or written."""
    n = len(lists)
    next_choice = [0] * n
    for start in range(n):
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


def _view_engine(rule: RuleId, p: int, q: int) -> tuple[Callable, Callable]:
    """(view, evaluate) of the rule on a p-by-q market: a report's view is
    its `rank_row` if its owner receives, else its acceptable list of the
    receivers' positions in the views (a woman's is her index plus p).
    evaluate(views), men first, runs `_sequential_da` in a fresh copy of the
    lot template [q] * p + [p] * q, writes the proposers' lots from the
    receivers' slots and returns it (`core.assignment_lots`). The one
    untraced DA evaluation: of `da_assignment`, the scans and the tables."""
    if rule is RuleId.MPDA:
        proposers, first, receivers, k, offset, shift = Side.MAN, slice(None, p), range(p, p + q), p, 0, p
    elif rule is RuleId.WPDA:
        proposers, first, receivers, k, offset, shift = Side.WOMAN, slice(p, None), range(p), q, p, 0
    else:
        raise ValidationError(f"unknown rule {rule!r}")
    template = [q] * p + [p] * q

    def view(pref: Preference):
        if pref.owner.side is not proposers:
            return pref.rank_row
        return tuple([shift + j for j in pref.acceptable_idx]) if shift else pref.acceptable_idx

    def evaluate(views: Sequence) -> list:
        lots = template.copy()
        _sequential_da(views[first], views, lots)
        for r in receivers:
            i = lots[r]
            if i < k:
                lots[offset + i] = r - shift
        return lots

    return view, evaluate


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
    view, evaluate = _view_engine(rule, p, q)
    return _assignment(evaluate([*map(view, men_prefs), *map(view, women_prefs)]), p, q)


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
