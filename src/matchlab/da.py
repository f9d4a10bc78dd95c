"""Deferred acceptance for one-to-one markets: a fast engine and a traced one.

Untraced evaluations go through `da_assignment`, the one-proposal-at-a-time
form of McVitie & Wilson (BIT 11, 1971): a free proposer proposes to the
best receiver not yet tried, and a receiver who ranks the newcomer above
the proposer it holds (or above staying unmatched) keeps the newcomer and
frees the one it held. The outcome does not depend on the order of
proposals.

`run_da` keeps the simultaneous-round form with its full trace: in each
step every currently free proposer who still has an untried acceptable
partner proposes to the best one remaining, and every receiver tentatively
keeps the best acceptable proposal in hand (the tentative partner counts as
a standing proposal). Rejected proposers re-enter the pool for the next
step. The run ends when a step produces no proposals or no rejections. Both
forms give the proposer-optimal stable matching, so each is the other's
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import (
    AgentId,
    Matching,
    Preference,
    Profile,
    Side,
    man,
    stable_set,
    woman,
)
from .errors import ValidationError


class RuleId(Enum):
    MPDA = "mpda"  # men propose
    WPDA = "wpda"  # women propose

    @property
    def proposer_side(self) -> Side:
        return Side.MAN if self is RuleId.MPDA else Side.WOMAN


@dataclass(frozen=True)
class DaStep:
    """One simultaneous round: who proposed to whom, who got rejected by whom."""

    number: int
    proposals: tuple[tuple[AgentId, AgentId], ...]
    rejections: tuple[tuple[AgentId, AgentId], ...]
    tentative: Matching


@dataclass(frozen=True)
class DaTrace:
    rule: RuleId
    steps: tuple[DaStep, ...]

    @property
    def final(self) -> Matching:
        return self.steps[-1].tentative


def _da_engine(
    proposer_prefs: tuple[Preference, ...],
    receiver_prefs: tuple[Preference, ...],
) -> tuple[list, list]:
    """Index-level engine. Returns (held, rounds).

    held[r] is the proposer index tentatively kept by receiver r, or -1.
    rounds is a list of (proposals, rejections) with index pairs, one entry
    per executed step; empty proposal lists only appear in a lone first step.
    """
    n_prop = len(proposer_prefs)
    lists = [pref.acceptable_idx for pref in proposer_prefs]
    next_choice = [0] * n_prop
    held = [-1] * len(receiver_prefs)
    active = list(range(n_prop))
    rounds = []
    while True:
        proposals = []
        by_receiver: dict[int, list[int]] = {}
        for i in active:
            lst = lists[i]
            if next_choice[i] < len(lst):
                r = lst[next_choice[i]]
                next_choice[i] += 1
                proposals.append((i, r))
                by_receiver.setdefault(r, []).append(i)
        rejections = []
        for r in sorted(by_receiver):
            pool = by_receiver[r]
            if held[r] >= 0:
                pool = pool + [held[r]]
            rp = receiver_prefs[r]
            ranks = rp.rank_by_index
            best = -1
            best_rank = rp.outside_rank  # unacceptable proposers never get held
            for i in pool:
                if ranks[i] < best_rank:
                    best_rank = ranks[i]
                    best = i
            for i in pool:
                if i != best:
                    rejections.append((i, r))
            held[r] = best
        rejections.sort(key=lambda pair: (pair[1], pair[0]))
        rounds.append((proposals, rejections))
        if not proposals:
            break
        active = sorted(i for i, _ in rejections)
        active = [i for i in active if next_choice[i] < len(lists[i])]
        if not active:
            break
    return held, rounds


def _held_to_assignment(held: list, rule: RuleId, p: int, q: int) -> tuple:
    woman_of: list = [None] * p
    if rule is RuleId.MPDA:
        for r, i in enumerate(held):
            if i >= 0:
                woman_of[i] = r
    else:
        for r, i in enumerate(held):
            if i >= 0:
                woman_of[r] = i
    return tuple(woman_of)


def _sequential_da(
    proposer_prefs: tuple[Preference, ...],
    receiver_prefs: tuple[Preference, ...],
) -> list:
    """McVitie-Wilson engine. Returns held: held[r] is the proposer index
    receiver r ends with, or -1."""
    # bar[r]: the rank a proposer must beat to be held by r
    bar = [pref.outside_rank for pref in receiver_prefs]
    held = [-1] * len(receiver_prefs)
    next_choice = [0] * len(proposer_prefs)
    for start in range(len(proposer_prefs)):
        i = start
        while i >= 0:
            lst = proposer_prefs[i].acceptable_idx
            k = next_choice[i]
            while k < len(lst):
                r = lst[k]
                k += 1
                rank = receiver_prefs[r].rank_by_index[i]
                if rank < bar[r]:
                    bar[r] = rank
                    next_choice[i] = k
                    # i is held now; whoever r held before proposes next
                    i, held[r] = held[r], i
                    break
            else:
                i = -1
    return held


def _check_side(prefs: tuple, side: Side, n_opposite: int) -> None:
    """O(len(prefs)) shape check: prefs[i] is agent i's Preference over a
    market with n_opposite agents on the other side."""
    if not prefs:
        raise ValidationError("profile needs at least one agent per side")
    i = 0
    for pref in prefs:
        if not isinstance(pref, Preference):
            raise ValidationError(f"expected Preference, got {pref!r}")
        owner_side, owner_index = pref.owner
        if owner_side is not side or owner_index != i:
            raise ValidationError(f"preference of {pref.owner} sits at {side.prefix}{i + 1}'s position")
        if len(pref.rank_by_index) != n_opposite:
            raise ValidationError(
                f"preference for {pref.owner} ranks {len(pref.rank_by_index)} opposite agents, "
                f"market has {n_opposite}"
            )
        i += 1


def da_assignment(rule: RuleId, men_prefs: tuple, women_prefs: tuple) -> tuple:
    """The DA outcome as a per-man tuple of woman indices (None = unmatched).

    men_prefs[i] must be the preference of man i and women_prefs[j] that of
    woman j; a malformed shape raises ValidationError.
    """
    p, q = len(men_prefs), len(women_prefs)
    _check_side(men_prefs, Side.MAN, q)
    _check_side(women_prefs, Side.WOMAN, p)
    if rule is RuleId.MPDA:
        held = _sequential_da(men_prefs, women_prefs)
    elif rule is RuleId.WPDA:
        held = _sequential_da(women_prefs, men_prefs)
    else:
        raise ValidationError(f"unknown rule {rule!r}")
    return _held_to_assignment(held, rule, p, q)


def da_matching(rule: RuleId, profile: Profile) -> Matching:
    assignment = da_assignment(rule, profile.men_prefs, profile.women_prefs)
    return Matching.from_assignment(profile.p, profile.q, assignment)


def run_da(rule: RuleId, profile: Profile) -> tuple[Matching, DaTrace]:
    """Run deferred acceptance and keep the whole round-by-round trace."""
    if not isinstance(rule, RuleId):
        raise ValidationError(f"unknown rule {rule!r}")
    if rule is RuleId.MPDA:
        held, rounds = _da_engine(profile.men_prefs, profile.women_prefs)
        as_pair = lambda i, r: (man(i), woman(r))
    else:
        held, rounds = _da_engine(profile.women_prefs, profile.men_prefs)
        as_pair = lambda i, r: (woman(i), man(r))
    p, q = profile.p, profile.q
    steps = []
    tentative_held = [-1] * (q if rule is RuleId.MPDA else p)
    for number, (proposals, rejections) in enumerate(rounds, start=1):
        # replay the round onto the running tentative state for the snapshot
        rejected_at = {(i, r) for i, r in rejections}
        for i, r in proposals:
            if (i, r) not in rejected_at:
                tentative_held[r] = i
        for i, r in rejections:
            if tentative_held[r] == i:
                tentative_held[r] = -1
        snapshot = Matching.from_assignment(
            p, q, _held_to_assignment(tentative_held, rule, p, q)
        )
        steps.append(
            DaStep(
                number=number,
                proposals=tuple(as_pair(i, r) for i, r in proposals),
                rejections=tuple(as_pair(i, r) for i, r in rejections),
                tentative=snapshot,
            )
        )
    final = Matching.from_assignment(p, q, _held_to_assignment(held, rule, p, q))
    trace = DaTrace(rule=rule, steps=tuple(steps))
    if trace.final != final:
        raise RuntimeError(f"{rule.value} trace replays to {trace.final}, engine holds {final}")
    return final, trace


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
            if proposer.side is Side.MAN:
                pairs.append((proposer, target))
            else:
                pairs.append((target, proposer))
    return Matching(p, q, pairs)


def proposer_optimality_check(rule: RuleId, profile: Profile, force: bool = False) -> bool:
    """True when the DA outcome weakly tops every stable matching for each proposer."""
    outcome = da_matching(rule, profile)
    side_agents = profile.men if rule is RuleId.MPDA else profile.women
    for mu in stable_set(profile, force=force):
        for a in side_agents:
            if not profile[a].weakly_prefers(outcome.partner(a), mu.partner(a)):
                return False
    return True
