"""Independent correctness checks, run outside the unit timer.

Each checker returns None when the unit's output is right and a one-line
reason when it is wrong; the harness counts a reason as a failed unit.
The reference deferred-acceptance engine below shares no code with the
program, so it can stand as an oracle for the proposer-optimal outcome.
"""

from __future__ import annotations

import itertools
import json
from typing import Optional

from matchlab.core import Matching, Profile, Side, is_individually_rational, is_stable, man, woman


def reference_mpda(men_prefs: tuple, women_prefs: tuple) -> tuple:
    """Men-proposing DA, one proposal at a time, on plain rank tables.

    Returns the per-man tuple of woman indices (None = unmatched).
    """
    p, q = len(men_prefs), len(women_prefs)
    lists = [pref.acceptable_idx for pref in men_prefs]
    rank = [pref.rank_by_index for pref in women_prefs]
    cut = [pref.outside_rank for pref in women_prefs]
    nxt = [0] * p
    held = [None] * q
    free = list(range(p))
    while free:
        i = free.pop()
        while nxt[i] < len(lists[i]):
            j = lists[i][nxt[i]]
            nxt[i] += 1
            if rank[j][i] > cut[j]:
                continue
            k = held[j]
            if k is None or rank[j][i] < rank[j][k]:
                held[j] = i
                if k is not None:
                    free.append(k)
                break
    woman_of = [None] * p
    for j, i in enumerate(held):
        if i is not None:
            woman_of[i] = j
    return tuple(woman_of)


def _agent_index(token: str, prefix: str) -> int:
    if not (isinstance(token, str) and token.startswith(prefix) and token[1:].isdigit()):
        raise ValueError(f"bad agent token {token!r}")
    return int(token[1:]) - 1


def matching_from_doc(doc: dict, p: int, q: int) -> Matching:
    """Read a matching document by hand, without the program's parser."""
    pairs = [(man(_agent_index(m, "m")), woman(_agent_index(w, "w"))) for m, w in doc["pairs"]]
    return Matching(p, q, pairs)


def check_survey(base: Profile, witnesses: list) -> Optional[str]:
    """Theorem 1: under MPDA only receivers (women) manipulate, and every
    outcome is stable for the profile it was computed from."""
    for w in witnesses:
        if any(a.side is not Side.WOMAN for a in w.coalition):
            return f"coalition {w.coalition} includes a man"
        if not is_stable(w.outcome_before, base):
            return "outcome before the deviation is unstable at the true profile"
        if not is_stable(w.outcome_after, w.deviated_profile()):
            return "outcome after the deviation is unstable at the deviated profile"
    return None


def check_certify(domain, auto, table, gsp) -> Optional[str]:
    """Lemma C1 and Theorem 2: both search paths agree on existence, a found
    rule is MPDA (the reference engine's) on every profile, and it is group
    strategy-proof."""
    if auto.exists != table.exists:
        return f"auto path says {auto.exists}, backtracking says {table.exists}"
    if not auto.exists:
        return None
    agents = domain.agents
    for prefs in itertools.product(*(domain.admissible(a) for a in agents)):
        men_prefs, women_prefs = prefs[: domain.p], prefs[domain.p :]
        want = reference_mpda(men_prefs, women_prefs)
        for found in (auto.rule, table.rule):
            if found.assignment(men_prefs, women_prefs) != want:
                return f"rule {found.name} differs from MPDA at {prefs!r}"
    if not gsp:
        return "the found rule is not group strategy-proof"
    return None


def check_college(witness) -> Optional[str]:
    """Example 2: SPDA on the fixture domain admits no single-agent witness."""
    if witness is not None:
        return f"single-agent witness {witness!r}"
    return None


def check_pair_witness(witness, validate) -> Optional[str]:
    """Example 2: the two-agent scan at the fixture base finds c1 with s5."""
    if witness is None:
        return "no two-agent witness at the fixture base"
    names = [a.name for a in witness.coalition]
    if names != ["c1", "s5"]:
        return f"expected coalition c1+s5, found {names}"
    validate(witness)
    return None


def _stable_doc(doc: dict, profile: Profile) -> Optional[str]:
    mu = matching_from_doc(doc, profile.p, profile.q)
    if not is_individually_rational(mu, profile):
        return "matching is not individually rational"
    if not is_stable(mu, profile):
        return "matching is unstable"
    return None


def check_cli(spec: dict, returncode: int, stdout: str, profile: Optional[Profile] = None) -> Optional[str]:
    """Exit code as expected, output parses, and the answer is right.

    spec carries "kind" and "expect" (the exit code); market commands also
    pass the generated market as `profile`.
    """
    if returncode != spec["expect"]:
        return f"exit code {returncode}, expected {spec['expect']}"
    kind = spec["kind"]
    try:
        if kind == "solve-trace":
            lines = stdout.splitlines()
            start = lines.index("{")
            steps = [json.loads(line) for line in lines[:start]]
            doc = json.loads("\n".join(lines[start:]))
        else:
            doc = json.loads(stdout)
    except ValueError as err:
        return f"output does not parse: {err}"
    if kind in ("solve", "solve-trace"):
        if kind == "solve-trace":
            if not steps:
                return "trace has no steps"
            if sorted(steps[-1]["tentative"]["pairs"]) != sorted(doc["pairs"]):
                return "last trace step differs from the final matching"
        return _stable_doc(doc, profile)
    if kind == "stable-set":
        if doc["count"] != len(doc["matchings"]) or not doc["matchings"]:
            return "stable-set count does not match its entries"
        for entry in doc["matchings"]:
            reason = _stable_doc(entry, profile)
            if reason:
                return "stable-set entry: " + reason
        best = reference_mpda(profile.men_prefs, profile.women_prefs)
        found = {matching_from_doc(e, profile.p, profile.q).assignment for e in doc["matchings"]}
        if best not in found:
            return "stable set lacks the MPDA outcome"
        return None
    if kind == "manipulate":
        if doc["coalition"] != ["c1", "s5"]:
            return f"expected coalition c1+s5, found {doc['coalition']}"
        return None
    if kind == "check-domain":
        return None if doc["holds"] is True else "domain property reported false"
    if kind == "verify":
        return None if doc["verdict"] == "pass" else f"verdict {doc['verdict']}"
    return f"unknown command kind {kind!r}"
