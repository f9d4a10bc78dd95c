"""The one coalition scanner against a naive oracle, for both market kinds.

The oracle tries every coalition and every joint report with no pruning,
builds each deviated profile with `replace`, runs the traced round engine
on it, and keeps the deviations after which every member strictly gains.
The scanner must find the same witnesses in the same order.
"""

import hashlib
import itertools
import json
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_profile
from matchlab import da, mto
from matchlab.core import OUTSIDE, AgentId, Preference, Profile, Side, man, men, woman, women
from matchlab.da import RuleId, da_matching, run_da
from matchlab.domains import PreferenceDomain, all_preferences
from matchlab.formats import mto_domain_from_json, mto_profile_from_json
from matchlab.manipulation import (
    ManipulationWitness,
    MatchingRule,
    _search,
    find_manipulation,
    iter_manipulations,
    mpda_rule,
    planned_evaluations,
    validate_witness,
    wpda_rule,
)
from matchlab.mto import (
    CollegePreference,
    MtoDomain,
    MtoProfile,
    MtoWitness,
    StudentId,
    StudentPreference,
    colleges,
    find_manipulation_mto,
    run_spda,
    students,
    to_marriage_matching,
    to_marriage_profile,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

M1, M2 = man(0), man(1)
W1, W2 = woman(0), woman(1)
AGENTS_2X2 = (M1, M2, W1, W2)


def oracle_witnesses(rule, domain, base, cap, pool=None):
    # outcomes come from the traced round engine, not the scan's engine
    rule_id = RuleId(rule.name)
    agents = list(base.agents if pool is None else sorted(set(pool)))
    before = run_da(rule_id, base)[0]
    found = []
    for size in range(1, min(cap, len(agents)) + 1):
        for coalition in itertools.combinations(agents, size):
            options = [[x for x in domain.admissible(a) if x != base[a]] for a in coalition]
            for reports in itertools.product(*options):
                misreports = tuple(zip(coalition, reports))
                after = run_da(rule_id, base.replace(dict(misreports)))[0]
                if all(base[a].prefers(after.partner(a), before.partner(a)) for a in coalition):
                    found.append(
                        ManipulationWitness(rule.name, base, coalition, misreports, before, after)
                    )
    return found


def oracle_first_mto_witness(domain, base, cap):
    # outcomes come from the traced round engine, not the scan's seat engine
    agents = list(domain.agents)
    before = run_spda(base)[0]

    def gains(agent, after):
        pref = base[agent]
        if hasattr(pref, "quota"):
            return pref.prefers(after.students_of(agent), before.students_of(agent))
        return pref.prefers(after.college_of(agent), before.college_of(agent))

    for size in range(1, min(cap, len(agents)) + 1):
        for coalition in itertools.combinations(agents, size):
            options = [[x for x in domain.admissible(a) if x != base[a]] for a in coalition]
            for reports in itertools.product(*options):
                misreports = tuple(zip(coalition, reports))
                after = run_spda(base.replace(dict(misreports)))[0]
                if all(gains(a, after) for a in coalition):
                    return MtoWitness(base, coalition, misreports, before, after)
    return None


# --- marriage markets ------------------------------------------------------------


def _p1() -> Profile:
    return Profile(
        [
            Preference(M1, (W1, W2, OUTSIDE)),
            Preference(M2, (W2, W1, OUTSIDE)),
            Preference(W1, (M2, M1, OUTSIDE)),
            Preference(W2, (M1, M2, OUTSIDE)),
        ]
    )


@st.composite
def domains_2x2(draw):
    sets = {}
    for a in AGENTS_2X2:
        options = all_preferences(a, 2)
        picks = draw(st.sets(st.integers(0, len(options) - 1), min_size=1))
        sets[a] = [options[i] for i in sorted(picks)]
    domain = PreferenceDomain(sets)
    base = Profile(draw(st.sampled_from(domain.admissible(a))) for a in AGENTS_2X2)
    return domain, base


@settings(max_examples=150, deadline=None)
@given(
    # the crossing market on the full domain has witnesses for both rules,
    # so the order of the pool shows there
    drawn=st.one_of(domains_2x2(), st.builds(lambda: (PreferenceDomain.full(2, 2), _p1()))),
    rule_of=st.sampled_from((mpda_rule, wpda_rule)),
    cap=st.integers(1, 4),
    pool=st.one_of(st.none(), st.lists(st.sampled_from(AGENTS_2X2), min_size=1, max_size=6)),
)
def test_iter_manipulations_matches_oracle(drawn, rule_of, cap, pool):
    # pools come in any order and may repeat agents; coalitions stay sorted
    domain, base = drawn
    rule = rule_of()
    got = list(iter_manipulations(rule, domain, base, max_coalition=cap, coalition_pool=pool))
    assert got == oracle_witnesses(rule, domain, base, cap, pool)
    for witness in got:
        validate_witness(rule, witness, domain)


def _planted_crossing_base() -> Profile:
    """3x3: the first two pairs cross (two stable matchings) and the third
    pair is each other's first choice, so under MPDA the women of the
    crossing gain by truncating."""
    m1, m2, m3 = men(3)
    w1, w2, w3 = women(3)
    table = {
        m1: (w1, w2, w3),
        m2: (w2, w1, w3),
        m3: (w3, w1, w2),
        w1: (m2, m1, m3),
        w2: (m1, m2, m3),
        w3: (m3, m1, m2),
    }
    return Profile(Preference(a, (*r, OUTSIDE)) for a, r in table.items())


def test_iter_manipulations_matches_oracle_at_3x3():
    domain, base, rule = PreferenceDomain.full(3, 3), _planted_crossing_base(), mpda_rule()
    got = list(iter_manipulations(rule, domain, base, max_coalition=2))
    assert got and got == oracle_witnesses(rule, domain, base, 2)


# --- one evaluation per class of reports -----------------------------------------


def _synthetic_scan():
    """Two agents whose reports act only through a class letter. Agent 0's
    alternatives x and x2 share its true class T; both agents gain exactly
    when agent 1 reports z, so x with z is a witness although x alone
    changes nothing."""
    letter = {"t0": "T", "x": "T", "y": "Y", "x2": "T", "t1": "U", "z": "Z"}
    alternatives = [("x", "y", "x2"), ("z",)]
    classes = [tuple(letter[r] for r in alts) for alts in alternatives]
    evaluated = []

    def evaluate(reports):
        evaluated.append(tuple(reports))
        # both agents' lot is the class of agent 1's report
        return (letter[reports[1]],) * 2

    ranks = [{"Z": 0, "U": 1}] * 2
    return ("t0", "t1"), alternatives, classes, evaluate, ranks, evaluated


def test_search_yields_a_member_whose_misreport_is_in_its_true_class():
    true, alternatives, classes, evaluate, ranks, evaluated = _synthetic_scan()
    plain = list(_search(true, alternatives, [0, 1], evaluate, ranks, 2))
    assert len(evaluated) == 1 + 3 + 1 + 3
    evaluated.clear()
    grouped = list(_search(true, alternatives, [0, 1], evaluate, ranks, 2, classes))
    assert [(c, r) for c, r, _, _ in grouped] == [
        ((1,), ("z",)),
        ((0, 1), ("x", "z")),
        ((0, 1), ("y", "z")),
        ((0, 1), ("x2", "z")),
    ]
    assert grouped == plain
    # one evaluation per class: T and Y for agent 0, Z for agent 1
    assert len(evaluated) == 1 + 2 + 1 + 2


def test_search_evaluates_every_class_combination_before_yielding():
    true, alternatives, _, evaluate, ranks, evaluated = _synthetic_scan()
    hits = _search(true, alternatives, [0, 1], evaluate, ranks, 2)
    assert next(hits)[:2] == ((1,), ("z",))
    # the base, agent 0's three alternatives and agent 1's z
    assert evaluated == [("t0", "t1"), ("x", "t1"), ("y", "t1"), ("x2", "t1"), ("t0", "z")]
    evaluated.clear()
    # the pair's first hit comes only after all of its joint misreports
    assert next(hits)[:2] == ((0, 1), ("x", "z"))
    assert evaluated == [("x", "z"), ("y", "z"), ("x2", "z")]


def _ungrouped(rule_id: RuleId) -> MatchingRule:
    """The DA rule without report classes, so every joint misreport is evaluated."""
    return MatchingRule.from_profile_function(
        lambda profile: da_matching(rule_id, profile), name=rule_id.value, stable=True
    )


# the crossing pattern of `_p1` as the top two of each agent's ranking
CROSSING_TOPS = {M1: (W1, W2), M2: (W2, W1), W1: (M2, M1), W2: (M1, M2)}


@st.composite
def truncation_domains(draw):
    """Sub-domains of the full 2x3, 3x2 or 3x3 domain around a drawn base,
    which may put the crossing pattern on top of the first two men and
    women. Each agent also holds rankings that truncate its true acceptable
    list (the list itself included), one or two per truncation and
    differing only below the outside option, in a drawn order."""
    p, q = draw(st.sampled_from(((2, 3), (3, 2), (3, 3))))
    crossing = draw(st.booleans())
    agents = men(p) + women(q)
    sets, base = {}, []
    for a in agents:
        options = all_preferences(a, q if a.side is Side.MAN else p)
        by_list = {}
        for pref in options:
            by_list.setdefault(pref.acceptable_idx, []).append(pref)
        ranking = draw(st.sampled_from(options)).ranking
        if crossing and a in CROSSING_TOPS:
            top = CROSSING_TOPS[a]
            ranking = top + tuple(x for x in ranking if x not in top)
        true = Preference(a, ranking)
        cuts = [true.acceptable_idx[:k] for k in range(len(true.acceptable_idx) + 1)]
        picks = [true]
        for key in draw(st.lists(st.sampled_from(cuts), min_size=1, max_size=2, unique=True)):
            picks += draw(st.lists(st.sampled_from(by_list[key]), min_size=1, max_size=2, unique=True))
        sets[a] = draw(st.permutations(list(dict.fromkeys(picks))))
        base.append(true)
    return PreferenceDomain(sets), Profile(base)


@settings(max_examples=80, deadline=None)
@given(
    drawn=truncation_domains(),
    rule_id=st.sampled_from(RuleId),
    cap=st.integers(1, 3),
    pool=st.one_of(st.none(), st.lists(st.integers(0, 5), min_size=1, max_size=4)),
)
def test_grouped_scan_matches_the_ungrouped_rule(drawn, rule_id, cap, pool):
    # the ungrouped rule runs the scan's engine on every joint misreport;
    # the oracle runs the traced round engine, so an engine or lot-code
    # fault shared by both scans shows against it
    domain, base = drawn
    if pool is not None:
        pool = [domain.agents[k % len(domain.agents)] for k in pool]
    grouped = MatchingRule.deferred_acceptance(rule_id)
    plain = _ungrouped(rule_id)
    assert grouped._da is rule_id and plain._da is None
    got = list(iter_manipulations(grouped, domain, base, max_coalition=cap, coalition_pool=pool))
    assert got == list(iter_manipulations(plain, domain, base, max_coalition=cap, coalition_pool=pool))
    assert got == oracle_witnesses(grouped, domain, base, cap, pool)
    first = find_manipulation(grouped, domain, base, max_coalition=cap, coalition_pool=pool)
    assert first == find_manipulation(plain, domain, base, max_coalition=cap, coalition_pool=pool)
    assert first == (got[0] if got else None)


def test_grouped_scan_evaluates_one_report_per_acceptable_list(monkeypatch):
    # the engine runs once at the base and once per combination of the
    # members' acceptable lists in each coalition of agents not at their top
    domain, base = PreferenceDomain.full(3, 3), _planted_crossing_base()
    rule = mpda_rule()
    expected_witnesses = list(iter_manipulations(_ungrouped(RuleId.MPDA), domain, base, max_coalition=2))
    calls = []
    engine = da._sequential_da

    def counting(lists, rows, held):
        calls.append(None)
        return engine(lists, rows, held)

    monkeypatch.setattr(da, "_sequential_da", counting)
    got = list(iter_manipulations(rule, domain, base, max_coalition=2))
    assert got and got == expected_witnesses
    monkeypatch.undo()
    before = rule.apply(base)
    # agents at their true top never join a coalition
    candidates = [a for a in base.agents if base[a].rank_of(before.partner(a)) > 0]
    lists = {
        a: len({pref.acceptable_idx for pref in domain.admissible(a) if pref != base[a]})
        for a in candidates
    }
    pairs = itertools.combinations(candidates, 2)
    expected = 1 + sum(lists.values()) + sum(lists[a] * lists[b] for a, b in pairs)
    assert len(calls) == expected
    assert len(calls) < planned_evaluations([23] * 6, 2)


# --- college markets -------------------------------------------------------------


def _fixture_domain() -> MtoDomain:
    return mto_domain_from_json(json.loads((FIXTURES / "example2_domain.json").read_text()))


@st.composite
def college_domains(draw):
    """Up to two admissible entries per agent, cut from the Example 2 domain."""
    full = _fixture_domain()
    sets = {}
    for a in full.agents:
        options = full.admissible(a)
        picks = draw(
            st.sets(st.integers(0, len(options) - 1), min_size=1, max_size=min(2, len(options)))
        )
        sets[a] = [options[i] for i in sorted(picks)]
    domain = MtoDomain(sets)
    reports = [draw(st.sampled_from(domain.admissible(a))) for a in domain.agents]
    base = MtoProfile(reports[: domain.n_colleges], reports[domain.n_colleges :])
    return domain, base


@settings(max_examples=60, deadline=None)
@given(drawn=college_domains(), cap=st.integers(1, 2))
def test_find_manipulation_mto_matches_oracle(drawn, cap):
    domain, base = drawn
    assert find_manipulation_mto(domain, base, max_coalition=cap) == oracle_first_mto_witness(
        domain, base, cap
    )


def test_college_oracle_finds_the_mixed_pair():
    # the oracle itself sees the fixture's college-and-student coalition
    domain = _fixture_domain()
    base = mto_profile_from_json(json.loads((FIXTURES / "example2_mto.json").read_text()))
    found = oracle_first_mto_witness(domain, base, 2)
    assert found is not None and len(found.coalition) == 2
    assert find_manipulation_mto(domain, base, max_coalition=2) == found


def test_college_scan_without_a_witness_evaluates_every_single_misreport(monkeypatch):
    domain = _fixture_domain()
    base = mto_profile_from_json(json.loads((FIXTURES / "example2_mto.json").read_text()))
    calls = []
    engine = mto._sequential_da

    def counting(applicants, seats, held):
        calls.append(None)
        return engine(applicants, seats, held)

    monkeypatch.setattr(mto, "_sequential_da", counting)
    assert find_manipulation_mto(domain, base, max_coalition=1) is None
    before = run_spda(base)[0]

    def lot(agent):
        return before.students_of(agent) if hasattr(base[agent], "quota") else before.college_of(agent)

    # agents at their true top never join a coalition
    candidates = [a for a in domain.agents if base[a].rank_of(lot(a)) > 0]
    assert len(calls) == 1 + sum(len(domain.admissible(a)) - 1 for a in candidates)


# --- both markets at quota one -----------------------------------------------------
#
# With every quota 1, SPDA is student-proposing DA: MPDA with the students as
# men and the colleges as women. The two scans share only the search, so each
# market's evaluation, ranks and witnesses are checked against the other's.


@st.composite
def quota_one_domains(draw):
    """Two colleges of quota 1 and two or three students, each agent with
    one or two admissible rankings."""
    cs, ss = colleges(2), students(draw(st.integers(2, 3)))
    sets = {}
    for c in cs:
        orders = st.permutations([(s,) for s in ss] + [()])
        picks = draw(st.lists(orders, min_size=1, max_size=2, unique_by=tuple))
        sets[c] = [CollegePreference(c, 1, len(ss), order) for order in picks]
    for s in ss:
        picks = draw(st.lists(st.permutations(cs + (OUTSIDE,)), min_size=1, max_size=2, unique_by=tuple))
        sets[s] = [StudentPreference(s, tuple(order)) for order in picks]
    domain = MtoDomain(sets)
    reports = [draw(st.sampled_from(domain.admissible(a))) for a in domain.agents]
    return domain, MtoProfile(reports[:2], reports[2:])


def _crossing_quota_one() -> tuple[MtoDomain, MtoProfile]:
    """Two students who want different colleges, each wanted by the other
    college: SPDA gives the students their favorites, and either college
    gains by cutting the student it gets below the outside option."""
    (c1, c2), (s1, s2) = colleges(2), students(2)
    student_prefs = [StudentPreference(s1, (c1, c2, OUTSIDE)), StudentPreference(s2, (c2, c1, OUTSIDE))]
    college_prefs = [CollegePreference(c1, 1, 2, [(s2,), (s1,), ()]), CollegePreference(c2, 1, 2, [(s1,), (s2,), ()])]
    cuts = [CollegePreference(c1, 1, 2, [(s2,), (), (s1,)]), CollegePreference(c2, 1, 2, [(s1,), (), (s2,)])]
    sets = {cp.owner: [cp, cut] for cp, cut in zip(college_prefs, cuts)}
    sets.update((sp.owner, [sp]) for sp in student_prefs)
    return MtoDomain(sets), MtoProfile(college_prefs, student_prefs)


def _as_marriage_agent(agent) -> AgentId:
    return man(agent.index) if isinstance(agent, StudentId) else woman(agent.index)


def _marriage_twin(domain: MtoDomain, base: MtoProfile) -> tuple[PreferenceDomain, Profile]:
    """The marriage domain and base, each ranking translated by `to_marriage_profile`."""
    sets = {}
    for a in domain.agents:
        m = _as_marriage_agent(a)
        sets[m] = [to_marriage_profile(base.replace({a: pref}))[m] for pref in domain.admissible(a)]
    return PreferenceDomain(sets), to_marriage_profile(base)


def _renamed(witness: MtoWitness) -> ManipulationWitness:
    deviated = to_marriage_profile(witness.deviated_profile())
    coalition = tuple(sorted(_as_marriage_agent(a) for a in witness.coalition))
    return ManipulationWitness(
        "mpda",
        to_marriage_profile(witness.base),
        coalition,
        tuple((m, deviated[m]) for m in coalition),
        to_marriage_matching(witness.base, witness.outcome_before),
        to_marriage_matching(witness.base, witness.outcome_after),
    )


@settings(max_examples=60, deadline=None)
@given(
    # random draws rarely admit a witness; the planted crossing always does
    drawn=st.one_of(quota_one_domains(), st.builds(_crossing_quota_one)),
    cap=st.integers(1, 2),
)
def test_college_scan_agrees_with_the_marriage_scan_at_quota_one(drawn, cap):
    domain, base = drawn
    twin, twin_base = _marriage_twin(domain, base)
    found = find_manipulation_mto(domain, base, max_coalition=cap)
    assert (found is None) == (find_manipulation(mpda_rule(), twin, twin_base, max_coalition=cap) is None)
    if found is not None:
        validate_witness(mpda_rule(), _renamed(found), twin)


# --- pinned scans ------------------------------------------------------------------
#
# SHA-256 of every witness the scans yield on seeded bases, recorded before
# the scan loop rewrote only its innermost member's view and the DA engine
# wrote its lots in place; a change to the search order, the evaluation or
# the witnesses shows here.

SCAN_DIGESTS = {
    "mpda": "7799f4b042adb6eb3bd70e26463c3aded7eda0958a74ac813efbd32d66d20b3e",
    "wpda": "21559a0cf0c723139ac85fc44281922c5a9ff70911caf56b84ffbd8698befae9",
    "spda": "e02265a89a40e706b01592a1dbd4e843d2cbc6f65edbefdd84e458581722b194",
}


def _witness_line(witness) -> bytes:
    reports = " ".join(repr(pref) for _, pref in witness.misreports)
    return f"{witness.coalition!r} {reports} {witness.outcome_before!r} -> {witness.outcome_after!r}\n".encode()


def test_marriage_scans_are_pinned():
    rng = random.Random(32)
    domain, bases = PreferenceDomain.full(3, 3), [random_profile(rng, 3, 3) for _ in range(200)]
    for rule in (mpda_rule(), wpda_rule()):
        digest = hashlib.sha256()
        for base in bases:
            for witness in iter_manipulations(rule, domain, base, max_coalition=2):
                digest.update(_witness_line(witness))
        assert digest.hexdigest() == SCAN_DIGESTS[rule.name], rule.name


def test_college_scans_are_pinned():
    # random bases of the fixture domain almost never admit a witness, so
    # each base redraws two agents' reports of the fixture's base
    domain = _fixture_domain()
    fixture = mto_profile_from_json(json.loads((FIXTURES / "example2_mto.json").read_text()))
    rng = random.Random(32)
    digest = hashlib.sha256()
    for _ in range(40):
        base = fixture.replace({a: rng.choice(domain.admissible(a)) for a in rng.sample(domain.agents, 2)})
        witness = find_manipulation_mto(domain, base, max_coalition=2)
        digest.update(b"None\n" if witness is None else _witness_line(witness))
    assert digest.hexdigest() == SCAN_DIGESTS["spda"]


# --- evaluations the scan keeps -------------------------------------------------------
#
# `_search` keeps each evaluation's lot vector in its outcome table while it
# rewrites the views and evaluates again, so every evaluation must return a
# fresh list and neither change nor keep the views it is given.


def _check_fresh_evaluations(evaluate, profiles: list) -> None:
    views = list(profiles[0])
    results, copies = [], []
    for viewed in profiles:
        views[:] = viewed  # rewritten in place, as the scan does
        before = [list(v) if isinstance(v, list) else v for v in views]
        results.append(evaluate(views))
        copies.append(list(results[-1]))
        assert views == before and all(map(operator.is_, views, viewed))
    assert results == copies
    assert len(set(map(id, results))) == len(results)
    for lots in results:
        lots[:] = [-1] * len(lots)
    assert [evaluate(list(viewed)) for viewed in profiles] == copies


@pytest.mark.parametrize("p, q", [(1, 3), (3, 1), (1, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("rule", list(RuleId))
def test_view_engine_returns_a_fresh_lot_vector_and_leaves_its_views(rule, p, q):
    rng = random.Random(p * 10 + q)
    view, evaluate = da._view_engine(rule, p, q)
    profiles = [random_profile(rng, p, q) for _ in range(30)]
    _check_fresh_evaluations(evaluate, [[view(pref) for pref in prof.men_prefs + prof.women_prefs] for prof in profiles])


def test_spda_engine_returns_a_fresh_lot_vector_and_leaves_its_views():
    domain, rng = _fixture_domain(), random.Random(5)
    lists = domain.product_order().lists
    view, evaluate = mto._spda_engine([l[0] for l in lists[: domain.n_colleges]])
    profiles = [[view(rng.choice(l)) for l in lists] for _ in range(30)]
    _check_fresh_evaluations(evaluate, profiles)
