"""The one coalition scanner against a naive oracle, for both market kinds.

The oracle tries every coalition and every joint report with no pruning,
builds each deviated profile with `replace`, runs the traced round engine
on it, and keeps the deviations after which every member strictly gains.
The scanner must find the same witnesses in the same order.
"""

import itertools
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab.core import OUTSIDE, Preference, Profile, man, men, woman, women
from matchlab.da import RuleId, run_da
from matchlab.domains import PreferenceDomain, all_preferences
from matchlab.formats import mto_domain_from_json, mto_profile_from_json
from matchlab.manipulation import (
    ManipulationWitness,
    iter_manipulations,
    mpda_rule,
    validate_witness,
    wpda_rule,
)
from matchlab.mto import MtoDomain, MtoProfile, MtoWitness, find_manipulation_mto, run_spda

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
