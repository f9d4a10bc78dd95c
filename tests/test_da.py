import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import M1, M2, W1, W2, pref, random_profile
from matchlab import da
from matchlab.core import (
    OUTSIDE,
    Matching,
    Preference,
    Profile,
    Side,
    assignment_lots,
    is_stable,
    men,
    stable_set,
    women,
)
from matchlab.da import (
    DaTrace,
    RuleId,
    da_matching,
    proposer_optimality_check,
    replay_trace,
    run_da,
)
from matchlab.errors import ValidationError
from matchlab.manipulation import mpda_rule, wpda_rule


def test_mpda_example(p1, mu):
    outcome, trace = run_da(RuleId.MPDA, p1)
    assert outcome == mu
    assert trace.final == mu


def test_wpda_example(p1, mu_tilde):
    outcome, _ = run_da(RuleId.WPDA, p1)
    assert outcome == mu_tilde


def test_everyone_prefers_outside():
    profile = Profile(
        [
            pref(M1, OUTSIDE, W1, W2),
            pref(M2, OUTSIDE, W1, W2),
            pref(W1, OUTSIDE, M1, M2),
            pref(W2, OUTSIDE, M1, M2),
        ]
    )
    outcome, trace = run_da(RuleId.MPDA, profile)
    assert outcome.is_empty
    assert len(trace.steps) == 1
    assert trace.steps[0].proposals == ()


def test_rejection_chain_trace(p3):
    # at p3, m1 is unacceptable to w1: his opener is rejected outright
    outcome, trace = run_da(RuleId.MPDA, p3)
    assert outcome == Matching(2, 2, [(M1, W2), (M2, W1)])
    first = trace.steps[0]
    assert (M1, W1) in first.proposals
    assert (M1, W1) in first.rejections


def test_trace_step_numbers_and_replay(p1, p3):
    for rule in RuleId:
        for profile in (p1, p3):
            outcome, trace = run_da(rule, profile)
            assert [s.number for s in trace.steps] == list(range(1, len(trace.steps) + 1))
            assert replay_trace(trace, profile.p, profile.q) == outcome


def _proposal_discipline(trace: DaTrace) -> bool:
    """A proposer reappears only after being rejected in the step before."""
    last_rejected = None
    for step in trace.steps:
        proposers = [a for a, _ in step.proposals]
        if len(set(proposers)) != len(proposers):
            return False
        if last_rejected is not None:
            if any(a not in last_rejected for a in proposers):
                return False
        last_rejected = {a for a, _ in step.rejections}
    return True


@pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (2, 4), (4, 2), (4, 4)])
def test_da_random_invariants(p, q):
    rng = random.Random(2000 + 10 * p + q)
    for _ in range(120):
        profile = random_profile(rng, p, q)
        mpda, trace_m = run_da(RuleId.MPDA, profile)
        wpda, trace_w = run_da(RuleId.WPDA, profile)
        assert is_stable(mpda, profile)
        assert is_stable(wpda, profile)
        # stable matchings leave the same agents unmatched
        assert frozenset(mpda.unmatched) == frozenset(wpda.unmatched)
        assert replay_trace(trace_m, p, q) == mpda
        assert replay_trace(trace_w, p, q) == wpda
        assert _proposal_discipline(trace_m)
        assert _proposal_discipline(trace_w)
        assert da_matching(RuleId.MPDA, profile) == mpda


@pytest.mark.parametrize("p,q", [(3, 3), (2, 3)])
def test_proposer_optimality_and_receiver_pessimality(p, q):
    rng = random.Random(3000 + p + q)
    for _ in range(80):
        profile = random_profile(rng, p, q)
        sset = stable_set(profile)
        mpda = da_matching(RuleId.MPDA, profile)
        wpda = da_matching(RuleId.WPDA, profile)
        assert mpda in sset
        assert wpda in sset
        for mu in sset:
            for m in profile.men:
                assert profile[m].weakly_prefers(mpda.partner(m), mu.partner(m))
                # proposer-optimal is receiver-pessimal
                assert profile[m].weakly_prefers(mu.partner(m), wpda.partner(m))
            for w in profile.women:
                assert profile[w].weakly_prefers(wpda.partner(w), mu.partner(w))
                assert profile[w].weakly_prefers(mu.partner(w), mpda.partner(w))


def test_proposer_optimality_check_examples(p1):
    assert proposer_optimality_check(RuleId.MPDA, p1)
    assert proposer_optimality_check(RuleId.WPDA, p1)


def test_proposer_optimality_check_seeded_3x3():
    rng = random.Random(42)
    for _ in range(1000):
        profile = random_profile(rng, 3, 3)
        assert proposer_optimality_check(RuleId.MPDA, profile)


@st.composite
def truncated_profiles(draw):
    """Random p-by-q profiles, 1 <= p, q <= 6, with the outside option anywhere."""
    p = draw(st.integers(1, 6))
    q = draw(st.integers(1, 6))
    prefs = []
    for a in men(p) + women(q):
        opposite = women(q) if a.side is Side.MAN else men(p)
        prefs.append(Preference(a, draw(st.permutations(opposite + (OUTSIDE,)))))
    return Profile(prefs)


def _optimal_for(proposers, receivers, profile, sset):
    """The member of the stable set every proposer weakly prefers to all others,
    checked to be the one every receiver likes least."""
    def rank(a, mu):
        return profile[a].rank_of(mu.partner(a))

    best = {a: min(rank(a, mu) for mu in sset) for a in proposers}
    worst = {a: max(rank(a, mu) for mu in sset) for a in receivers}
    optimal = [mu for mu in sset if all(rank(a, mu) == best[a] for a in proposers)]
    assert len(optimal) == 1
    assert all(rank(a, optimal[0]) == worst[a] for a in receivers)
    return optimal[0]


@settings(max_examples=200, deadline=None)
@given(profile=truncated_profiles())
def test_sequential_engine_matches_traced_engine_and_brute_force(profile):
    # the view engine's lot vector codes an unmatched agent as the other
    # side's size, as `assignment_lots` does
    p, q = profile.p, profile.q
    sset = stable_set(profile)
    for rule in RuleId:
        fast = da.da_assignment(rule, profile.men_prefs, profile.women_prefs)
        traced, _ = run_da(rule, profile)
        if rule is RuleId.MPDA:
            brute = _optimal_for(profile.men, profile.women, profile, sset)
        else:
            brute = _optimal_for(profile.women, profile.men, profile, sset)
        assert fast == traced.assignment == brute.assignment
        view, evaluate = da._view_engine(rule, p, q)
        lots = evaluate([view(pref) for pref in profile.men_prefs + profile.women_prefs])
        assert lots == [lot[0] for lot in assignment_lots(p, q, [traced.assignment])]


@pytest.mark.parametrize("rule_of", [mpda_rule, wpda_rule])
@pytest.mark.parametrize(
    "malformed",
    [
        pytest.param(lambda m, w: ((), w), id="empty-men"),
        pytest.param(lambda m, w: (m, ()), id="empty-women"),
        pytest.param(lambda m, w: ((m[0], "m2"), w), id="not-a-preference"),
        pytest.param(lambda m, w: (m, (w[0], None)), id="none-entry"),
        pytest.param(lambda m, w: ((m[0], w[1]), (w[0], m[1])), id="owner-wrong-side"),
        pytest.param(lambda m, w: ((m[1], m[0]), w), id="owner-wrong-position"),
        pytest.param(lambda m, w: (m, (w[0], w[0])), id="duplicate-owner"),
        pytest.param(lambda m, w: (m, (w[0],)), id="men-rank-too-many"),
        pytest.param(
            lambda m, w: ((m[0], pref(M2, W1, OUTSIDE)), w), id="man-ranks-too-few"
        ),
    ],
)
def test_rule_assignment_rejects_malformed_shapes(p1, rule_of, malformed):
    men_prefs, women_prefs = malformed(p1.men_prefs, p1.women_prefs)
    with pytest.raises(ValidationError):
        rule_of().assignment(men_prefs, women_prefs)


def test_da_assignment_rejects_unknown_rule(p1):
    with pytest.raises(ValidationError):
        da.da_assignment("mpda", p1.men_prefs, p1.women_prefs)


def test_run_da_checks_trace_against_engine(p1, monkeypatch):
    engine = da._da_engine

    def drifting_engine(lists, rows, quotas):
        held, rounds = engine(lists, rows, quotas)
        return held[::-1], rounds

    monkeypatch.setattr(da, "_da_engine", drifting_engine)
    with pytest.raises(RuntimeError):
        run_da(RuleId.MPDA, p1)
