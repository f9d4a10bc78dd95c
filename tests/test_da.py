import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import M1, M2, W1, W2, check_gain_first, pref, random_profile, truncations
from matchlab import da, formats
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
        view, evaluate, _, _ = da._view_engine(rule, p, q)
        lots = evaluate([view(pref) for pref in profile.men_prefs + profile.women_prefs])
        assert lots == [lot[0] for lot in assignment_lots(p, q, [traced.assignment])]


@settings(max_examples=100, deadline=None)
@given(profile=truncated_profiles().filter(lambda prof: prof.p != prof.q), data=st.data())
def test_warm_insertion_matches_a_cold_evaluation(profile, data):
    # each agent's domain holds its true ranking's truncations and up to
    # three drawn rankings; inserting each of a proposer's into one warm
    # start gives the lot vector of a cold evaluation of the same views,
    # under both rules
    p, q = profile.p, profile.q
    domains = []
    for a in profile.agents:
        opposite = women(q) if a.side is Side.MAN else men(p)
        drawn = data.draw(st.lists(st.permutations(opposite + (OUTSIDE,)), max_size=3))
        rankings = dict.fromkeys([*truncations(profile[a].ranking), *map(tuple, drawn)])
        domains.append([Preference(a, ranking) for ranking in rankings])
    for rule in RuleId:
        view, evaluate, insert, proposers = da._view_engine(rule, p, q)
        true = [view(pref) for pref in profile.men_prefs + profile.women_prefs]
        for i in proposers:
            evaluate_with = insert(list(true), i)
            for report in domains[i]:
                viewed = view(report)
                assert evaluate_with(viewed) == evaluate([*true[:i], viewed, *true[i + 1 :]])


@settings(max_examples=100, deadline=None)
@given(profile=truncated_profiles().filter(lambda prof: prof.p != prof.q), data=st.data())
def test_gain_first_evaluation_returns_the_lot_vector_exactly_when_the_agent_gains(profile, data):
    # at every agent position, each report among the true ranking's
    # truncations and a drawn ranking, with a drawn rank row over the lot
    # codes and a drawn bar: a proposer's insertion callable and every
    # agent's cold evaluate return None unless the agent gains by the cold
    # vector, and that vector otherwise, under both rules
    p, q = profile.p, profile.q
    reports = profile.men_prefs + profile.women_prefs
    for rule in RuleId:
        view, evaluate, insert, proposers = da._view_engine(rule, p, q)
        true = [view(pref) for pref in reports]
        for i, pref in enumerate(reports):
            rank = data.draw(st.permutations(range(len(pref.rank_row))))
            bar = data.draw(st.integers(0, len(rank)))
            drawn = tuple(data.draw(st.permutations(pref.ranking)))
            evaluate_with = insert(list(true), i) if i in proposers else None
            for ranking in dict.fromkeys([*truncations(pref.ranking), drawn]):
                viewed = view(Preference(pref.owner, ranking))
                views = [*true[:i], viewed, *true[i + 1 :]]
                cold = evaluate(views)
                check_gain_first(evaluate(views, i, rank, bar), cold, i, rank, bar)
                if evaluate_with is not None:
                    check_gain_first(evaluate_with(viewed, rank, bar), cold, i, rank, bar)


def test_gain_first_insertion_sees_its_proposer_displaced_by_its_own_chain():
    # m1 takes w1 from m2, m2 takes w2 from m3, and m3 takes w1 back from
    # m1, whose list ends there: m1's count of receivers tried still points
    # at w1, but w1 no longer holds m1, so m1 is unmatched and gains nothing
    w1, w2 = women(2)
    m1, m2, m3 = men(3)
    profile = Profile(
        [
            Preference(m1, (w1, OUTSIDE, w2)),
            Preference(m2, (w1, w2, OUTSIDE)),
            Preference(m3, (w2, w1, OUTSIDE)),
            Preference(w1, (m3, m1, m2, OUTSIDE)),
            Preference(w2, (m2, m3, m1, OUTSIDE)),
        ]
    )
    view, evaluate, insert, proposers = da._view_engine(RuleId.MPDA, 3, 2)
    views = [view(pref) for pref in profile.men_prefs + profile.women_prefs]
    cold = evaluate(views)
    assert cold == [2, 1, 0, 2, 1]  # m1 unmatched, m2-w2, m3-w1
    rank = profile.men_prefs[0].rank_row
    for bar in range(len(rank) + 1):
        check_gain_first(insert(list(views), 0)(views[0], rank, bar), cold, 0, rank, bar)
        check_gain_first(evaluate(views, 0, rank, bar), cold, 0, rank, bar)


@settings(max_examples=200, deadline=None)
@given(profile=truncated_profiles(), data=st.data())
def test_sequential_engine_ends_on_one_holding_whatever_the_order_of_entry(profile, data):
    # McVitie & Wilson: entering the proposers in any order, here shuffled
    # and in two batches from one state as a warm start and an insertion
    # do, ends on the holding of entering them in index order
    sides = profile.men_prefs, profile.women_prefs
    for proposer_prefs, receiver_prefs in (sides, sides[::-1]):
        lists = [pref.acceptable_idx for pref in proposer_prefs]
        rows = [pref.rank_row for pref in receiver_prefs]
        n = len(lists)
        expected = [n] * len(rows)
        da._sequential_da(lists, rows, expected, [0] * n, range(n))
        order = data.draw(st.permutations(range(n)))
        cut = data.draw(st.integers(0, n))
        held, next_choice = [n] * len(rows), [0] * n
        da._sequential_da(lists, rows, held, next_choice, order[:cut])
        da._sequential_da(lists, rows, held, next_choice, order[cut:])
        assert held == expected


@settings(max_examples=200, deadline=None)
@given(profile=truncated_profiles())
def test_each_round_holds_what_its_trace_prefix_replays_to(profile):
    # the engine reports each round's holding from its own state, so the
    # proposals and rejections up to a round must rebuild that holding
    for rule in RuleId:
        steps = run_da(rule, profile)[1].steps
        for k in range(1, len(steps) + 1):
            assert replay_trace(DaTrace(rule, steps[:k]), profile.p, profile.q) == steps[k - 1].tentative


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
    # the last round's holding drifts from the untraced engine's outcome;
    # `run_da` and the `solve --trace` writer share the check
    rounds = da._da_rounds

    def drifting_rounds(lists, rows, quotas):
        *head, (proposals, rejections, holding) = rounds(lists, rows, quotas)
        yield from head
        yield proposals, rejections, holding[::-1]

    monkeypatch.setattr(da, "_da_rounds", drifting_rounds)
    for rule in RuleId:
        with pytest.raises(RuntimeError):
            run_da(rule, p1)
        step, _ = formats.da_trace_writer(p1.p, p1.q, rule is RuleId.MPDA)
        with pytest.raises(RuntimeError):
            da._traced_rule(rule, p1, step)
