"""Domains, structural property checkers, and the existence searches."""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab import domains
from matchlab.core import (
    OUTSIDE,
    ListKeys,
    Preference,
    Side,
    count_matchings,
    iter_assignments,
    list_keys,
    man,
    market_shape,
    men,
    stable_assignments,
    stable_set,
    woman,
    women,
)
from matchlab.da import RuleId
from matchlab.domains import (
    AlternatingSequenceWitness,
    _backtracking_table,
    _stable_options,
    PreferenceDomain,
    PriorOrdering,
    ProductOrder,
    all_preferences,
    cyclical_inclusion_missing,
    domain_is_single_peaked,
    exists_stable_sp_rule,
    find_incompatibility_witness,
    generate_maximal_single_peaked,
    generate_minimal_utp,
    is_anonymous,
    is_single_peaked,
    maximal_single_peaked_domain,
    minimal_utp_rankings,
    satisfies_cyclical_inclusion,
    satisfies_top_dominance,
    satisfies_unrestricted_top_pairs,
    theorem3_equivalence_suite,
    top_dominance_violation,
    utp_missing,
)
from matchlab.errors import (
    BudgetExceededError,
    PreconditionError,
    SizeGuardError,
    UnknownOutcomeError,
    ValidationError,
)
from matchlab.formats import mto_domain_from_json
from matchlab.manipulation import is_group_strategy_proof, is_strategy_proof, mpda_rule
from matchlab.mto import CollegeRanking, MtoDomain, StudentPreference, college, student

from conftest import pref

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

M1, M2 = man(0), man(1)
W1, W2 = woman(0), woman(1)

R_12 = (W1, W2, OUTSIDE)
R_21 = (W2, W1, OUTSIDE)
R_1X = (W1, OUTSIDE, W2)
R_2X = (W2, OUTSIDE, W1)
R_X12 = (OUTSIDE, W1, W2)
R_X21 = (OUTSIDE, W2, W1)
SIX = (R_12, R_21, R_1X, R_2X, R_X12, R_X21)


def _dom(men_rankings, women_rankings=None):
    if women_rankings is None:
        women_rankings = [_mirror(r) for r in men_rankings]
    return PreferenceDomain.anonymous(2, 2, men_rankings, women_rankings)


def _mirror(ranking):
    swap = {W1: M1, W2: M2, OUTSIDE: OUTSIDE}
    return tuple(swap[x] for x in ranking)


# --- enumeration of admissible rankings ----------------------------------------


def test_all_preferences_count_and_order():
    prefs = all_preferences(M1, 2)
    assert len(prefs) == 6
    assert [p.ranking for p in prefs] == [R_12, R_1X, R_21, R_2X, R_X12, R_X21]
    assert len(all_preferences(W1, 3)) == 24


# --- domain container -----------------------------------------------------------


def test_full_domain_counts():
    full = PreferenceDomain.full(2, 2)
    assert full.p == full.q == 2
    assert full.profile_count == 6 ** 4 == 1296
    assert len(list(itertools.islice(full.profiles(), 3))) == 3


def test_profiles_iterate_last_agent_fastest():
    full = PreferenceDomain.full(2, 2)
    first, second = itertools.islice(full.profiles(), 2)
    assert first[M1] == second[M1]
    assert first[W1] == second[W1]
    assert first[W2] != second[W2]


def test_domain_validation_errors(p1):
    with pytest.raises(ValidationError, match="empty"):
        PreferenceDomain({M1: [], M2: [p1[M2]], W1: [p1[W1]], W2: [p1[W2]]})
    with pytest.raises(ValidationError, match="owned"):
        PreferenceDomain({M1: [p1[M2]], M2: [p1[M2]], W1: [p1[W1]], W2: [p1[W2]]})
    with pytest.raises(ValidationError, match="duplicate"):
        PreferenceDomain({M1: [p1[M1], p1[M1]], M2: [p1[M2]], W1: [p1[W1]], W2: [p1[W2]]})
    with pytest.raises(ValidationError, match="contiguous"):
        PreferenceDomain(
            {
                M1: [p1[M1]],
                man(2): [pref(man(2), W1, W2, OUTSIDE)],
                W1: [p1[W1]],
                W2: [p1[W2]],
            }
        )
    with pytest.raises(ValidationError, match="side"):
        PreferenceDomain({M1: [p1[M1]]})
    short = Preference(M1, (woman(0), OUTSIDE))
    with pytest.raises(ValidationError, match="ranks"):
        PreferenceDomain({M1: [short], M2: [p1[M2]], W1: [p1[W1]], W2: [p1[W2]]})


def test_domain_rejects_college_agents(p1):
    with pytest.raises(ValidationError, match="not an agent of this market"):
        PreferenceDomain(
            {
                **{a: [p1[a]] for a in p1.agents},
                student(0): [StudentPreference(student(0), (college(0), OUTSIDE))],
            }
        )


def test_domain_membership_and_lookup(p1, p2):
    dom = PreferenceDomain.from_profile(p1)
    assert dom.contains(p1)
    assert not dom.contains(p2)
    assert dom.profile_count == 1
    assert dom.index_of(M1, p1[M1]) == 0
    with pytest.raises(PreconditionError):
        dom.index_of(M1, p2[M1])
    with pytest.raises(UnknownOutcomeError):
        dom.admissible(man(5))


def test_dimension_mismatch_not_contained(p1):
    full3 = PreferenceDomain.full(3, 3)
    assert not full3.contains(p1)


# --- prior orderings --------------------------------------------------------------


def test_prior_ordering_validation():
    line = PriorOrdering(Side.WOMAN, (W2, W1))
    assert line.position(W2) == 0 and line.position(W1) == 1
    with pytest.raises(UnknownOutcomeError):
        line.position(woman(7))
    with pytest.raises(ValidationError):
        PriorOrdering(Side.WOMAN, (W1, M1))
    with pytest.raises(ValidationError):
        PriorOrdering(Side.WOMAN, (W1, W1))
    with pytest.raises(ValidationError):
        PriorOrdering(Side.WOMAN, ())


# --- top dominance -----------------------------------------------------------------


def _naive_td_violation(orders, universe):
    """Literal definition scan: two orders crossing on (y, z) below a common x."""
    extended = list(universe) + [OUTSIDE]
    for pi, pj in itertools.permutations(orders, 2):
        for x in universe:
            for y in extended:
                for z in extended:
                    if len({x, y, z}) != 3:
                        continue
                    if not (pi.prefers(x, y) and pi.prefers(y, z) and pi.weakly_prefers(y, OUTSIDE)):
                        continue
                    if pj.prefers(x, z) and pj.prefers(z, y) and pj.weakly_prefers(z, OUTSIDE):
                        return (x, y, z)
    return None


def test_top_dominance_two_agent_characterization():
    # over every subset of the six rankings, top dominance holds exactly when
    # neither full ranking appears together with its own truncation
    universe = (W1, W2)
    for k in range(1, 7):
        for combo in itertools.combinations(SIX, k):
            orders = [Preference(M1, r) for r in combo]
            s = set(combo)
            expected = not ({R_12, R_1X} <= s) and not ({R_21, R_2X} <= s)
            got = top_dominance_violation(orders, universe) is None
            assert got == expected, combo
            naive = _naive_td_violation(orders, universe) is None
            assert naive == expected, combo


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_top_dominance_matches_naive_scan_three_agents(data):
    prefs = all_preferences(M1, 3)
    size = data.draw(st.integers(min_value=2, max_value=6))
    orders = data.draw(st.lists(st.sampled_from(prefs), min_size=size, max_size=size, unique=True))
    universe = women(3)
    assert (top_dominance_violation(orders, universe) is None) == (
        _naive_td_violation(orders, universe) is None
    )


def test_satisfies_top_dominance_reports_violation():
    dom = _dom([R_12, R_1X, R_X12])
    check = satisfies_top_dominance(dom, Side.MAN)
    assert not check
    agent, pi, pj, x, y, z = check.detail
    assert agent == M1
    assert {pi.ranking, pj.ranking} == {R_12, R_1X}
    assert x == W1 and {y, z} == {W2, OUTSIDE}
    assert satisfies_top_dominance(_dom([R_12, R_21, R_X12]), Side.MAN)


# --- unrestricted top pairs ----------------------------------------------------------


def test_utp_holds_on_full_and_minimal_sets():
    full = PreferenceDomain.full(2, 2)
    assert satisfies_unrestricted_top_pairs(full, Side.MAN)
    assert satisfies_unrestricted_top_pairs(full, Side.WOMAN)
    minimal = generate_minimal_utp(2, 2)
    for side in (Side.MAN, Side.WOMAN):
        assert satisfies_unrestricted_top_pairs(minimal, side)
    assert [len(minimal.admissible(a)) for a in minimal.agents] == [5, 5, 5, 5]


def test_utp_reports_the_first_failing_agent_of_the_other_side():
    # the women's universe is the men: a woman with one ranking misses a pair
    sets = {a: all_preferences(a, 2) for a in (M1, M2, W1)}
    sets[W2] = [Preference(W2, (M1, M2, OUTSIDE))]
    check = satisfies_unrestricted_top_pairs(PreferenceDomain(sets), Side.WOMAN)
    assert check.detail == (W2, "pair", M2, M1)
    assert satisfies_unrestricted_top_pairs(PreferenceDomain(sets), Side.MAN)


def test_minimal_utp_is_minimal():
    rankings = minimal_utp_rankings((W1, W2))
    assert len(rankings) == 5
    for drop in rankings:
        reduced = [Preference(M1, r) for r in rankings if r != drop]
        assert utp_missing(reduced, (W1, W2)) is not None


def test_utp_missing_payloads():
    orders = [Preference(M1, r) for r in (R_12, R_1X, R_X12)]
    assert utp_missing(orders, (W1, W2)) == ("pair", W2, W1)
    orders = [Preference(M1, r) for r in (R_12, R_21, R_1X, R_X12)]
    assert utp_missing(orders, (W1, W2)) == ("outside-second", W2)
    orders = [Preference(M1, r) for r in (R_12, R_21, R_1X, R_2X)]
    assert utp_missing(orders, (W1, W2)) == ("outside-top",)
    assert utp_missing([Preference(M1, r) for r in SIX], (W1, W2)) is None


# --- cyclical inclusion ----------------------------------------------------------------


def test_cyclical_inclusion_payloads():
    orders = [Preference(M1, r) for r in (R_12, R_21)]
    assert cyclical_inclusion_missing(orders, (W1, W2)) == ("outside-top",)
    orders = [Preference(M1, r) for r in (R_12, R_X12)]
    assert cyclical_inclusion_missing(orders, (W1, W2)) == ("swap", W1, W2)
    orders = [Preference(M1, r) for r in (R_X12,)]
    assert cyclical_inclusion_missing(orders, (W1, W2)) is None
    orders = [Preference(M1, r) for r in (R_12, R_21, R_X12)]
    assert cyclical_inclusion_missing(orders, (W1, W2)) is None


def _swap_closed_sets_with_outside_top():
    """All per-side ranking sets passing cyclical inclusion at two agents."""
    out = []
    for k in range(1, 7):
        for combo in itertools.combinations(SIX, k):
            s = set(combo)
            if not (s & {R_X12, R_X21}):
                continue
            if (R_12 in s) != (R_21 in s):
                continue
            out.append(combo)
    return out


def test_cyclical_inclusion_set_census():
    # 24 admissible sets per side, 15 of which also satisfy top dominance
    sets = _swap_closed_sets_with_outside_top()
    assert len(sets) == 24
    for combo in sets:
        orders = [Preference(M1, r) for r in combo]
        assert cyclical_inclusion_missing(orders, (W1, W2)) is None
    td = [
        combo
        for combo in sets
        if top_dominance_violation([Preference(M1, r) for r in combo], (W1, W2)) is None
    ]
    assert len(td) == 15
    all_sets = [c for k in range(1, 7) for c in itertools.combinations(SIX, k)]
    passing = [
        c
        for c in all_sets
        if cyclical_inclusion_missing([Preference(M1, r) for r in c], (W1, W2)) is None
    ]
    assert len(passing) == 24


# --- anonymity ----------------------------------------------------------------------------


def test_anonymous_domain_detected(p1):
    dom = _dom([R_12, R_21, R_X12])
    assert is_anonymous(dom)
    lopsided = PreferenceDomain(
        {
            M1: [pref(M1, W1, W2, OUTSIDE), pref(M1, W2, W1, OUTSIDE)],
            M2: [pref(M2, W1, W2, OUTSIDE)],
            W1: [p1[W1]],
            W2: [pref(W2, p1[W1].ranking[0], p1[W1].ranking[1], p1[W1].ranking[2])],
        }
    )
    check = is_anonymous(lopsided)
    assert not check
    assert check.detail[0] is Side.MAN


# --- single-peakedness -------------------------------------------------------------------


def test_is_single_peaked_examples():
    w3 = women(3)
    line = PriorOrdering(Side.WOMAN, w3)
    assert is_single_peaked(pref(M1, w3[1], w3[2], w3[0], OUTSIDE), line)
    assert is_single_peaked(pref(M1, w3[1], w3[0], OUTSIDE, w3[2]), line)
    assert not is_single_peaked(pref(M1, w3[0], w3[2], w3[1], OUTSIDE), line)
    assert is_single_peaked(pref(M1, OUTSIDE, w3[2], w3[1], w3[0]), line)
    with pytest.raises(PreconditionError):
        is_single_peaked(pref(W1, M1, M2, OUTSIDE), PriorOrdering(Side.WOMAN, (W1, W2)))


def _naive_single_peaked(p, line):
    # pairwise form: on each flank, closer to the peak means more preferred
    order = line.order
    peak = min((x for x in p.ranking if x is not OUTSIDE), key=p.rank_of)
    k = order.index(peak)
    for i, j in itertools.combinations(range(len(order)), 2):
        if j <= k and not p.prefers(order[j], order[i]):
            return False
        if i >= k and not p.prefers(order[i], order[j]):
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_single_peaked_matches_pairwise_form(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    line_order = tuple(data.draw(st.permutations(women(n))))
    line = PriorOrdering(Side.WOMAN, line_order)
    ranking = tuple(data.draw(st.permutations(women(n) + (OUTSIDE,))))
    p = Preference(M1, ranking)
    assert is_single_peaked(p, line) == _naive_single_peaked(p, line)


def test_maximal_single_peaked_equals_definition_filter():
    w3 = women(3)
    line = PriorOrdering(Side.WOMAN, (w3[1], w3[0], w3[2]))
    generated = generate_maximal_single_peaked(line, M1)
    filtered = [p for p in all_preferences(M1, 3) if is_single_peaked(p, line)]
    assert {p.ranking for p in generated} == {p.ranking for p in filtered}
    assert len(generated) == len(filtered) == 16


def test_maximal_single_peaked_counts_and_guards():
    assert len(generate_maximal_single_peaked(PriorOrdering(Side.WOMAN, (W1, W2)), M1)) == 6
    w4 = women(4)
    assert len(generate_maximal_single_peaked(PriorOrdering(Side.WOMAN, w4), M1)) == 40
    with pytest.raises(SizeGuardError):
        generate_maximal_single_peaked(PriorOrdering(Side.WOMAN, women(9)), M1)
    with pytest.raises(PreconditionError):
        generate_maximal_single_peaked(PriorOrdering(Side.WOMAN, (W1, W2)), W1)


# --- code order against the outcome-level order --------------------------------


def _outcome_order(ranking) -> tuple:
    """Sort key of a ranking by its outcomes: agents of one side, of either
    market, by index, and the outside option after all of them."""
    return tuple((1, 0) if x is OUTSIDE else (0, x.index) for x in ranking)


RANKING_KINDS = {
    "man": (Preference, M1),
    "woman": (Preference, W1),
    "student": (StudentPreference, student(0)),
    "college": (CollegeRanking, college(0)),
}
AGENT_KINDS = {"men": man, "women": woman, "colleges": college, "students": student}
SHUFFLED = st.integers(1, 6).flatmap(lambda n: st.permutations(range(n)))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", sorted(RANKING_KINDS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_code_order_is_the_outcome_order(kind, n, data):
    make, owner = RANKING_KINDS[kind]
    codes = st.permutations(range(n + 1)).map(tuple)
    drawn = data.draw(st.lists(codes, min_size=1, max_size=10, unique=True))
    rankings = [make.from_idx(owner, idx) for idx in drawn]
    by_code = sorted(rankings, key=lambda r: r.ranking_idx)
    assert by_code == sorted(rankings, key=lambda r: _outcome_order(r.ranking))


def _minimal_utp_by_outcomes(universe) -> list:
    """`minimal_utp_rankings` built as every UTP ranking (completions in
    universe order), deduplicated, then sorted by outcomes."""
    rankings = []
    for u, v in itertools.permutations(universe, 2):
        rankings.append((u, v, *[x for x in universe if x != u and x != v], OUTSIDE))
    for u in universe:
        rankings.append((u, OUTSIDE, *[x for x in universe if x != u]))
    rankings.append((OUTSIDE, *universe))
    return sorted(set(rankings), key=_outcome_order)


@pytest.mark.parametrize("kind", sorted(AGENT_KINDS))
@settings(max_examples=30, deadline=None)
@given(order=SHUFFLED)
def test_minimal_utp_rankings_on_shuffled_universes(kind, order):
    universe = [AGENT_KINDS[kind](i) for i in order]
    assert minimal_utp_rankings(universe) == _minimal_utp_by_outcomes(universe)


def _single_peaked_by_outcomes(line, owner) -> tuple:
    """`generate_maximal_single_peaked` built from the worst-first walks of
    the line, the outside option at every slot, deduplicated, then sorted by
    outcomes and named."""

    def worst_first(lo, hi):
        if lo == hi:
            yield [line[lo]]
            return
        for rest in worst_first(lo + 1, hi):
            yield [line[lo]] + rest
        for rest in worst_first(lo, hi - 1):
            yield [line[hi]] + rest

    rankings = set()
    for seq in worst_first(0, len(line) - 1):
        best_first = seq[::-1]
        for slot in range(len(line) + 1):
            rankings.add(tuple(best_first[:slot] + [OUTSIDE] + best_first[slot:]))
    return tuple(Preference(owner, r) for r in sorted(rankings, key=_outcome_order))


@pytest.mark.parametrize("side, owner", [(Side.WOMAN, M1), (Side.MAN, W1)], ids=["women", "men"])
@settings(max_examples=30, deadline=None)
@given(order=SHUFFLED)
def test_maximal_single_peaked_on_shuffled_lines(side, owner, order):
    make = woman if side is Side.WOMAN else man
    line = PriorOrdering(side, tuple(make(i) for i in order))
    generated = generate_maximal_single_peaked(line, owner)
    expected = _single_peaked_by_outcomes(line.order, owner)
    assert generated == expected
    assert [hash(p) for p in generated] == [hash(p) for p in expected]


def test_maximal_single_peaked_domain_two_by_two_is_full():
    line_m = PriorOrdering(Side.MAN, (M1, M2))
    line_w = PriorOrdering(Side.WOMAN, (W1, W2))
    dom = maximal_single_peaked_domain(line_m, line_w)
    assert dom == PreferenceDomain.full(2, 2)
    assert domain_is_single_peaked(dom, line_m, line_w)
    assert is_anonymous(dom)


def test_domain_single_peaked_check_reports_offender():
    w3 = women(3)
    m3 = men(3)
    line_w = PriorOrdering(Side.WOMAN, w3)
    line_m = PriorOrdering(Side.MAN, m3)
    valley = pref(m3[0], w3[0], w3[2], w3[1], OUTSIDE)
    dom = PreferenceDomain(
        {
            m3[0]: [valley],
            m3[1]: [pref(m3[1], w3[0], w3[1], w3[2], OUTSIDE)],
            m3[2]: [pref(m3[2], w3[2], w3[1], w3[0], OUTSIDE)],
            w3[0]: [pref(w3[0], m3[0], m3[1], m3[2], OUTSIDE)],
            w3[1]: [pref(w3[1], m3[1], m3[0], OUTSIDE, m3[2])],
            w3[2]: [pref(w3[2], m3[2], m3[1], m3[0], OUTSIDE)],
        }
    )
    check = domain_is_single_peaked(dom, line_m, line_w)
    assert not check
    assert check.detail == (m3[0], valley)


# --- alternating-sequence witnesses ---------------------------------------------------------


def test_incompatibility_witness_on_full_domain():
    full = PreferenceDomain.full(2, 2)
    wit = find_incompatibility_witness(full)
    assert wit is not None
    wit.validate(full)
    assert len(wit.men_seq) == 2
    assert wit.pivot is OUTSIDE
    assert wit.w1_pref.owner == wit.w1_tilde.owner == wit.women_seq[0]


def test_incompatibility_requires_utp_for_men():
    dom = _dom([R_12, R_21, R_X12, R_X21])
    with pytest.raises(PreconditionError, match="top pairs"):
        find_incompatibility_witness(dom)


def test_witness_validation_rejects_broken_chains():
    full = PreferenceDomain.full(2, 2)
    wit = find_incompatibility_witness(full)
    short = AlternatingSequenceWitness(
        men_seq=wit.men_seq[:1],
        women_seq=wit.women_seq[:1],
        chain_prefs=(),
        w1_pref=wit.w1_pref,
        w1_tilde=wit.w1_tilde,
        pivot=wit.pivot,
    )
    with pytest.raises(PreconditionError, match="k >= 2"):
        short.validate(full)
    dup = AlternatingSequenceWitness(
        men_seq=(wit.men_seq[0], wit.men_seq[0]),
        women_seq=wit.women_seq,
        chain_prefs=wit.chain_prefs,
        w1_pref=wit.w1_pref,
        w1_tilde=wit.w1_tilde,
        pivot=wit.pivot,
    )
    with pytest.raises(PreconditionError, match="distinct"):
        dup.validate(full)
    crossed = AlternatingSequenceWitness(
        men_seq=wit.men_seq,
        women_seq=wit.women_seq,
        chain_prefs=wit.chain_prefs,
        w1_pref=wit.w1_tilde,  # swapped pair breaks the straight condition
        w1_tilde=wit.w1_pref,
        pivot=wit.pivot,
    )
    with pytest.raises(PreconditionError):
        crossed.validate(full)


def test_no_witness_when_chains_cannot_form():
    # women never rank two men above the outside option: chain condition dies
    dom = PreferenceDomain.anonymous(
        2,
        2,
        [p.ranking for p in all_preferences(M1, 2)],
        [(M1, OUTSIDE, M2), (M2, OUTSIDE, M1), (OUTSIDE, M1, M2)],
    )
    assert find_incompatibility_witness(dom) is None


# --- existence search ------------------------------------------------------------------------


def test_full_domain_admits_no_stable_sp_rule():
    full = PreferenceDomain.full(2, 2)
    auto = exists_stable_sp_rule(full)
    assert not auto.exists
    assert auto.path == "shortcut-mpda"
    assert auto.sp_witness is not None
    forced = exists_stable_sp_rule(full, path="backtracking")
    assert not forced.exists
    assert forced.path == "backtracking"


def test_restricted_domain_rule_found_and_stable():
    dom = _dom([R_12, R_21, R_X12, R_X21])
    found = exists_stable_sp_rule(dom, path="backtracking")
    assert found.exists
    assert found.table is not None
    rule = found.rule
    assert rule.stable
    for profile in dom.profiles():
        assert rule.apply(profile) in stable_set(profile)
    assert is_strategy_proof(rule, dom)


def test_table_rule_answers_from_its_option_vector_and_refuses_profiles_outside_the_domain():
    dom = _dom([R_12, R_21, R_X12, R_X21])
    found = exists_stable_sp_rule(dom, path="backtracking")
    assert len(found.picked) == dom.profile_count
    for profile in dom.profiles():
        key = (profile.men_prefs, profile.women_prefs)
        assert found.rule.assignment(*key) == found.table[key]
    full = PreferenceDomain.full(2, 2)
    outside = next(profile for profile in full.profiles() if not dom.contains(profile))
    with pytest.raises(PreconditionError, match="outside the table"):
        found.rule.assignment(outside.men_prefs, outside.women_prefs)
    # so are a domain profile's reports out of position: a ranking's owner
    # is part of it
    inside = next(dom.profiles())
    with pytest.raises(PreconditionError, match="outside the table"):
        found.rule.assignment(inside.men_prefs[::-1], inside.women_prefs)


def test_shortcut_and_backtracking_agree_when_mpda_works(p1):
    # women can only swap the two full rankings; the two-stable profile is
    # present, and the backtracking table is forced onto the proposer-optimal
    # selection everywhere
    men_rk = [p.ranking for p in all_preferences(M1, 2)]
    women_rk = [(M1, M2, OUTSIDE), (M2, M1, OUTSIDE)]
    dom = PreferenceDomain.anonymous(2, 2, men_rk, women_rk)
    auto = exists_stable_sp_rule(dom)
    assert auto.exists and auto.path == "shortcut-mpda"
    forced = exists_stable_sp_rule(dom, path="backtracking")
    assert forced.exists
    mpda = mpda_rule()
    assert dom.contains(p1) and len(stable_set(p1)) == 2
    for profile in dom.profiles():
        assert forced.rule.apply(profile) == mpda.apply(profile)


def test_minimal_utp_domain_admits_no_rule():
    dom = generate_minimal_utp(2, 2)
    auto = exists_stable_sp_rule(dom)
    assert not auto.exists and auto.path == "shortcut-mpda"
    forced = exists_stable_sp_rule(dom, path="backtracking")
    assert not forced.exists


# (seed, sha-256 prefix of repr(table)) recorded before the search moved to
# profile indices; every domain without a rule has the table None
TABLE_DIGESTS = {
    0: "dc937b59892604f5", 1: "3c5e8f38bf304ea6", 2: "0ec5896268c3bb40",
    3: "523c29c3fcbdea6a", 4: "dc937b59892604f5", 5: "dc937b59892604f5",
    6: "7f3df8619b7104fe", 7: "f4deb49aa9ba1056", 8: "2f922563a9f17316",
    9: "f7c20bbfbce75b74", 10: "dc937b59892604f5", 11: "0e3124b59ee47c98",
    12: "1db60d9180252fc3", 13: "18092e114ead43d8", 14: "d4d8f8ae1967589e",
    15: "a83dd366dae367e4", 16: "dc937b59892604f5", 17: "44ff6ad60475c179",
    18: "f4a05f938834fbe3", 19: "7827fd0969b9921f",
}


def _seeded_domain(seed):
    rng = random.Random(seed)
    full = PreferenceDomain.full(2, 2)
    return PreferenceDomain({a: rng.sample(full.admissible(a), rng.randint(2, 6)) for a in full.agents})


def test_backtracking_tables_are_pinned():
    for seed, digest in TABLE_DIGESTS.items():
        table = exists_stable_sp_rule(_seeded_domain(seed), "backtracking").table
        assert hashlib.sha256(repr(table).encode()).hexdigest()[:16] == digest, seed


def _searched_table(domain):
    """The table of the rule that `_backtracking_table` finds, or None."""
    return exists_stable_sp_rule(domain, "backtracking").table


def _reference_table(domain):
    """The rule search as first written: per profile, the stable matchings
    that `stable_assignments` keeps, and consistency from rank lookups."""
    p = domain.p
    order = domain.product_order()
    digit_tuples = list(order.digits())
    matchings = list(iter_assignments(p, domain.q))
    keys, options = [], []
    for digits in digit_tuples:
        prefs = order.preferences(digits)
        keys.append((prefs[:p], prefs[p:]))
        options.append(stable_assignments(matchings, prefs[:p], prefs[p:]))

    def rank(pref, option, a):
        idx = option[0][a.index] if a.side is Side.MAN else option[1][a.index]
        return pref.outside_rank if idx is None else pref.rank_by_index[idx]

    chosen = [-1] * len(keys)

    def consistent(pos, option):
        for ai, (a, d) in enumerate(zip(domain.agents, digit_tuples[pos])):
            for v in range(d):
                there = options[pos + (v - d) * order.strides[ai]]
                there = there[chosen[pos + (v - d) * order.strides[ai]]]
                here_pref, there_pref = order.lists[ai][d], order.lists[ai][v]
                if rank(here_pref, there, a) < rank(here_pref, option, a):
                    return False
                if rank(there_pref, option, a) < rank(there_pref, there, a):
                    return False
        return True

    pos = 0
    while pos < len(keys):
        for opt_idx in range(chosen[pos] + 1, len(options[pos])):
            if consistent(pos, options[pos][opt_idx]):
                chosen[pos] = opt_idx
                pos += 1
                break
        else:
            chosen[pos] = -1
            pos -= 1
            if pos < 0:
                return None
    return {key: options[pos][chosen[pos]][0] for pos, key in enumerate(keys)}


def _random_sub_domain(rng, p, q, largest):
    full = PreferenceDomain.full(p, q)
    return PreferenceDomain(
        {a: rng.sample(full.admissible(a), rng.randint(1, min(largest, len(full.admissible(a))))) for a in full.agents}
    )


def _watch_search(monkeypatch) -> tuple[list, list]:
    """Record what each `_backtracking_table` call sees: the forced
    profiles' conflicts (`axis_gains`) and each free profile the walk
    visits, once per arrival (`ProductOrder.digits_at`)."""
    conflicts, visits = [], []
    gains, digits_at = domains.axis_gains, ProductOrder.digits_at

    def watched_gains(*args):
        conflicts.append(gains(*args))
        return conflicts[-1]

    def watched_digits(order, index):
        visits.append(index)
        return digits_at(order, index)

    monkeypatch.setattr(domains, "axis_gains", watched_gains)
    monkeypatch.setattr(ProductOrder, "digits_at", watched_digits)
    return conflicts, visits


@pytest.mark.parametrize("p, q", [(2, 2), (2, 3), (3, 2)])
def test_backtracking_table_matches_the_reference_search(monkeypatch, p, q):
    conflicts, visits = _watch_search(monkeypatch)
    found, backtracked = [], []
    for seed in range(30):
        domain = _random_sub_domain(random.Random(seed), p, q, 6)
        conflicts.clear()
        visits.clear()
        table = _searched_table(domain)
        assert repr(table) == repr(_reference_table(domain)), seed
        found.append(table is not None)
        # the walk stepped back: it gave up, or came to a profile twice
        backtracked.append(table is None or len(visits) > len(set(visits)))
        # DA is strategy-proof for its proposers (Dubins and Freedman 1981,
        # Roth 1982), and a profile with one stable matching is DA's outcome
        # for either side, so forced profiles never conflict
        assert conflicts == [0], seed
    # the seeds hold domains with a rule and domains without one, and the
    # walk over the free profiles backtracks on some of them
    assert any(found) and not all(found)
    assert any(backtracked)


def test_forced_profiles_that_conflict_end_the_search_before_the_walk(monkeypatch):
    # force every profile to its MPDA matching: where women manipulate
    # MPDA the forced profiles conflict, and the search gives up without
    # visiting a free profile; where MPDA is strategy-proof the table is
    # MPDA's
    full = PreferenceDomain.full(2, 2)
    # each woman holds her first two rankings, both topped by m1
    cut = PreferenceDomain({a: full.admissible(a)[: 6 if a.side is Side.MAN else 2] for a in full.agents})
    assert not is_strategy_proof(mpda_rule(), full)
    assert is_strategy_proof(mpda_rule(), cut)
    conflicts, visits = _watch_search(monkeypatch)
    stable_options = domains._stable_options

    def mpda_only(domain):
        ranks, _ = stable_options(domain)
        p, lists = domain.p, domain.product_order().lists
        _, index, _ = market_shape(p, domain.q)
        options = [(index[mpda_rule().assignment(r[:p], r[p:])],) for r in itertools.product(*lists)]
        return ranks, options

    monkeypatch.setattr(domains, "_stable_options", mpda_only)
    assert _backtracking_table(full) is None
    assert conflicts[0] != 0 and visits == []
    table = _searched_table(cut)
    assert conflicts[1] == 0
    lists = cut.product_order().lists
    assert table == {(r[:2], r[2:]): mpda_rule().assignment(r[:2], r[2:]) for r in itertools.product(*lists)}


def test_backtracking_table_past_256_matchings_matches_the_reference_search():
    # a 4x5 market has 501 matchings, more than a byte can number, so the
    # search reads each agent's lot codes one profile at a time
    assert count_matchings(4, 5) == 501
    for seed in range(3):
        domain = _random_sub_domain(random.Random(seed), 4, 5, 2)
        assert repr(_searched_table(domain)) == repr(_reference_table(domain)), seed


# every shape with 1 to 3 men and 1 to 3 women, longer one-agent sides and
# a 2x4 market; `core.list_keys` tells those whose options `_stable_options`
# remembers by key (2x2, 2x3, 3x2, 1xn and nx1 up to n = 5) from those
# where it runs the pass on every call (3x3, 2x4)
OPTION_SHAPES = [(p, q) for p in range(1, 4) for q in range(1, 4)] + [(1, 4), (1, 5), (4, 1), (5, 1), (2, 4)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stable_options_match_stable_assignments(data):
    p, q = data.draw(st.sampled_from(OPTION_SHAPES), label="shape")
    sets = {}
    for a in men(p) + women(q):
        prefs = all_preferences(a, q if a.side is Side.MAN else p)
        sets[a] = data.draw(st.lists(st.sampled_from(prefs), min_size=1, max_size=3, unique=True), label=a.name)
    domain = PreferenceDomain(sets)
    order = domain.product_order()
    keys = list_keys(p, q)
    if keys is None:
        assert domain.profile_keys() is None
    else:
        assert domain.profile_keys() == keys.keys(order.lists)
    _, options = _stable_options(domain)
    # a second call reads the options the first one added to the store
    assert _stable_options(domain)[1] == options
    if keys is not None:
        known = keys._memos["stable options"]
        assert [known[k] for k in domain.profile_keys()] == options
    matchings, _, _ = market_shape(p, q)
    assert matchings == tuple(assignment for assignment, _ in iter_assignments(p, q))
    listed = list(order.digits())
    assert len(options) == len(listed)
    for digits, opts in zip(listed, options):
        prefs = order.preferences(digits)
        stable = stable_assignments(iter_assignments(p, q), prefs[:p], prefs[p:])
        assert [matchings[k] for k in opts] == [assignment for assignment, _ in stable]


def _count_passes(monkeypatch) -> list:
    """Record the report count of each agent in every `_stable_option_pass`."""
    passes = []
    option_pass = domains._stable_option_pass

    def counting(p, q, ranks):
        passes.append([len(rows) for rows in ranks])
        return option_pass(p, q, ranks)

    monkeypatch.setattr(domains, "_stable_option_pass", counting)
    return passes


def test_stable_table_runs_the_pass_only_on_unseen_keys(monkeypatch):
    passes = _count_passes(monkeypatch)
    # the full 2x2 domain holds every key, so one pass fills the table and
    # no later 2x2 search runs one
    _stable_options(PreferenceDomain.full(2, 2))
    keys = list_keys(2, 2)
    assert passes == [[6] * 4] and len(keys._memos["stable options"]) == keys.size == 625
    rng = random.Random(23)
    for _ in range(6):
        domain = _random_sub_domain(rng, 2, 2, 3)
        assert repr(_searched_table(domain)) == repr(_reference_table(domain))
    assert len(passes) == 1
    # elsewhere a search passes over its own reports when one of its keys
    # is new, and searching the same domains again runs no pass
    for p, q in [(2, 3), (3, 2), (1, 5)]:
        passes.clear()
        keys, seen, expected = list_keys(p, q), set(), []
        searched = [_random_sub_domain(rng, p, q, 3) for _ in range(8)]
        for domain in searched:
            profile_keys = set(keys.keys(domain.product_order().lists))
            if not profile_keys <= seen:
                expected.append([len(domain.admissible(a)) for a in domain.agents])
                seen |= profile_keys
            _backtracking_table(domain)
        assert passes == expected and keys._memos["stable options"].keys() == seen
        for domain in searched:
            assert repr(_searched_table(domain)) == repr(_reference_table(domain))
        assert passes == expected


def test_stable_table_is_never_built_past_the_budget(monkeypatch):
    # 3x3 and 2x4 markets have 16 ** 6 and 65 ** 2 * 5 ** 4 list vectors,
    # over EXHAUSTIVE_PROFILE_BUDGET: each search passes over its own reports,
    # and no store of options is kept for them
    past_budget = [(p, q) for p, q in OPTION_SHAPES if list_keys(p, q) is None]
    assert past_budget == [(3, 3), (2, 4)]
    passes = _count_passes(monkeypatch)
    rng = random.Random(29)
    for p, q in past_budget:
        searched = []
        for _ in range(3):
            domain = _random_sub_domain(rng, p, q, 2)
            searched.append([len(domain.admissible(a)) for a in domain.agents])
            _backtracking_table(domain)
            assert domain.profile_keys() is None
        assert passes == searched
        passes.clear()


def test_a_certification_unit_keys_its_domain_once(monkeypatch):
    # a seeded 2x2 domain where the men hold the unrestricted top pairs:
    # both search paths and the found rule's group certification read the
    # one key list the domain keeps, and DA's outcomes and the stable
    # options from one store
    rng = random.Random(1)
    sets = {m: [Preference(m, r) for r in minimal_utp_rankings(women(2))] for m in men(2)}
    sets.update({w: rng.sample(all_preferences(w, 2), 4) for w in women(2)})
    domain = PreferenceDomain(sets)
    assert satisfies_unrestricted_top_pairs(domain, Side.MAN)
    calls = []
    keys = ListKeys.keys

    def counting(self, lists):
        calls.append(len(lists))
        return keys(self, lists)

    monkeypatch.setattr(ListKeys, "keys", counting)
    auto = exists_stable_sp_rule(domain, "auto")
    table = exists_stable_sp_rule(domain, "backtracking")
    assert auto.path == "shortcut-mpda" and auto.exists and table.exists
    assert is_group_strategy_proof(auto.rule, domain)
    assert calls == [4]
    assert domain.product_order() is domain.product_order()
    assert domain.profile_keys() is domain.profile_keys()
    store = list_keys(2, 2)._memos
    assert store.keys() == {RuleId.MPDA, "stable options"}
    assert all(k in store[kind] for kind in store for k in domain.profile_keys())


def test_college_domains_build_their_product_order_once():
    # the Example 2 fixture: 200,000 profiles, of which the first 50 and
    # the last are compared with the product of the admissible sets
    fixture = _college_fixture_domain()
    assert fixture == _college_fixture_domain() and fixture != _cut_college_domain()
    order = fixture.product_order()
    assert fixture.product_order() is order
    assert order.strides == (100_000, 100_000, 100_000, 10_000, 1_000, 100, 10, 1)
    expected = itertools.product(*(fixture.admissible(a) for a in fixture.agents))
    profiles = fixture.profiles()
    for index, prefs in enumerate(itertools.islice(expected, 50)):
        assert order.preferences(order.digits_at(index)) == prefs
        profile = next(profiles)
        assert tuple(profile[a] for a in fixture.agents) == prefs
    last = tuple(fixture.admissible(a)[-1] for a in fixture.agents)
    assert order.preferences(order.digits_at(fixture.profile_count - 1)) == last


def _cut_marriage_domain() -> PreferenceDomain:
    full = PreferenceDomain.full(2, 2)
    return PreferenceDomain({a: full.admissible(a)[:size] for a, size in zip(full.agents, (3, 1, 2, 4))})


def _college_fixture_domain() -> MtoDomain:
    return mto_domain_from_json(json.loads((FIXTURES / "example2_domain.json").read_text()))


def _cut_college_domain() -> MtoDomain:
    """The Example 2 fixture domain with 1 to 3 entries per agent."""
    full = _college_fixture_domain()
    sizes = (2, 1, 1, 3, 1, 2, 1, 3)
    return MtoDomain({a: full.admissible(a)[:size] for a, size in zip(full.agents, sizes)})


def test_product_order_numbers_profiles_in_profile_order():
    cases = [(_cut_marriage_domain(), (8, 8, 4, 1)), (_cut_college_domain(), (18, 18, 18, 6, 6, 3, 3, 1))]
    for dom, strides in cases:
        order = dom.product_order()
        assert order.strides == strides
        expected = list(itertools.product(*(dom.admissible(a) for a in dom.agents)))
        listed = list(order.digits())
        assert len(listed) == dom.profile_count == len(expected)
        for index, digits in enumerate(listed):
            assert sum(d * s for d, s in zip(digits, order.strides)) == index
            assert order.preferences(digits) == expected[index]
        assert [tuple(p[a] for a in dom.agents) for p in dom.profiles()] == expected


@pytest.mark.parametrize(
    "cut, full",
    [
        (_cut_marriage_domain, lambda: PreferenceDomain.full(2, 2)),
        (_cut_college_domain, _college_fixture_domain),
    ],
    ids=["marriage", "college"],
)
def test_inherited_domain_methods(cut, full):
    dom, everything = cut(), full()
    for a in dom.agents:
        for d, pref in enumerate(dom.admissible(a)):
            assert dom.index_of(a, pref) == d
    # the last agent's first excluded ranking makes a profile outside the cut
    last = dom.agents[-1]
    outside = everything.admissible(last)[len(dom.admissible(last))]
    with pytest.raises(PreconditionError):
        dom.index_of(last, outside)
    inside = next(dom.profiles())
    assert dom.contains(inside)
    assert not dom.contains(inside.replace({last: outside}))
    single = type(dom).from_profile(inside)
    assert single.profile_count == 1 and list(single.profiles()) == [inside]
    other_kind = _cut_college_domain() if isinstance(dom, PreferenceDomain) else _cut_marriage_domain()
    assert dom == cut() and dom != single and dom != other_kind


@pytest.mark.parametrize("cut", [_cut_marriage_domain, _cut_college_domain], ids=["marriage", "college"])
def test_domain_rejects_entries_that_are_not_rankings(cut):
    # construction checks every shape the DA engine trusts, so a set entry
    # of the wrong type, even a ranking that neither market reports, is a
    # ValidationError on either side and in any place
    dom = cut()
    sets = {a: dom.admissible(a) for a in dom.agents}
    for a in (dom.agents[0], dom.agents[-1]):
        for bad in ("x", CollegeRanking(college(0), [student(1), OUTSIDE, student(0)])):
            for entries in ([bad], [*sets[a], bad]):
                with pytest.raises(ValidationError, match=f"set for {a!r} holds a"):
                    type(dom)({**sets, a: entries})


def test_search_guards():
    with pytest.raises(ValidationError):
        exists_stable_sp_rule(PreferenceDomain.full(2, 2), path="bogus")
    with pytest.raises(BudgetExceededError):
        exists_stable_sp_rule(PreferenceDomain.full(3, 3), path="backtracking")


# --- the four-way equivalence ------------------------------------------------------------------


LINE_M = PriorOrdering(Side.MAN, (M1, M2))
LINE_W = PriorOrdering(Side.WOMAN, (W1, W2))


def test_equivalence_all_false_on_full_domain():
    report = theorem3_equivalence_suite(PreferenceDomain.full(2, 2), LINE_M, LINE_W)
    assert report.clauses == (False, False, False, False)
    assert report.equivalent
    assert report.details["mpda_sp"] is False
    assert report.details["wpda_sp"] is False


def test_equivalence_all_true_on_top_dominant_domain():
    dom = _dom([R_12, R_21, R_X12, R_X21])
    report = theorem3_equivalence_suite(dom, LINE_M, LINE_W)
    assert report.clauses == (True, True, True, True)
    assert report.equivalent
    assert report.details["td_men"] and report.details["td_women"]
    assert report.details["gsp_checks"]


def test_equivalence_preconditions():
    lopsided = PreferenceDomain(
        {
            M1: [pref(M1, W1, W2, OUTSIDE), pref(M1, OUTSIDE, W1, W2), pref(M1, W2, W1, OUTSIDE)],
            M2: [pref(M2, OUTSIDE, W1, W2)],
            W1: [pref(W1, OUTSIDE, M1, M2)],
            W2: [pref(W2, OUTSIDE, M1, M2)],
        }
    )
    with pytest.raises(PreconditionError, match="anonymous"):
        theorem3_equivalence_suite(lopsided, LINE_M, LINE_W)
    no_cycle = _dom([R_12, R_X12])
    with pytest.raises(PreconditionError, match="cyclical"):
        theorem3_equivalence_suite(no_cycle, LINE_M, LINE_W)


def test_equivalence_across_sampled_admissible_domains():
    sets = _swap_closed_sets_with_outside_top()
    assert len(sets) * len(sets) == 576
    rng = random.Random(42)
    pairs = [(rng.choice(sets), rng.choice(sets)) for _ in range(12)]
    for men_combo, women_combo in pairs:
        dom = PreferenceDomain.anonymous(2, 2, men_combo, [_mirror(r) for r in women_combo])
        report = theorem3_equivalence_suite(dom, LINE_M, LINE_W)
        assert report.equivalent, (men_combo, women_combo, report.clauses)
