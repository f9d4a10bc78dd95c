import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import M1, M2, W1, W2, pref, random_profile
from matchlab.core import (
    OUTSIDE,
    AgentId,
    Matching,
    Preference,
    Profile,
    Side,
    axis_gains,
    blocking_pairs,
    count_matchings,
    enumerate_matchings,
    gain_sets,
    is_individually_rational,
    is_stable,
    lot_codes,
    man,
    stable_set,
    woman,
)
from matchlab.errors import (
    DimensionMismatchError,
    SizeGuardError,
    UnknownOutcomeError,
    ValidationError,
)
from matchlab.mto import CollegePreference, CollegeRanking, StudentPreference, college, student

# Matching counts frozen from an independent recursion, computed before the
# enumerator existed: f(p, q) = f(p-1, q) + q * f(p-1, q-1), f(0, q) = 1.
FROZEN_COUNTS = {
    (1, 1): 2,
    (2, 2): 7,
    (3, 2): 13,
    (2, 3): 13,
    (3, 3): 34,
    (4, 4): 209,
}


def recursive_count(p: int, q: int) -> int:
    if p == 0:
        return 1
    return recursive_count(p - 1, q) + q * recursive_count(p - 1, q - 1)


# --- preferences ----------------------------------------------------------


def test_prefers_example(p1):
    assert p1[M1].prefers(W1, W2)
    assert not p1[M1].prefers(W2, W1)
    assert p1[M1].weakly_prefers(W1, W1)


def test_prefers_rejects_unranked(p1):
    with pytest.raises(UnknownOutcomeError):
        p1[M1].prefers(woman(2), W1)


def test_preference_requires_outside():
    with pytest.raises(ValidationError):
        Preference(M1, (W1, W2))


def test_preference_rejects_duplicates():
    with pytest.raises(ValidationError):
        Preference(M1, (W1, W1, OUTSIDE))


def test_preference_rejects_gap_in_indices():
    with pytest.raises(ValidationError):
        Preference(M1, (W1, woman(2), OUTSIDE))


def test_preference_rejects_own_side():
    with pytest.raises(ValidationError):
        Preference(M1, (M2, W1, OUTSIDE))


def test_acceptable_prefix():
    p = pref(M1, W1, OUTSIDE, W2)
    assert p.acceptable() == (W1,)
    assert p.is_acceptable(W1)
    assert not p.is_acceptable(W2)


@given(st.permutations([0, 1, 2, "out"]))
def test_prefers_agrees_with_position_scan(order):
    ranking = [OUTSIDE if x == "out" else woman(x) for x in order]
    p = Preference(M1, ranking)
    for x, y in itertools.permutations(ranking, 2):
        assert p.prefers(x, y) == (ranking.index(x) < ranking.index(y))


@given(st.permutations([0, 1, 2, 3]), st.integers(0, 4))
def test_preference_acceptable_set_matches_outside_position(order, cut):
    ranking = [woman(i) for i in order]
    ranking.insert(cut, OUTSIDE)
    p = Preference(M1, ranking)
    assert set(p.acceptable()) == {woman(i) for i in order[: len(p.acceptable())]}
    assert len(p.acceptable()) == cut


# a ranking's shape: a permutation of agents 0..n-1 and @, or one of four faults
SHAPES = ("permutation", "duplicate", "dropped", "dropped-outside", "own-kind")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_marriage_and_student_rankings_accept_and_reject_the_same_shapes(data):
    n = data.draw(st.integers(1, 5))
    shape = data.draw(st.sampled_from(SHAPES))
    tokens = data.draw(st.permutations(list(range(n)) + ["@"]))
    if shape == "duplicate":
        tokens.insert(data.draw(st.integers(0, n + 1)), data.draw(st.sampled_from(tokens)))
    elif shape == "dropped":
        tokens.remove(data.draw(st.integers(0, n - 1)))
    elif shape == "dropped-outside":
        tokens.remove("@")
    elif shape == "own-kind":
        tokens[data.draw(st.integers(0, n))] = "own"

    def build(kind, owner, ranked, own):
        ranking = [OUTSIDE if t == "@" else own if t == "own" else ranked(t) for t in tokens]
        try:
            pref = kind(owner, ranking)
        except ValidationError:
            return None
        return pref.outside_rank, pref.acceptable_idx, pref.rank_by_index

    marriage = build(Preference, man(0), woman, man(1))
    assert marriage == build(StudentPreference, student(0), college, student(1))
    # dropping agent n-1 leaves a ranking of the other n-1 agents
    assert (marriage is not None) == (shape == "permutation" or (shape == "dropped" and n - 1 not in tokens))


# each ranking kind: (kind, owner, the ranked agents, agents it never ranks)
RANKING_KINDS = {
    "man": (Preference, man(0), woman, [man(0), college(0), student(0)]),
    "woman": (Preference, woman(2), man, [woman(0), college(0), student(0)]),
    "student": (StudentPreference, student(1), college, [student(0), man(0), woman(0)]),
    "college": (CollegeRanking, college(0), student, [college(0), man(0), woman(0)]),
}


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(RANKING_KINDS)), data=st.data())
def test_rank_lookups_agree_with_positions(kind, data):
    make_kind, owner, make, never = RANKING_KINDS[kind]
    n = data.draw(st.integers(1, 6))
    ranking = data.draw(st.permutations([make(i) for i in range(n)] + [OUTSIDE]))
    r = make_kind(owner, ranking)
    assert r.top() == ranking[0]
    for x in ranking:
        assert x in r and r.rank_of(x) == ranking.index(x)
        assert r.is_acceptable(x) == (ranking.index(x) < ranking.index(OUTSIDE))
        for y in ranking:
            assert r.prefers(x, y) == (ranking.index(x) < ranking.index(y))
            assert r.weakly_prefers(x, y) == (ranking.index(x) <= ranking.index(y))
    for x in never + [make(n), [0]]:
        assert x not in r
        with pytest.raises(UnknownOutcomeError, match="is not ranked"):
            r.rank_of(x)
        with pytest.raises(UnknownOutcomeError):
            r.prefers(ranking[0], x)


DERIVED_FIELDS = (
    "owner", "ranking", "ranking_idx", "outside_rank", "acceptable_idx", "rank_row", "rank_by_index", "n_opposite"
)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["man", "woman", "student"]), data=st.data())
def test_index_built_rankings_equal_name_built_ones(kind, data):
    make_kind, owner, make, _ = RANKING_KINDS[kind]
    n = data.draw(st.integers(0, 8))
    idx = data.draw(st.permutations(range(n + 1)))
    if data.draw(st.booleans()):  # a complete list; otherwise @ lands anywhere
        idx.remove(n)
        idx.append(n)
    by_idx = make_kind.from_idx(owner, idx)
    by_name = make_kind(owner, [OUTSIDE if c == n else make(c) for c in idx])
    assert type(by_idx) is make_kind
    for field in DERIVED_FIELDS:
        assert getattr(by_idx, field) == getattr(by_name, field), field
    assert by_idx == by_name and by_name == by_idx
    assert hash(by_idx) == hash(by_name) == hash((owner, by_idx.ranking_idx))
    assert by_idx.rank_row is by_idx.rank_row and by_idx.ranking is by_idx.ranking


# code tuples of a ranking of two agents (code 2 is @, other integers the
# agent of that index) and the error the name-built ranking of the same
# entries raised before rankings were built from codes
INVALID_CODES = {
    "duplicate": ((0, 0, 2), "duplicate entry {first!r} in the ranking of {owner!r}"),
    "missing @": ((0, 1, 3), "ranking of {owner!r} lacks the outside option"),
    "out of range": ((0, 5, 2), "ranking of {owner!r} contains {sixth!r}; it must rank each of {first!r}..{second!r} and @ exactly once"),
    "negative": ((-1, 0, 2), "ranking of {owner!r} contains {index_minus_1!r}; it must rank each of {first!r}..{second!r} and @ exactly once"),
    "unhashable": (([0], 1, 2), "ranking of {owner!r} contains [0]; it must rank each of {first!r}..{second!r} and @ exactly once"),
    "empty": ((), "ranking of {owner!r} lacks the outside option"),
}


@pytest.mark.parametrize("case", sorted(INVALID_CODES))
@pytest.mark.parametrize("kind", ["man", "woman", "student"])
def test_invalid_code_tuples_fail_as_their_name_built_rankings(kind, case):
    make_kind, owner, make, _ = RANKING_KINDS[kind]
    idx, template = INVALID_CODES[case]
    n = len(idx) - 1
    entries = [OUTSIDE if c == n else make(c) if isinstance(c, int) else c for c in idx]
    expected = template.format(owner=owner, first=make(0), second=make(1), sixth=make(5), index_minus_1=make(-1))
    for build, arg in ((make_kind.from_idx, idx), (make_kind, entries)):
        with pytest.raises(ValidationError) as err:
            build(owner, arg)
        assert str(err.value) == expected


def test_an_index_built_ranking_of_the_wrong_length_fails_in_the_profile():
    # (0, 1) is a valid ranking of one woman, so the market's size refuses it
    prefs = [Preference.from_idx(M1, (0, 1)), Preference(M2, (W1, W2, OUTSIDE))]
    prefs += [Preference(W1, (M1, M2, OUTSIDE)), Preference(W2, (M2, M1, OUTSIDE))]
    with pytest.raises(ValidationError, match="^preference for m1 ranks 1 opposite agents, market has 2$"):
        Profile(prefs)


def test_rankings_of_a_300x300_market_keep_their_ranks_once():
    # each ranking keeps its ranks once, in index form, and shares its agent
    # table: the 600 rankings fit in about 3 MiB, where one rank dict per
    # ranking would add about 5 MiB more
    rng = random.Random(300)
    tuples = []
    for owner, make in [(man(i), woman) for i in range(300)] + [(woman(j), man) for j in range(300)]:
        ranking = [make(k) for k in range(300)]
        rng.shuffle(ranking)
        ranking.insert(rng.randrange(301), OUTSIDE)
        tuples.append((owner, tuple(ranking)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prefs = [Preference(owner, ranking) for owner, ranking in tuples]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(prefs) == 600 and grown < 4 * 2**20
    s = [student(i) for i in range(2)]
    kinds = [
        prefs[0],
        StudentPreference(s[0], (college(0), OUTSIDE)),
        CollegeRanking(college(0), (s[1], OUTSIDE, s[0])),
        CollegePreference(college(0), 1, 2, [(s[1],), (), (s[0],)]),
    ]
    assert not any(hasattr(x, "__dict__") for x in kinds)


# --- profiles and matchings ----------------------------------------------


def test_profile_lookup(p1):
    assert p1[W2].top() == M1
    assert p1.p == 2 and p1.q == 2


def test_profile_rejects_mixed_sizes():
    with pytest.raises(ValidationError):
        Profile(
            [
                pref(M1, W1, W2, OUTSIDE),
                pref(M2, W1, W2, OUTSIDE),
                pref(W1, M1, M2, OUTSIDE),
                pref(W2, M1, M2, OUTSIDE),
                pref(woman(2), M1, M2, OUTSIDE),  # w3's presence makes men's prefs short
            ]
        )


def test_profile_replace_keeps_others(p1, p2):
    assert p2[M2] == p1[M2]
    assert p2[M1] != p1[M1]


def test_matching_rejects_double_booking():
    with pytest.raises(ValidationError):
        Matching(2, 2, [(M1, W1), (M2, W1)])


def test_matching_partner(mu):
    assert mu.partner(M1) == W1
    assert mu.partner(W2) == M2
    assert Matching(2, 2, []).partner(M1) is OUTSIDE


def test_matching_unmatched_order():
    m = Matching(2, 2, [(M2, W1)])
    assert m.unmatched == (M1, W2)


# --- individual rationality and blocking ----------------------------------


def test_ir_examples(p1, p2, mu, mu_tilde):
    assert is_individually_rational(mu, p1)
    assert not is_individually_rational(mu_tilde, p2)  # m1 holds unacceptable w2
    assert is_individually_rational(Matching(2, 2, []), p2)


def test_dimension_mismatch(p1):
    with pytest.raises(DimensionMismatchError):
        is_individually_rational(Matching(3, 3, []), p1)


def test_blocking_pairs_examples(p1, mu):
    assert blocking_pairs(mu, p1) == []
    empty = Matching(2, 2, [])
    assert (M1, W1) in blocking_pairs(empty, p1)


def test_blocking_pairs_all_outside_top():
    prefs = [
        pref(M1, OUTSIDE, W1, W2),
        pref(M2, OUTSIDE, W1, W2),
        pref(W1, OUTSIDE, M1, M2),
        pref(W2, OUTSIDE, M1, M2),
    ]
    profile = Profile(prefs)
    empty = Matching(2, 2, [])
    assert blocking_pairs(empty, profile) == []
    assert is_stable(empty, profile)


def test_is_stable_examples(p1, p2, p3, mu, mu_tilde):
    assert is_stable(mu, p1)
    assert is_stable(mu_tilde, p1)
    assert not is_stable(mu_tilde, p2)
    assert not is_stable(mu, p3)  # w1 matched to unacceptable m1


# --- enumeration ----------------------------------------------------------


@pytest.mark.parametrize("p,q", sorted(FROZEN_COUNTS))
def test_matching_counts(p, q):
    assert count_matchings(p, q) == FROZEN_COUNTS[(p, q)]
    assert recursive_count(p, q) == FROZEN_COUNTS[(p, q)]
    got = list(enumerate_matchings(p, q))
    assert len(got) == FROZEN_COUNTS[(p, q)]
    assert len(set(got)) == len(got)


def test_enumeration_deterministic():
    a = [m.assignment for m in enumerate_matchings(3, 2)]
    b = [m.assignment for m in enumerate_matchings(3, 2)]
    assert a == b


def test_enumeration_size_guard():
    with pytest.raises(SizeGuardError):
        list(enumerate_matchings(7, 2))
    # the count has too many digits to print; the guard names the limit instead
    with pytest.raises(SizeGuardError, match="limit of 6 agents per side"):
        list(enumerate_matchings(2000, 2000))


# --- stable sets -----------------------------------------------------------


def test_stable_set_examples(p1, p2, p3, mu, mu_tilde):
    assert set(stable_set(p1)) == {mu, mu_tilde}
    assert set(stable_set(p2)) == {mu}
    assert set(stable_set(p3)) == {mu_tilde}


def test_stable_set_all_outside_top():
    prefs = [
        pref(M1, OUTSIDE, W1, W2),
        pref(M2, OUTSIDE, W2, W1),
        pref(W1, OUTSIDE, M1, M2),
        pref(W2, OUTSIDE, M2, M1),
    ]
    sset = stable_set(Profile(prefs))
    assert sset == [Matching(2, 2, [])]


def _all_preferences(owner, opposite):
    base = tuple(opposite) + (OUTSIDE,)
    return [Preference(owner, perm) for perm in itertools.permutations(base)]


def test_stable_set_invariants_exhaustive_2x2():
    """Every 2x2 profile has a stable matching and a profile-constant unmatched set."""
    agents = [man(0), man(1), woman(0), woman(1)]
    opposites = {
        a: [woman(0), woman(1)] if a.side is Side.MAN else [man(0), man(1)]
        for a in agents
    }
    pref_lists = [_all_preferences(a, opposites[a]) for a in agents]
    count_multi = 0
    for combo in itertools.product(*pref_lists):
        profile = Profile(combo)
        sset = stable_set(profile)
        assert sset, f"empty stable set at {profile!r}"
        unmatched = {frozenset(m.unmatched) for m in sset}
        assert len(unmatched) == 1
        if len(sset) > 1:
            count_multi += 1
    # exactly the two fully-crossed profiles admit two stable matchings at 2x2
    assert count_multi == 2


@pytest.mark.parametrize("p,q", [(3, 3), (2, 3), (3, 2), (4, 3)])
def test_stable_set_invariants_sampled(p, q):
    rng = random.Random(1000 + 10 * p + q)
    for _ in range(150):
        profile = random_profile(rng, p, q)
        sset = stable_set(profile)
        assert sset
        assert len({frozenset(m.unmatched) for m in sset}) == 1
        for m in sset:
            assert is_individually_rational(m, profile)
            assert blocking_pairs(m, profile) == []


def _stable_by_definition(profile):
    return [
        mu
        for mu in enumerate_matchings(profile.p, profile.q)
        if is_individually_rational(mu, profile) and not blocking_pairs(mu, profile)
    ]


def test_stable_set_matches_the_definition_on_every_2x2_profile():
    men_lists = [_all_preferences(m, [W1, W2]) for m in (M1, M2)]
    women_lists = [_all_preferences(w, [M1, M2]) for w in (W1, W2)]
    for combo in itertools.product(*men_lists, *women_lists):
        profile = Profile(combo)
        assert stable_set(profile) == _stable_by_definition(profile), profile


@st.composite
def _truncated_profiles(draw):
    """Profiles with 1 to 4 agents per side, sides drawn independently, and
    the outside option anywhere in each ranking."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    prefs = []
    for a in [man(i) for i in range(p)] + [woman(j) for j in range(q)]:
        opposite = [woman(j) for j in range(q)] if a.side is Side.MAN else [man(i) for i in range(p)]
        prefs.append(Preference(a, draw(st.permutations(opposite + [OUTSIDE]))))
    return Profile(prefs)


@settings(max_examples=150, deadline=None)
@given(profile=_truncated_profiles())
def test_stable_set_matches_the_definition_on_truncated_profiles(profile):
    assert stable_set(profile) == _stable_by_definition(profile)


@pytest.mark.parametrize("p,q", list(itertools.product(range(1, 5), repeat=2)))
def test_enumeration_length_matches_the_closed_form(p, q):
    assert len(list(enumerate_matchings(p, q))) == count_matchings(p, q)


@pytest.mark.parametrize("p,q", [(2, 2), (3, 3)])
def test_is_stable_agrees_with_definition_scan(p, q):
    """is_stable short-circuits; compare against the full blocking enumeration."""
    rng = random.Random(77)
    matchings = list(enumerate_matchings(p, q))
    for _ in range(60):
        profile = random_profile(rng, p, q)
        for m in matchings:
            expected = is_individually_rational(m, profile) and not blocking_pairs(m, profile)
            assert is_stable(m, profile) == expected


# --- single-agent gains over a product of report lists ----------------------


def test_ranking_idx_reads_the_ranking_by_index():
    p = Preference(M1, (W2, OUTSIDE, W1))
    assert p.ranking_idx == (1, 2, 0)
    assert p.ranking_idx is p.ranking_idx
    s = StudentPreference(student(0), (college(1), college(0), OUTSIDE))
    assert s.ranking_idx == (1, 0, 2)


@pytest.mark.parametrize("matchings", [7, 256, 257])
def test_lot_codes_read_each_agents_code_at_every_profile(matchings):
    rng = random.Random(matchings)
    lots = [[rng.randrange(6) for _ in range(matchings)] for _ in range(3)]
    ids = [rng.randrange(matchings) for _ in range(400)]
    assert lot_codes(ids, lots) == [bytes([lot[m] for m in ids]) for lot in lots]


def _axis_gains_by_walk(codes, orders, strides, mask):
    """`axis_gains` from its definition: every profile in the mask, every
    agent and every other report of that agent."""
    gains = 0
    for k in range(len(codes[0])):
        for lots, ranked, stride in zip(codes, orders, strides):
            d = k // stride % len(ranked)
            rank = ranked[d].index
            for v in range(len(ranked)):
                y = k + (v - d) * stride
                if mask >> k & 1 and mask >> y & 1 and rank(lots[y]) < rank(lots[k]):
                    gains |= 1 << k
    return gains


def _draw_lots(data, sizes):
    """Strides, each agent's lot code at every profile and each report's
    code order, for agents with these report counts."""
    n_codes = data.draw(st.integers(1, 4), label="codes")
    count = math.prod(sizes)
    strides = [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]
    codes = [bytes(data.draw(st.lists(st.integers(0, n_codes - 1), min_size=count, max_size=count))) for _ in sizes]
    orders = [[data.draw(st.permutations(range(n_codes))) for _ in range(n)] for n in sizes]
    return strides, codes, orders


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_axis_gains_match_a_walk_over_every_profile(data):
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="reports")
    strides, codes, orders = _draw_lots(data, sizes)
    count = math.prod(sizes)
    mask = data.draw(st.one_of(st.just((1 << count) - 1), st.integers(0, (1 << count) - 1)), label="mask")
    assert axis_gains(codes, orders, strides, mask) == _axis_gains_by_walk(codes, orders, strides, mask)


def _gain_sets_by_walk(codes, orders, strides, x):
    """`gain_sets`' reachable set at base x from its definition: every
    profile y at which each agent whose report differs from x strictly
    gains, by its report at x."""
    reach = 0
    for y in range(len(codes[0])):
        for lots, ranked, stride in zip(codes, orders, strides):
            d = x // stride % len(ranked)
            rank = ranked[d].index
            if y // stride % len(ranked) != d and rank(lots[y]) >= rank(lots[x]):
                break
        else:
            reach |= 1 << y
    return reach


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gain_sets_match_a_walk_over_every_profile(data):
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="reports")
    # an agent with one report never deviates, so the builder skips it
    sizes.insert(data.draw(st.integers(0, len(sizes)), label="one-report agent"), 1)
    strides, codes, orders = _draw_lots(data, sizes)
    reachable = gain_sets(codes, orders, strides)
    for x in range(math.prod(sizes)):
        digits = [x // stride % n for stride, n in zip(strides, sizes)]
        assert reachable(digits, x) == _gain_sets_by_walk(codes, orders, strides, x)
