"""College admissions: subset preferences, the student-proposing rule,
stability, and the mixed-coalition counterexample."""

import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchlab import da, formats, mto
from matchlab.core import OUTSIDE, Preference, Profile, blocking_pairs, man, stable_set, woman, women
from matchlab.da import RuleId, da_matching
from matchlab.domains import PropertyCheck, minimal_utp_rankings
from matchlab.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    NotResponsiveError,
    PreconditionError,
    UnknownOutcomeError,
    ValidationError,
)
from matchlab.mto import (
    CollegeId,
    CollegePreference,
    MtoDomain,
    MtoMatching,
    MtoProfile,
    MtoWitness,
    StudentId,
    StudentPreference,
    blocking_pairs_mto,
    college,
    colleges,
    find_manipulation_mto,
    is_individually_rational_mto,
    is_responsive,
    is_stable_mto,
    mixed_coalition_counterexample,
    responsive_extension,
    run_spda,
    spda_matching,
    student,
    students,
    students_satisfy_utp,
    to_marriage_matching,
    to_marriage_profile,
    validate_mto_witness,
)

C = colleges(3)
S = students(5)
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# --- identities ---------------------------------------------------------------


def test_id_names_and_separation():
    assert college(0).name == "c1" and student(4).name == "s5"
    assert repr(college(1)) == "c2"
    assert college(0) != student(0)
    assert college(0) != man(0) and student(1) != woman(1)
    assert sorted([student(2), student(0), student(1)]) == list(students(3))


# --- student preferences ---------------------------------------------------------


def test_student_preference_validation():
    s1 = student(0)
    p = StudentPreference(s1, (C[2], C[0], C[1], OUTSIDE))
    assert p.top() == C[2]
    assert p.acceptable_idx == (2, 0, 1)
    assert p.outside_rank == 3
    assert p.is_acceptable(C[1]) and p.n_opposite == 3
    with pytest.raises(ValidationError, match="outside"):
        StudentPreference(s1, (C[0], C[1], C[2]))
    with pytest.raises(ValidationError, match="contains"):
        StudentPreference(s1, (C[0], man(1), OUTSIDE))
    with pytest.raises(ValidationError, match="exactly once"):
        StudentPreference(s1, (C[0], C[2], OUTSIDE))
    with pytest.raises(ValidationError, match="owner"):
        StudentPreference(college(0), (C[0], OUTSIDE))


def test_student_preference_equality_needs_owner():
    a = StudentPreference(student(0), (C[0], C[1], C[2], OUTSIDE))
    b = StudentPreference(student(1), (C[0], C[1], C[2], OUTSIDE))
    assert a != b
    assert a == StudentPreference(student(0), (C[0], C[1], C[2], OUTSIDE))


# --- college preferences -----------------------------------------------------------


def _quota2_pref(order):
    return CollegePreference(college(0), 2, 2, order)


def test_college_preference_validation():
    s2 = students(2)
    cp = _quota2_pref([(s2[0], s2[1]), (s2[0],), (s2[1],), ()])
    assert cp.rank_of((s2[1], s2[0])) == 0  # normalization sorts the query
    assert cp.prefers((s2[0],), ())
    assert cp.is_acceptable(s2[0])
    assert cp.induced_order() == (s2[0], s2[1], OUTSIDE)
    with pytest.raises(ValidationError, match="quota"):
        CollegePreference(college(0), 0, 2, [()])
    with pytest.raises(ValidationError, match="exactly once"):
        _quota2_pref([(s2[0],), (s2[1],), ()])  # missing the pair
    with pytest.raises(ValidationError, match="exactly once"):
        CollegePreference(college(0), 1, 2, [(s2[0], s2[1]), (s2[0],), (s2[1],), ()])
    with pytest.raises(UnknownOutcomeError):
        cp.rank_of((students(3)[2],))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Preference(man(0), ([0], OUTSIDE)), "ranking of m1 contains [0]; it must rank each of w1..w1 and @"),
        (lambda: StudentPreference(student(0), (college(0), OUTSIDE, {})), "ranking of s1 contains {}; it must rank"),
        (lambda: CollegePreference(college(0), 1, 1, [(), (student(0), college(0))]), "ranking of c1 must order"),
        (lambda: CollegePreference(college(0), 1, 1, [(), 5]), "ranking of c1 must order"),
        (lambda: CollegePreference(college(0), 1, 1, [(), ([0],)]), "ranking of c1 must order"),
    ],
    ids=["unhashable-agent", "unhashable-college", "unsortable-subset", "not-a-subset", "unhashable-member"],
)
def test_malformed_entries_are_validation_errors(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value).startswith(message)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_college_rank_lookups_agree_with_positions(data):
    ex = mixed_coalition_counterexample()
    n = data.draw(st.integers(1, 5))
    induced = tuple(data.draw(st.permutations(students(n) + (OUTSIDE,))))
    cps = [
        ex.profile.college_prefs[0],
        dict(ex.witness.misreports)[college(0)],
        responsive_extension(college(0), data.draw(st.integers(1, 3)), induced),
    ]
    for cp in cps:
        for pos, subset in enumerate(cp.ranking):
            assert subset in cp
            for members in itertools.permutations(subset):
                assert cp.rank_of(members) == pos
        for x in [(college(0),), (student(cp.n_students),), (student(0), college(0)), None]:
            with pytest.raises(UnknownOutcomeError, match=rf"^{re.escape(repr(x))} is not ranked by c1$"):
                cp.rank_of(x)


def test_responsiveness_verdicts():
    ex = mixed_coalition_counterexample()
    for cp in ex.profile.college_prefs:
        assert is_responsive(cp)
    tilde_c1 = dict(ex.witness.misreports)[college(0)]
    assert is_responsive(tilde_c1)
    s2 = students(2)
    broken = _quota2_pref([(s2[0], s2[1]), (s2[1],), (), (s2[0],)])
    check = is_responsive(broken)
    assert not check
    assert check.detail == ("gain", (s2[1],), s2[0])
    s3 = students(3)
    swapped = CollegePreference(
        college(0),
        2,
        3,
        [
            (s3[0], s3[1]),
            (s3[1], s3[2]),
            (s3[0], s3[2]),
            (s3[0],),
            (s3[1],),
            (s3[2],),
            (),
        ],
    )
    check = is_responsive(swapped)
    assert not check
    assert check.detail[0] == "swap"


def _prefers_responsive(cp):
    """`is_responsive` as first written: every subset compared through `prefers`."""
    all_students = students(cp.n_students)
    small = [s for k in range(min(cp.quota, cp.n_students)) for s in itertools.combinations(all_students, k)]
    for base in small:
        rest = [s for s in all_students if s not in base]
        for s in rest:
            if cp.prefers(base + (s,), base) != cp.prefers((s,), ()):
                return PropertyCheck(False, ("gain", base, s))
        for s, t in itertools.permutations(rest, 2):
            if cp.prefers(base + (s,), base + (t,)) != cp.prefers((s,), (t,)):
                return PropertyCheck(False, ("swap", base, s, t))
    return PropertyCheck(True)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_responsiveness_matches_the_prefers_based_check(data):
    # quota-2 and quota-3 subset orders: a responsive extension, the same
    # with two entries of one size swapped (which breaks the swap rule more
    # often than the gain rule), or the extension's entries in any order
    n = data.draw(st.integers(2, 5))
    quota = data.draw(st.sampled_from((2, 3)))
    induced = tuple(data.draw(st.permutations(students(n) + (OUTSIDE,))))
    ranking = list(responsive_extension(college(0), quota, induced).ranking)
    kind = data.draw(st.sampled_from(("responsive", "swapped", "shuffled")))
    if kind == "swapped":
        size = data.draw(st.integers(1, min(quota, n - 1)))
        at = [pos for pos, subset in enumerate(ranking) if len(subset) == size]
        i, j = data.draw(st.lists(st.sampled_from(at), min_size=2, max_size=2, unique=True))
        ranking[i], ranking[j] = ranking[j], ranking[i]
    elif kind == "shuffled":
        ranking = data.draw(st.permutations(ranking))
    cp = CollegePreference(college(0), quota, n, ranking)
    check = is_responsive(cp)
    assert check == _prefers_responsive(cp)
    assert check or kind != "responsive"


def test_responsive_extension_canonical_order():
    s2 = students(2)
    ext = responsive_extension(college(0), 2, (s2[0], s2[1], OUTSIDE))
    assert ext.ranking == ((s2[0], s2[1]), (s2[0],), (s2[1],), ())
    assert is_responsive(ext)
    # the outside rank pads before sorting: adding the unacceptable s1 to
    # {s2} must make it worse
    ext = responsive_extension(college(0), 2, (OUTSIDE, s2[0], s2[1]))
    assert ext.ranking == ((), (s2[0],), (s2[1],), (s2[0], s2[1]))
    assert is_responsive(ext)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_responsive_extension_is_responsive_and_induces_its_order(data):
    n = data.draw(st.integers(1, 5))
    quota = data.draw(st.integers(1, 3))
    induced = tuple(data.draw(st.permutations(students(n) + (OUTSIDE,))))
    ext = responsive_extension(college(0), quota, induced)
    assert is_responsive(ext)
    assert ext.induced_order() == induced
    _assert_induced_follows_singletons(ext)


def _assert_induced_follows_singletons(cp):
    # each student's induced rank, and that of @, is where its singleton,
    # or (), stands among the singletons and () in the subset ranking
    singles = [cp.rank_of((s,)) for s in students(cp.n_students)]
    nobody = cp.rank_of(())
    order = sorted(singles + [nobody])
    assert cp.induced.rank_by_index == tuple(order.index(rank) for rank in singles)
    assert cp.induced.outside_rank == order.index(nobody)


def test_fixture_colleges_induce_the_order_of_their_singletons():
    market = formats.mto_profile_from_json(json.loads((FIXTURES / "example2_mto.json").read_text()))
    domain = formats.mto_domain_from_json(json.loads((FIXTURES / "example2_domain.json").read_text()))
    rankings = list(market.college_prefs)
    rankings += [cp for c in colleges(domain.n_colleges) for cp in domain.admissible(c)]
    for cp in rankings:
        _assert_induced_follows_singletons(cp)


def test_responsive_extension_past_the_student_count_keeps_the_padded_order():
    # keys padded to the full quota, as the definition reads, sort alike
    ss = students(3)
    induced = (ss[1], OUTSIDE, ss[0], ss[2])
    rank = {x: pos for pos, x in enumerate(induced)}
    quota = 6
    subsets = [s for k in range(4) for s in itertools.combinations(ss, k)]
    padded = sorted(subsets, key=lambda s: sorted([rank[x] for x in s] + [rank[OUTSIDE]] * (quota - len(s))))
    assert responsive_extension(college(0), quota, induced).ranking == tuple(padded)


def test_responsiveness_and_extension_ignore_a_huge_quota():
    ss = students(2)
    ext = responsive_extension(college(0), 10**9, (ss[1], ss[0], OUTSIDE))
    assert ext.ranking == ((ss[0], ss[1]), (ss[1],), (ss[0],), ())
    assert is_responsive(ext)


def test_extension_differs_from_handwritten_subset_order():
    # the worked example's quota-2 college ranks all pairs of its four
    # acceptable students above the singletons; the canonical lex extension
    # interleaves them, so equality of induced orders does not pin the table
    ex = mixed_coalition_counterexample()
    p_c1 = ex.profile.college_prefs[0]
    ext = responsive_extension(college(0), 2, p_c1.induced_order())
    assert ext.induced_order() == p_c1.induced_order()
    assert ext.ranking != p_c1.ranking
    assert is_responsive(ext) and is_responsive(p_c1)
    assert ext.prefers((S[0],), (S[1], S[2]))
    assert p_c1.prefers((S[1], S[2]), (S[0],))


# --- matchings ------------------------------------------------------------------------


def test_mto_matching_validation():
    nu = MtoMatching((2, 1, 1), 5, [(1, 2), (3,), (0,)])
    assert nu.students_of(C[0]) == (S[1], S[2])
    assert nu.college_of(S[4]) is OUTSIDE
    assert nu.college_of(S[3]) == C[1]
    assert nu.unmatched_students == (S[4],)
    with pytest.raises(ValidationError, match="quota"):
        MtoMatching((1, 1, 1), 5, [(1, 2), (3,), (0,)])
    with pytest.raises(ValidationError, match="two colleges"):
        MtoMatching((2, 1, 1), 5, [(1, 2), (1,), (0,)])
    with pytest.raises(ValidationError, match="twice"):
        MtoMatching((2, 1, 1), 5, [(1, 1), (3,), (0,)])
    with pytest.raises(ValidationError, match="range"):
        MtoMatching((2, 1, 1), 5, [(1, 9), (3,), (0,)])
    with pytest.raises(ValidationError, match="covers"):
        MtoMatching((2, 1), 5, [(0,), (1,), (2,)])


def test_mto_profile_validation():
    ex = mixed_coalition_counterexample()
    prof = ex.profile
    assert prof.quotas == (2, 1, 1)
    assert prof[C[0]].quota == 2
    assert prof[S[4]].top() == C[1]
    with pytest.raises(ValidationError, match="owned"):
        MtoProfile(prof.college_prefs[::-1], prof.student_prefs)
    with pytest.raises(ValidationError, match="wrong owner"):
        prof.replace({S[0]: prof[S[1]]})
    with pytest.raises(UnknownOutcomeError):
        prof[man(0)]


# --- the student-proposing rule ----------------------------------------------------------


def test_truthful_run_reproduces_worked_outcome():
    ex = mixed_coalition_counterexample()
    nu, steps = run_spda(ex.profile)
    assert nu == ex.truthful_outcome
    assert nu == MtoMatching((2, 1, 1), 5, [(1, 2), (3,), (0,)])
    assert [st.number for st in steps] == [1, 2]
    assert steps[0].proposals == ((0, 2), (1, 0), (2, 0), (3, 0), (4, 1))
    assert steps[0].rejections == ((0, 3),)
    assert steps[0].tentative == ((1, 2), (4,), (0,))
    assert steps[1].proposals == ((3, 1),)
    assert steps[1].rejections == ((1, 4),)
    assert steps[1].tentative == ((1, 2), (3,), (0,))


def test_manipulated_run_reproduces_worked_outcome():
    ex = mixed_coalition_counterexample()
    deviated = ex.witness.deviated_profile()
    nu, steps = run_spda(deviated)
    assert nu == ex.manipulated_outcome
    assert nu == MtoMatching((2, 1, 1), 5, [(0, 3), (4,), (1,)])
    assert len(steps) == 4
    # the misreporting student opens at her claimed favorite and is bounced
    assert (4, 2) in steps[0].proposals
    assert (2, 4) in steps[2].rejections or (2, 4) in steps[1].rejections
    assert nu.unmatched_students == (S[2],)


def test_run_spda_checks_trace_against_engine(monkeypatch):
    engine = da._da_engine

    def drifting_engine(lists, rows, quotas):
        held, rounds = engine(lists, rows, quotas)
        return [kept[:-1] for kept in held], rounds  # each college lets its last student go

    monkeypatch.setattr(da, "_da_engine", drifting_engine)
    with pytest.raises(RuntimeError):
        run_spda(mixed_coalition_counterexample().profile)


def test_spda_requires_responsive_colleges():
    s2 = students(2)
    broken = _quota2_pref([(s2[0], s2[1]), (s2[1],), (), (s2[0],)])
    other = CollegePreference(college(1), 1, 2, [(s2[0],), (s2[1],), ()])
    prof = MtoProfile(
        [CollegePreference(college(0), 2, 2, broken.ranking), other],
        [
            StudentPreference(s2[0], (college(0), college(1), OUTSIDE)),
            StudentPreference(s2[1], (college(0), college(1), OUTSIDE)),
        ],
    )
    for _ in range(2):  # the second run reads the kept verdict
        with pytest.raises(NotResponsiveError):
            run_spda(prof)


def test_responsiveness_checked_once_per_college_ranking(monkeypatch):
    checked = []

    def counting(cp):
        checked.append(cp.owner)
        return is_responsive(cp)

    monkeypatch.setattr(mto, "is_responsive", counting)
    ex = mixed_coalition_counterexample()
    for _ in range(3):
        assert spda_matching(ex.profile) == ex.truthful_outcome
    assert spda_matching(ex.witness.deviated_profile()) == ex.manipulated_outcome
    assert sorted(checked) == [C[0], C[0], C[1], C[2]]  # c1's misreport is one more ranking


def test_spda_with_nobody_acceptable():
    s2 = students(2)
    cps = [
        CollegePreference(college(0), 1, 2, [(), (s2[0],), (s2[1],)]),
    ]
    sps = [
        StudentPreference(s2[0], (OUTSIDE, college(0))),
        StudentPreference(s2[1], (college(0), OUTSIDE)),
    ]
    nu, steps = run_spda(MtoProfile(cps, sps))
    assert nu.assignment == ((),)
    assert nu.unmatched_students == s2
    assert len(steps) == 1  # the trailing empty round is not recorded


# --- stability ------------------------------------------------------------------------------


def test_truthful_outcome_is_stable():
    ex = mixed_coalition_counterexample()
    assert is_stable_mto(ex.profile, ex.truthful_outcome)
    assert blocking_pairs_mto(ex.profile, ex.truthful_outcome) == []


def test_manipulated_outcome_blocked_at_true_profile():
    # at the true preferences the manipulated outcome leaves the displaced
    # student forming a blocking pair with the quota-2 college
    ex = mixed_coalition_counterexample()
    nu = ex.manipulated_outcome
    assert (C[0], S[2]) in blocking_pairs_mto(ex.profile, nu)
    assert not is_stable_mto(ex.profile, nu)


def test_manipulated_outcome_stable_at_reported_profile():
    ex = mixed_coalition_counterexample()
    deviated = ex.witness.deviated_profile()
    assert is_stable_mto(deviated, ex.manipulated_outcome)


def test_individual_rationality_catches_unacceptable_member():
    ex = mixed_coalition_counterexample()
    bad = MtoMatching((2, 1, 1), 5, [(2, 4), (3,), (0,)])  # s5 unacceptable to c1
    assert not is_individually_rational_mto(ex.profile, bad)
    assert not is_stable_mto(ex.profile, bad)


def test_spda_outcome_stable_under_slack():
    # quota larger than demand: college keeps everyone acceptable
    s2 = students(2)
    cp = CollegePreference(
        college(0), 2, 2, [(s2[0], s2[1]), (s2[0],), (s2[1],), ()]
    )
    prof = MtoProfile(
        [cp],
        [
            StudentPreference(s2[0], (college(0), OUTSIDE)),
            StudentPreference(s2[1], (college(0), OUTSIDE)),
        ],
    )
    nu = spda_matching(prof)
    assert nu.assignment == ((0, 1),)
    assert is_stable_mto(prof, nu)


# --- the mixed coalition ------------------------------------------------------------------


def test_counterexample_witness_validates():
    ex = mixed_coalition_counterexample()
    validate_mto_witness(ex.witness)
    dom = MtoDomain(
        {
            C[0]: [ex.profile[C[0]], dict(ex.witness.misreports)[C[0]]],
            C[1]: [ex.profile[C[1]]],
            C[2]: [ex.profile[C[2]]],
            S[0]: [ex.profile[S[0]]],
            S[1]: [ex.profile[S[1]]],
            S[2]: [ex.profile[S[2]]],
            S[3]: [ex.profile[S[3]]],
            S[4]: [ex.profile[S[4]], dict(ex.witness.misreports)[S[4]]],
        }
    )
    validate_mto_witness(ex.witness, domain=dom)


def test_witness_validation_rejects_a_member_outside_the_market():
    ex = mixed_coalition_counterexample()
    c9 = college(8)
    tilde = ex.witness.misreports[0][1]
    stray = MtoWitness(
        base=ex.profile,
        coalition=(c9,),
        misreports=((c9, CollegePreference(c9, tilde.quota, tilde.n_students, tilde.ranking)),),
        outcome_before=ex.witness.outcome_before,
        outcome_after=ex.witness.outcome_after,
    )
    with pytest.raises(PreconditionError, match="not an agent"):
        validate_mto_witness(stray)


def test_counterexample_gains_are_mixed_and_strict():
    ex = mixed_coalition_counterexample()
    w = ex.witness
    assert w.coalition == (C[0], S[4])
    p_c1 = ex.profile[C[0]]
    assert p_c1.prefers(w.outcome_after.students_of(C[0]), w.outcome_before.students_of(C[0]))
    p_s5 = ex.profile[S[4]]
    assert p_s5.prefers(w.outcome_after.college_of(S[4]), w.outcome_before.college_of(S[4]))
    # a proposer strictly gains while a receiver strictly loses, and the
    # set of unmatched agents changes: none of this happens one-to-one
    p_c2 = ex.profile[C[1]]
    assert p_c2.prefers(w.outcome_before.students_of(C[1]), w.outcome_after.students_of(C[1]))
    assert w.outcome_before.unmatched_students == (S[4],)
    assert w.outcome_after.unmatched_students == (S[2],)


def test_scan_recovers_the_counterexample():
    ex = mixed_coalition_counterexample()
    tilde_c1 = dict(ex.witness.misreports)[C[0]]
    tilde_s5 = dict(ex.witness.misreports)[S[4]]
    dom = MtoDomain(
        {
            C[0]: [ex.profile[C[0]], tilde_c1],
            C[1]: [ex.profile[C[1]]],
            C[2]: [ex.profile[C[2]]],
            S[0]: [ex.profile[S[0]]],
            S[1]: [ex.profile[S[1]]],
            S[2]: [ex.profile[S[2]]],
            S[3]: [ex.profile[S[3]]],
            S[4]: [ex.profile[S[4]], tilde_s5],
        }
    )
    found = find_manipulation_mto(dom, ex.profile, max_coalition=2)
    assert found == ex.witness
    # neither member can pull it off alone
    assert find_manipulation_mto(dom, ex.profile, max_coalition=1) is None
    with pytest.raises(BudgetExceededError) as err:
        find_manipulation_mto(dom, ex.profile, max_coalition=2, budget=2)
    assert err.value.count == 3  # two singles plus one pair
    with pytest.raises(PreconditionError):
        find_manipulation_mto(MtoDomain.from_profile(ex.profile), ex.witness.deviated_profile(), max_coalition=1)


def test_college_scans_build_spda_record_once_per_domain(monkeypatch):
    built = []
    engine = mto._spda_engine

    def counting(college_prefs):
        view, evaluate = engine(college_prefs)
        return (lambda pref: built.append(pref) or view(pref)), evaluate

    monkeypatch.setattr(mto, "_spda_engine", counting)
    text = (FIXTURES / "example2_domain.json").read_text()
    base = formats.mto_profile_from_json(json.loads((FIXTURES / "example2_mto.json").read_text()))
    domain = formats.mto_domain_from_json(json.loads(text))
    assert students_satisfy_utp(domain)
    assert built == []  # neither construction nor a domain check builds the record
    reports = [pref for a in domain.agents for pref in domain.admissible(a)]
    pair = find_manipulation_mto(domain, base, max_coalition=2)
    assert pair.coalition == (C[0], S[4])
    for _ in range(3):
        assert find_manipulation_mto(domain, base, max_coalition=1) is None
    assert find_manipulation_mto(domain, base, max_coalition=2) == pair
    assert built == reports  # one view per admissible report, on the first scan
    # a second domain parsed from the same file builds and keeps its own record
    other = formats.mto_domain_from_json(json.loads(text))
    assert find_manipulation_mto(other, base, max_coalition=2) == pair
    assert find_manipulation_mto(other, base, max_coalition=1) is None
    assert built == reports * 2


def test_domain_rejects_non_responsive_college_sets():
    s2 = students(2)
    broken = _quota2_pref([(s2[0], s2[1]), (s2[1],), (), (s2[0],)])
    with pytest.raises(NotResponsiveError):
        MtoDomain(
            {
                college(0): [broken],
                s2[0]: [StudentPreference(s2[0], (college(0), OUTSIDE))],
                s2[1]: [StudentPreference(s2[1], (college(0), OUTSIDE))],
            }
        )


def test_domain_rejects_a_college_set_with_mixed_quotas():
    # every ranking is responsive, but c1 may report quota 1 or quota 2
    c2, s3 = colleges(2), students(3)
    order = (s3[0], s3[1], OUTSIDE, s3[2])
    with pytest.raises(ValidationError, match="quota 1 with quota 2"):
        MtoDomain(
            {
                c2[0]: [responsive_extension(c2[0], 1, order), responsive_extension(c2[0], 2, order)],
                c2[1]: [responsive_extension(c2[1], 1, order)],
                **{s: [StudentPreference(s, (c2[0], c2[1], OUTSIDE))] for s in s3},
            }
        )


def test_domain_rejects_marriage_agents():
    s1, c1, m1 = student(0), college(0), man(0)
    with pytest.raises(ValidationError, match="not an agent of this market"):
        MtoDomain(
            {
                c1: [CollegePreference(c1, 1, 1, [(s1,), ()])],
                s1: [StudentPreference(s1, (c1, OUTSIDE))],
                m1: [Preference(m1, (woman(0), OUTSIDE))],
            }
        )


def test_students_utp_checker():
    s1 = students(1)[0]
    c1 = college(0)
    full = [
        StudentPreference(s1, (c1, OUTSIDE)),
        StudentPreference(s1, (OUTSIDE, c1)),
    ]
    dom = MtoDomain(
        {
            c1: [CollegePreference(c1, 1, 1, [(s1,), ()])],
            s1: full,
        }
    )
    assert students_satisfy_utp(dom)
    partial = MtoDomain(
        {
            c1: [CollegePreference(c1, 1, 1, [(s1,), ()])],
            s1: full[:1],
        }
    )
    check = students_satisfy_utp(partial)
    assert not check
    assert check.detail == (s1, "outside-top")


def test_minimal_utp_rankings_order_colleges_as_women():
    # the sort key reads only an agent's index, so colleges sort as women do
    rename = {OUTSIDE: OUTSIDE, **dict(zip(women(3), colleges(3)))}
    as_women = minimal_utp_rankings(women(3))
    assert minimal_utp_rankings(colleges(3)) == [tuple(rename[x] for x in r) for r in as_women]
    assert len(as_women) == 10


# --- the seat market --------------------------------------------------------------------


def _quota1_profile():
    c2 = colleges(2)
    s3 = students(3)
    cps = [
        CollegePreference(c2[0], 1, 3, [(s3[1],), (s3[0],), (), (s3[2],)]),
        CollegePreference(c2[1], 1, 3, [(s3[2],), (s3[1],), (s3[0],), ()]),
    ]
    sps = [
        StudentPreference(s3[0], (c2[0], c2[1], OUTSIDE)),
        StudentPreference(s3[1], (c2[1], c2[0], OUTSIDE)),
        StudentPreference(s3[2], (c2[0], OUTSIDE, c2[1])),
    ]
    return MtoProfile(cps, sps)


@st.composite
def college_markets(draw):
    """1-5 colleges with quotas 1-7 and canonical responsive rankings, 1-5
    students; quotas past the student count have more seats than students."""
    cs = colleges(draw(st.integers(1, 5)))
    ss = students(draw(st.integers(1, 5)))
    cps = [
        responsive_extension(c, draw(st.integers(1, 7)), tuple(draw(st.permutations(ss + (OUTSIDE,)))))
        for c in cs
    ]
    sps = [StudentPreference(s, tuple(draw(st.permutations(cs + (OUTSIDE,))))) for s in ss]
    return MtoProfile(cps, sps)


def _seat_clone_outcome(prof):
    """SPDA by the seat construction of Roth & Sotomayor (1990, ch. 5): a
    college of quota k becomes k seats, every student ranks a college's seats
    consecutively in its place, each seat ranks students by the college's
    induced order, and men-proposing DA on that marriage market is mapped
    back from seats to colleges."""
    college_of_seat = [ci for ci, cp in enumerate(prof.college_prefs) for _ in range(cp.quota)]
    seats = {ci: [woman(j) for j, c in enumerate(college_of_seat) if c == ci] for ci in set(college_of_seat)}
    men_prefs = []
    for sp in prof.student_prefs:
        ranking = []
        for x in sp.ranking:
            ranking += [OUTSIDE] if x is OUTSIDE else seats[x.index]
        men_prefs.append(Preference(man(sp.owner.index), tuple(ranking)))
    women_prefs = [
        Preference(
            woman(j),
            tuple(
                OUTSIDE if x is OUTSIDE else man(x.index)
                for x in prof.college_prefs[ci].induced_order()
            ),
        )
        for j, ci in enumerate(college_of_seat)
    ]
    seat_of = da_matching(RuleId.MPDA, Profile(men_prefs + women_prefs)).assignment
    groups = [[] for _ in prof.college_prefs]
    for si, j in enumerate(seat_of):
        if j is not None:
            groups[college_of_seat[j]].append(si)
    return MtoMatching(prof.quotas, prof.n_students, groups)


@settings(max_examples=200, deadline=None)
@given(prof=college_markets())
def test_spda_matches_seat_clone_marriage_da(prof):
    assert spda_matching(prof) == _seat_clone_outcome(prof)


@settings(max_examples=200, deadline=None)
@given(prof=college_markets())
@example(prof=mixed_coalition_counterexample().profile)
@example(prof=_quota1_profile())
def test_seat_market_translates_spda_at_any_quota(prof):
    # quota-one markets, where SPDA is MPDA with students as men and
    # colleges as women, are among the draws and the second example
    marriage = to_marriage_profile(prof)
    assert (marriage.p, marriage.q) == (prof.n_students, sum(min(k, prof.n_students) for k in prof.quotas))
    translated = to_marriage_matching(prof, spda_matching(prof))
    assert translated == da_matching(RuleId.MPDA, marriage)
    assert translated == to_marriage_matching(prof, _seat_clone_outcome(prof))


@settings(max_examples=200, deadline=None)
@given(prof=college_markets())
def test_untraced_spda_matches_the_round_engine(prof):
    # the engine's lot vector: each college's students, then each
    # student's college index, or the college count when unmatched
    nu = run_spda(prof)[0]
    assert spda_matching(prof) == nu
    view, evaluate = mto._spda_engine(prof.college_prefs)
    lots = evaluate([*map(view, prof.college_prefs), *map(view, prof.student_prefs)])
    codes = [prof.n_colleges if c is OUTSIDE else c.index for c in map(nu.college_of, students(prof.n_students))]
    assert lots == [*nu.assignment, *codes]


def _subset_verdicts(prof, nu):
    """Individual rationality and the blocking pairs of ``nu``, in index
    order, read from the subset and student rankings college by college."""
    rational, pairs = True, []
    for ci, cp in enumerate(prof.college_prefs):
        c, group = college(ci), nu.students_of(college(ci))
        rational = rational and all(cp.prefers((s,), ()) and prof[s].prefers(c, OUTSIDE) for s in group)
        for s in students(prof.n_students):
            if s in group or not prof[s].prefers(c, nu.college_of(s)):
                continue
            if len(group) < cp.quota and cp.prefers((s,), ()):
                pairs.append((c, s))
            elif any(cp.prefers((s,), (other,)) for other in group):
                pairs.append((c, s))
    return rational, pairs


@settings(max_examples=200, deadline=None)
@given(prof=college_markets(), data=st.data())
def test_blocking_pairs_match_the_subset_formulation(prof, data):
    # a feasible matching: each student asks one college or none, in turn,
    # and joins it while it has room
    groups = [[] for _ in prof.college_prefs]
    for si in range(prof.n_students):
        ci = data.draw(st.integers(-1, prof.n_colleges - 1))
        if ci >= 0 and len(groups[ci]) < prof.quotas[ci]:
            groups[ci].append(si)
    nu = MtoMatching(prof.quotas, prof.n_students, groups)
    rational, pairs = _subset_verdicts(prof, nu)
    assert blocking_pairs_mto(prof, nu) == pairs
    assert is_individually_rational_mto(prof, nu) == rational
    assert is_stable_mto(prof, nu) == (rational and not pairs)


def test_a_student_blocking_two_seats_is_one_college_pair():
    # c1 holds s1 and s2 but prefers s3 to both, who prefers c1 to nothing
    c1, (s1, s2, s3) = college(0), students(3)
    prof = MtoProfile(
        [responsive_extension(c1, 2, (s3, s1, s2, OUTSIDE))],
        [StudentPreference(s, (c1, OUTSIDE)) for s in (s1, s2, s3)],
    )
    nu = MtoMatching((2,), 3, [(0, 1)])
    seat_pairs = blocking_pairs(to_marriage_matching(prof, nu), to_marriage_profile(prof))
    assert seat_pairs == [(man(2), woman(0)), (man(2), woman(1))]
    assert blocking_pairs_mto(prof, nu) == _subset_verdicts(prof, nu)[1] == [(c1, s3)]
    assert is_individually_rational_mto(prof, nu) and not is_stable_mto(prof, nu)


def test_college_stability_refuses_a_matching_of_another_market():
    c2, s2 = colleges(2), students(2)
    prof = MtoProfile(
        [responsive_extension(c, 1, (*s2, OUTSIDE)) for c in c2],
        [StudentPreference(s, (*c2, OUTSIDE)) for s in s2],
    )
    foreign = [
        MtoMatching((2, 1), 2, [(0, 1), ()]),  # two students in a quota-1 college
        MtoMatching((1, 1, 1), 2, [(0,), (1,), ()]),
        MtoMatching((1,), 2, [(0,)]),
        MtoMatching((1, 1), 3, [(0,), (1,)]),
    ]
    for nu in foreign:
        for check in (is_individually_rational_mto, blocking_pairs_mto, is_stable_mto):
            with pytest.raises(DimensionMismatchError):
                check(prof, nu)


def _random_ranking(rng, agents) -> list:
    """The agents in a random order with @ last three times in four, else anywhere."""
    order = rng.sample(agents, len(agents))
    order.insert(len(order) if rng.random() < 0.75 else rng.randint(0, len(order)), OUTSIDE)
    return order


def _small_markets(count: int, seed: int):
    """Example 2's market, then ``count`` seeded responsive markets of two or
    three colleges, at most 4 seats and 2-5 students: within the seat market
    of Example 2, 4 seats by 5 students."""
    yield mixed_coalition_counterexample().profile
    rng = random.Random(seed)
    while count:
        cs, ss = colleges(rng.randint(2, 3)), students(rng.randint(2, 5))
        quotas = [rng.randint(1, 3) for _ in cs]
        if sum(min(q, len(ss)) for q in quotas) <= 4:
            count -= 1
            yield MtoProfile(
                [responsive_extension(c, q, _random_ranking(rng, ss)) for c, q in zip(cs, quotas)],
                [StudentPreference(s, _random_ranking(rng, cs)) for s in ss],
            )


def _college_matchings(quotas, n_students):
    """Every feasible college matching: each student at one college or at
    none, within the quotas."""
    for choice in itertools.product(range(-1, len(quotas)), repeat=n_students):
        groups = [[si for si, ci in enumerate(choice) if ci == c] for c in range(len(quotas))]
        if all(len(g) <= q for g, q in zip(groups, quotas)):
            yield MtoMatching(quotas, n_students, groups)


def test_college_stable_sets_are_the_seat_markets():
    sizes = []
    for prof in _small_markets(30, seed=7):
        # min(quota, students) seats per college, numbered college by college
        college_of_seat = [ci for ci, q in enumerate(prof.quotas) for _ in range(min(q, prof.n_students))]
        seat_stable = []
        for mu in stable_set(to_marriage_profile(prof)):
            groups = [[] for _ in prof.quotas]
            for si, j in enumerate(mu.assignment):
                if j is not None:
                    groups[college_of_seat[j]].append(si)
            seat_stable.append(MtoMatching(prof.quotas, prof.n_students, groups))
        brute = [nu for nu in _college_matchings(prof.quotas, prof.n_students) if _subset_verdicts(prof, nu) == (True, [])]
        assert len(set(seat_stable)) == len(seat_stable) and set(seat_stable) == set(brute)
        best = spda_matching(prof)
        assert best in brute
        for nu in brute:
            assert all(prof[s].weakly_prefers(best.college_of(s), nu.college_of(s)) for s in students(prof.n_students))
        sizes.append(len(brute))
    assert max(sizes) > 1  # some market has more than one stable matching
