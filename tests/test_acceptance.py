"""Acceptance gate: eight end-to-end checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines live.
Each criterion asserts exact results first and its wall-clock bound second.
"""

import random
import time
from contextlib import contextmanager

from matchlab.core import OUTSIDE, Side, men, stable_set, women
from matchlab.da import RuleId, da_matching
from matchlab.domains import (
    PreferenceDomain,
    PriorOrdering,
    exists_stable_sp_rule,
    find_incompatibility_witness,
    maximal_single_peaked_domain,
    satisfies_unrestricted_top_pairs,
)
from matchlab.manipulation import (
    crossing_market_example,
    is_group_strategy_proof,
    mpda_rule,
    validate_witness,
    wpda_rule,
)
from matchlab.mto import (
    CollegePreference,
    MtoMatching,
    MtoProfile,
    StudentPreference,
    colleges,
    is_responsive,
    mixed_coalition_counterexample,
    spda_matching,
    students,
    to_marriage_matching,
    to_marriage_profile,
    validate_mto_witness,
)
from matchlab.suites import SuiteParams, _utp_men_sets, run_suite

from conftest import mu_crossed, mu_straight, random_profile


@contextmanager
def criterion(number: int, label: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < limit_seconds
    status = "PASS" if within else "FAIL (over time limit)"
    print(
        f"criterion {number} ({label}): {status} "
        f"in {elapsed:.2f}s (limit {limit_seconds:.0f}s)"
    )
    assert within, f"took {elapsed:.2f}s, limit is {limit_seconds}s"


def test_criterion_1_crossing_market_reproduction():
    with criterion(1, "2x2 market reproduction", 1.0):
        ex = crossing_market_example()
        straight, crossed = mu_straight(), mu_crossed()
        assert ex.straight == straight and ex.crossed == crossed

        base_set = stable_set(ex.base)
        assert len(base_set) == 2 and straight in base_set and crossed in base_set
        assert stable_set(ex.man_truncated) == [straight]
        assert stable_set(ex.woman_truncated) == [crossed]

        assert da_matching(RuleId.MPDA, ex.base) == straight
        assert da_matching(RuleId.WPDA, ex.base) == crossed

        # each truncation is exactly the profitable lie against the rule
        # that favors the other side
        against_mpda = ex.mpda_witness
        (w1,) = against_mpda.coalition
        assert w1.name == "w1"
        assert dict(against_mpda.misreports)[w1] == ex.woman_truncated[w1]
        assert against_mpda.outcome_before == straight
        assert against_mpda.outcome_after == crossed
        validate_witness(mpda_rule(), against_mpda)

        against_wpda = ex.wpda_witness
        (m1,) = against_wpda.coalition
        assert m1.name == "m1"
        assert dict(against_wpda.misreports)[m1] == ex.man_truncated[m1]
        assert against_wpda.outcome_before == crossed
        assert against_wpda.outcome_after == straight
        validate_witness(wpda_rule(), against_wpda)


def test_criterion_2_college_market_reproduction():
    with criterion(2, "college market reproduction", 1.0):
        ex = mixed_coalition_counterexample()
        truthful = MtoMatching((2, 1, 1), 5, ((1, 2), (3,), (0,)))
        manipulated = MtoMatching((2, 1, 1), 5, ((0, 3), (4,), (1,)))

        assert spda_matching(ex.profile) == truthful
        assert ex.truthful_outcome == truthful
        assert spda_matching(ex.witness.deviated_profile()) == manipulated
        assert ex.manipulated_outcome == manipulated

        validate_mto_witness(ex.witness)
        assert sorted(a.name for a in ex.witness.coalition) == ["c1", "s5"]

        c1 = colleges(3)[0]
        true_order = ex.profile[c1]
        reported_order = dict(ex.witness.misreports)[c1]
        assert is_responsive(true_order).holds
        assert is_responsive(reported_order).holds


def test_criterion_3_receiver_coalitions_welfare_unmatched():
    with criterion(3, "coalition structure, welfare, unmatched set", 300.0):
        for suite_id in ("theorem1", "prop-welfare", "prop-unmatched"):
            exhaustive = run_suite(suite_id, SuiteParams())
            assert exhaustive.verdict == "pass", exhaustive.counterexample
            assert exhaustive.mode == "exhaustive"
            assert exhaustive.trials == 6**4
            sampled = run_suite(suite_id, SuiteParams(men=3, women=3, trials=1000))
            assert sampled.verdict == "pass", sampled.counterexample
            assert sampled.mode == "sampled"
            assert sampled.trials == 1000


def test_criterion_4_stable_sp_rule_is_gsp_and_proposer_da():
    with criterion(4, "stable SP rule equals proposer DA and is GSP", 600.0):
        rng = random.Random(20240404)
        reference = mpda_rule()
        rules_found = 0
        for _ in range(60):
            domain = PreferenceDomain(_utp_men_sets(rng, 2, 2, 6))
            assert satisfies_unrestricted_top_pairs(domain, Side.MAN).holds
            auto = exists_stable_sp_rule(domain, "auto")
            table = exists_stable_sp_rule(domain, "backtracking")
            assert auto.exists == table.exists
            if not auto.exists:
                continue
            rules_found += 1
            assert is_group_strategy_proof(auto.rule, domain).holds
            for profile in domain.profiles():
                expected = reference.apply(profile)
                assert auto.rule.apply(profile) == expected
                assert table.rule.apply(profile) == expected
        assert rules_found >= 1


def test_criterion_5_single_peaked_impossibility():
    with criterion(5, "maximal single-peaked impossibility", 60.0):
        men_line = PriorOrdering(Side.MAN, men(2))
        women_line = PriorOrdering(Side.WOMAN, women(2))
        domain = maximal_single_peaked_domain(men_line, women_line)
        assert not exists_stable_sp_rule(domain, "auto").exists
        assert not exists_stable_sp_rule(domain, "backtracking").exists
        witness = find_incompatibility_witness(domain)
        assert witness is not None
        witness.validate(domain)


def test_criterion_6_domain_condition_equivalence():
    with criterion(6, "four-way domain equivalence", 600.0):
        report = run_suite("theorem3", SuiteParams(trials=30))
        assert report.verdict == "pass", report.counterexample
        assert report.trials >= 30


def test_criterion_7_blocking_pair_guarantee():
    with criterion(7, "blocking pair guarantee", 60.0):
        report = run_suite("blocking-lemma", SuiteParams(men=3, women=3, trials=10000))
        assert report.verdict == "pass", report.counterexample
        assert report.mode == "sampled"
        assert report.trials == 10000


def _random_quota1_market(rng: random.Random, n_colleges: int, n_students: int) -> MtoProfile:
    college_prefs = []
    for c in colleges(n_colleges):
        subsets = [()] + [(s,) for s in students(n_students)]
        rng.shuffle(subsets)
        college_prefs.append(CollegePreference(c, 1, n_students, subsets))
    student_prefs = []
    for s in students(n_students):
        ranking = list(colleges(n_colleges)) + [OUTSIDE]
        rng.shuffle(ranking)
        student_prefs.append(StudentPreference(s, tuple(ranking)))
    return MtoProfile(college_prefs, student_prefs)


def test_criterion_8_oracle_equivalence():
    with criterion(8, "solver oracle equivalence", 60.0):
        for seed in (11, 23, 42):
            rng = random.Random(seed)
            for _ in range(100):
                profile = random_profile(rng, 3, 3)
                best = da_matching(RuleId.MPDA, profile)
                pool = stable_set(profile)
                assert best in pool
                for mu in pool:
                    for m in men(3):
                        assert profile[m].weakly_prefers(best.partner(m), mu.partner(m))
                    for w in women(3):
                        assert profile[w].weakly_prefers(mu.partner(w), best.partner(w))
            for _ in range(50):
                market = _random_quota1_market(rng, 3, 3)
                marriage = to_marriage_profile(market)
                assert to_marriage_matching(market, spda_matching(market)) == da_matching(
                    RuleId.MPDA, marriage
                )
