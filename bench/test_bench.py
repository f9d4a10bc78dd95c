"""Tests of the benchmark itself: span arithmetic and the checkers.

    python3 -m pytest bench -q

Each checker must pass a right answer and count a planted wrong one.
"""

import dataclasses
import os
import random
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest

import checks
import run
import spans
import workloads
from matchlab.core import Matching, man, woman
from matchlab.da import RuleId, da_matching
from matchlab.manipulation import MatchingRule, mpda_rule


def test_self_times_on_a_hand_built_tree():
    tree = [
        # name, start, end, parent, unit
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["b", 6.0, 8.0, 2, 0],  # grandchild of a, same name as a child
        ["e", 20.0, 21.0, -1, 1],
        # overlapping children are merged; one sticking out is clipped
        ["f", 30.0, 40.0, -1, 2],
        ["g", 31.0, 35.0, 5, 2],
        ["g", 33.0, 38.0, 5, 2],
        ["g", 39.0, 45.0, 5, 2],
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx({"a": 3.0, "b": 5.0, "c": 2.0, "e": 1.0, "f": 2.0, "g": 15.0})


def test_tracer_nests_spans_and_stops_when_inactive():
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        base = workloads.planted_crossing_base()
        rule, domain = mpda_rule(), workloads.PreferenceDomain.full(3, 3)
        tracer.active = True
        found = list(workloads.manipulation.iter_manipulations(rule, domain, base, max_coalition=2))
        tracer.active = False
        da_matching(RuleId.MPDA, base)
    finally:
        undo()
    counts = tracer.counts
    assert found and counts["manipulation.witnesses"] == len(found)
    assert counts["da.evals"] == counts["manipulation.evals.computed"] > 0
    names = {s[0] for s in tracer.spans}
    assert names == {"manipulation.scan", "core.profile_build", "da"}
    scan = {i for i, s in enumerate(tracer.spans) if s[0] == "manipulation.scan"}
    assert all(s[3] in scan for s in tracer.spans if s[0] == "da")
    assert workloads.manipulation.iter_manipulations.__module__ == "matchlab.manipulation"


def _planted_witnesses():
    base = workloads.planted_crossing_base()
    survey = workloads.Survey(0, ROOT, None)
    return base, survey.run(base)


def test_survey_check_counts_a_man_in_the_coalition():
    base, found = _planted_witnesses()
    assert found and checks.check_survey(base, found) is None
    bad = dataclasses.replace(found[0], coalition=(man(0),) + found[0].coalition)
    assert "man" in checks.check_survey(base, [bad])


def test_survey_check_counts_an_unstable_outcome():
    base, found = _planted_witnesses()
    empty = Matching(3, 3, [])
    bad = dataclasses.replace(found[0], outcome_before=empty)
    assert "unstable" in checks.check_survey(base, [bad])


def _domain_with_rule():
    rng = random.Random(7)
    certify = workloads.Certify(0, ROOT, None)
    while True:
        domain = workloads.utp_domain(rng, rng.choice(workloads.UTP_SHAPES))
        out = certify.run(domain)
        if out[0].exists:
            return domain, out


def test_certify_check_counts_a_rule_that_differs_from_mpda_once():
    domain, (auto, table, gsp) = _domain_with_rule()
    assert checks.check_certify(domain, auto, table, gsp) is None
    target = next(iter(domain.profiles()))
    other = next(mu for mu in (Matching(2, 2, []), Matching(2, 2, [(man(0), woman(1))]))
                 if mu != da_matching(RuleId.MPDA, target))

    def almost_mpda(profile):
        return other if profile == target else da_matching(RuleId.MPDA, profile)

    wrong = SimpleNamespace(exists=True, rule=MatchingRule.from_profile_function(almost_mpda, "almost", True))
    assert "differs from MPDA" in checks.check_certify(domain, wrong, table, gsp)
    missing = SimpleNamespace(exists=False, rule=None)
    assert "backtracking says" in checks.check_certify(domain, auto, missing, gsp)
    assert "group strategy-proof" in checks.check_certify(domain, auto, table, False)


def test_college_checks_count_a_witness_and_a_wrong_pair():
    assert checks.check_college(None) is None
    assert checks.check_college("a witness") is not None
    s5 = SimpleNamespace(name="s5")
    c2 = SimpleNamespace(name="c2")
    assert "c1+s5" in checks.check_pair_witness(SimpleNamespace(coalition=(c2, s5)), lambda w: None)
    assert checks.check_pair_witness(None, lambda w: None) is not None


def _solve_spec():
    return {"kind": "solve", "expect": 0}, workloads.planted_crossing_base()


def test_cli_check_counts_a_wrong_exit_code():
    spec, profile = _solve_spec()
    good = '{"pairs": [["m1", "w1"], ["m2", "w2"], ["m3", "w3"]], "unmatched": []}'
    assert checks.check_cli(spec, 0, good, profile) is None
    assert "exit code 1" in checks.check_cli(spec, 1, good, profile)


def test_cli_check_counts_an_unstable_matching():
    spec, profile = _solve_spec()
    unstable = '{"pairs": [["m1", "w3"], ["m2", "w2"], ["m3", "w1"]], "unmatched": []}'
    assert "unstable" in checks.check_cli(spec, 0, unstable, profile)
    assert "parse" in checks.check_cli(spec, 0, "not json", profile)


def test_hd_quantile_is_the_harrell_davis_estimate():
    assert run.hd_quantile([5.0] * 7, 0.9) == pytest.approx(5.0)
    # for n = 2 the weight on the larger value is 1 - I_0.5(2.7, 0.3)
    assert run.hd_quantile([0.0, 1.0], 0.9) == pytest.approx(0.965614, abs=1e-5)
    assert run._betainc(2.0, 3.0, 0.4) == pytest.approx(0.5248, abs=1e-9)
    assert run.hd_quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert 89.0 < run.hd_quantile(list(range(1, 101)), 0.9) < 92.0


def test_reference_mpda_matches_the_program():
    rng = random.Random(3)
    for n in (2, 3, 6, 12):
        for _ in range(25):
            profile = workloads.random_full_profile(rng, n, n)
            want = da_matching(RuleId.MPDA, profile).assignment
            assert checks.reference_mpda(profile.men_prefs, profile.women_prefs) == want
