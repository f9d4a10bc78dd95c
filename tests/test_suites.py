"""Verification-suite harness behavior: verdicts, determinism, guards."""

import collections
import dataclasses
import itertools
import json
import random
import tracemalloc

import pytest

from conftest import count_evaluations
from matchlab import formats, manipulation, suites
from matchlab.da import RuleId
from matchlab.errors import BudgetExceededError, PreconditionError, SizeGuardError, UnknownSuiteError
from matchlab.domains import exists_stable_sp_rule
from matchlab.manipulation import StrategyProofness, mpda_rule, validate_witness, wpda_rule
from matchlab.suites import SUITE_IDS, SuiteParams, run_suite


@pytest.mark.parametrize("suite_id", SUITE_IDS)
def test_suite_passes_at_defaults(suite_id):
    report = run_suite(suite_id, SuiteParams())
    assert report.verdict == "pass"
    assert report.counterexample is None
    assert report.suite == suite_id
    assert report.runtime_seconds >= 0.0


def test_catalog_is_complete():
    assert len(SUITE_IDS) == 13
    assert len(set(SUITE_IDS)) == 13
    # the parser's choices live in core; the runners they name, here
    assert tuple(suites._SUITES) == SUITE_IDS


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("theorem9", SuiteParams())


def test_modes_by_size():
    assert run_suite("theorem1", SuiteParams()).mode == "exhaustive"
    small_sample = run_suite("theorem1", SuiteParams(men=3, women=3, trials=4))
    assert small_sample.mode == "sampled"
    assert small_sample.trials == 4
    assert run_suite("example1", SuiteParams()).mode == "fixture"


def test_sampled_still_sees_planted_witnesses():
    # even a tiny sampled run passes through bases that carry manipulations,
    # so the coalition-side claim is exercised rather than vacuous
    report = run_suite("theorem1", SuiteParams(men=3, women=3, trials=2))
    assert report.verdict == "pass"
    assert "planted" in report.notes


def test_exhaustive_counts_every_base():
    report = run_suite("prop-unmatched", SuiteParams())
    assert report.trials == 6**4


def test_blocking_lemma_guard():
    with pytest.raises(PreconditionError):
        run_suite("blocking-lemma", SuiteParams(men=1, women=1))


@pytest.mark.parametrize("men, women", [(2, 7), (7, 2)])
def test_blocking_lemma_size_guard(men, women):
    limit = suites.MAX_BLOCKING_LEMMA_SIDE
    assert max(men, women) == limit + 1
    expected = f"300 random {men}x{women} profiles per trial; the limit is {limit}"
    with pytest.raises(SizeGuardError, match=expected):
        run_suite("blocking-lemma", SuiteParams(men=men, women=women))


def test_prop4_is_a_2x2_statement():
    with pytest.raises(PreconditionError):
        run_suite("prop4", SuiteParams(men=3, women=3))


def test_budget_guard_raises():
    with pytest.raises(BudgetExceededError):
        run_suite("theorem1", SuiteParams(budget=10))


def test_reports_deterministic():
    first = run_suite("lemma-c2", SuiteParams())
    again = run_suite("lemma-c2", SuiteParams())
    assert first.to_json_dict() == again.to_json_dict()


def test_witness_survey_report_deterministic():
    first = run_suite("prop-welfare", SuiteParams()).to_json_dict()
    again = run_suite("prop-welfare", SuiteParams()).to_json_dict()
    assert first == again
    assert set(first["params"]) == {"men", "women", "seed", "trials", "budget"}


def test_seed_changes_sampled_run():
    base = run_suite("blocking-lemma", SuiteParams(men=3, women=3, trials=20))
    moved = run_suite("blocking-lemma", SuiteParams(men=3, women=3, trials=20, seed=7))
    assert base.verdict == moved.verdict == "pass"
    assert base.params["seed"] != moved.params["seed"]


def test_report_json_shape():
    doc = run_suite("corollary-dubins", SuiteParams()).to_json_dict()
    assert doc["schema"] == "matchlab/1"
    assert doc["kind"] == "suite-report"
    assert set(doc) == {
        "schema", "kind", "suite", "params", "mode", "verdict",
        "counterexample", "trials", "notes",
    }
    json.dumps(doc)  # serializable as-is


def test_runtime_kept_out_of_json_by_default():
    report = run_suite("example1", SuiteParams())
    assert "runtime_seconds" not in report.to_json_dict()
    assert "runtime_seconds" in report.to_json_dict(include_runtime=True)


def test_fail_path_carries_revalidated_witness():
    # an impossible predicate turns every witness into a counterexample; the
    # survey must re-validate it before reporting and embed a reusable record
    outcome = suites._witness_survey(
        SuiteParams(), lambda rule, witness: "flagged for the test"
    )
    assert outcome.verdict == "fail"
    assert outcome.counterexample["reason"] == "flagged for the test"
    witness = formats.witness_from_json(outcome.counterexample["witness"])
    validate_witness(mpda_rule(), witness)


def test_fail_path_in_sampled_mode():
    outcome = suites._witness_survey(
        SuiteParams(men=3, women=3, trials=3), lambda rule, witness: "flagged"
    )
    assert outcome.verdict == "fail"
    assert outcome.mode == "sampled"
    assert formats.witness_from_json(outcome.counterexample["witness"])


def test_failing_survey_stops_at_its_first_failing_trial(monkeypatch):
    scans = []
    scan = suites.iter_manipulations

    def counted(*args, **kwargs):
        scans.append(args[2])
        return scan(*args, **kwargs)

    monkeypatch.setattr(suites, "iter_manipulations", counted)
    outcome = suites._witness_survey(
        SuiteParams(men=3, women=3, trials=5), lambda rule, witness: "flagged"
    )
    assert outcome.verdict == "fail" and outcome.trials == 5 and outcome.notes == ""
    # the first trial is a planted base that admits a witness
    assert len(scans) == 1


def test_trial_seeds_are_drawn_one_trial_at_a_time():
    # a run asks for seeds as its trials start, so a huge --trials costs
    # nothing before the first trial
    tracemalloc.start()
    try:
        first = list(itertools.islice(suites._trial_seeds(42, 10**6), 5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    rng = random.Random(42)
    assert first == [rng.randrange(2**62) for _ in range(5)]


@pytest.mark.parametrize("trials", [None, 100])
def test_theorem2_runs_da_at_most_once_per_2x2_list_vector_per_rule(monkeypatch, trials):
    # theorem2 certifies MPDA and WPDA twice on every domain it draws; the
    # DA outcome memo of each rule holds the 5 ** 4 = 625 vectors of
    # acceptable lists a 2x2 profile can have, however many domains it draws.
    # Evaluations of the view engine are counted per rule, and every
    # untraced DA run, `da_assignment`'s included, must be one of them
    evaluations, runs = count_evaluations(monkeypatch, manipulation, "_view_engine", lambda args, views: args[0])
    report = run_suite("theorem2", SuiteParams(trials=trials))
    assert report.verdict == "pass" and report.trials == (15 if trials is None else trials)
    assert len(runs) == len(evaluations)
    by_rule = collections.Counter(evaluations)
    assert by_rule.keys() == {RuleId.MPDA, RuleId.WPDA}
    assert 0 < by_rule[RuleId.MPDA] <= 625 and 0 < by_rule[RuleId.WPDA] <= 625


def test_theorem2_fail_path_carries_a_validated_coalition_witness(monkeypatch):
    # with every rule deemed single-agent proof, the first coalition
    # witness a certification finds fails the suite
    monkeypatch.setattr(suites, "is_strategy_proof", lambda rule, domain, budget: StrategyProofness(True, None))
    report = run_suite("theorem2", SuiteParams())
    assert report.verdict == "fail" and report.mode == "sampled"
    doc = report.counterexample
    assert doc["reason"] == "rule wpda is single-agent proof but a coalition manipulates"
    witness = formats.witness_from_json(json.loads(json.dumps(doc["witness"])))
    assert witness.rule_name == "wpda"
    validate_witness(wpda_rule(), witness)


def _lemma_c1_fail(monkeypatch, change) -> tuple:
    """Run lemma-c1 with `change(found, path)` applied to each search result;
    return its counterexample and the domain read back from it."""
    search = suites.exists_stable_sp_rule

    def changed(domain, path="auto"):
        return change(search(domain, path), path)

    monkeypatch.setattr(suites, "exists_stable_sp_rule", changed)
    report = run_suite("lemma-c1", SuiteParams())
    assert report.verdict == "fail" and report.mode == "sampled"
    doc = json.loads(json.dumps(report.counterexample))
    return doc, formats.domain_from_json(doc["domain"])


def test_lemma_c1_fail_path_when_the_searches_disagree(monkeypatch):
    def drop_shortcut(found, path):
        return found if path == "backtracking" else dataclasses.replace(found, rule=None)

    doc, domain = _lemma_c1_fail(monkeypatch, drop_shortcut)
    assert doc["reason"] == "shortcut and table searches disagree about existence"
    assert (doc["shortcut"], doc["table"]) == (False, True)
    assert exists_stable_sp_rule(domain, path="backtracking").exists


def test_lemma_c1_fail_path_when_the_table_rule_is_not_proposing_da(monkeypatch):
    def swap_table(found, path):
        return dataclasses.replace(found, rule=wpda_rule()) if path == "backtracking" and found.exists else found

    doc, domain = _lemma_c1_fail(monkeypatch, swap_table)
    assert doc["reason"] == "a stable single-agent-proof rule differs from the proposing DA rule"
    profile = formats.profile_from_json(doc["profile"])
    assert domain.contains(profile)
    assert exists_stable_sp_rule(domain).exists
    assert wpda_rule().apply(profile) != mpda_rule().apply(profile)


def test_lemma_c1_reports_rule_hits():
    report = run_suite("lemma-c1", SuiteParams())
    assert "admitted a rule" in report.notes


def test_theorem3_domain_count_follows_trials():
    report = run_suite("theorem3", SuiteParams(trials=6))
    assert report.trials == 6
    assert report.verdict == "pass"


def test_example2_notes_show_domain_scale():
    report = run_suite("example2", SuiteParams(trials=25))
    assert report.verdict == "pass"
    assert "200000" in report.notes


# (mode, trials, notes, verdict) of every suite at SuiteParams(trials=2)
PINNED_REPORTS = {
    "theorem1": ("exhaustive", 1296, "every admissible base scanned, coalition cap 4", "pass"),
    "prop-welfare": ("exhaustive", 1296, "every admissible base scanned, coalition cap 4", "pass"),
    "prop-unmatched": ("exhaustive", 1296, "every admissible base scanned, coalition cap 4", "pass"),
    "corollary-dubins": ("exhaustive", 1296, "every admissible base scanned, coalition cap 2", "pass"),
    "prop-gsp-existence": (
        "sampled", 2, "2 generated domains with top dominance on the receiving side", "pass"
    ),
    "theorem2": (
        "sampled", 2, "proposer-side unrestricted top pairs held in every generated domain", "pass"
    ),
    "example1": (
        "fixture", 1,
        "stable sets, both DA outcomes, and both truncation witnesses check out", "pass",
    ),
    "prop4": (
        "fixture", 1, "no rule by either search path; alternating-sequence witness validated", "pass"
    ),
    "theorem3": ("sampled", 2, "2 admissible domains evaluated, all four clauses agreed", "pass"),
    "blocking-lemma": (
        "sampled", 2, "2 trials produced a rational matching beating DA for some proposer", "pass"
    ),
    "lemma-c1": (
        "sampled", 2,
        "2 domains admitted a rule; each matched the proposing DA rule pointwise", "pass",
    ),
    "lemma-c2": (
        "sampled", 2, "1 domains carried an incompatibility witness; none admitted a rule", "pass"
    ),
    "example2": (
        "sampled", 2,
        "fixture domain holds 200000 profiles; single-agent proofness probed at 2 sampled "
        "bases; the joint manipulation validates",
        "pass",
    ),
}


def test_run_all_suites_covers_catalog():
    reports = suites.run_all_suites(SuiteParams(trials=2))
    assert [r.suite for r in reports] == list(SUITE_IDS)
    assert all(r.verdict == "pass" for r in reports)
    for r in reports:
        doc = r.to_json_dict()
        assert (doc["mode"], doc["trials"], doc["notes"], doc["verdict"]) == PINNED_REPORTS[r.suite]
        assert doc["counterexample"] is None
