"""Rules, manipulation witnesses, and strategy-proofness certification."""

import dataclasses
import itertools
import math
import random
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchlab import core, da, manipulation
from matchlab.core import MAX_LOT_SIDE, OUTSIDE, Matching, Preference, Profile, Side, man, men, woman, women
from matchlab.da import RuleId, da_assignment, da_matching
from matchlab.domains import PreferenceDomain, all_preferences, exists_stable_sp_rule
from matchlab.errors import BudgetExceededError, PreconditionError, SizeGuardError, ValidationError
from matchlab.manipulation import (
    DEFAULT_EVAL_BUDGET,
    EXHAUSTIVE_PROFILE_BUDGET,
    ManipulationWitness,
    MatchingRule,
    find_manipulation,
    is_group_strategy_proof,
    is_strategy_proof,
    iter_manipulations,
    mpda_rule,
    planned_evaluations,
    validate_witness,
    welfare_shift,
    wpda_rule,
)

from conftest import count_evaluations, pref, profile_p1, random_profile

M1, M2 = man(0), man(1)
W1, W2 = woman(0), woman(1)


# --- rules -------------------------------------------------------------------


def test_rule_apply_matches_da(p1):
    rule = mpda_rule()
    assert rule.apply(p1) == da_matching(RuleId.MPDA, p1)
    assert rule(p1) == rule.apply(p1)
    assert rule.name == "mpda"
    assert rule.stable


def _list_vector(args, views) -> tuple:
    """The acceptable lists of a DA evaluation's views, proposers first; a
    receiver's list is read from its rank row, whose last entry is its rank
    of staying alone."""
    rule, p, _ = args
    men_, women_ = slice(None, p), slice(p, None)
    first, rows, shift = (men_, women_, p) if rule is RuleId.MPDA else (women_, men_, 0)
    lists = [tuple([j - shift for j in v]) for v in views[first]]
    accepted = [
        tuple(sorted([i for i in range(len(row) - 1) if row[i] < row[-1]], key=row.__getitem__))
        for row in views[rows]
    ]
    return tuple(lists + accepted)


def _count_evaluations(monkeypatch) -> tuple[list, list]:
    """Record the acceptable lists of every DA evaluation of a scan or table,
    and count every `_sequential_da` run; a run that is no evaluation is a
    warm start."""
    return count_evaluations(monkeypatch, manipulation, "_view_engine", _list_vector)


def _list_vectors(domain) -> int:
    """How many vectors of acceptable lists the domain's profiles hold."""
    return math.prod(len({pref.acceptable_idx for pref in domain.admissible(a)}) for a in domain.agents)


def test_certification_runs_da_once_per_list_vector_of_the_shape(monkeypatch):
    # the 1,296 profiles of full(2, 2) hold 5 ** 4 = 625 vectors of
    # acceptable lists; the engine's outcome memo runs DA once for each, and
    # every later certification by that engine on a 2x2 domain runs none.
    # A certification reads its scans' outcomes from its table, so it makes
    # no warm start: every kernel run is an evaluation
    calls, runs = _count_evaluations(monkeypatch)
    full = PreferenceDomain.full(2, 2)
    assert not is_group_strategy_proof(mpda_rule(), full, max_coalition=2)
    assert len(calls) == _list_vectors(full) == 625 == len(set(calls)) == len(runs)
    calls.clear()
    men_rk = [p.ranking for p in all_preferences(M1, 2)]
    women_rk = [(M1, M2, OUTSIDE), (M2, M1, OUTSIDE)]
    anon = PreferenceDomain.anonymous(2, 2, men_rk, women_rk)
    assert is_group_strategy_proof(mpda_rule(), anon)
    assert not is_strategy_proof(mpda_rule(), full)
    assert calls == []
    # WPDA's engine has its own memo
    assert not is_strategy_proof(wpda_rule(), full)
    assert len(calls) == 625 == len(set(calls))
    assert len(runs) == 2 * 625


def test_certification_runs_da_once_per_list_vector_even_when_it_fails_early(monkeypatch):
    # 24 * 24 * 6 * 6 * 3 = 62,208 profiles over 16 * 16 * 5 * 5 * 3 list
    # vectors; MPDA fails at an early base, yet the walk reads its whole
    # outcome table before it scans any base
    sets = {m: all_preferences(m, 3) for m in men(2)}
    sets.update({w: all_preferences(w, 2)[:size] for w, size in zip(women(3), (6, 6, 3))})
    dom = PreferenceDomain(sets)
    assert dom.profile_count == 62_208
    assert _list_vectors(dom) == 19_200
    calls, runs = _count_evaluations(monkeypatch)
    assert not is_strategy_proof(mpda_rule(), dom)
    assert len(calls) == 19_200 == len(set(calls)) == len(runs)
    calls.clear()
    assert not is_group_strategy_proof(mpda_rule(), dom)
    assert calls == [] and len(runs) == 19_200


def test_certification_past_the_memo_shapes_runs_da_at_every_profile(monkeypatch):
    # a 3x3 market has 16 ** 6 list vectors, over EXHAUSTIVE_PROFILE_BUDGET,
    # so each 3x3 certification evaluates every profile of its domain
    assert 16**6 > EXHAUSTIVE_PROFILE_BUDGET
    dom = PreferenceDomain({a: all_preferences(a, 3)[::8] for a in men(3) + women(3)})
    assert dom.profile_count == 729
    calls, runs = _count_evaluations(monkeypatch)
    for _ in range(2):
        calls.clear()
        runs.clear()
        is_group_strategy_proof(mpda_rule(), dom)
        assert len(calls) == dom.profile_count == len(runs)
    # the only shape whose store was looked up is 3x3, which has none
    assert core.list_keys.cache_info().currsize == 1
    assert core.list_keys(3, 3) is None and dom.profile_keys() is None


@pytest.mark.parametrize("p, q", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_memo_outcomes_match_the_checked_engine(p, q):
    # every profile of full(2, 2), then seeded sub-domains with two
    # rankings per agent, which read outcomes other domains put in the
    # memo; each table is read twice, the second time from the memo alone.
    # A 3x3 market has no memo, so its tables evaluate the rule each time.
    # A table numbers its outcomes: ids[k] is the one at profile k, and
    # lots[i][n] is agent i's partner's index in the outcome numbered n, or
    # the other side's size when it is unmatched
    rng = random.Random(2023 + 10 * p + q)
    agents = men(p) + women(q)
    domains = [PreferenceDomain.full(2, 2)] if (p, q) == (2, 2) else []
    domains += [
        PreferenceDomain({a: rng.sample(all_preferences(a, q if a.side is Side.MAN else p), 2) for a in agents})
        for _ in range(12)
    ]
    for rule_id in RuleId:
        market = manipulation._marriage_market(MatchingRule.deferred_acceptance(rule_id), p, q)
        for domain in domains:
            lists = domain.product_order().lists
            expected = [da_assignment(rule_id, r[:p], r[p:]) for r in itertools.product(*lists)]
            for _ in range(2):
                ids, lots = market.table(domain)
                assert len(ids) == len(expected)
                for n, assignment in zip(ids, expected):
                    matching = Matching.from_assignment(p, q, assignment)
                    for a, lot in zip(agents, lots, strict=True):
                        partner = matching.partner(a)
                        other = q if a.side is Side.MAN else p
                        assert lot[n] == (other if partner is OUTSIDE else partner.index)


def _one_man_domain(q: int) -> PreferenceDomain:
    """A 1-by-q domain of two profiles: the man ranks every woman in order,
    or none of them, and each woman accepts him."""
    m, ws = man(0), women(q)
    sets = {m: [Preference(m, ws + (OUTSIDE,)), Preference(m, (OUTSIDE,) + ws)]}
    sets.update({w: [Preference(w, (m, OUTSIDE))] for w in ws})
    return PreferenceDomain(sets)


def test_certifications_build_no_scan_views(monkeypatch):
    # a certification reads its bases' outcomes from its table, so one
    # whose store holds every key of its domain builds no DA engine; one
    # that fills the store builds one, and so does a scan
    built = []
    engine = manipulation._view_engine
    monkeypatch.setattr(manipulation, "_view_engine", lambda *args: built.append(args) or engine(*args))
    rule = MatchingRule.deferred_acceptance(RuleId.MPDA)
    # the women hold one ranking each, so MPDA holds; on the full domain it fails
    sets = {m: all_preferences(m, 2) for m in men(2)}
    sets.update({W1: [pref(W1, M1, M2, OUTSIDE)], W2: [pref(W2, M2, M1, OUTSIDE)]})
    sub, full = PreferenceDomain(sets), PreferenceDomain.full(2, 2)
    assert is_strategy_proof(rule, sub)
    assert built == [(RuleId.MPDA, 2, 2)]
    assert not is_strategy_proof(rule, full)
    assert len(built) == 2
    for certify in (is_strategy_proof, is_group_strategy_proof):
        assert certify(rule, sub)
        assert not certify(rule, full)
    assert len(built) == 2
    assert find_manipulation(rule, full, profile_p1(), 1) is not None
    assert built == [(RuleId.MPDA, 2, 2)] * 3


def test_certification_refusals_evaluate_nothing(monkeypatch):
    calls, runs = _count_evaluations(monkeypatch)
    with pytest.raises(BudgetExceededError):
        is_strategy_proof(mpda_rule(), PreferenceDomain.full(3, 3))
    with pytest.raises(ValidationError, match="at least 1"):
        is_group_strategy_proof(mpda_rule(), PreferenceDomain.full(2, 2), max_coalition=0)
    # the unmatched man's lot code is the women's count, past a byte here
    for certify in (is_strategy_proof, is_group_strategy_proof):
        with pytest.raises(SizeGuardError, match=f"limit .*{MAX_LOT_SIDE} agents per side"):
            certify(mpda_rule(), _one_man_domain(MAX_LOT_SIDE + 1))
    assert calls == [] and runs == []


def test_certification_codes_the_largest_side_a_byte_holds():
    # the unmatched man's lot code is the women's count, the largest byte
    domain = _one_man_domain(MAX_LOT_SIDE)
    for rule in (mpda_rule(), wpda_rule()):
        assert is_strategy_proof(rule, domain)
        assert is_group_strategy_proof(rule, domain)


def _mpda_table_but_the_last_profile(domain):
    """MPDA as a table rule on every profile of the domain but the last."""
    rule = mpda_rule()
    table = {
        (b.men_prefs, b.women_prefs): rule.assignment(b.men_prefs, b.women_prefs)
        for b in domain.profiles()
    }
    del table[next(reversed(table))]
    return MatchingRule.from_table(table, name="partial", stable=True)


def test_certification_of_a_partial_table_raises_before_scanning_any_base():
    # the walk evaluates every profile before it scans a base, so a missing
    # profile raises even where MPDA's first witness comes long before it:
    # at base 84 of the full 2x2 domain, and early in `early`
    full = PreferenceDomain.full(2, 2)
    with pytest.raises(PreconditionError, match="outside the table"):
        is_strategy_proof(_mpda_table_but_the_last_profile(full), full)
    early = PreferenceDomain(
        {
            M1: [all_preferences(M1, 2)[i] for i in (0, 3, 2)],
            M2: [all_preferences(M2, 2)[i] for i in (2, 0)],
            W1: [all_preferences(W1, 2)[i] for i in (5, 2, 3)],
            W2: [all_preferences(W2, 2)[i] for i in (0, 5, 2)],
        }
    )
    assert not is_strategy_proof(mpda_rule(), early)
    with pytest.raises(PreconditionError, match="outside the table"):
        is_strategy_proof(_mpda_table_but_the_last_profile(early), early)


def test_scans_run_domain_reports_without_the_shape_check(monkeypatch, p1):
    # a domain checks every report's shape when it is built, so the scans
    # skip the per-evaluation check that `rule.assignment` keeps
    def refuse(prefs, side, n_opposite):
        raise ValidationError("shape checked again")

    monkeypatch.setattr(da, "_check_side", refuse)
    full = PreferenceDomain.full(2, 2)
    assert list(iter_manipulations(mpda_rule(), full, p1, max_coalition=2))
    assert not is_group_strategy_proof(wpda_rule(), full, max_coalition=2)
    anon = PreferenceDomain.anonymous(
        2, 2, [p.ranking for p in all_preferences(M1, 2)], [(M1, M2, OUTSIDE), (M2, M1, OUTSIDE)]
    )
    assert is_group_strategy_proof(mpda_rule(), anon)
    with pytest.raises(ValidationError, match="checked again"):
        mpda_rule().assignment(p1.men_prefs, p1.women_prefs)


def test_single_base_scan_stores_nothing_on_the_rule(p1):
    rule = mpda_rule()
    state = {slot: getattr(rule, slot) for slot in MatchingRule.__slots__}
    found = list(iter_manipulations(rule, PreferenceDomain.full(2, 2), p1, max_coalition=2))
    assert found
    assert not hasattr(rule, "__dict__") and not hasattr(rule, "_cache")
    assert {slot: getattr(rule, slot) for slot in MatchingRule.__slots__} == state


def test_rule_from_table_rejects_unknown_profile(p1, p2):
    table = {(p1.men_prefs, p1.women_prefs): (0, 1)}
    rule = MatchingRule.from_table(table, name="tiny", stable=True)
    assert rule.apply(p1).pairs == ((M1, W1), (M2, W2))
    with pytest.raises(PreconditionError):
        rule.apply(p2)


def test_rule_from_profile_function(p1):
    def empty(profile):
        return Matching(profile.p, profile.q, [])

    rule = MatchingRule.from_profile_function(empty, name="empty", stable=False)
    assert rule.apply(p1).is_empty
    assert not rule.stable


# --- single witness searches -------------------------------------------------


def test_mpda_manipulable_by_w1_on_full_domain(p1):
    # the canonical first witness: w1 drops m1 below the outside option
    rule = mpda_rule()
    full = PreferenceDomain.full(2, 2)
    wit = find_manipulation(rule, full, p1, max_coalition=1)
    assert wit is not None
    assert wit.coalition == (W1,)
    assert wit.misreports == ((W1, pref(W1, M2, OUTSIDE, M1)),)
    assert wit.outcome_before.pairs == ((M1, W1), (M2, W2))
    assert wit.outcome_after.pairs == ((M1, W2), (M2, W1))
    validate_witness(rule, wit, domain=full)


def test_wpda_manipulable_by_m1_on_full_domain(p1):
    # mirror image: m1 truncates, turning the crossed outcome straight
    rule = wpda_rule()
    full = PreferenceDomain.full(2, 2)
    wit = find_manipulation(rule, full, p1, max_coalition=1)
    assert wit is not None
    assert wit.coalition == (M1,)
    assert wit.misreports == ((M1, pref(M1, W1, OUTSIDE, W2)),)
    assert wit.outcome_before.pairs == ((M1, W2), (M2, W1))
    assert wit.outcome_after.pairs == ((M1, W1), (M2, W2))
    validate_witness(rule, wit, domain=full)


def test_singleton_domain_has_no_manipulation(p1):
    dom = PreferenceDomain.from_profile(p1)
    assert find_manipulation(mpda_rule(), dom, p1, max_coalition=2) is None
    assert is_strategy_proof(mpda_rule(), dom)
    assert is_group_strategy_proof(mpda_rule(), dom)


def test_base_profile_must_be_admissible(p1, p2):
    dom = PreferenceDomain.from_profile(p1)
    with pytest.raises(PreconditionError):
        find_manipulation(mpda_rule(), dom, p2, max_coalition=1)


def test_witness_scan_order_is_deterministic(p1):
    rule = mpda_rule()
    full = PreferenceDomain.full(2, 2)
    first = [find_manipulation(rule, full, p1, max_coalition=2) for _ in range(3)]
    assert first[0] == first[1] == first[2]


def test_iter_manipulations_yields_distinct_valid_witnesses(p1):
    rule = mpda_rule()
    full = PreferenceDomain.full(2, 2)
    seen = []
    for wit in iter_manipulations(rule, full, p1, max_coalition=1):
        validate_witness(rule, wit, domain=full)
        seen.append(wit)
    assert len(seen) == len(set(seen))
    assert any(w.coalition == (W1,) for w in seen)
    # men cannot gain by misreporting when they propose
    assert all(all(a.side.prefix == "w" for a in w.coalition) for w in seen)


def test_coalition_pool_restricts_search(p1):
    rule = mpda_rule()
    full = PreferenceDomain.full(2, 2)
    assert find_manipulation(rule, full, p1, max_coalition=2, coalition_pool=(M1, M2)) is None
    wit = find_manipulation(rule, full, p1, max_coalition=1, coalition_pool=(W1,))
    assert wit is not None and wit.coalition == (W1,)


# --- observed manipulations track the receiving side --------------------------


def _crafted_manipulable_3x3():
    # the 2x2 rotation embedded in a 3x3 market; m3 and w3 top each other
    ms, ws = men(3), women(3)
    return Profile(
        [
            pref(ms[0], ws[0], ws[1], ws[2], OUTSIDE),
            pref(ms[1], ws[1], ws[0], ws[2], OUTSIDE),
            pref(ms[2], ws[2], ws[0], ws[1], OUTSIDE),
            pref(ws[0], ms[1], ms[0], ms[2], OUTSIDE),
            pref(ws[1], ms[0], ms[1], ms[2], OUTSIDE),
            pref(ws[2], ms[2], ms[0], ms[1], OUTSIDE),
        ]
    )


def test_all_mpda_witnesses_are_women_coalitions_3x3():
    rule = mpda_rule()
    full = PreferenceDomain.full(3, 3)
    rng = random.Random(7)
    bases = [_crafted_manipulable_3x3()] + [random_profile(rng, 3, 3) for _ in range(40)]
    found = 0
    for base in bases:
        for wit in iter_manipulations(rule, full, base, max_coalition=2):
            assert all(a.side.prefix == "w" for a in wit.coalition)
            found += 1
    assert found >= 48  # the crafted base alone carries 48 witnesses


# --- budget arithmetic ---------------------------------------------------------


def test_planned_evaluations_arithmetic():
    assert planned_evaluations([3, 4], 1) == 7
    assert planned_evaluations([3, 4], 2) == 7 + 12
    assert planned_evaluations([2, 2, 2], 3) == 6 + 12 + 8
    assert planned_evaluations([], 5) == 0


def test_budget_exceeded_carries_planned_count(p1):
    full = PreferenceDomain.full(2, 2)
    with pytest.raises(BudgetExceededError) as err:
        find_manipulation(mpda_rule(), full, p1, max_coalition=2, budget=10)
    # four agents, five alternatives each: 4*5 singles + 6*25 pairs
    assert err.value.count == 4 * 5 + 6 * 25
    assert "(required 170)" in str(err.value)


def test_certification_budget_too_small_for_one_base_carries_planned_count(p1):
    # a single-base search at the first profile plans 170 evaluations, but
    # the certification refuses once, naming its 1,296 profiles: one base's
    # plan never exceeds the profile count
    full = PreferenceDomain.full(2, 2)
    first = next(full.profiles())
    with pytest.raises(BudgetExceededError) as single:
        find_manipulation(mpda_rule(), full, first, max_coalition=2, budget=10)
    assert single.value.count == 4 * 5 + 6 * 25
    with pytest.raises(BudgetExceededError) as certified:
        is_group_strategy_proof(mpda_rule(), full, budget=10, max_coalition=2)
    assert certified.value.count == full.profile_count == 1296
    assert "(required 1296)" in str(certified.value)
    assert not is_group_strategy_proof(mpda_rule(), full, budget=1296, max_coalition=2)


def test_certification_budget_counts_every_profile(monkeypatch):
    # each base's scan fits these budgets, but the walk evaluates the rule
    # at all 1,296 profiles of the domain
    full = PreferenceDomain.full(2, 2)
    verdicts = {cap: is_group_strategy_proof(mpda_rule(), full, max_coalition=cap) for cap in (1, 2)}
    calls, runs = _count_evaluations(monkeypatch)
    for budget, cap in ((200, 2), (25, 1)):
        with pytest.raises(BudgetExceededError) as err:
            is_group_strategy_proof(mpda_rule(), full, budget=budget, max_coalition=cap)
        assert err.value.count == full.profile_count == 1296
    with pytest.raises(BudgetExceededError) as err:
        is_strategy_proof(mpda_rule(), full, budget=25)
    assert err.value.count == 1296
    assert calls == [] and runs == []
    for cap, verdict in verdicts.items():
        assert is_group_strategy_proof(mpda_rule(), full, budget=1296, max_coalition=cap) == verdict


def test_find_manipulation_rejects_a_coalition_bound_below_one(p1):
    full = PreferenceDomain.full(2, 2)
    for bound in (0, -5):
        with pytest.raises(ValidationError, match="at least 1"):
            find_manipulation(mpda_rule(), full, p1, max_coalition=bound)


def test_iter_manipulations_rejects_a_coalition_bound_below_one(p1):
    full = PreferenceDomain.full(2, 2)
    for bound in (0, -5):
        with pytest.raises(ValidationError, match="at least 1"):
            list(iter_manipulations(mpda_rule(), full, p1, max_coalition=bound))


def test_group_certification_rejects_a_coalition_bound_below_one():
    full = PreferenceDomain.full(2, 2)
    for bound in (0, -5):
        with pytest.raises(ValidationError, match="at least 1"):
            is_group_strategy_proof(mpda_rule(), full, max_coalition=bound)


def test_empty_coalition_pool_plans_nothing(p1):
    full = PreferenceDomain.full(2, 2)
    assert find_manipulation(mpda_rule(), full, p1, max_coalition=2, coalition_pool=[]) is None


def test_default_budget_allows_small_markets(p1):
    full = PreferenceDomain.full(2, 2)
    assert planned_evaluations([5, 5, 5, 5], 4) < DEFAULT_EVAL_BUDGET
    assert find_manipulation(mpda_rule(), full, p1, max_coalition=4) is not None


def test_exhaustive_certification_profile_budget():
    full = PreferenceDomain.full(3, 3)
    assert full.profile_count == 24 ** 6
    assert full.profile_count > EXHAUSTIVE_PROFILE_BUDGET
    with pytest.raises(BudgetExceededError):
        is_strategy_proof(mpda_rule(), full)


# --- certification -------------------------------------------------------------


def test_full_2x2_mpda_not_strategy_proof():
    full = PreferenceDomain.full(2, 2)
    check = is_strategy_proof(mpda_rule(), full)
    assert not check
    assert check.witness is not None
    validate_witness(mpda_rule(), check.witness, domain=full)


def test_restricted_domain_mpda_strategy_proof():
    # women limited to the two full rankings cannot gain by swapping them
    men_rk = [p.ranking for p in all_preferences(M1, 2)]
    women_rk = [(M1, M2, OUTSIDE), (M2, M1, OUTSIDE)]
    dom = PreferenceDomain.anonymous(2, 2, men_rk, women_rk)
    assert is_strategy_proof(mpda_rule(), dom)
    assert is_group_strategy_proof(mpda_rule(), dom)


# --- witness validation rejects broken claims -----------------------------------


def _w1_witness(p1):
    full = PreferenceDomain.full(2, 2)
    return find_manipulation(mpda_rule(), full, p1, max_coalition=1), full


def test_validate_rejects_wrong_outcome(p1):
    wit, full = _w1_witness(p1)
    broken = ManipulationWitness(
        rule_name=wit.rule_name,
        base=wit.base,
        coalition=wit.coalition,
        misreports=wit.misreports,
        outcome_before=wit.outcome_after,  # swapped on purpose
        outcome_after=wit.outcome_before,
    )
    with pytest.raises(PreconditionError):
        validate_witness(mpda_rule(), broken, domain=full)


def test_validate_rejects_non_improving_member(p1):
    full = PreferenceDomain.full(2, 2)
    # m2 reports truthfully alongside w1 but gains nothing
    base_wit = find_manipulation(mpda_rule(), full, p1, max_coalition=1)
    padded = ManipulationWitness(
        rule_name=base_wit.rule_name,
        base=p1,
        coalition=(M2, W1),
        misreports=((M2, p1[M2]),) + base_wit.misreports,
        outcome_before=base_wit.outcome_before,
        outcome_after=base_wit.outcome_after,
    )
    with pytest.raises(PreconditionError, match="strictly"):
        validate_witness(mpda_rule(), padded, domain=full)


def test_validate_rejects_all_truthful_reports(p1):
    wit = ManipulationWitness(
        rule_name="mpda",
        base=p1,
        coalition=(W1,),
        misreports=((W1, p1[W1]),),
        outcome_before=da_matching(RuleId.MPDA, p1),
        outcome_after=da_matching(RuleId.MPDA, p1),
    )
    with pytest.raises(PreconditionError, match="differ"):
        validate_witness(mpda_rule(), wit)


def test_validate_rejects_inadmissible_misreport(p1):
    wit, _ = _w1_witness(p1)
    tiny = PreferenceDomain.from_profile(p1)
    with pytest.raises(PreconditionError, match="admissible"):
        validate_witness(mpda_rule(), wit, domain=tiny)


def test_validate_rejects_empty_or_duplicated_coalition(p1):
    wit, full = _w1_witness(p1)
    with pytest.raises(PreconditionError):
        validate_witness(
            mpda_rule(),
            ManipulationWitness(wit.rule_name, p1, (), (), wit.outcome_before, wit.outcome_before),
            domain=full,
        )
    with pytest.raises(PreconditionError):
        validate_witness(
            mpda_rule(),
            ManipulationWitness(
                wit.rule_name, p1, (W1, W1), wit.misreports * 2, wit.outcome_before, wit.outcome_after
            ),
            domain=full,
        )


def test_validate_rejects_owner_mismatch(p1):
    wit, full = _w1_witness(p1)
    with pytest.raises(PreconditionError):
        validate_witness(
            mpda_rule(),
            ManipulationWitness(
                wit.rule_name,
                p1,
                (W2,),
                ((W2, wit.misreports[0][1]),),  # preference owned by w1
                wit.outcome_before,
                wit.outcome_after,
            ),
            domain=full,
        )


# --- welfare shift --------------------------------------------------------------


def test_welfare_shift_on_canonical_witness(p1):
    rule = mpda_rule()
    full = PreferenceDomain.full(2, 2)
    wit = find_manipulation(rule, full, p1, max_coalition=1)
    shift = welfare_shift(rule, p1, wit)
    assert shift.men_weakly_worse
    assert shift.women_weakly_better
    assert shift.unmatched_preserved
    assert shift.direction_of(W1) == "better"
    assert shift.direction_of(M1) == "worse"
    assert shift.direction_of(M2) == "worse"
    assert shift.direction_of(W2) == "better"


def test_welfare_shift_requires_matching_base(p1, p2):
    rule = mpda_rule()
    full = PreferenceDomain.full(2, 2)
    wit = find_manipulation(rule, full, p1, max_coalition=1)
    with pytest.raises(PreconditionError):
        welfare_shift(rule, p2, wit)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 9))
def test_any_mpda_witness_shifts_welfare_toward_women(seed):
    rng = random.Random(seed)
    base = random_profile(rng, 2, 2)
    full = PreferenceDomain.full(2, 2)
    rule = mpda_rule()
    wit = find_manipulation(rule, full, base, max_coalition=2)
    if wit is None:
        return
    shift = welfare_shift(rule, base, wit)
    assert shift.men_weakly_worse
    assert shift.women_weakly_better
    assert shift.unmatched_preserved


# --- certification against a memo-free oracle ----------------------------------


def _women_limited_to(positions):
    """full(2, 2) with each woman's set cut to these positions of `all_preferences`."""
    sets = {m: all_preferences(m, 2) for m in men(2)}
    sets.update({w: [all_preferences(w, 2)[i] for i in positions] for w in women(2)})
    return PreferenceDomain(sets)


# MPDA and WPDA are group strategy-proof on the first and manipulable on
# the second, whose first witness comes late in the product order
GSP_DOMAIN = _women_limited_to((0, 1))
LATE_WITNESS_DOMAIN = _women_limited_to((0, 1, 2))


@st.composite
def small_domains(draw):
    """Sub-domains of full(2, 2), full(2, 3) and full(3, 2) with one to four
    (2x2) or one to three (otherwise) admissible preferences per agent."""
    p, q = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    most = 4 if (p, q) == (2, 2) else 3
    sets = {}
    for a in men(p) + women(q):
        options = all_preferences(a, q if a.side is Side.MAN else p)
        sets[a] = draw(st.lists(st.sampled_from(options), min_size=1, max_size=most, unique=True))
    return PreferenceDomain(sets)


def _first_witness(rule, domain, max_coalition):
    """The certification's answer from a plain walk: a single-base search,
    without a memo or gain sets, at every base in the product order."""
    cap = len(domain.agents) if max_coalition is None else max_coalition
    for base in domain.profiles():
        witness = find_manipulation(rule, domain, base, cap)
        if witness is not None:
            return witness
    return None


@pytest.mark.parametrize("cap", [1, 2, None])
def test_certification_runs_da_only_for_list_vectors_not_yet_in_the_memo(monkeypatch, cap):
    # LATE_WITNESS_DOMAIN holds GSP_DOMAIN, so certifying it second runs DA
    # for its extra list vectors alone
    calls, runs = _count_evaluations(monkeypatch)
    for rule in (mpda_rule(), wpda_rule()):
        for domain, holds, evaluations in (
            (GSP_DOMAIN, True, _list_vectors(GSP_DOMAIN)),
            (LATE_WITNESS_DOMAIN, False, _list_vectors(LATE_WITNESS_DOMAIN) - _list_vectors(GSP_DOMAIN)),
            (GSP_DOMAIN, True, 0),
            (LATE_WITNESS_DOMAIN, False, 0),
        ):
            calls.clear()
            runs.clear()
            assert is_group_strategy_proof(rule, domain, max_coalition=cap).holds == holds
            assert len(calls) == evaluations == len(set(calls)) == len(runs)


@settings(max_examples=40, deadline=None)
@given(domain=small_domains())
@example(domain=GSP_DOMAIN)
@example(domain=LATE_WITNESS_DOMAIN)
def test_certification_matches_the_memo_free_oracle(domain):
    rules = [mpda_rule(), wpda_rule()]
    search = exists_stable_sp_rule(domain, "backtracking")
    if search.exists:
        rules.append(search.rule)
    for rule in rules:
        for cap in (1, 2, None):
            check = is_group_strategy_proof(rule, domain, max_coalition=cap)
            if cap == 1:
                assert is_strategy_proof(rule, domain) == check
            expected = _first_witness(rule, domain, cap)
            assert check.holds == (expected is None)
            if expected is None:
                assert check.witness is None
                continue
            got = check.witness
            for field in dataclasses.fields(ManipulationWitness):
                assert getattr(got, field.name) == getattr(expected, field.name), field.name
            validate_witness(rule, got, domain=domain)


@pytest.mark.parametrize(
    "certify", [is_strategy_proof, partial(is_group_strategy_proof, max_coalition=1)], ids=["sp", "gsp-cap-1"]
)
def test_single_agent_certification_searches_the_first_failing_base_alone(monkeypatch, certify):
    # at a coalition bound of 1 the failing bases are read from the table
    # along the agents' axis lines, so the search runs at none of them when
    # the rule is strategy-proof and at the first one when it is not
    bases = []
    search = manipulation._search

    def counting(true_reports, *args):
        bases.append(tuple(true_reports))
        return search(true_reports, *args)

    monkeypatch.setattr(manipulation, "_search", counting)
    order = LATE_WITNESS_DOMAIN.product_order()
    for rule in (mpda_rule(), wpda_rule()):
        bases.clear()
        assert certify(rule, GSP_DOMAIN)
        assert bases == []
        check = certify(rule, LATE_WITNESS_DOMAIN)
        assert not check and len(bases) == 1
        assert LATE_WITNESS_DOMAIN.make_profile(order.preferences(bases[0])) == check.witness.base
        assert check.witness == _first_witness(rule, LATE_WITNESS_DOMAIN, 1)
    # a rule that only the two men together can manipulate: at a bound of
    # 1 no base is searched, although a coalition walk would search the
    # base where the pair gains
    bases.clear()
    rule, domain = _pair_only_rule()
    assert certify(rule, domain)
    assert bases == []
    assert is_group_strategy_proof(rule, domain).witness.coalition == (M1, M2)


def _pair_only_rule():
    """A rule on a 2x2 domain where each man reports a or b, that no single
    agent manipulates and the two men manipulate together at (a, a): the
    men get (w2, w1) there and (w1, w2) at (b, b), the man who keeps a
    gets his a-top at (a, b) and (b, a), and the other stays unmatched."""
    a1, b1 = pref(M1, W1, W2, OUTSIDE), pref(M1, W1, OUTSIDE, W2)
    a2, b2 = pref(M2, W2, W1, OUTSIDE), pref(M2, W2, OUTSIDE, W1)
    women_prefs = (pref(W1, M1, M2, OUTSIDE), pref(W2, M1, M2, OUTSIDE))
    outcomes = {(a1, a2): (1, 0), (a1, b2): (0, None), (b1, a2): (None, 1), (b1, b2): (0, 1)}
    table = {(men_prefs, women_prefs): outcome for men_prefs, outcome in outcomes.items()}
    domain = PreferenceDomain({M1: [a1, b1], M2: [a2, b2], W1: women_prefs[:1], W2: women_prefs[1:]})
    return MatchingRule.from_table(table, "pair-only", stable=False), domain


def test_a_flagged_base_without_a_witness_fails_the_certification(monkeypatch):
    # at a bound of 1, or at one that covers the pool, the bitsets flag
    # exactly the bases that hold a witness, so a flagged base where the
    # search finds none is a fault, not a pass
    assert is_group_strategy_proof(mpda_rule(), GSP_DOMAIN)
    axis_gains = manipulation.axis_gains
    monkeypatch.setattr(manipulation, "axis_gains", lambda *args: axis_gains(*args) | 1 << 5)
    with pytest.raises(RuntimeError, match="base 5"):
        is_strategy_proof(mpda_rule(), GSP_DOMAIN)
    monkeypatch.undo()
    gain_sets = manipulation.gain_sets

    def spurious(*args):
        reachable = gain_sets(*args)
        return lambda digits, key: reachable(digits, key) | (1 << 7 if key == 3 else 0)

    monkeypatch.setattr(manipulation, "gain_sets", spurious)
    for cap in (None, len(GSP_DOMAIN.agents)):
        with pytest.raises(RuntimeError, match="base 3"):
            is_group_strategy_proof(mpda_rule(), GSP_DOMAIN, max_coalition=cap)
    # a smaller bound may leave a flagged base without a hit
    for cap in range(2, len(GSP_DOMAIN.agents)):
        assert is_group_strategy_proof(mpda_rule(), GSP_DOMAIN, max_coalition=cap)
