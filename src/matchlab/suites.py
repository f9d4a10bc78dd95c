"""Named verification suites binding the whole laboratory together.

Each suite checks one structural claim about deferred acceptance on a
battery of profiles or generated domains and returns a SuiteReport.  A
"fail" verdict always carries a counterexample that was re-validated with
independent predicate calls before being reported.  Reports are
deterministic given the same parameters and seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional, Sequence

from . import formats
from .core import (
    OUTSIDE,
    SUITE_IDS,
    Matching,
    Preference,
    Profile,
    Side,
    enumerate_matchings,
    is_individually_rational,
    is_stable,
    man,
    men,
    size_guard,
    stable_set,
    woman,
    women,
)
from .da import RuleId, da_assignment, da_matching
from .domains import (
    PreferenceDomain,
    PriorOrdering,
    cyclical_inclusion_missing,
    exists_stable_sp_rule,
    find_incompatibility_witness,
    generate_maximal_single_peaked,
    maximal_single_peaked_domain,
    minimal_utp_rankings,
    preference_sort_key,
    satisfies_top_dominance,
    satisfies_unrestricted_top_pairs,
    single_peaked_guard,
    theorem3_equivalence_suite,
    top_dominance_violation,
)
from .errors import MatchlabError, PreconditionError, UnknownSuiteError
from .manipulation import (
    DEFAULT_EVAL_BUDGET,
    ManipulationWitness,
    MatchingRule,
    crossing_market_example,
    is_group_strategy_proof,
    is_strategy_proof,
    iter_manipulations,
    mpda_rule,
    planned_evaluations,
    validate_witness,
    welfare_shift,
    wpda_rule,
)
from .mto import (
    MtoDomain,
    StudentPreference,
    colleges,
    find_manipulation_mto,
    is_responsive,
    mixed_coalition_counterexample,
    run_spda,
    spda_matching,
    students,
    students_satisfy_utp,
    validate_mto_witness,
)

# the sampled blocking lemma draws up to BLOCKING_LEMMA_DRAWS profiles per
# trial; with two men and many women most draws are vacuous, so the default
# 1,000 trials at 2x6 take several seconds
MAX_BLOCKING_LEMMA_SIDE = 6
BLOCKING_LEMMA_DRAWS = 300


@dataclass(frozen=True)
class SuiteParams:
    """Knobs shared by every suite; fixture suites ignore the sizes."""

    men: int = 2
    women: int = 2
    seed: int = 42
    trials: Optional[int] = None  # None picks the per-size default
    budget: int = DEFAULT_EVAL_BUDGET


@dataclass
class SuiteReport:
    suite: str
    params: dict
    mode: str  # exhaustive | sampled | fixture
    verdict: str  # pass | fail
    counterexample: Optional[dict]
    trials: int
    runtime_seconds: float
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self, include_runtime: bool = False) -> dict:
        doc = {
            "schema": formats.SCHEMA,
            "kind": "suite-report",
            "suite": self.suite,
            "params": dict(self.params),
            "mode": self.mode,
            "verdict": self.verdict,
            "counterexample": self.counterexample,
            "trials": self.trials,
            "notes": self.notes,
        }
        if include_runtime:
            doc["runtime_seconds"] = self.runtime_seconds
        return doc


@dataclass
class _Outcome:
    mode: str
    verdict: str
    counterexample: Optional[dict]
    trials: int
    notes: str


def _trial_seeds(seed: int, n: int) -> Iterator[int]:
    rng = random.Random(seed)
    return (rng.randrange(2**62) for _ in range(n))


def _sampled(
    params: SuiteParams,
    default_trials: int,
    run_trial: Callable[[int, random.Random], tuple[Optional[dict], bool]],
    note: Callable[[int], str],
) -> _Outcome:
    """Run params.trials (or default_trials) seeded trials in order.

    Trial i gets its own Random, seeded by the i-th of the run's trial seeds,
    and returns a counterexample or None plus whether it was a hit. The first
    counterexample fails the suite; otherwise note turns the hit count into
    the report's notes.
    """
    trials = params.trials if params.trials is not None else default_trials
    hits = 0
    for i, seed in enumerate(_trial_seeds(params.seed, trials)):
        cex, hit = run_trial(i, random.Random(seed))
        if cex is not None:
            return _Outcome("sampled", "fail", cex, trials, "")
        hits += hit
    return _Outcome("sampled", "pass", None, trials, note(hits))


def _random_full_profile(rng: random.Random, p: int, q: int) -> Profile:
    prefs = []
    for a in men(p) + women(q):
        opposite = list(women(q) if a.side is Side.MAN else men(p))
        ranking = opposite + [OUTSIDE]
        rng.shuffle(ranking)
        prefs.append(Preference(a, tuple(ranking)))
    return Profile(prefs)


def _planted_bases(p: int, q: int) -> list[Profile]:
    """Profiles known to admit receiving-side manipulations.

    The first two agents on each side form the crossing structure with two
    stable matchings; everyone else either pairs off with their mirror agent
    or sits out, so the core behaves exactly like the 2x2 market.
    """
    if p < 2 or q < 2:
        return []
    ws, ms = women(q), men(p)
    prefs = []
    for i, m in enumerate(ms):
        if i == 0:
            ranking = (ws[0], ws[1], *ws[2:], OUTSIDE)
        elif i == 1:
            ranking = (ws[1], ws[0], *ws[2:], OUTSIDE)
        elif i < q:
            rest = tuple(w for w in ws if w != ws[i])
            ranking = (ws[i], *rest, OUTSIDE)
        else:
            ranking = (OUTSIDE, *ws)
        prefs.append(Preference(m, ranking))
    for j, w in enumerate(ws):
        if j == 0:
            ranking = (ms[1], ms[0], *ms[2:], OUTSIDE)
        elif j == 1:
            ranking = (ms[0], ms[1], *ms[2:], OUTSIDE)
        elif j < p:
            rest = tuple(m for m in ms if m != ms[j])
            ranking = (ms[j], *rest, OUTSIDE)
        else:
            ranking = (OUTSIDE, *ms)
        prefs.append(Preference(w, ranking))
    return [Profile(prefs)]


def _affordable_cap(counts: Sequence[int], cap: int, budget: int) -> int:
    """Largest coalition size whose planned evaluation count fits the budget."""
    best = 1
    for k in range(1, cap + 1):
        if planned_evaluations(counts, k) <= budget:
            best = k
        else:
            break
    return best


def _counterexample_witness(witness: ManipulationWitness, reason: str) -> dict:
    return {"reason": reason, "witness": formats.witness_to_json(witness)}


# --- MPDA witness surveys (theorem1, prop-welfare, prop-unmatched) ---------------


def _witness_survey(
    params: SuiteParams,
    checker: Callable[[MatchingRule, ManipulationWitness], Optional[str]],
    coalition_side: Optional[Side] = None,
) -> _Outcome:
    """Scan MPDA manipulation witnesses and apply a per-witness predicate.

    checker returns None when the witness is fine, else a failure reason.
    With coalition_side set, the scan restricts coalitions to that side and
    any witness found at all is a failure.
    """
    p, q = params.men, params.women
    domain = PreferenceDomain.full(p, q)
    pool_counts = [
        len(domain.admissible(a)) - 1
        for a in domain.agents
        if coalition_side is None or a.side is coalition_side
    ]

    def scan_base(base: Profile, cap: int) -> Optional[dict]:
        rule = mpda_rule()
        pool = None
        if coalition_side is not None:
            pool = [a for a in base.agents if a.side is coalition_side]
        for witness in iter_manipulations(
            rule, domain, base, max_coalition=cap, budget=params.budget, coalition_pool=pool
        ):
            if coalition_side is not None:
                validate_witness(mpda_rule(), witness)
                return _counterexample_witness(
                    witness, "a coalition from the proposing side manipulated the rule"
                )
            reason = checker(rule, witness)
            if reason is not None:
                validate_witness(mpda_rule(), witness)
                return _counterexample_witness(witness, reason)
        return None

    if p == 2 and q == 2:
        cap = _affordable_cap(pool_counts, len(pool_counts), params.budget)
        bases = list(domain.profiles())
        for base in bases:
            cex = scan_base(base, cap)
            if cex is not None:
                return _Outcome("exhaustive", "fail", cex, len(bases), "")
        note = f"every admissible base scanned, coalition cap {cap}"
        return _Outcome("exhaustive", "pass", None, len(bases), note)

    cap = _affordable_cap(pool_counts, min(len(pool_counts), 2), params.budget)
    planted = _planted_bases(p, q)

    def run_trial(i: int, rng: random.Random) -> tuple[Optional[dict], bool]:
        base = planted[i] if i < len(planted) else _random_full_profile(rng, p, q)
        return scan_base(base, cap), True

    def note(scanned: int) -> str:
        n_planted = min(len(planted), scanned)
        return f"{n_planted} planted + {scanned - n_planted} random bases, coalition cap {cap}"

    return _sampled(params, 1000 if (p, q) == (3, 3) else 200, run_trial, note)


def _suite_theorem1(params: SuiteParams) -> _Outcome:
    def checker(rule: MatchingRule, witness: ManipulationWitness) -> Optional[str]:
        if all(a.side is Side.WOMAN for a in witness.coalition):
            return None
        return "manipulating coalition reaches outside the receiving side"

    return _witness_survey(params, checker)


def _suite_prop_welfare(params: SuiteParams) -> _Outcome:
    def checker(rule: MatchingRule, witness: ManipulationWitness) -> Optional[str]:
        shift = welfare_shift(rule, witness.base, witness)
        if not shift.men_weakly_worse:
            return "a proposing-side agent strictly gained from the manipulation"
        if not shift.women_weakly_better:
            return "a receiving-side agent strictly lost from the manipulation"
        return None

    return _witness_survey(params, checker)


def _suite_prop_unmatched(params: SuiteParams) -> _Outcome:
    def checker(rule: MatchingRule, witness: ManipulationWitness) -> Optional[str]:
        before = frozenset(witness.outcome_before.unmatched)
        after = frozenset(witness.outcome_after.unmatched)
        if before != after:
            return "the set of unmatched agents changed under the manipulation"
        return None

    return _witness_survey(params, checker)


def _suite_corollary_dubins(params: SuiteParams) -> _Outcome:
    return _witness_survey(params, lambda rule, w: None, coalition_side=Side.MAN)


# --- generated-domain suites ------------------------------------------------------


def _random_subset(rng: random.Random, pool: Sequence, max_size: int) -> list:
    size = rng.randint(1, min(max_size, len(pool)))
    return list(rng.sample(list(pool), size))


def _random_agent_sets(rng: random.Random, full: PreferenceDomain, max_size: int) -> Optional[dict]:
    """A random subset of each agent's rankings in the full domain. A woman's
    subset is redrawn, up to 200 times, until it satisfies top dominance;
    None when one never does."""
    men_universe = men(full.p)
    sets: dict = {}
    for a in full.agents:
        for _ in range(200):
            chosen = _random_subset(rng, full.admissible(a), max_size)
            chosen.sort(key=_sort_key)
            if a.side is Side.MAN or top_dominance_violation(chosen, men_universe) is None:
                sets[a] = chosen
                break
        else:
            return None
    return sets


def _sort_key(pref: Preference):
    return preference_sort_key(pref.ranking)


def _domain_counterexample(domain: PreferenceDomain, reason: str, **extra) -> dict:
    doc = {"reason": reason, "domain": formats.domain_to_json(domain)}
    doc.update(extra)
    return doc


def _suite_prop_gsp_existence(params: SuiteParams) -> _Outcome:
    """Receiving-side top dominance makes the proposing DA rule group-proof."""
    p, q = params.men, params.women
    full = PreferenceDomain.full(p, q)
    max_size = 6 if (p, q) == (2, 2) else 3

    def run_trial(i: int, rng: random.Random) -> tuple[Optional[dict], bool]:
        sets = _random_agent_sets(rng, full, max_size)
        if sets is None:
            return None, False
        domain = PreferenceDomain(sets)
        td = satisfies_top_dominance(domain, Side.WOMAN)
        if not td:
            raise MatchlabError("generator produced a non-top-dominant receiving side")
        rule = mpda_rule()
        for base in domain.profiles():
            if not is_stable(da_matching(RuleId.MPDA, base), base):
                return (
                    _domain_counterexample(
                        domain,
                        "proposing DA outcome unstable on a top-dominant domain",
                        profile=formats.profile_to_json(base),
                    ),
                    True,
                )
        check = is_group_strategy_proof(rule, domain, budget=params.budget)
        if not check:
            validate_witness(mpda_rule(), check.witness, domain=domain)
            return (
                _counterexample_witness(
                    check.witness,
                    "group manipulation found despite receiving-side top dominance",
                ),
                True,
            )
        return None, True

    return _sampled(
        params,
        20 if (p, q) == (2, 2) else 8,
        run_trial,
        lambda generated: f"{generated} generated domains with top dominance on the receiving side",
    )


def _utp_men_sets(rng: random.Random, p: int, q: int, women_max: int) -> dict:
    """Men hold at least the minimal unrestricted-top-pairs rankings."""
    full = PreferenceDomain.full(p, q)
    minimal = frozenset(minimal_utp_rankings(women(q)))
    sets: dict = {}
    for a in men(p):
        pool = full.admissible(a)
        base = [pref for pref in pool if pref.ranking in minimal]
        extras = [pref for pref in pool if pref not in base]
        picked = base + (rng.sample(extras, rng.randint(0, min(2, len(extras)))) if extras else [])
        picked.sort(key=_sort_key)
        sets[a] = picked
    for a in women(q):
        chosen = _random_subset(rng, full.admissible(a), women_max)
        chosen.sort(key=_sort_key)
        sets[a] = chosen
    return sets


def _suite_theorem2(params: SuiteParams) -> _Outcome:
    """Stable rules on proposer-side UTP domains: single-agent proofness
    and coalition proofness coincide."""
    p, q = params.men, params.women
    women_max = 6 if (p, q) == (2, 2) else 2

    def run_trial(i: int, rng: random.Random) -> tuple[Optional[dict], bool]:
        domain = PreferenceDomain(_utp_men_sets(rng, p, q, women_max))
        if not satisfies_unrestricted_top_pairs(domain, Side.MAN):
            raise MatchlabError("generator lost unrestricted top pairs for men")
        for rule in (mpda_rule(), wpda_rule()):
            sp = is_strategy_proof(rule, domain, budget=params.budget)
            gsp = is_group_strategy_proof(rule, domain, budget=params.budget)
            if sp.holds and not gsp.holds:
                validate_witness(rule, gsp.witness, domain=domain)
                return (
                    _counterexample_witness(
                        gsp.witness,
                        f"rule {rule.name} is single-agent proof but a coalition manipulates",
                    ),
                    True,
                )
            if gsp.holds and not sp.holds:
                raise MatchlabError("coalition scan missed a single-agent witness")
        return None, True

    return _sampled(
        params,
        15 if (p, q) == (2, 2) else 5,
        run_trial,
        lambda hits: "proposer-side unrestricted top pairs held in every generated domain",
    )


def _suite_lemma_c1(params: SuiteParams) -> _Outcome:
    """When a stable single-agent-proof rule exists on a proposer-UTP domain,
    it is the proposing DA rule, confirmed by the independent table search."""
    p, q = params.men, params.women
    women_max = 6 if (p, q) == (2, 2) else 2

    def run_trial(i: int, rng: random.Random) -> tuple[Optional[dict], bool]:
        domain = PreferenceDomain(_utp_men_sets(rng, p, q, women_max))
        auto = exists_stable_sp_rule(domain)
        table = exists_stable_sp_rule(domain, path="backtracking")
        if auto.exists != table.exists:
            return (
                _domain_counterexample(
                    domain,
                    "shortcut and table searches disagree about existence",
                    shortcut=auto.exists,
                    table=table.exists,
                ),
                False,
            )
        if not auto.exists:
            return None, False
        # the men hold unrestricted top pairs, so the shortcut can only
        # return the proposing DA rule itself: only the table is compared
        mpda = mpda_rule()
        for base in domain.profiles():
            if table.rule.apply(base) != mpda.apply(base):
                return (
                    _domain_counterexample(
                        domain,
                        "a stable single-agent-proof rule differs from the proposing DA rule",
                        profile=formats.profile_to_json(base),
                    ),
                    False,
                )
        return None, True

    return _sampled(
        params,
        25 if (p, q) == (2, 2) else 5,
        run_trial,
        lambda hits: f"{hits} domains admitted a rule; each matched the proposing DA rule pointwise",
    )


def _suite_lemma_c2(params: SuiteParams) -> _Outcome:
    """An alternating-sequence witness rules out every stable proof rule."""
    p, q = params.men, params.women
    women_max = 6 if (p, q) == (2, 2) else 3
    cross_check_tables = (p, q) == (2, 2)

    def run_trial(i: int, rng: random.Random) -> tuple[Optional[dict], bool]:
        if i == 0 and (p, q) == (2, 2):
            # the full domain is the guaranteed carrier of a witness
            domain = PreferenceDomain.full(p, q)
        else:
            domain = PreferenceDomain(_utp_men_sets(rng, p, q, women_max))
        witness = find_incompatibility_witness(domain)
        if witness is None:
            return None, False
        witness.validate(domain)
        search = exists_stable_sp_rule(domain)
        if search.exists:
            return (
                _domain_counterexample(
                    domain,
                    "a stable single-agent-proof rule exists despite an incompatibility witness",
                ),
                True,
            )
        if cross_check_tables:
            table = exists_stable_sp_rule(domain, path="backtracking")
            if table.exists:
                return (
                    _domain_counterexample(
                        domain,
                        "the table search found a rule despite an incompatibility witness",
                    ),
                    True,
                )
        return None, True

    return _sampled(
        params,
        20 if (p, q) == (2, 2) else 8,
        run_trial,
        lambda hits: f"{hits} domains carried an incompatibility witness; none admitted a rule",
    )


def _suite_theorem3(params: SuiteParams) -> _Outcome:
    """Four-way equivalence on anonymous single-peaked swap-closed domains."""
    p, q = params.men, params.women
    # before either line is built: a line holds every agent of its side
    single_peaked_guard(q)
    single_peaked_guard(p)
    men_line = PriorOrdering(Side.MAN, men(p))
    women_line = PriorOrdering(Side.WOMAN, women(q))
    men_pool = generate_maximal_single_peaked(women_line, man(0))
    women_pool = generate_maximal_single_peaked(men_line, woman(0))
    max_size = len(men_pool) if (p, q) == (2, 2) else 4

    def admissible_side_rankings(rng: random.Random, pool, universe) -> Optional[list]:
        for _ in range(300):
            orders = sorted(_random_subset(rng, pool, max_size), key=_sort_key)
            if cyclical_inclusion_missing(orders, universe) is None:
                return [pref.ranking for pref in orders]
        return None

    def run_trial(i: int, rng: random.Random) -> tuple[Optional[dict], bool]:
        men_rankings = admissible_side_rankings(rng, men_pool, women(q))
        women_rankings = admissible_side_rankings(rng, women_pool, men(p))
        if men_rankings is None or women_rankings is None:
            return None, False
        domain = PreferenceDomain.anonymous(p, q, men_rankings, women_rankings)
        report = theorem3_equivalence_suite(domain, men_line, women_line)
        if not report.equivalent:
            return (
                _domain_counterexample(
                    domain,
                    "the four clauses disagree",
                    clauses=list(report.clauses),
                ),
                True,
            )
        return None, True

    return _sampled(
        params,
        30 if (p, q) == (2, 2) else 10,
        run_trial,
        lambda hits: f"{hits} admissible domains evaluated, all four clauses agreed",
    )


# --- fixture suites ------------------------------------------------------------------


def _fail(reason: str, **payload) -> _Outcome:
    doc = {"reason": reason}
    doc.update(payload)
    return _Outcome("fixture", "fail", doc, 1, "")


def _suite_example1(params: SuiteParams) -> _Outcome:
    ex = crossing_market_example()
    if stable_set(ex.base) != [ex.straight, ex.crossed]:
        return _fail("stable set at the base profile is not the expected pair")
    if stable_set(ex.man_truncated) != [ex.straight]:
        return _fail("stable set after the man's truncation should be the straight matching only")
    if stable_set(ex.woman_truncated) != [ex.crossed]:
        return _fail("stable set after the woman's truncation should be the crossed matching only")
    if da_matching(RuleId.MPDA, ex.base) != ex.straight:
        return _fail("men-proposing DA should land on the straight matching")
    if da_matching(RuleId.WPDA, ex.base) != ex.crossed:
        return _fail("women-proposing DA should land on the crossed matching")
    try:
        validate_witness(mpda_rule(), ex.mpda_witness)
        validate_witness(wpda_rule(), ex.wpda_witness)
    except PreconditionError as err:
        return _fail(f"a truncation witness failed validation: {err}")
    return _Outcome(
        "fixture", "pass", None, 1, "stable sets, both DA outcomes, and both truncation witnesses check out"
    )


def _suite_prop4(params: SuiteParams) -> _Outcome:
    if (params.men, params.women) != (2, 2):
        raise PreconditionError("the maximal single-peaked impossibility is checked at two agents per side")
    men_line = PriorOrdering(Side.MAN, men(2))
    women_line = PriorOrdering(Side.WOMAN, women(2))
    domain = maximal_single_peaked_domain(men_line, women_line)
    search = exists_stable_sp_rule(domain)
    if search.exists:
        return _fail(
            "a stable single-agent-proof rule exists on the maximal single-peaked domain",
            domain=formats.domain_to_json(domain),
        )
    witness = find_incompatibility_witness(domain)
    if witness is None:
        return _fail("no incompatibility witness found on the maximal single-peaked domain")
    witness.validate(domain)
    table = exists_stable_sp_rule(domain, path="backtracking")
    if table.exists:
        return _fail("the independent table search found a rule on the maximal single-peaked domain")
    return _Outcome(
        "fixture",
        "pass",
        None,
        1,
        "no rule by either search path; alternating-sequence witness validated",
    )


def _suite_blocking_lemma(params: SuiteParams) -> _Outcome:
    """Any rational matching that favors some proposers over DA gets blocked
    by an untouched proposer and an improved receiver."""
    p, q = params.men, params.women
    if p < 2 or q < 2:
        raise PreconditionError("the blocking property needs at least two agents per side")
    size_guard(
        f"the blocking lemma with {max(p, q)} agents on one side",
        max(p, q),
        MAX_BLOCKING_LEMMA_SIDE,
        lambda: f"up to {BLOCKING_LEMMA_DRAWS} random {p}x{q} profiles per trial",
    )

    def violation(profile: Profile, mu: Matching) -> Optional[dict]:
        da_assign = da_assignment(RuleId.MPDA, profile.men_prefs, profile.women_prefs)
        better = [
            m
            for m in profile.men
            if profile[m].prefers(mu.partner(m), _partner_from_assignment(da_assign, m))
        ]
        if not better:
            return {}  # vacuous, signalled by empty dict
        targets = {mu.partner(m) for m in better}
        for m in profile.men:
            if m in better:
                continue
            pm = profile[m]
            for w in targets:
                if pm.prefers(w, mu.partner(m)) and profile[w].prefers(m, mu.partner(w)):
                    return None  # blocked as the claim requires
        return {
            "reason": "no blocking pair between loyal proposers and improved receivers",
            "profile": formats.profile_to_json(profile),
            "matching": formats.matching_to_json(mu),
        }

    if (p, q) == (2, 2) and params.trials is None:
        domain = PreferenceDomain.full(2, 2)
        matchings = list(enumerate_matchings(2, 2))
        checked = 0
        for profile in domain.profiles():
            for mu in matchings:
                if not is_individually_rational(mu, profile):
                    continue
                res = violation(profile, mu)
                if res == {}:
                    continue
                checked += 1
                if res is not None:
                    return _Outcome("exhaustive", "fail", res, checked, "")
        return _Outcome(
            "exhaustive",
            "pass",
            None,
            checked,
            "every rational matching that beats DA for a proposer is blocked",
        )

    def run_trial(i: int, rng: random.Random) -> tuple[Optional[dict], bool]:
        for _ in range(BLOCKING_LEMMA_DRAWS):
            profile = _random_full_profile(rng, p, q)
            mu = _random_rational_matching(rng, profile)
            res = violation(profile, mu)
            if res == {}:
                continue
            return res, True
        return None, False

    return _sampled(
        params,
        1000,
        run_trial,
        lambda effective: f"{effective} trials produced a rational matching beating DA for some proposer",
    )


def _partner_from_assignment(assignment: tuple, m) -> object:
    j = assignment[m.index]
    return OUTSIDE if j is None else woman(j)


def _random_rational_matching(rng: random.Random, profile: Profile) -> Matching:
    """Random individually rational matching: men in random order pick a
    mutually acceptable free woman or stay out."""
    order = list(range(profile.p))
    rng.shuffle(order)
    free = set(range(profile.q))
    pairs = []
    for i in order:
        m = man(i)
        pm = profile[m]
        options: list = [
            j
            for j in free
            if pm.is_acceptable(woman(j)) and profile[woman(j)].is_acceptable(m)
        ]
        options.append(None)
        pick = rng.choice(options)
        if pick is not None:
            pairs.append((m, woman(pick)))
            free.discard(pick)
    return Matching(profile.p, profile.q, pairs)


def _suite_example2(params: SuiteParams) -> _Outcome:
    ex = mixed_coalition_counterexample()
    nu, steps = run_spda(ex.profile)
    if nu != ex.truthful_outcome:
        return _fail("truthful outcome does not match the recorded matching")
    deviated = ex.witness.deviated_profile()
    if spda_matching(deviated) != ex.manipulated_outcome:
        return _fail("outcome after the joint misreport does not match the recorded matching")
    for cp in ex.profile.college_prefs:
        if not is_responsive(cp):
            return _fail(f"college ranking for {cp.owner.name} is not responsive")
    tilde_c1 = dict(ex.witness.misreports)[colleges(3)[0]]
    if not is_responsive(tilde_c1):
        return _fail("the college misreport is not responsive")
    try:
        validate_mto_witness(ex.witness)
    except PreconditionError as err:
        return _fail(f"the joint witness failed validation: {err}")
    # the three structural breaks relative to one-to-one markets
    w = ex.witness
    sides = {type(a).__name__ for a in w.coalition}
    if len(sides) != 2:
        return _fail("the manipulating coalition is not mixed")
    c2 = colleges(3)[1]
    p_c2 = ex.profile[c2]
    if not p_c2.prefers(w.outcome_before.students_of(c2), w.outcome_after.students_of(c2)):
        return _fail("expected a receiving-side college to strictly lose")
    if w.outcome_before.unmatched_students == w.outcome_after.unmatched_students:
        return _fail("expected the unmatched set to change")

    domain = _example2_domain(ex)
    if not students_satisfy_utp(domain):
        return _fail("the fixture domain lost unrestricted top pairs for students")
    for cp_list in (domain.admissible(c) for c in colleges(3)):
        if top_dominance_violation([cp.induced for cp in cp_list], students(5)) is not None:
            return _fail("induced college preferences lost top dominance")
    try:
        validate_mto_witness(ex.witness, domain=domain)
    except PreconditionError as err:
        return _fail(f"the witness is not admissible in the fixture domain: {err}")

    pair = find_manipulation_mto(domain, ex.profile, max_coalition=2, budget=params.budget)
    if pair is None:
        return _fail("no joint manipulation found in the fixture domain")
    validate_mto_witness(pair, domain=domain)

    agents = domain.agents

    def run_trial(i: int, rng: random.Random) -> tuple[Optional[dict], bool]:
        base = ex.profile.replace({a: rng.choice(domain.admissible(a)) for a in agents})
        single = find_manipulation_mto(domain, base, max_coalition=1, budget=params.budget)
        if single is None:
            return None, True
        validate_mto_witness(single, domain=domain)
        return (
            {
                "reason": "a single agent manipulated the student-proposing rule on the fixture domain",
                "witness": formats.mto_witness_to_json(single),
            },
            True,
        )

    def note(probed: int) -> str:
        return (
            f"fixture domain holds {domain.profile_count} profiles; single-agent proofness "
            f"probed at {probed} sampled bases; the joint manipulation validates"
        )

    return _sampled(params, 400, run_trial, note)


def _example2_domain(ex) -> MtoDomain:
    """The worked market's admissible sets: students get the minimal
    unrestricted-top-pairs rankings, the quota-2 college gets both recorded
    orders, the unit colleges their single order."""
    cs = colleges(3)
    rankings = minimal_utp_rankings(cs)
    sets: dict = {s: tuple(StudentPreference(s, r) for r in rankings) for s in students(5)}
    tilde_c1 = dict(ex.witness.misreports)[cs[0]]
    sets[cs[0]] = (ex.profile[cs[0]], tilde_c1)
    sets[cs[1]] = (ex.profile[cs[1]],)
    sets[cs[2]] = (ex.profile[cs[2]],)
    return MtoDomain(sets)


_SUITES: dict[str, Callable[[SuiteParams], _Outcome]] = {
    "theorem1": _suite_theorem1,
    "prop-welfare": _suite_prop_welfare,
    "prop-unmatched": _suite_prop_unmatched,
    "corollary-dubins": _suite_corollary_dubins,
    "prop-gsp-existence": _suite_prop_gsp_existence,
    "theorem2": _suite_theorem2,
    "example1": _suite_example1,
    "prop4": _suite_prop4,
    "theorem3": _suite_theorem3,
    "blocking-lemma": _suite_blocking_lemma,
    "lemma-c1": _suite_lemma_c1,
    "lemma-c2": _suite_lemma_c2,
    "example2": _suite_example2,
}


def run_suite(suite: str, params: Optional[SuiteParams] = None) -> SuiteReport:
    if suite not in _SUITES:
        known = ", ".join(SUITE_IDS)
        raise UnknownSuiteError(f"unknown suite {suite!r}; choose one of: {known}")
    params = params or SuiteParams()
    start = time.perf_counter()
    outcome = _SUITES[suite](params)
    elapsed = time.perf_counter() - start
    return SuiteReport(
        suite=suite,
        params=asdict(params),
        mode=outcome.mode,
        verdict=outcome.verdict,
        counterexample=outcome.counterexample,
        trials=outcome.trials,
        runtime_seconds=elapsed,
        notes=outcome.notes,
    )


def run_all_suites(params: Optional[SuiteParams] = None) -> list[SuiteReport]:
    return [run_suite(s, params) for s in SUITE_IDS]
