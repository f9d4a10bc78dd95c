"""JSON serialization round-trips and rejection messages."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab import formats
from matchlab.core import OUTSIDE, AgentId, Matching, Preference, Profile, Side, men, women
from matchlab.da import RuleId, _traced_rule, run_da
from matchlab.domains import PreferenceDomain, PriorOrdering
from matchlab.errors import FormatError, ValidationError
from matchlab.manipulation import crossing_market_example, mpda_rule, find_manipulation
from matchlab.mto import (
    MtoDomain,
    mixed_coalition_counterexample,
    run_spda,
)

from conftest import M1, M2, W1, W2, pref, profile_p1, random_profile


def roundtrip(doc):
    # force through real JSON text so only serializable content survives
    return json.loads(json.dumps(doc))


# --- marriage profiles ---------------------------------------------------------


def test_profile_roundtrip(p1):
    doc = roundtrip(formats.profile_to_json(p1))
    assert doc["kind"] == "market"
    assert doc["schema"] == "matchlab/1"
    assert doc["preferences"]["w1"] == ["m2", "m1", "@"]
    assert formats.profile_from_json(doc) == p1


def test_profile_roundtrip_asymmetric():
    rng = random.Random(7)
    profile = random_profile(rng, 3, 2)
    assert formats.profile_from_json(roundtrip(formats.profile_to_json(profile))) == profile


@settings(max_examples=30)
@given(seed=st.integers(0, 10**9), p=st.integers(1, 3), q=st.integers(1, 3))
def test_profile_roundtrip_random(seed, p, q):
    profile = random_profile(random.Random(seed), p, q)
    assert formats.profile_from_json(formats.profile_to_json(profile)) == profile


def market_doc():
    return formats.profile_to_json(profile_p1())


def _per_token_profile(doc) -> Profile:
    """`profile_from_json` with every ranking token parsed on its own by
    `_parse_name`: the oracle for the name-table path."""
    p, q = doc["men"], doc["women"]
    prefs = []
    for a in men(p) + women(q):
        field = f"preferences.{a.name}"
        side = a.side.opposite
        ranking = []
        for tok in doc["preferences"][a.name]:
            if tok == "@":
                ranking.append(OUTSIDE)
                continue
            prefix, idx = formats._parse_name(tok, field, "mwcs")
            if prefix != side.prefix:
                raise FormatError(field, f"{tok!r} is not on the expected side ({side.prefix}<k>)")
            ranking.append(AgentId(side, idx))
        prefs.append(formats._wrap(field, Preference, a, tuple(ranking)))
    return formats._wrap("preferences", Profile, prefs)


def _outcome(parse, doc):
    try:
        return parse(doc)
    except FormatError as err:
        return (err.field, str(err))


@st.composite
def market_documents(draw):
    p, q = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    prefs = {}
    for prefix, n, other, n_other in (("m", p, "w", q), ("w", q, "m", p)):
        names = formats.agent_names(other, n_other) + ["@"]
        for name in formats.agent_names(prefix, n):
            prefs[name] = draw(st.permutations(names))
    return {"schema": formats.SCHEMA, "kind": "market", "men": p, "women": q, "preferences": prefs}


@settings(max_examples=100)
@given(doc=market_documents())
def test_name_tables_parse_as_per_token_names(doc):
    profile = formats.profile_from_json(doc)
    assert profile == _per_token_profile(doc)


def _market_300() -> dict:
    rng = random.Random(301)
    prefs = {}
    for own, other in (("m", "w"), ("w", "m")):
        for name in formats.agent_names(own, 300):
            prefs[name] = rng.sample(formats.agent_names(other, 300), 300) + ["@"]
    return {"schema": formats.SCHEMA, "kind": "market", "men": 300, "women": 300, "preferences": prefs}


# a bad token in m1's list, where it goes, and the errors it raised before
# names were read straight to codes, when it replaces an entry (the list
# keeps its length) and when it is inserted (the list grows by one)
FALLBACKS = {
    "past n": (
        "w301", 5,
        "preferences.m1: ranking of m1 contains w301; it must rank each of w1..w300 and @ exactly once",
        "preferences: preference for m1 ranks 301 opposite agents, market has 300",
    ),
    "leading zero": ("w01", 17, "preferences.m1: bad agent name 'w01', expected m<k> or w<k> or c<k> or s<k>", None),
    "wrong side": ("m4", 299, "preferences.m1: 'm4' is not on the expected side (w<k>)", None),
    "not a string": (7, 0, "preferences.m1: expected an agent name string, got 7", None),
    "second @": ("@", 150, "preferences.m1: duplicate entry @ in the ranking of m1", None),
}


@pytest.mark.parametrize("how", ["replace", "insert"])
@pytest.mark.parametrize("kind", sorted(FALLBACKS))
def test_a_bad_token_in_a_300x300_market_fails_as_before(kind, how):
    token, where, replaced, inserted = FALLBACKS[kind]
    doc = _market_300()
    ranking = doc["preferences"]["m1"]
    if how == "replace":
        ranking[where] = token
    else:
        ranking.insert(where, token)
    with pytest.raises(FormatError) as err:
        formats.profile_from_json(doc)
    assert str(err.value) == (replaced if how == "replace" else inserted or replaced)


# each maps (owner's side prefix, the other side's prefix and size) to a bad token
RANKING_MUTATIONS = {
    "wrong side": lambda own, other, n: f"{own}1",
    "index 0": lambda own, other, n: f"{other}0",
    "leading zero": lambda own, other, n: f"{other}01",
    "out of range": lambda own, other, n: f"{other}{n + 1}",
    "none": lambda own, other, n: None,
    "number": lambda own, other, n: 1,
    "list": lambda own, other, n: [f"{other}1"],
    "object": lambda own, other, n: {f"{other}1": 1},
    "second @": lambda own, other, n: "@",
}


@settings(max_examples=100)
@given(doc=market_documents(), data=st.data())
def test_bad_ranking_tokens_fail_as_per_token_names(doc, data):
    name = data.draw(st.sampled_from(sorted(doc["preferences"])))
    kind = data.draw(st.sampled_from(sorted(RANKING_MUTATIONS)))
    own, other = name[0], "w" if name[0] == "m" else "m"
    n = doc["women"] if own == "m" else doc["men"]
    ranking = list(doc["preferences"][name])
    where = data.draw(st.integers(0, len(ranking)))
    bad = RANKING_MUTATIONS[kind](own, other, n)
    if kind == "second @" or data.draw(st.booleans()):
        ranking.insert(where, bad)
    else:
        ranking[min(where, len(ranking) - 1)] = bad
    doc["preferences"][name] = ranking
    with pytest.raises(FormatError):
        formats.profile_from_json(doc)
    assert _outcome(formats.profile_from_json, doc) == _outcome(_per_token_profile, doc)


def test_profile_missing_agent():
    doc = market_doc()
    del doc["preferences"]["m2"]
    with pytest.raises(FormatError) as err:
        formats.profile_from_json(doc)
    assert err.value.field == "preferences"
    assert "m2" in str(err.value)


def test_profile_unknown_agent():
    doc = market_doc()
    doc["preferences"]["m9"] = ["w1", "w2", "@"]
    with pytest.raises(FormatError, match="m9"):
        formats.profile_from_json(doc)


def test_profile_bad_token():
    doc = market_doc()
    doc["preferences"]["m1"] = ["w1", "q2", "@"]
    with pytest.raises(FormatError) as err:
        formats.profile_from_json(doc)
    assert err.value.field == "preferences.m1"


def test_profile_not_a_permutation():
    doc = market_doc()
    doc["preferences"]["m1"] = ["w1", "w1", "@"]
    with pytest.raises(FormatError, match="preferences.m1"):
        formats.profile_from_json(doc)


def test_profile_ranking_missing_outside():
    doc = market_doc()
    doc["preferences"]["m1"] = ["w1", "w2"]
    with pytest.raises(FormatError, match="preferences.m1"):
        formats.profile_from_json(doc)


def test_profile_bad_counts():
    doc = market_doc()
    doc["men"] = "two"
    with pytest.raises(FormatError) as err:
        formats.profile_from_json(doc)
    assert err.value.field == "men"


def test_profile_not_a_dict():
    with pytest.raises(FormatError):
        formats.profile_from_json([1, 2, 3])


# --- matchings ------------------------------------------------------------------


def test_matching_roundtrip(mu):
    doc = roundtrip(formats.matching_to_json(mu))
    assert doc["pairs"] == [["m1", "w1"], ["m2", "w2"]]
    assert formats.matching_from_json(doc, 2, 2) == mu


def test_matching_roundtrip_with_unmatched():
    matching = Matching(2, 2, [(M1, W2)])
    doc = roundtrip(formats.matching_to_json(matching))
    assert sorted(doc["unmatched"]) == ["m2", "w1"]
    assert formats.matching_from_json(doc, 2, 2) == matching


def test_matching_unmatched_must_be_exact(mu):
    doc = formats.matching_to_json(mu)
    doc["unmatched"] = ["m1"]
    with pytest.raises(FormatError, match="unmatched"):
        formats.matching_from_json(doc, 2, 2)


def test_matching_pair_shape(mu):
    doc = formats.matching_to_json(mu)
    doc["pairs"][0] = ["m1"]
    with pytest.raises(FormatError) as err:
        formats.matching_from_json(doc, 2, 2)
    assert err.value.field == "pairs[0]"


def test_matching_agent_twice(mu):
    doc = formats.matching_to_json(mu)
    doc["pairs"] = [["m1", "w1"], ["m1", "w2"]]
    doc["unmatched"] = ["m2"]
    with pytest.raises(FormatError):
        formats.matching_from_json(doc, 2, 2)


def test_matching_out_of_range(mu):
    doc = formats.matching_to_json(mu)
    doc["pairs"] = [["m1", "w3"]]
    doc["unmatched"] = ["m2", "w1", "w2"]
    with pytest.raises(FormatError):
        formats.matching_from_json(doc, 2, 2)


# --- domains and orderings -------------------------------------------------------


def test_domain_roundtrip():
    domain = PreferenceDomain.full(2, 2)
    doc = roundtrip(formats.domain_to_json(domain))
    back = formats.domain_from_json(doc)
    assert back == domain
    assert back.profile_count == domain.profile_count == 6**4


def test_domain_from_profile_roundtrip(p3):
    domain = PreferenceDomain.from_profile(p3)
    assert formats.domain_from_json(formats.domain_to_json(domain)) == domain


def test_domain_gap_in_names():
    doc = formats.domain_to_json(PreferenceDomain.full(2, 2))
    doc["agents"]["m3"] = doc["agents"].pop("m2")
    with pytest.raises(FormatError, match="agents"):
        formats.domain_from_json(doc)


def test_domain_empty_set_rejected():
    doc = formats.domain_to_json(PreferenceDomain.full(2, 2))
    doc["agents"]["w1"] = []
    with pytest.raises(FormatError):
        formats.domain_from_json(doc)


def test_orderings_roundtrip():
    men_line = PriorOrdering(Side.MAN, (M2, M1))
    women_line = PriorOrdering(Side.WOMAN, (W1, W2))
    doc = roundtrip(formats.orderings_to_json(men_line, women_line))
    assert doc["men"] == ["m2", "m1"]
    assert formats.orderings_from_json(doc) == (men_line, women_line)


def test_orderings_not_a_permutation():
    doc = {"men": ["m1", "m1"], "women": ["w1"]}
    with pytest.raises(FormatError, match="men"):
        formats.orderings_from_json(doc)


# --- college markets --------------------------------------------------------------


def test_mto_profile_roundtrip():
    ex = mixed_coalition_counterexample()
    doc = roundtrip(formats.mto_profile_to_json(ex.profile))
    assert doc["kind"] == "college-market"
    assert doc["colleges"]["c1"]["quota"] == 2
    assert formats.mto_profile_from_json(doc) == ex.profile


def test_mto_profile_names_contiguous():
    doc = formats.mto_profile_to_json(mixed_coalition_counterexample().profile)
    doc["students"]["s9"] = doc["students"].pop("s5")
    with pytest.raises(FormatError, match="students"):
        formats.mto_profile_from_json(doc)


def test_mto_profile_rejects_non_responsive():
    doc = formats.mto_profile_to_json(mixed_coalition_counterexample().profile)
    # moving {} to the top makes every student unacceptable, yet pairs still
    # outrank their member singletons: a seat-filling contradiction
    ranking = doc["colleges"]["c1"]["subset_ranking"]
    ranking.insert(0, ranking.pop(ranking.index([])))
    with pytest.raises(FormatError, match="c1"):
        formats.mto_profile_from_json(doc)


def test_mto_profile_subset_ranking_must_cover():
    doc = formats.mto_profile_to_json(mixed_coalition_counterexample().profile)
    doc["colleges"]["c3"]["subset_ranking"] = [["s1"], []]
    with pytest.raises(FormatError, match="c3"):
        formats.mto_profile_from_json(doc)


def test_mto_matching_roundtrip():
    ex = mixed_coalition_counterexample()
    truthful = ex.truthful_outcome
    doc = roundtrip(formats.mto_matching_to_json(truthful))
    assert formats.mto_matching_from_json(doc) == truthful


def test_mto_matching_student_listed_twice():
    ex = mixed_coalition_counterexample()
    doc = formats.mto_matching_to_json(ex.truthful_outcome)
    doc["unmatched"] = ["s4", "s5"]  # s4 is already assigned to c2
    with pytest.raises(FormatError):
        formats.mto_matching_from_json(doc)


def test_mto_matching_dropped_student_changes_size():
    # the student count is inferred, so omitting the last unmatched student
    # reads back as a smaller market rather than the same one
    ex = mixed_coalition_counterexample()
    doc = formats.mto_matching_to_json(ex.truthful_outcome)
    doc["unmatched"] = []
    back = formats.mto_matching_from_json(doc)
    assert back.n_students == ex.truthful_outcome.n_students - 1


def test_mto_domain_roundtrip():
    ex = mixed_coalition_counterexample()
    domain = MtoDomain.from_profile(ex.profile)
    doc = roundtrip(formats.mto_domain_to_json(domain))
    assert doc["kind"] == "college-domain"
    assert formats.mto_domain_from_json(doc) == domain


# --- witnesses --------------------------------------------------------------------


def test_witness_roundtrip():
    ex = crossing_market_example()
    for witness in (ex.mpda_witness, ex.wpda_witness):
        doc = roundtrip(formats.witness_to_json(witness))
        assert formats.witness_from_json(doc) == witness


def test_witness_found_by_search_roundtrips(p1):
    witness = find_manipulation(mpda_rule(), PreferenceDomain.full(2, 2), p1, 1)
    doc = roundtrip(formats.witness_to_json(witness))
    assert formats.witness_from_json(doc) == witness


def test_witness_unknown_rule():
    doc = formats.witness_to_json(crossing_market_example().mpda_witness)
    doc["rule"] = "serial-dictatorship"
    with pytest.raises(FormatError, match="rule"):
        formats.witness_from_json(doc)


def test_witness_coalition_must_match_misreports():
    doc = formats.witness_to_json(crossing_market_example().mpda_witness)
    doc["coalition"] = ["w1", "w2"]
    with pytest.raises(FormatError):
        formats.witness_from_json(doc)


def test_mto_witness_roundtrip():
    ex = mixed_coalition_counterexample()
    doc = roundtrip(formats.mto_witness_to_json(ex.witness))
    assert doc["kind"] == "college-witness"
    assert formats.mto_witness_from_json(doc) == ex.witness


# --- trace lines ------------------------------------------------------------------


def trace_records(rule, profile):
    """Each round's record from the trace writer, and its final matching."""
    step, final = formats.da_trace_writer(profile.p, profile.q, rule is RuleId.MPDA)
    return [json.loads(line) for line in _traced_rule(rule, profile, step)], final()


def test_da_step_json(p1):
    records, final = trace_records(RuleId.MPDA, p1)
    doc = records[0]
    assert doc["step"] == 1
    assert doc["proposals"] == [["m1", "w1"], ["m2", "w2"]]
    assert doc["rejections"] == []
    assert doc["tentative"] == {"pairs": [["m1", "w1"], ["m2", "w2"]], "unmatched": []}
    assert final == run_da(RuleId.MPDA, p1)[0]


def test_da_step_json_records_rejections():
    # both men chase w1 first, so she turns one of them away in round one
    base = profile_p1()
    both_want_w1 = base.replace({M2: pref(M2, W1, W2, OUTSIDE)})
    records, _ = trace_records(RuleId.MPDA, both_want_w1)
    assert ["w1", "m1"] in records[0]["rejections"]
    assert records[0]["tentative"] == {"pairs": [["m2", "w1"]], "unmatched": ["m1", "w2"]}


def test_trace_writer_refuses_a_proposer_held_twice():
    step, _ = formats.da_trace_writer(2, 2, men_propose=False)
    step(1, [(0, 0), (1, 1)], [], ((0,), (1,)))
    with pytest.raises(ValidationError, match="w1 appears in two pairs"):
        step(2, [(0, 1)], [(1, 1)], ((0,), (0,)))


def test_mto_step_json():
    ex = mixed_coalition_counterexample()
    _, steps = run_spda(ex.profile)
    names = (formats.agent_names("c", ex.profile.n_colleges), formats.agent_names("s", ex.profile.n_students))
    doc = roundtrip(formats.mto_step_to_json(steps[0], names))
    assert doc["step"] == 1
    assert ["s5", "c2"] in doc["proposals"]
    assert doc["rejections"] == [["c1", "s4"]]
    assert doc["tentative"]["c1"] == ["s2", "s3"]


# --- error object shape ------------------------------------------------------------


def test_format_error_carries_field():
    err = FormatError("preferences.m1", "bad token")
    assert err.field == "preferences.m1"
    assert str(err) == "preferences.m1: bad token"
