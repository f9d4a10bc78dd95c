"""End-to-end command tests driven through main(argv)."""

import contextlib
import io
import json
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_profile
from matchlab import formats
from matchlab.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_PASS, EXIT_USAGE, _matching_text, main
from matchlab.core import OUTSIDE, Preference, Profile, Side, men, women
from matchlab.da import RuleId, da_matching, run_da
from matchlab.domains import PreferenceDomain
from matchlab.errors import DimensionMismatchError, FormatError, UnknownOutcomeError, ValidationError
from matchlab.manipulation import mpda_rule, validate_witness, wpda_rule
from matchlab.mto import colleges, responsive_extension, students

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

P1 = str(FIXTURES / "example1_p1.json")
P2 = str(FIXTURES / "example1_p2.json")
P3 = str(FIXTURES / "example1_p3.json")
MTO = str(FIXTURES / "example2_mto.json")
FULL_DOMAIN = str(FIXTURES / "full_2x2_domain.json")
MTO_DOMAIN = str(FIXTURES / "example2_domain.json")
ORDERINGS = str(FIXTURES / "orderings_2x2.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- solve -------------------------------------------------------------------------


def test_solve_mpda_json(capsys):
    code, out, _ = run(capsys, "solve", "--rule", "mpda", P1)
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["kind"] == "matching"
    assert doc["pairs"] == [["m1", "w1"], ["m2", "w2"]]


def test_solve_wpda_json(capsys):
    code, out, _ = run(capsys, "solve", "--rule", "wpda", P1)
    assert code == EXIT_PASS
    assert json.loads(out)["pairs"] == [["m1", "w2"], ["m2", "w1"]]


def test_solve_text(capsys):
    code, out, _ = run(capsys, "solve", "--rule", "mpda", "--text", P1)
    assert code == EXIT_PASS
    assert out == "m1 -- w1\nm2 -- w2\nunmatched: (none)\n"


def test_solve_trace_lines(capsys):
    code, out, _ = run(capsys, "solve", "--rule", "mpda", "--trace", P2)
    assert code == EXIT_PASS
    lines = out.splitlines()
    first = json.loads(lines[0])
    assert first["step"] == 1
    assert first["proposals"] == [["m1", "w1"], ["m2", "w2"]]
    # the remainder is the final matching document
    final = json.loads("\n".join(lines[1:]))
    assert final["kind"] == "matching"


@pytest.mark.parametrize("fmt", [[], ["--text"]], ids=["json", "text"])
@pytest.mark.parametrize("rule", ["mpda", "wpda"])
def test_solve_final_matching_same_with_and_without_trace(capsys, tmp_path, rule, fmt):
    rng = random.Random(7)
    market = tmp_path / "market.json"
    market.write_text(json.dumps(formats.profile_to_json(random_profile(rng, 6, 5))))
    for path in (P1, P2, P3, str(market)):
        code, plain, _ = run(capsys, "solve", "--rule", rule, *fmt, path)
        assert code == EXIT_PASS
        code, traced, _ = run(capsys, "solve", "--rule", rule, "--trace", *fmt, path)
        assert code == EXIT_PASS
        assert traced.endswith(plain)
        steps = traced[: len(traced) - len(plain)].splitlines()
        assert steps
        assert [json.loads(line)["step"] for line in steps] == list(range(1, len(steps) + 1))


def _step_by_own_names(step) -> dict:
    """A trace step written from each agent's own `AgentId.name`."""
    return {
        "step": step.number,
        "proposals": [[a.name, b.name] for a, b in step.proposals],
        "rejections": [[b.name, a.name] for a, b in step.rejections],
        "tentative": {
            "pairs": [[m.name, w.name] for m, w in step.tentative.pairs],
            "unmatched": [a.name for a in step.tentative.unmatched],
        },
    }


@pytest.mark.parametrize("rule", [RuleId.MPDA, RuleId.WPDA])
def test_solve_trace_matches_a_writer_of_own_names(capsys, tmp_path, rule):
    # a master list on the proposing side: 30 rounds, 465 proposals
    rng = random.Random(2023)
    n = 30
    shared = list(women(n) if rule is RuleId.MPDA else men(n))
    rng.shuffle(shared)
    prefs = []
    for a in men(n) + women(n):
        proposing = (a.side is Side.MAN) == (rule is RuleId.MPDA)
        ranking = list(shared) if proposing else rng.sample(women(n) if a.side is Side.MAN else men(n), n)
        prefs.append(Preference(a, ranking + [OUTSIDE]))
    profile = Profile(prefs)
    market = tmp_path / "master.json"
    market.write_text(json.dumps(formats.profile_to_json(profile)))
    code, out, _ = run(capsys, "solve", "--rule", rule.value, "--trace", str(market))
    assert code == EXIT_PASS
    matching, trace = run_da(rule, profile)
    assert len(trace.steps) == n
    final = {
        "schema": formats.SCHEMA,
        "kind": "matching",
        "pairs": [[m.name, w.name] for m, w in matching.pairs],
        "unmatched": [a.name for a in matching.unmatched],
    }
    lines = [json.dumps(_step_by_own_names(step)) for step in trace.steps]
    assert out == "\n".join(lines) + "\n" + json.dumps(final, indent=2) + "\n"


@st.composite
def truncated_markets(draw):
    """A p-by-q market document, sides of 1 to 8, each list cut anywhere."""
    p, q = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    prefs = {}
    for own, n, other, n_other in (("m", p, "w", q), ("w", q, "m", p)):
        for name in formats.agent_names(own, n):
            ranking = draw(st.permutations(formats.agent_names(other, n_other)))
            ranking.insert(draw(st.integers(0, n_other)), "@")
            prefs[name] = ranking
    return {"schema": formats.SCHEMA, "kind": "market", "men": p, "women": q, "preferences": prefs}


@settings(max_examples=100, deadline=None)
@given(doc=truncated_markets(), rule=st.sampled_from([RuleId.MPDA, RuleId.WPDA]))
def test_solve_trace_lines_equal_the_records_of_run_da(doc, rule):
    # the records `da_step_to_json` wrote from `run_da`'s steps before the
    # trace writer rendered lines from the engine's index steps
    with tempfile.TemporaryDirectory() as tmp:
        market = Path(tmp) / "market.json"
        market.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["solve", "--rule", rule.value, "--trace", "--text", str(market)]) == EXIT_PASS
    matching, trace = run_da(rule, formats.profile_from_json(doc))
    lines = out.getvalue().splitlines()[: len(trace.steps)]
    assert lines == [json.dumps(_step_by_own_names(step)) for step in trace.steps]
    assert out.getvalue().endswith(_matching_text(matching) + "\n")


def test_cold_solve_trace_on_a_300x300_master_list_market(tmp_path):
    # a master list on the proposing women: 300 rounds, 45,150 proposals
    rng = random.Random(300)
    shared = formats.agent_names("m", 300)
    rng.shuffle(shared)
    prefs = {name: rng.sample(formats.agent_names("w", 300), 300) + ["@"] for name in formats.agent_names("m", 300)}
    prefs.update({name: shared + ["@"] for name in formats.agent_names("w", 300)})
    doc = {"schema": formats.SCHEMA, "kind": "market", "men": 300, "women": 300, "preferences": prefs}
    market = tmp_path / "master.json"
    market.write_text(json.dumps(doc))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "matchlab.cli", "solve", "--rule", "wpda", "--trace", str(market)],
        capture_output=True,
        text=True,
    )
    took = time.perf_counter() - start
    assert result.returncode == EXIT_PASS
    lines = result.stdout.splitlines()
    start_of_final = lines.index("{")
    assert start_of_final == 300
    expected = da_matching(RuleId.WPDA, formats.profile_from_json(doc))
    pairs = json.loads(lines[start_of_final - 1])["tentative"]["pairs"]
    assert formats.matching_from_json({"pairs": pairs, "unmatched": []}, 300, 300) == expected
    assert formats.matching_from_json(json.loads("\n".join(lines[start_of_final:])), 300, 300) == expected
    assert took < 5.0


def test_solve_spda(capsys):
    code, out, _ = run(capsys, "solve", "--rule", "spda", MTO)
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["kind"] == "college-matching"
    assert sorted(doc["assignments"]["c1"]) == ["s2", "s3"]
    assert doc["unmatched"] == ["s5"]


def test_solve_spda_trace(capsys):
    code, out, _ = run(capsys, "solve", "--rule", "spda", "--trace", "--text", MTO)
    assert code == EXIT_PASS
    first = json.loads(out.splitlines()[0])
    assert first["rejections"] == [["c1", "s4"]]


def test_solve_rule_market_mismatch(capsys):
    code, _, err = run(capsys, "solve", "--rule", "spda", P1)
    assert code == EXIT_USAGE
    assert "college market" in err
    code, _, err = run(capsys, "solve", "--rule", "mpda", MTO)
    assert code == EXIT_USAGE


def test_solve_missing_file(capsys):
    code, _, err = run(capsys, "solve", "--rule", "mpda", "no_such.json")
    assert code == EXIT_USAGE
    assert "no_such.json" in err


def test_solve_unparseable_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "solve", "--rule", "mpda", str(bad))
    assert code == EXIT_USAGE
    assert "invalid JSON" in err


DEEP = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize(
    "command, deep_role",
    [
        (["solve", "--rule", "mpda", "{market}"], "market"),
        (["stable-set", "{market}"], "market"),
        (["check-domain", "--property", "utp", "{domain}"], "domain"),
        (["manipulate", "{market}", FULL_DOMAIN, "--rule", "mpda"], "market"),
        (["manipulate", P1, "{domain}", "--rule", "mpda"], "domain"),
    ],
    ids=["solve", "stable-set", "check-domain", "manipulate-market", "manipulate-domain"],
)
def test_deeply_nested_documents_are_format_errors(tmp_path, capsys, command, deep_role):
    paths = {"market": tmp_path / "deep_market.json", "domain": tmp_path / "deep_domain.json"}
    paths["market"].write_text(
        '{"men": 1, "women": 1, "preferences": {"m1": %s, "w1": ["m1", "@"]}}' % DEEP
    )
    paths["domain"].write_text('{"kind": "domain", "agents": {"m1": %s}}' % DEEP)
    argv = [arg.format(**paths) for arg in command]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {paths[deep_role]}: invalid JSON: nested too deeply\n"


# each file a command reads, in turn the bad one; the others are fixtures
FILE_ROLES = pytest.mark.parametrize(
    "command, bad_role",
    [
        (["solve", "--rule", "mpda", "{market}"], "market"),
        (["stable-set", "{market}"], "market"),
        (["manipulate", "{market}", FULL_DOMAIN, "--rule", "mpda"], "market"),
        (["manipulate", P1, "{domain}", "--rule", "mpda"], "domain"),
        (["check-domain", "--property", "utp", "{domain}"], "domain"),
        (["check-domain", "--property", "single-peaked", "--orderings", "{orderings}", FULL_DOMAIN], "orderings"),
    ],
    ids=["solve", "stable-set", "manipulate-market", "manipulate-domain", "check-domain", "check-domain-orderings"],
)


def _bad_files(tmp_path, market: bytes, domain: bytes, orderings: bytes) -> dict:
    paths = {}
    for role, data in (("market", market), ("domain", domain), ("orderings", orderings)):
        paths[role] = tmp_path / f"bad_{role}.json"
        paths[role].write_bytes(data)
    return paths


@FILE_ROLES
def test_files_that_are_not_utf8_are_format_errors(tmp_path, capsys, command, bad_role):
    paths = _bad_files(
        tmp_path,
        b'{"men": 1, "women": 1, "preferences": {"m1": ["w1", "@"], "w1": ["m1\xff", "@"]}}',
        b'{"kind": "domain", "agents": {"m1": [["w1", "@"]], "w1": [["\x80"]]}}',
        b'{"men": ["m1", "m2"], "women": ["w1", "w\xe2\x82"]}',
    )
    argv = [arg.format(**paths) for arg in command]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: {paths[bad_role]}: invalid JSON: not UTF-8 text (")


@FILE_ROLES
def test_overlong_integer_literals_are_format_errors(tmp_path, capsys, command, bad_role):
    digits = b"1" * 4_301
    paths = _bad_files(
        tmp_path,
        b'{"men": %s, "women": 1, "preferences": {}}' % digits,
        b'{"kind": "domain", "agents": {"m1": [[-%s]]}}' % digits,
        b'{"men": ["m1", "m2"], "women": [%s]}' % digits,
    )
    argv = [arg.format(**paths) for arg in command]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {paths[bad_role]}: invalid JSON: an integer literal has more than 4300 digits\n"


def _renamed_student(old: str, new: str) -> dict:
    doc = json.loads(Path(MTO).read_text())
    doc["students"] = {new if name == old else name: ranking for name, ranking in doc["students"].items()}
    return doc


@pytest.mark.parametrize(
    "argv, doc, field",
    [
        (
            ["solve", "--rule", "mpda"],
            {"men": 1, "women": 1, "preferences": {"m1": ["w1", "@"], "w1": ["m1", "@"], "m" + "1" * 5000: []}},
            "preferences",
        ),
        (
            ["solve", "--rule", "mpda"],
            {"men": 1, "women": 1, "preferences": {"m1": ["w" + "1" * 5000, "@"], "w1": ["m1", "@"]}},
            "preferences.m1",
        ),
        (
            ["check-domain", "--property", "utp"],
            {"kind": "domain", "agents": {"m" + "2" * 5000: [["w1", "@"]]}},
            "agents",
        ),
        (["solve", "--rule", "spda"], _renamed_student("s5", "s" + "1" * 5000), "students"),
    ],
    ids=["market-key", "ranking-token", "domain-key", "college-market-student"],
)
def test_agent_names_past_the_integer_digit_limit_are_format_errors(tmp_path, capsys, argv, doc, field):
    # an index int() refuses to convert is a bad name, not a traceback
    path = tmp_path / "long_name.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: {field}: ")


def test_solve_large_declared_quota_fails_fast(tmp_path):
    # one ranked subset against the 2^35-odd subsets a quota of 18 over 36
    # students needs: rejected by counting, before any subset is built
    doc = {
        "schema": "matchlab/1",
        "kind": "college-market",
        "colleges": {"c1": {"quota": 18, "subset_ranking": [[]]}},
        "students": {f"s{i}": ["c1", "@"] for i in range(1, 37)},
    }
    market = tmp_path / "big_quota.json"
    market.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "matchlab.cli", "solve", "--rule", "spda", str(market)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == EXIT_USAGE
    assert "colleges.c1.subset_ranking" in result.stderr
    assert "exactly once" in result.stderr


def test_spda_commands_on_a_huge_quota_finish_at_once(tmp_path):
    # a quota of 10^9 over two students: responsiveness checks, subset
    # orders and seats stop at the student count
    c1, ss = colleges(1)[0], students(2)

    def college_doc(order):
        ranking = responsive_extension(c1, 10**9, order).ranking
        return {"quota": 10**9, "subset_ranking": [[s.name for s in subset] for subset in ranking]}

    market = {
        "schema": formats.SCHEMA,
        "kind": "college-market",
        "colleges": {"c1": college_doc((ss[0], ss[1], OUTSIDE))},
        "students": {"s1": ["c1", "@"], "s2": ["@", "c1"]},
    }
    domain = {
        "schema": formats.SCHEMA,
        "kind": "college-domain",
        "colleges": {"c1": [college_doc((ss[0], ss[1], OUTSIDE)), college_doc((ss[1], OUTSIDE, ss[0]))]},
        "students": {"s1": [["c1", "@"], ["@", "c1"]], "s2": [["@", "c1"], ["c1", "@"]]},
    }
    (tmp_path / "market.json").write_text(json.dumps(market))
    (tmp_path / "domain.json").write_text(json.dumps(domain))
    for argv, codes in (
        (["solve", "--rule", "spda", str(tmp_path / "market.json")], {EXIT_PASS}),
        (
            ["manipulate", "--rule", "spda", "--max-coalition", "2",
             str(tmp_path / "market.json"), str(tmp_path / "domain.json")],
            {EXIT_PASS, EXIT_FAIL},
        ),
    ):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "matchlab.cli", *argv], capture_output=True, text=True, timeout=30
        )
        assert result.returncode in codes, result.stderr
        assert time.perf_counter() - start < 10
        json.loads(result.stdout)


def test_solve_names_only_the_first_unknown_agents(tmp_path, capsys):
    doc = json.loads(Path(P1).read_text())
    doc["preferences"].update({f"x{i}": ["w1", "@"] for i in range(100000)})
    market = tmp_path / "extra_keys.json"
    market.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", "--rule", "mpda", str(market))
    assert code == EXIT_USAGE and out == ""
    assert len(err.encode()) < 1024
    assert (
        "unknown agents: x0, x1, x10, x100, x1000, x10000, x10001, x10002, x10003, x10004 "
        "and 99990 more"
    ) in err


def test_solve_malformed_market(tmp_path, capsys):
    doc = json.loads(Path(P1).read_text())
    doc["preferences"]["m1"] = ["w1", "w1", "@"]
    target = tmp_path / "dupe.json"
    target.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", "--rule", "mpda", str(target))
    assert code == EXIT_USAGE
    assert "preferences.m1" in err


def test_missing_subcommand(capsys):
    code, _, err = run(capsys)
    assert code == EXIT_USAGE


# --- stable-set --------------------------------------------------------------------


def test_stable_set_two_matchings(capsys):
    code, out, _ = run(capsys, "stable-set", P1)
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["kind"] == "stable-set"
    assert doc["count"] == 2
    pair_sets = [tuple(map(tuple, entry["pairs"])) for entry in doc["matchings"]]
    assert (("m1", "w1"), ("m2", "w2")) in pair_sets
    assert (("m1", "w2"), ("m2", "w1")) in pair_sets


def test_stable_set_shrinks_after_truncation(capsys):
    code, out, _ = run(capsys, "stable-set", P2)
    assert json.loads(out)["count"] == 1
    code, out, _ = run(capsys, "stable-set", P3)
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["matchings"][0]["pairs"] == [["m1", "w2"], ["m2", "w1"]]


def test_stable_set_text(capsys):
    code, out, _ = run(capsys, "stable-set", "--text", P1)
    assert out.startswith("2 stable matching(s)\n")


def test_stable_set_rejects_college_market(capsys):
    code, _, err = run(capsys, "stable-set", MTO)
    assert code == EXIT_USAGE
    assert "marriage" in err


# --- manipulate --------------------------------------------------------------------


def test_manipulate_finds_truncation(capsys):
    code, out, _ = run(
        capsys, "manipulate", "--rule", "mpda", "--max-coalition", "1", P1, FULL_DOMAIN
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["coalition"] == ["w1"]
    assert doc["misreports"]["w1"] == ["m2", "@", "m1"]
    witness = formats.witness_from_json(doc)
    validate_witness(mpda_rule(), witness)  # must not raise


def test_manipulate_wpda(capsys):
    code, out, _ = run(
        capsys, "manipulate", "--rule", "wpda", P1, FULL_DOMAIN
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["coalition"] == ["m1"]
    validate_witness(wpda_rule(), formats.witness_from_json(doc))


def test_manipulate_none(capsys):
    code, out, _ = run(capsys, "manipulate", "--rule", "mpda", P3, FULL_DOMAIN)
    assert code == EXIT_FAIL
    assert json.loads(out) == "none"


def test_manipulate_none_text(capsys):
    code, out, _ = run(capsys, "manipulate", "--rule", "mpda", "--text", P3, FULL_DOMAIN)
    assert code == EXIT_FAIL
    assert out == "none\n"


def test_manipulate_all_streams_witnesses(capsys):
    code, out, _ = run(
        capsys,
        "manipulate", "--rule", "mpda", "--max-coalition", "2", "--all", P1, FULL_DOMAIN,
    )
    assert code == EXIT_PASS
    witnesses = [formats.witness_from_json(json.loads(line)) for line in out.splitlines()]
    assert len(witnesses) > 1
    rule = mpda_rule()
    for witness in witnesses:
        validate_witness(rule, witness)
    # canonical order: singleton coalitions stream before pairs
    sizes = [len(w.coalition) for w in witnesses]
    assert sizes == sorted(sizes)


def test_manipulate_spda(capsys):
    code, out, _ = run(
        capsys,
        "manipulate", "--rule", "spda", "--max-coalition", "2", MTO, MTO_DOMAIN,
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["kind"] == "college-witness"
    assert doc["coalition"] == ["c1", "s5"]


def test_manipulate_spda_cannot_stream(capsys):
    code, _, err = run(
        capsys, "manipulate", "--rule", "spda", "--all", MTO, MTO_DOMAIN
    )
    assert code == EXIT_USAGE
    assert "--all" in err


def test_manipulate_spda_rejects_a_mixed_quota_domain(tmp_path, capsys):
    # c1 may report quota 1 or quota 2; each ranking alone is responsive
    cs, ss = colleges(2), students(3)
    order = (ss[0], ss[1], OUTSIDE, ss[2])

    def college_doc(c, quota):
        return {
            "quota": quota,
            "subset_ranking": [[s.name for s in subset] for subset in responsive_extension(c, quota, order).ranking],
        }

    student_ranking = ["c1", "c2", "@"]
    domain = {
        "schema": formats.SCHEMA,
        "kind": "college-domain",
        "colleges": {"c1": [college_doc(cs[0], 1), college_doc(cs[0], 2)], "c2": [college_doc(cs[1], 1)]},
        "students": {s.name: [student_ranking] for s in ss},
    }
    market = {
        "schema": formats.SCHEMA,
        "kind": "college-market",
        "colleges": {"c1": college_doc(cs[0], 2), "c2": college_doc(cs[1], 1)},
        "students": {s.name: student_ranking for s in ss},
    }
    (tmp_path / "domain.json").write_text(json.dumps(domain))
    (tmp_path / "market.json").write_text(json.dumps(market))
    code, out, err = run(
        capsys, "manipulate", "--rule", "spda", str(tmp_path / "market.json"), str(tmp_path / "domain.json")
    )
    assert code == EXIT_USAGE and out == ""
    assert "quota 1 with quota 2" in err


def test_manipulate_bad_coalition_bound(capsys):
    code, _, err = run(
        capsys, "manipulate", "--rule", "mpda", "--max-coalition", "0", P1, FULL_DOMAIN
    )
    assert code == EXIT_USAGE


def test_manipulate_budget_exhausted(capsys):
    code, _, err = run(
        capsys, "manipulate", "--rule", "mpda", "--budget", "3", P1, FULL_DOMAIN
    )
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_manipulate_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MATCHLAB_BUDGET", "3")
    code, _, err = run(capsys, "manipulate", "--rule", "mpda", P1, FULL_DOMAIN)
    assert code == EXIT_BUDGET


def test_manipulate_flag_beats_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MATCHLAB_BUDGET", "3")
    code, out, _ = run(
        capsys, "manipulate", "--rule", "mpda", "--budget", "100000", P1, FULL_DOMAIN
    )
    assert code == EXIT_PASS


def test_manipulate_junk_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MATCHLAB_BUDGET", "lots")
    code, _, err = run(capsys, "manipulate", "--rule", "mpda", P1, FULL_DOMAIN)
    assert code == EXIT_USAGE
    assert "MATCHLAB_BUDGET" in err


def test_manipulate_base_outside_domain(tmp_path, capsys):
    # a domain that does not admit the base profile is a usage problem
    domain = PreferenceDomain.from_profile(
        formats.profile_from_json(json.loads(Path(P3).read_text()))
    )
    target = tmp_path / "narrow.json"
    target.write_text(json.dumps(formats.domain_to_json(domain)))
    code, _, err = run(capsys, "manipulate", "--rule", "mpda", P1, str(target))
    assert code == EXIT_USAGE


# --- check-domain -------------------------------------------------------------------


def test_check_domain_utp_full(capsys):
    code, out, _ = run(capsys, "check-domain", "--property", "utp", FULL_DOMAIN)
    assert code == EXIT_PASS
    assert out == "true\n"


def test_check_domain_top_dominance_full(capsys):
    # truncations coexist with full rankings sharing their top, so the
    # unrestricted domain is not top dominant
    code, out, _ = run(
        capsys, "check-domain", "--property", "top-dominance", FULL_DOMAIN
    )
    assert code == EXIT_FAIL
    assert out.startswith("false\n")


def test_check_domain_json_payload(capsys):
    code, out, _ = run(
        capsys,
        "check-domain", "--property", "top-dominance", "--side", "women", "--json",
        FULL_DOMAIN,
    )
    assert code == EXIT_FAIL
    doc = json.loads(out)
    assert doc["kind"] == "domain-check"
    assert doc["holds"] is False
    assert doc["side"] == "women"
    assert doc["detail"] is not None


def test_check_domain_anonymity(capsys):
    code, out, _ = run(capsys, "check-domain", "--property", "anonymity", FULL_DOMAIN)
    assert code == EXIT_PASS
    assert out == "true\n"


def test_check_domain_anonymity_one_side(tmp_path, capsys):
    doc = json.loads(Path(FULL_DOMAIN).read_text())
    doc["agents"]["m1"] = [["w1", "w2", "@"]]  # men now differ; women still agree
    target = tmp_path / "lopsided.json"
    target.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys, "check-domain", "--property", "anonymity", "--side", "women", str(target)
    )
    assert (code, out) == (EXIT_PASS, "true\n")
    code, out, _ = run(
        capsys, "check-domain", "--property", "anonymity", "--side", "men", str(target)
    )
    assert code == EXIT_FAIL
    code, _, _ = run(capsys, "check-domain", "--property", "anonymity", str(target))
    assert code == EXIT_FAIL


def test_check_domain_single_peaked(capsys):
    code, out, _ = run(
        capsys,
        "check-domain", "--property", "single-peaked", "--orderings", ORDERINGS,
        FULL_DOMAIN,
    )
    # with two agents per side every strict ranking is single peaked
    assert (code, out) == (EXIT_PASS, "true\n")


def test_check_domain_single_peaked_on_one_side(tmp_path, capsys):
    # on the lines m1 m2 m3 and w1 w2 w3 every man's ranking is single peaked;
    # the women's second ranking m1 > m3 > m2 is not
    men_sets = [["w2", "w1", "w3", "@"], ["w1", "w2", "@", "w3"]]
    women_sets = [["m1", "m2", "m3", "@"], ["m1", "m3", "m2", "@"]]
    agents = {f"m{i}": men_sets for i in (1, 2, 3)}
    agents.update({f"w{i}": women_sets for i in (1, 2, 3)})
    domain = tmp_path / "domain_3x3.json"
    domain.write_text(json.dumps({"schema": "matchlab/1", "kind": "domain", "agents": agents}))
    orderings = tmp_path / "orderings_3x3.json"
    orderings.write_text(json.dumps({
        "schema": "matchlab/1", "kind": "orderings",
        "men": ["m1", "m2", "m3"], "women": ["w1", "w2", "w3"],
    }))
    violation = ["w1", ["m1", "m3", "m2", "@"]]
    for side, want in (
        ("men", (EXIT_PASS, None)),
        ("women", (EXIT_FAIL, violation)),
        ("both", (EXIT_FAIL, violation)),
    ):
        code, out, _ = run(
            capsys,
            "check-domain", "--property", "single-peaked", "--orderings", str(orderings),
            "--side", side, "--json", str(domain),
        )
        assert (code, json.loads(out)["detail"]) == want


def test_check_domain_single_peaked_needs_orderings(capsys):
    code, _, err = run(capsys, "check-domain", "--property", "single-peaked", FULL_DOMAIN)
    assert code == EXIT_USAGE
    assert "--orderings" in err


def test_check_domain_orderings_only_for_single_peaked(capsys):
    code, _, err = run(
        capsys,
        "check-domain", "--property", "utp", "--orderings", ORDERINGS, FULL_DOMAIN,
    )
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, expected, kind",
    [
        (["check-domain", "--property", "utp", MTO_DOMAIN], "domain", "college-domain"),
        (["check-domain", "--property", "utp", P1], "domain", "market"),
        (["solve", "--rule", "mpda", FULL_DOMAIN], "market", "domain"),
        (["solve", "--rule", "spda", MTO_DOMAIN], "college-market", "college-domain"),
        (["manipulate", "--rule", "spda", MTO, FULL_DOMAIN], "college-domain", "domain"),
        (
            ["check-domain", "--property", "single-peaked", "--orderings", FULL_DOMAIN, FULL_DOMAIN],
            "orderings",
            "domain",
        ),
    ],
    ids=["college-domain", "market", "solve-mpda", "solve-spda", "manipulate-spda", "orderings"],
)
def test_check_domain_names_the_kind_it_expects(capsys, argv, expected, kind):
    # every reader checks `kind` before any field, so a wrong file is named
    # as one rather than failing on a field the two kinds do not share
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert f"kind {expected!r}" in err and f"got kind {kind!r}" in err


@pytest.mark.parametrize(
    "read, path, expected, kind",
    [
        (formats.witness_from_json, P1, "witness", "market"),
        (formats.mto_witness_from_json, MTO, "college-witness", "college-market"),
        (lambda doc: formats.matching_from_json(doc, 2, 2), FULL_DOMAIN, "matching", "domain"),
        (formats.mto_matching_from_json, MTO_DOMAIN, "college-matching", "college-domain"),
    ],
    ids=["witness", "college-witness", "matching", "college-matching"],
)
def test_witness_and_matching_readers_name_the_kind_they_expect(read, path, expected, kind):
    # the same kind check as the commands' readers, before any field
    with pytest.raises(FormatError) as caught:
        read(json.loads(Path(path).read_text()))
    assert caught.value.field == "kind"
    assert f"kind {expected!r}" in str(caught.value) and f"got kind {kind!r}" in str(caught.value)


def test_check_domain_unknown_property(capsys):
    code, _, err = run(capsys, "check-domain", "--property", "magic", FULL_DOMAIN)
    assert code == EXIT_USAGE


MISSING = "no_such_domain.json"
NEEDS_COLLEGE = f"error: --rule spda needs a college market; {P1} is a marriage market\n"
NO_ALL = "error: --all is only available for mpda/wpda\n"
ORDERINGS_REQUIRED = "error: --orderings is required for --property single-peaked\n"
ORDERINGS_REFUSED = "error: --orderings only applies to --property single-peaked\n"
MALFORMED_DOMAIN = "error: kind: expected kind 'domain', got kind 'market'\n"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["solve", "--rule", "spda", P1], NEEDS_COLLEGE),
        (["manipulate", "--rule", "spda", P1, FULL_DOMAIN], NEEDS_COLLEGE),
        *(
            (
                [command, "--rule", rule, MTO, *domain],
                f"error: --rule {rule} needs a marriage market; {MTO} is a college market\n",
            )
            for rule in ("mpda", "wpda")
            for command, domain in (("solve", []), ("manipulate", [MTO_DOMAIN]))
        ),
        # --all is refused before the market kind is read
        (["manipulate", "--rule", "spda", "--all", MTO, MTO_DOMAIN], NO_ALL),
        (["manipulate", "--rule", "spda", "--all", P1, FULL_DOMAIN], NO_ALL),
        # both files are read before the market kind is checked
        (["manipulate", "--rule", "spda", P1, MISSING], f"error: {MISSING}: No such file or directory\n"),
        (["manipulate", "--rule", "mpda", MTO, MISSING], f"error: {MISSING}: No such file or directory\n"),
        (["stable-set", MTO], "error: stable-set works on marriage markets only\n"),
        (["check-domain", "--property", "single-peaked", FULL_DOMAIN], ORDERINGS_REQUIRED),
        (["check-domain", "--property", "utp", "--orderings", ORDERINGS, FULL_DOMAIN], ORDERINGS_REFUSED),
        (["check-domain", "--property", "anonymity", "--orderings", ORDERINGS, FULL_DOMAIN], ORDERINGS_REFUSED),
        # the domain is read before the --orderings flag is checked
        (["check-domain", "--property", "single-peaked", P1], MALFORMED_DOMAIN),
        (["check-domain", "--property", "utp", "--orderings", ORDERINGS, P1], MALFORMED_DOMAIN),
        (["check-domain", "--property", "anonymity", "--orderings", ORDERINGS, P1], MALFORMED_DOMAIN),
    ],
)
def test_usage_errors_print_one_line_and_exit_64(capsys, argv, err):
    assert run(capsys, *argv) == (EXIT_USAGE, "", err)


# --- verify ------------------------------------------------------------------------


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "example1")
    assert code == EXIT_PASS
    assert "suite: example1" in out
    assert "verdict: pass" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorem1", "--json")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["kind"] == "suite-report"
    assert doc["verdict"] == "pass"
    assert doc["params"]["seed"] == 42
    assert "runtime_seconds" not in doc


def test_verify_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--suite", "prop-welfare", "--json")
    _, again, _ = run(capsys, "verify", "--suite", "prop-welfare", "--json")
    assert first == again
    assert "jobs" not in json.loads(first)["params"]


def test_verify_trials_forwarded(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "theorem1", "--men", "3", "--women", "3",
        "--trials", "5", "--json",
    )
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["mode"] == "sampled"
    assert doc["params"]["trials"] == 5


def test_verify_guard_small_market(capsys):
    code, _, err = run(
        capsys, "verify", "--suite", "blocking-lemma", "--men", "1", "--women", "1"
    )
    assert code == EXIT_USAGE


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == EXIT_USAGE
    assert "--suite" in err


def test_verify_budget_guard(capsys):
    code, _, err = run(capsys, "verify", "--suite", "theorem1", "--budget", "10")
    assert code == EXIT_BUDGET


def test_verify_refuses_to_enumerate_rankings_past_the_size_guard(capsys):
    # 10! rankings per agent would be built before the first trial
    code, out, err = run(capsys, "verify", "--suite", "theorem1", "--men", "9", "--women", "9")
    assert code == EXIT_BUDGET
    assert out == "" and "3628800 preferences" in err


GUARDED_SUITES = (
    "theorem1", "prop-welfare", "prop-unmatched", "corollary-dubins",
    "prop-gsp-existence", "theorem2", "lemma-c1", "lemma-c2", "theorem3",
    "blocking-lemma",
)


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("flag", ("--men", "--women"))
@pytest.mark.parametrize("suite", GUARDED_SUITES)
def test_verify_size_guard_holds_at_any_size(suite, flag):
    # the guard must fire before any per-agent object or count is built; a
    # child process with capped memory and time keeps a regression contained
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "matchlab.cli", "verify", "--suite", suite, flag, "1000000000"],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=_cap_memory,
    )
    assert time.perf_counter() - start < 10
    assert result.returncode == EXIT_BUDGET and result.stdout == ""
    assert len(result.stderr.encode()) < 1024
    assert "1000000000 agents" in result.stderr


def test_solve_rejects_a_huge_declared_market_without_building_it(capsys, tmp_path):
    market = tmp_path / "huge.json"
    market.write_text(json.dumps({"men": 1000000000, "women": 1, "preferences": {}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", "--rule", "mpda", str(market))
    assert time.perf_counter() - start < 5
    assert code == EXIT_USAGE and out == ""
    assert len(err.encode()) < 1024
    assert "missing agents: m1, m2, m3, m4, m5, m6, m7, m8, m9, m10 and 999999991 more" in err


def test_solve_cuts_hostile_agent_names_in_errors(capsys, tmp_path):
    # a name past the 4,300 digits an index may have, a well-formed name of
    # an agent past the market, and seven long unknown keys
    def market(m1_ranking):
        return {"men": 1, "women": 1, "preferences": {"m1": m1_ranking, "w1": ["m1", "@"]}}

    long_keys = market(["w1", "@"])
    long_keys["preferences"].update({str(k) * 20000: [] for k in range(7)})
    cases = (
        (market(["w" + "1" * 100000, "@"]), "bad agent name 'w111"),
        (market(["w" + "1" * 4300, "@"]), "ranking of m1 contains w111"),
        (long_keys, "unknown agents: 0000"),
    )
    for doc, message in cases:
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--rule", "mpda", str(path))
        assert code == EXIT_USAGE and out == ""
        assert message in err
        assert len(err) < 400


def test_verify_bad_jobs(capsys):
    # trials run in one thread; the flag that asked for more is gone
    code, _, err = run(capsys, "verify", "--suite", "example1", "--jobs", "4")
    assert code == EXIT_USAGE
    assert "--jobs" in err


@pytest.mark.parametrize(
    "culprit, flags",
    [
        ("--men", ("--men", "0")),
        ("--women", ("--women", "0")),
        ("--men", ("--men", "-2", "--women", "3")),
        ("--trials", ("--men", "3", "--women", "3", "--trials", "-3")),
        ("--trials", ("--men", "3", "--women", "3", "--trials", "0")),
    ],
)
def test_verify_rejects_sizes_and_trials_below_one(capsys, culprit, flags):
    code, out, err = run(capsys, "verify", "--suite", "theorem1", *flags, "--json")
    assert code == EXIT_USAGE
    assert out == ""
    assert f"{culprit}: must be at least 1" in err


@pytest.mark.parametrize("error", [ValidationError, UnknownOutcomeError, DimensionMismatchError])
def test_main_maps_leftover_data_errors_to_usage(capsys, monkeypatch, error):
    def broken(suite, params):
        raise error("bad data")

    # `_cmd_verify` looks the runner up in `suites` when it is called
    monkeypatch.setattr("matchlab.suites.run_suite", broken)
    code, _, err = run(capsys, "verify", "--suite", "example1")
    assert code == EXIT_USAGE
    assert err == "error: bad data\n"


# --- emitted documents re-parse ------------------------------------------------------


def test_solve_output_reparses(capsys):
    _, out, _ = run(capsys, "solve", "--rule", "mpda", P1)
    matching = formats.matching_from_json(json.loads(out), 2, 2)
    assert matching.pairs


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "matchlab.cli", "solve", "--rule", "mpda", P1],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["kind"] == "matching"
