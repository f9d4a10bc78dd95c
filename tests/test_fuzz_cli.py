"""Mutated fixture documents through the CLI.

Each example takes one document from `fixtures/`, applies one to three
mutations somewhere in its tree (delete, duplicate or rename a key; drop,
repeat or shuffle list items; swap in an odd atom), and runs it through
`main` in every role it can take: the market of `solve` (all three rules,
with and without `--trace`), `stable-set` and `manipulate`, the domain of
`manipulate` and `check-domain`, and the orderings of a single-peakedness
check. Every run must end in a documented exit code, and no exception may
escape.

Two more strategies replace one node of a fixture: by arrays or objects
nested up to 200,000 deep, or by a list of up to 50,000 items that repeats
a few tokens, most of them names no market defines. A last one works on
the file's bytes: it splices bytes that are not UTF-8 into a fixture's
text, or puts an integer literal longer than the decoder's 4,300-digit
limit in place of one node.
"""

import contextlib
import io
import json
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from matchlab.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_PASS, EXIT_USAGE, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
EXIT_CODES = {EXIT_PASS, EXIT_FAIL, EXIT_BUDGET, EXIT_USAGE}
SECONDS_PER_RUN = 10.0


class _Obj(list):
    """A JSON object as its (key, value) pairs, so a key may repeat."""


def _load(name: str):
    return json.loads((FIXTURES / name).read_text(), object_pairs_hook=_Obj)


def _dump(node) -> str:
    if isinstance(node, _Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_dump(v) for v in node) + "]"
    return json.dumps(node)


# document -> (market it pairs with, domain it pairs with, rules for manipulate)
MARRIAGE = ("example1_p1.json", "full_2x2_domain.json", ("mpda", "wpda"))
COLLEGE = ("example2_mto.json", "example2_domain.json", ("spda",))
DOCUMENTS = {
    "example1_p1.json": MARRIAGE,
    "example1_p2.json": MARRIAGE,
    "example1_p3.json": MARRIAGE,
    "full_2x2_domain.json": MARRIAGE,
    "orderings_2x2.json": MARRIAGE,
    "example2_mto.json": COLLEGE,
    "example2_domain.json": COLLEGE,
}
ORIGINALS = {name: _load(name) for name in DOCUMENTS}
ATOMS = (None, True, -1, 0, 10**9, 2.5, "", "@", "s9", "m9", "c1", [], _Obj())
KEYS = ("", "@", "s9", "m9", "w1", "c2", "quota", "kind")


def _children(node) -> list:
    if isinstance(node, _Obj):
        return [v for _, v in node]
    return list(node) if isinstance(node, list) else []


def _with_child(node, i: int, child):
    copy = type(node)(node)
    copy[i] = (node[i][0], child) if isinstance(node, _Obj) else child
    return copy


def _replace_somewhere(draw, node, make):
    """The tree with one node, reached by walking down from this one,
    replaced by make(draw, node)."""
    children = _children(node)
    if children and draw(st.integers(0, 3)):
        i = draw(st.integers(0, len(children) - 1))
        return _with_child(node, i, _replace_somewhere(draw, children[i], make))
    return make(draw, node)


def _mutate(draw, node):
    """One mutation at a node reached by walking down from this one."""
    return _replace_somewhere(draw, node, _mutate_here)


def _mutate_here(draw, node):
    children = _children(node)
    kinds = ["atom"]
    if children:
        kinds += ["delete", "duplicate", "shuffle"]
        kinds += ["rename"] if isinstance(node, _Obj) else []
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        return draw(st.sampled_from(ATOMS))
    i = draw(st.integers(0, len(node) - 1))
    copy = type(node)(node)
    if kind == "delete":
        del copy[i]
    elif kind == "duplicate":
        copy.insert(i, node[i])
    elif kind == "rename":
        copy[i] = (draw(st.sampled_from(KEYS + tuple(k for k, _ in node))), node[i][1])
    else:
        copy[:] = draw(st.permutations(node))
    return copy


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = ORIGINALS[name]
    for _ in range(draw(st.integers(1, 3))):
        doc = _mutate(draw, doc)
    return name, _dump(doc)


def _run(argv: list) -> None:
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert elapsed < SECONDS_PER_RUN, (argv, elapsed)


_HOLE = "\x00deep\x00"  # stands for the deep node until the text is written


@st.composite
def deep_documents(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = _replace_somewhere(draw, ORIGINALS[name], lambda draw, node: _HOLE)
    depth = draw(st.sampled_from((10, 500, 990, 5_000, 200_000)))
    opener, core, closer = draw(st.sampled_from((("[", "", "]"), ('{"m1": ', "1", "}"))))
    deep = opener * depth + core + closer * depth
    return name, _dump(doc).replace(json.dumps(_HOLE), deep)


# names past any fixture's size, malformed names, names of the wrong kind
LONG_TOKENS = ("@", "m1", "w1", "s1", "c1", "m0", "w01", "w100000", "m99999", "s70000", "c12345", None, 7, [])


@st.composite
def long_list_documents(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))

    def long_list(draw, node):
        small = tuple(child for child in _children(node) if len(_dump(child)) <= 64)
        pattern = draw(st.lists(st.sampled_from(LONG_TOKENS + small), min_size=1, max_size=4))
        return pattern * draw(st.sampled_from((1_000, 12_500)))

    return name, _dump(_replace_somewhere(draw, ORIGINALS[name], long_list))


# a lone continuation byte, a byte UTF-8 never uses, truncated 2- to 4-byte sequences
BAD_UTF8 = (b"\x80", b"\xff", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98")


@st.composite
def raw_byte_documents(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    if draw(st.booleans()):
        data = _dump(ORIGINALS[name]).encode()
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(data)))
            data = data[:at] + draw(st.sampled_from(BAD_UTF8)) + data[at:]
        return name, data
    doc = _replace_somewhere(draw, ORIGINALS[name], lambda draw, node: _HOLE)
    sign = draw(st.sampled_from(("", "-")))
    literal = sign + draw(st.sampled_from("123456789")) * draw(st.integers(4_301, 20_000))
    return name, _dump(doc).replace(json.dumps(_HOLE), literal).encode()


PROPERTIES = ["top-dominance", "utp", "cyclical-inclusion", "anonymity", "single-peaked"]


def _run_every_role(tmp_path_factory, drawn, prop, side, cap, data) -> None:
    name, text = drawn
    doc = tmp_path_factory.mktemp("fuzz") / name
    doc.write_bytes(text if isinstance(text, bytes) else text.encode())
    market_name, domain_name, rules = DOCUMENTS[name]
    market, domain = str(FIXTURES / market_name), str(FIXTURES / domain_name)
    rule = data.draw(st.sampled_from(rules))
    orderings = str(doc) if name == "orderings_2x2.json" else str(FIXTURES / "orderings_2x2.json")
    target = domain if name == "orderings_2x2.json" else str(doc)
    for rule_id in ("mpda", "wpda", "spda"):
        for trace in ([], ["--trace"]):
            _run(["solve", "--rule", rule_id, *trace, str(doc)])
    _run(["stable-set", str(doc)])
    manipulate = ["--rule", rule, "--max-coalition", str(cap)]
    _run(["manipulate", str(doc), domain, *manipulate])
    _run(["manipulate", market, str(doc), *manipulate])
    extra = ["--orderings", orderings] if prop == "single-peaked" else ["--side", side]
    _run(["check-domain", "--property", prop, *extra, target])


@settings(max_examples=200, deadline=None)
@given(
    drawn=mutated_documents(),
    prop=st.sampled_from(PROPERTIES),
    side=st.sampled_from(["men", "women", "both"]),
    cap=st.integers(1, 2),
    data=st.data(),
)
def test_mutated_fixtures_end_in_a_documented_exit_code(tmp_path_factory, drawn, prop, side, cap, data):
    _run_every_role(tmp_path_factory, drawn, prop, side, cap, data)


@settings(max_examples=40, deadline=None)
@given(
    drawn=st.one_of(deep_documents(), long_list_documents()),
    prop=st.sampled_from(PROPERTIES),
    side=st.sampled_from(["men", "women", "both"]),
    cap=st.integers(1, 2),
    data=st.data(),
)
def test_deep_and_long_documents_end_in_a_documented_exit_code(tmp_path_factory, drawn, prop, side, cap, data):
    _run_every_role(tmp_path_factory, drawn, prop, side, cap, data)


@settings(max_examples=100, deadline=None)
@given(
    drawn=raw_byte_documents(),
    prop=st.sampled_from(PROPERTIES),
    side=st.sampled_from(["men", "women", "both"]),
    cap=st.integers(1, 2),
    data=st.data(),
)
def test_raw_byte_documents_end_in_a_documented_exit_code(tmp_path_factory, drawn, prop, side, cap, data):
    _run_every_role(tmp_path_factory, drawn, prop, side, cap, data)
