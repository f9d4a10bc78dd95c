"""JSON encoding and decoding for markets, matchings, domains, and witnesses.

All functions speak plain dicts and lists; file and stream handling stay at
the CLI edge.  Every emitted document carries a schema tag, and docs/format.md
describes the shapes in full.  Parse failures raise FormatError naming the
offending entry.  Marriage rankings are read by name straight to codes
(`_parse_preference`), and DA trace lines are written from the engine's
index pairs (`da_trace_writer`).
"""

from __future__ import annotations

import itertools
import json
import operator
import re
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from .core import (
    OUTSIDE,
    AgentId,
    Matching,
    Outcome,
    Preference,
    Profile,
    Side,
    man,
    men,
    woman,
    women,
)
from .errors import FormatError, MatchlabError, ValidationError

# The marriage-market readers and writers need only `core`. The domain,
# orderings, witness and college-market ones import `domains`,
# `manipulation` or `mto` when they are called, so loading this module
# does not load those.
if TYPE_CHECKING:
    from .domains import PreferenceDomain, PriorOrdering
    from .manipulation import ManipulationWitness
    from .mto import (
        CollegeId,
        CollegePreference,
        MtoDomain,
        MtoMatching,
        MtoProfile,
        MtoWitness,
        StudentId,
        StudentPreference,
    )

SCHEMA = "matchlab/1"
_MAX_NAMED = 10  # missing or unknown agents named in an error message

# an index has at most 4,300 digits, the most `int` converts by default
_AGENT_NAME = re.compile(r"^([mwcs])([1-9][0-9]{0,4299})$")


def _require_dict(doc: Any, field: str) -> Mapping:
    if not isinstance(doc, Mapping):
        raise FormatError(field, f"expected an object, got {type(doc).__name__}")
    return doc


def _require_list(value: Any, field: str) -> Sequence:
    if not isinstance(value, (list, tuple)):
        raise FormatError(field, f"expected a list, got {type(value).__name__}")
    return value


def _require_kind(doc: Any, kind: str) -> Mapping:
    """The document, an object whose ``kind``, which may be omitted, is ``kind``."""
    doc = _require_dict(doc, kind)
    got = doc.get("kind", kind)
    if got != kind:
        # the echo is cut short, as the document may be hostile
        raise FormatError("kind", f"expected kind {kind!r}, got kind {got!r:.40}")
    return doc


def _require_count(doc: Mapping, key: str, label: str | None = None) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise FormatError(label or key, "expected a positive integer")
    return value


def _parse_name(token: Any, field: str, prefixes: str) -> tuple[str, int]:
    # a token echoed in an error is cut short, as the document may be hostile
    if not isinstance(token, str):
        raise FormatError(field, f"expected an agent name string, got {token!r:.40}")
    m = _AGENT_NAME.match(token)
    if not m or m.group(1) not in prefixes:
        wanted = " or ".join(f"{c}<k>" for c in prefixes)
        raise FormatError(field, f"bad agent name {token!r:.40}, expected {wanted}")
    return m.group(1), int(m.group(2)) - 1


def _marriage_agent(token: Any, field: str) -> AgentId:
    prefix, idx = _parse_name(token, field, "mw")
    return man(idx) if prefix == "m" else woman(idx)


def _outcome_token(x: Outcome) -> str:
    return "@" if x is OUTSIDE else x.name


def _ranking_tokens(pref) -> list[str]:
    return [_outcome_token(x) for x in pref.ranking]


def agent_names(prefix: str, n: int) -> list[str]:
    """The names of one side's agents by index: prefix1 .. prefix<n>."""
    return [f"{prefix}{k}" for k in range(1, n + 1)]


def _name_codes(prefix: str, n: int) -> dict:
    """The code of each of one side's first n names and of '@' (n), as
    `Ranking.ranking_idx` holds them."""
    codes = {name: k for k, name in enumerate(agent_names(prefix, n))}
    codes["@"] = n
    return codes


def _parse_ranking(tokens: Sequence, field: str, side: Side) -> tuple[Outcome, ...]:
    """One preference list: names from the given side plus a single '@',
    each token parsed in full, so the first bad one is named."""
    out: list[Outcome] = []
    prefix = side.prefix
    for tok in tokens:
        if tok == "@":
            out.append(OUTSIDE)
            continue
        got, idx = _parse_name(tok, field, "mwcs")
        if got != prefix:
            raise FormatError(field, f"{tok!r:.40} is not on the expected side ({prefix}<k>)")
        out.append(AgentId(side, idx))
    return tuple(out)


def _parse_preference(owner: AgentId, tokens: Any, field: str, codes: Mapping) -> Preference:
    """The preference ``tokens`` list for ``owner``: straight to codes when
    they fill ``codes``, a `_name_codes` table of the other side, else parsed
    one by one, so any table size gives the same preference or error."""
    tokens = _require_list(tokens, field)
    # with two or more keys, itemgetter returns a tuple
    if len(tokens) == len(codes) > 1:
        try:
            idx = operator.itemgetter(*tokens)(codes)
        except (KeyError, TypeError):  # TypeError: an unhashable token
            pass
        else:
            return _wrap(field, Preference.from_idx, owner, idx)
    return _wrap(field, Preference, owner, _parse_ranking(tokens, field, owner.side.opposite))


def _wrap(field: str, fn, *args):
    try:
        return fn(*args)
    except MatchlabError as err:
        raise FormatError(field, str(err)) from err


# --- one-to-one markets -------------------------------------------------------


def profile_to_json(profile: Profile) -> dict:
    prefs = {}
    for a in profile.agents:
        prefs[a.name] = _ranking_tokens(profile[a])
    return {
        "schema": SCHEMA,
        "kind": "market",
        "men": profile.p,
        "women": profile.q,
        "preferences": prefs,
    }


def _some_names(names: Iterable[str], count: int) -> str:
    """The first _MAX_NAMED of ``count`` names, each cut to 40 characters,
    then how many more there are."""
    shown = [f"{name:.40}" for name in itertools.islice(names, _MAX_NAMED)]
    tail = f" and {count - len(shown)} more" if count > len(shown) else ""
    return ", ".join(shown) + tail


def profile_from_json(doc: Any) -> Profile:
    doc = _require_kind(doc, "market")
    p = _require_count(doc, "men")
    q = _require_count(doc, "women")
    table = _require_dict(doc.get("preferences"), "preferences")
    # judged from the table's own keys, so a huge declared count builds nothing
    extra = []
    for name in table:
        m = _AGENT_NAME.match(name) if isinstance(name, str) else None
        if not m or int(m.group(2)) > {"m": p, "w": q}.get(m.group(1), 0):
            extra.append(name)
    missing = p + q - (len(table) - len(extra))
    if missing:
        names = (f"{prefix}{k}" for prefix, n in (("m", p), ("w", q)) for k in range(1, n + 1))
        absent = (name for name in names if name not in table)
        raise FormatError("preferences", f"missing agents: {_some_names(absent, missing)}")
    if extra:
        raise FormatError("preferences", f"unknown agents: {_some_names(sorted(extra), len(extra))}")
    # the key check bounds p + q by the table's size
    codes = {Side.MAN: _name_codes("w", q), Side.WOMAN: _name_codes("m", p)}
    prefs = [_parse_preference(a, table[a.name], f"preferences.{a.name}", codes[a.side]) for a in men(p) + women(q)]
    return _wrap("preferences", Profile, prefs)


def _matching_names(matching: Matching, names: Sequence[Sequence[str]]) -> dict:
    """The pairs and the unmatched agents (men first) of a matching, by
    name; names[side][i] is the name of agent i of that side."""
    man_names, woman_names = names
    pairs, unmatched = [], []
    for i, j in enumerate(matching.assignment):
        if j is None:
            unmatched.append(man_names[i])
        else:
            pairs.append([man_names[i], woman_names[j]])
    unmatched += [woman_names[j] for j, i in enumerate(matching.inverse) if i is None]
    return {"pairs": pairs, "unmatched": unmatched}


def matching_to_json(matching: Matching) -> dict:
    names = (agent_names("m", matching.p), agent_names("w", matching.q))
    return {"schema": SCHEMA, "kind": "matching", **_matching_names(matching, names)}


def matching_from_json(doc: Any, p: int, q: int) -> Matching:
    doc = _require_kind(doc, "matching")
    pairs = []
    for i, entry in enumerate(_require_list(doc.get("pairs"), "pairs")):
        field = f"pairs[{i}]"
        entry = _require_list(entry, field)
        if len(entry) != 2:
            raise FormatError(field, "expected a [man, woman] pair")
        m = _marriage_agent(entry[0], field)
        w = _marriage_agent(entry[1], field)
        if m.side is not Side.MAN or w.side is not Side.WOMAN:
            raise FormatError(field, "pair must list the man first, then the woman")
        pairs.append((m, w))
    matching = _wrap("pairs", Matching, p, q, pairs)
    stated = {str(tok) for tok in _require_list(doc.get("unmatched", []), "unmatched")}
    actual = {a.name for a in matching.unmatched}
    if stated != actual:
        raise FormatError(
            "unmatched",
            f"listed {sorted(stated)} but the pairs leave {sorted(actual)} unmatched",
        )
    return matching


# --- preference domains -------------------------------------------------------


def domain_to_json(domain: PreferenceDomain) -> dict:
    agents = {}
    for a in domain.agents:
        agents[a.name] = [_ranking_tokens(pref) for pref in domain.admissible(a)]
    return {"schema": SCHEMA, "kind": "domain", "agents": agents}


def domain_from_json(doc: Any) -> PreferenceDomain:
    from .domains import PreferenceDomain

    doc = _require_kind(doc, "domain")
    table = _require_dict(doc.get("agents"), "agents")
    # each side's key count sizes the code table its rankings are read by
    p, q = (sum(isinstance(token, str) and token.startswith(c) for token in table) for c in "mw")
    codes = {Side.MAN: _name_codes("w", q), Side.WOMAN: _name_codes("m", p)}
    sets: dict[AgentId, list[Preference]] = {}
    for token in table:
        prefix, idx = _parse_name(token, "agents", "mw")
        a = man(idx) if prefix == "m" else woman(idx)
        field = f"agents.{token}"
        sets[a] = [_parse_preference(a, entry, field, codes[a.side]) for entry in _require_list(table[token], field)]
    return _wrap("agents", PreferenceDomain, sets)


def orderings_to_json(men_line: PriorOrdering, women_line: PriorOrdering) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "orderings",
        "men": [a.name for a in men_line.order],
        "women": [a.name for a in women_line.order],
    }


def orderings_from_json(doc: Any) -> tuple[PriorOrdering, PriorOrdering]:
    from .domains import PriorOrdering

    doc = _require_kind(doc, "orderings")
    lines = []
    for field, side in (("men", Side.MAN), ("women", Side.WOMAN)):
        order = []
        for tok in _require_list(doc.get(field), field):
            a = _marriage_agent(tok, field)
            if a.side is not side:
                raise FormatError(field, f"{tok!r:.40} does not belong on the {field} line")
            order.append(a)
        lines.append(_wrap(field, PriorOrdering, side, tuple(order)))
    return lines[0], lines[1]


# --- college admissions markets -------------------------------------------------


def _college_pref_to_json(cp: CollegePreference) -> dict:
    return {
        "quota": cp.quota,
        "subset_ranking": [[s.name for s in subset] for subset in cp.ranking],
    }


def _college_pref_from_json(owner: CollegeId, doc: Any, n_students: int, field: str) -> CollegePreference:
    from .mto import CollegePreference, student

    doc = _require_dict(doc, field)
    quota = _require_count(doc, "quota", f"{field}.quota")
    subsets = f"{field}.subset_ranking"
    ranking = [
        tuple(student(_parse_name(tok, subsets, "s")[1]) for tok in _require_list(entry, subsets))
        for entry in _require_list(doc.get("subset_ranking"), subsets)
    ]
    cp = _wrap(subsets, CollegePreference, owner, quota, n_students, ranking)
    check = cp.responsiveness()
    if not check:
        raise FormatError(subsets, f"ranking is not responsive: {check.detail}")
    return cp


def _student_pref_from_json(owner: StudentId, entry: Any, field: str) -> StudentPreference:
    from .mto import StudentPreference, college

    ranking = tuple(
        OUTSIDE if tok == "@" else college(_parse_name(tok, field, "c")[1])
        for tok in _require_list(entry, field)
    )
    return _wrap(field, StudentPreference, owner, ranking)


def mto_profile_to_json(profile: MtoProfile) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "college-market",
        "colleges": {
            cp.owner.name: _college_pref_to_json(cp) for cp in profile.college_prefs
        },
        "students": {sp.owner.name: _ranking_tokens(sp) for sp in profile.student_prefs},
    }


def _contiguous(indices: list[int], field: str, prefix: str) -> int:
    if sorted(indices) != list(range(len(indices))):
        raise FormatError(field, f"{prefix} names must be {prefix}1..{prefix}{len(indices)} with no gaps")
    return len(indices)


def _college_tables(doc: Any, kind: str) -> tuple[Mapping, Mapping, int, int]:
    """A college document's ``colleges`` and ``students`` tables, after
    checking that each is keyed c1..c<n> or s1..s<n>, and the two counts."""
    doc = _require_kind(doc, kind)
    colleges_doc = _require_dict(doc.get("colleges"), "colleges")
    students_doc = _require_dict(doc.get("students"), "students")
    c_idx = [_parse_name(tok, "colleges", "c")[1] for tok in colleges_doc]
    s_idx = [_parse_name(tok, "students", "s")[1] for tok in students_doc]
    return colleges_doc, students_doc, _contiguous(c_idx, "colleges", "c"), _contiguous(s_idx, "students", "s")


def mto_profile_from_json(doc: Any) -> MtoProfile:
    from .mto import MtoProfile, colleges, students

    colleges_doc, students_doc, n_colleges, n_students = _college_tables(doc, "college-market")
    cps = [
        _college_pref_from_json(c, colleges_doc[c.name], n_students, f"colleges.{c.name}")
        for c in colleges(n_colleges)
    ]
    sps = [_student_pref_from_json(s, students_doc[s.name], f"students.{s.name}") for s in students(n_students)]
    return _wrap("college-market", MtoProfile, cps, sps)


def mto_matching_to_json(matching: MtoMatching) -> dict:
    from .mto import college

    return {
        "schema": SCHEMA,
        "kind": "college-matching",
        "quotas": {
            college(i).name: qc for i, qc in enumerate(matching.quotas)
        },
        "assignments": {
            college(i).name: [s.name for s in matching.students_of(college(i))]
            for i in range(len(matching.quotas))
        },
        "unmatched": [s.name for s in matching.unmatched_students],
    }


def mto_matching_from_json(doc: Any) -> MtoMatching:
    from .mto import MtoMatching, college

    doc = _require_kind(doc, "college-matching")
    quotas_doc = _require_dict(doc.get("quotas"), "quotas")
    assign_doc = _require_dict(doc.get("assignments"), "assignments")
    c_idx = [_parse_name(tok, "quotas", "c")[1] for tok in quotas_doc]
    n_colleges = _contiguous(c_idx, "quotas", "c")
    quotas = tuple(
        _require_count(quotas_doc, college(i).name) for i in range(n_colleges)
    )
    seen: list[int] = []
    assignment = []
    for i in range(n_colleges):
        name = college(i).name
        if name not in assign_doc:
            raise FormatError("assignments", f"missing college {name}")
        group = tuple(
            _parse_name(tok, f"assignments.{name}", "s")[1]
            for tok in _require_list(assign_doc[name], f"assignments.{name}")
        )
        seen.extend(group)
        assignment.append(group)
    unmatched = [
        _parse_name(tok, "unmatched", "s")[1]
        for tok in _require_list(doc.get("unmatched", []), "unmatched")
    ]
    n_students = _contiguous(seen + unmatched, "assignments", "s")
    return _wrap("assignments", MtoMatching, quotas, n_students, assignment)


# --- manipulation witnesses ------------------------------------------------------


def _witness_to_json(witness, profile_doc, report_doc, matching_doc, **head) -> dict:
    """The one witness layout: the schema, ``head`` (the kind, then a marriage
    witness's rule), the base, the coalition, each member's misreport and
    both outcomes, each part written by the market's own writer."""
    return {
        "schema": SCHEMA,
        **head,
        "base": profile_doc(witness.base),
        "coalition": [a.name for a in witness.coalition],
        "misreports": {a.name: report_doc(pref) for a, pref in witness.misreports},
        "before": matching_doc(witness.outcome_before),
        "after": matching_doc(witness.outcome_after),
    }


def _misreports_from_json(doc: Mapping, coalition: Sequence, report) -> tuple:
    """Each coalition member's misreport in a witness document, in coalition
    order, read by report(member, entry, field)."""
    reports_doc = _require_dict(doc.get("misreports"), "misreports")
    misreports = []
    for a in coalition:
        if a.name not in reports_doc:
            raise FormatError("misreports", f"missing report for {a.name}")
        misreports.append((a, report(a, reports_doc[a.name], f"misreports.{a.name}")))
    return tuple(misreports)


def witness_to_json(witness: ManipulationWitness) -> dict:
    """Self-contained record: base profile, deviation, and both outcomes."""
    return _witness_to_json(
        witness, profile_to_json, _ranking_tokens, matching_to_json, kind="witness", rule=witness.rule_name
    )


def witness_from_json(doc: Any) -> ManipulationWitness:
    from .manipulation import ManipulationWitness

    doc = _require_kind(doc, "witness")
    rule_name = doc.get("rule")
    if rule_name not in ("mpda", "wpda"):
        raise FormatError("rule", f"unknown rule {rule_name!r:.40}, expected mpda or wpda")
    base = profile_from_json(doc.get("base"))
    coalition = tuple(
        _marriage_agent(tok, "coalition")
        for tok in _require_list(doc.get("coalition"), "coalition")
    )
    codes = {Side.MAN: _name_codes("w", base.q), Side.WOMAN: _name_codes("m", base.p)}

    def report(a: AgentId, entry: Any, field: str) -> Preference:
        return _parse_preference(a, entry, field, codes[a.side])

    return ManipulationWitness(
        rule_name=rule_name,
        base=base,
        coalition=coalition,
        misreports=_misreports_from_json(doc, coalition, report),
        outcome_before=matching_from_json(doc.get("before"), base.p, base.q),
        outcome_after=matching_from_json(doc.get("after"), base.p, base.q),
    )


def mto_witness_to_json(witness: MtoWitness) -> dict:
    from .mto import CollegePreference

    def report(pref) -> Any:
        if isinstance(pref, CollegePreference):
            return _college_pref_to_json(pref)
        return _ranking_tokens(pref)

    return _witness_to_json(witness, mto_profile_to_json, report, mto_matching_to_json, kind="college-witness")


def mto_witness_from_json(doc: Any) -> MtoWitness:
    from .mto import CollegeId, MtoWitness, college, student

    doc = _require_kind(doc, "college-witness")
    base = mto_profile_from_json(doc.get("base"))
    n_students = len(base.student_prefs)
    coalition = []
    for tok in _require_list(doc.get("coalition"), "coalition"):
        prefix, idx = _parse_name(tok, "coalition", "cs")
        coalition.append(college(idx) if prefix == "c" else student(idx))

    def report(a: CollegeId | StudentId, entry: Any, field: str) -> CollegePreference | StudentPreference:
        if isinstance(a, CollegeId):
            return _college_pref_from_json(a, entry, n_students, field)
        return _student_pref_from_json(a, entry, field)

    return MtoWitness(
        base=base,
        coalition=tuple(coalition),
        misreports=_misreports_from_json(doc, coalition, report),
        outcome_before=mto_matching_from_json(doc.get("before")),
        outcome_after=mto_matching_from_json(doc.get("after")),
    )


# --- traces ------------------------------------------------------------------------


def da_trace_writer(p: int, q: int, men_propose: bool) -> tuple[Callable[..., str], Callable[[], Matching]]:
    """(step, final) for the trace of a DA run on a p-by-q marriage market.

    step(number, proposals, rejections, holding) takes a round as
    `da._traced_da` passes it from `da._da_rounds` (holding: each receiver's
    proposer tuple) and returns its line: the text `json.dumps` writes for
    {"step", "proposals", "rejections" (rejecter first), "tentative":
    {"pairs", "unmatched"}}. Names are quoted once, and only
    the receivers proposed to in a round redo their pairs. A proposer held
    twice raises ValidationError, as in `Matching`. final() is the last
    round's matching.
    """
    man_names, woman_names = ([json.dumps(name) for name in agent_names(c, n)] for c, n in (("m", p), ("w", q)))
    proposers, receivers = (man_names, woman_names) if men_propose else (woman_names, man_names)
    n = len(proposers)
    held = [n] * len(receivers)  # each receiver's proposer, or n while it holds none
    woman_of: list = [None] * p
    pairs: list = [None] * p  # each man's pair text, None while unmatched
    loose = man_names + woman_names  # each agent's name while unmatched, men first, then None

    def step(number: int, proposals: list, rejections: list, holding: tuple) -> str:
        moves = [(r, held[r], holding[r][0] if holding[r] else n) for r in dict.fromkeys([r for _, r in proposals])]
        for r, old, _ in moves:  # every release first
            if old < n:
                m, w = (old, r) if men_propose else (r, old)
                woman_of[m] = pairs[m] = None
                loose[m], loose[p + w] = man_names[m], woman_names[w]
        for r, _, new in moves:
            held[r] = new
            if new < n:
                m, w = (new, r) if men_propose else (r, new)
                if loose[m if men_propose else p + w] is None:
                    raise ValidationError(f"{proposers[new][1:-1]} appears in two pairs")
                woman_of[m], pairs[m] = w, f"[{man_names[m]}, {woman_names[w]}]"
                loose[m] = loose[p + w] = None
        made = ", ".join([f"[{proposers[i]}, {receivers[r]}]" for i, r in proposals])
        refused = ", ".join([f"[{receivers[r]}, {proposers[i]}]" for i, r in rejections])
        return (
            f'{{"step": {number}, "proposals": [{made}], "rejections": [{refused}], "tentative": '
            f'{{"pairs": [{", ".join(filter(None, pairs))}], "unmatched": [{", ".join(filter(None, loose))}]}}}}'
        )

    return step, lambda: Matching.from_assignment(p, q, woman_of)


def mto_step_to_json(step, names: Sequence[Sequence[str]]) -> dict:
    """names is (agent_names("c", n_colleges), agent_names("s", n_students))."""
    college_names, student_names = names
    return {
        "step": step.number,
        "proposals": [[student_names[s], college_names[c]] for s, c in step.proposals],
        "rejections": [[college_names[c], student_names[s]] for c, s in step.rejections],
        "tentative": {
            college_names[c]: [student_names[s] for s in group]
            for c, group in enumerate(step.tentative)
        },
    }


# --- college admissions domains ---------------------------------------------------


def mto_domain_to_json(domain: MtoDomain) -> dict:
    from .mto import colleges, students

    colleges_doc = {}
    for c in colleges(domain.n_colleges):
        colleges_doc[c.name] = [_college_pref_to_json(cp) for cp in domain.admissible(c)]
    students_doc = {}
    for s in students(domain.n_students):
        students_doc[s.name] = [_ranking_tokens(sp) for sp in domain.admissible(s)]
    return {
        "schema": SCHEMA,
        "kind": "college-domain",
        "colleges": colleges_doc,
        "students": students_doc,
    }


def mto_domain_from_json(doc: Any) -> MtoDomain:
    from .mto import MtoDomain, colleges, students

    colleges_doc, students_doc, n_colleges, n_students = _college_tables(doc, "college-domain")
    sets: dict = {}
    for c in colleges(n_colleges):
        field = f"colleges.{c.name}"
        entries = _require_list(colleges_doc[c.name], field)
        sets[c] = [_college_pref_from_json(c, entry, n_students, field) for entry in entries]
    for s in students(n_students):
        field = f"students.{s.name}"
        entries = _require_list(students_doc[s.name], field)
        sets[s] = [_student_pref_from_json(s, entry, field) for entry in entries]
    return _wrap("college-domain", MtoDomain, sets)
