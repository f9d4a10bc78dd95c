"""College admissions: many-to-one matching with quota-carrying colleges.

Colleges rank subsets of students up to their quota (the empty set plays
the role of the outside option); students rank colleges. The student
proposing deferred acceptance rule extends naturally once college subset
preferences are responsive, i.e. consistent with a ranking of individual
students. SPDA and stability both read one seat market, the related
marriage market of Roth & Sotomayor (1990, ch. 5; `_seat_ranges`,
`to_marriage_profile`): college stability is marriage stability there,
and untraced SPDA is `da._sequential_da` on its seats (`_spda_engine`).
The mixed-coalition search here exists to exhibit what the one-to-one
results rule out: a college and an unmatched student jointly gaming it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .core import OUTSIDE, Matching, Preference, Profile, Ranking, blocking_pairs, man, woman
from .core import is_individually_rational, is_stable
from .da import _sequential_da, _traced_da
from .domains import ProductDomain, PropertyCheck, _check_each_agent, utp_missing
from .errors import DimensionMismatchError, NotResponsiveError, UnknownOutcomeError, ValidationError
from .manipulation import DEFAULT_EVAL_BUDGET, _check_witness, _Market, _scan, _witnesses


@dataclass(frozen=True, order=True)
class CollegeId:
    index: int

    @property
    def name(self) -> str:
        return f"c{self.index + 1}"

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class StudentId:
    index: int

    @property
    def name(self) -> str:
        return f"s{self.index + 1}"

    def __repr__(self) -> str:
        return self.name


MtoAgent = Union[CollegeId, StudentId]


def college(i: int) -> CollegeId:
    return CollegeId(i)


def student(i: int) -> StudentId:
    return StudentId(i)


def colleges(n: int) -> tuple[CollegeId, ...]:
    return tuple(CollegeId(i) for i in range(n))


def students(n: int) -> tuple[StudentId, ...]:
    return tuple(StudentId(i) for i in range(n))


class StudentPreference(Ranking):
    """A student's strict ranking of every college plus the outside option:
    the marriage ranking type over colleges."""

    __slots__ = ()

    @staticmethod
    def _ranks(owner: StudentId) -> Callable[[int], CollegeId]:
        if not isinstance(owner, StudentId):
            raise ValidationError(f"owner must be a student, got {owner!r}")
        return college


class CollegeRanking(Ranking):
    """A college's strict ranking of single students plus the outside option
    (admitting nobody): the order its subset ranking induces."""

    __slots__ = ()

    @staticmethod
    def _ranks(owner: CollegeId) -> Callable[[int], StudentId]:
        if not isinstance(owner, CollegeId):
            raise ValidationError(f"owner must be a college, got {owner!r}")
        return student


class CollegePreference:
    """A college's strict ranking of all student subsets up to its quota.

    Entries are sorted tuples of students; the empty tuple stands for
    admitting nobody and anything ranked below it is unacceptable as a group.
    ``rank_by_group`` holds each entry's rank once, keyed by its sorted
    student indices, the form a group takes in `MtoMatching.assignment`.
    """

    __slots__ = ("owner", "quota", "n_students", "ranking", "rank_by_group", "induced", "_hash", "_responsive")

    def __init__(self, owner: CollegeId, quota: int, n_students: int, ranking: Sequence[Iterable[StudentId]]):
        if not isinstance(owner, CollegeId):
            raise ValidationError(f"owner must be a college, got {owner!r}")
        if quota < 1:
            raise ValidationError(f"quota of {owner} must be at least 1, got {quota}")
        try:
            normalized = tuple([tuple(sorted(s)) for s in ranking])
            first: dict = {}
            for pos, subset in enumerate(normalized):
                if first.setdefault(subset, pos) != pos:
                    raise ValidationError(f"duplicate entry {subset!r} in ranking")
        except TypeError:
            # an entry that is no set of students, not iterable, unsortable
            # or unhashable: no entries fails the count below
            normalized = ()
        # the entries are distinct, so as many valid subsets as exist cover
        # them all; counting keeps a large quota from building every subset
        expected = sum(math.comb(n_students, k) for k in range(min(quota, n_students) + 1))
        everyone = set(students(n_students))
        if len(normalized) != expected or not all(
            len(set(s) & everyone) == len(s) <= quota for s in normalized
        ):
            raise ValidationError(
                f"ranking of {owner} must order every student subset of size <= {quota} exactly once"
            )
        self.owner = owner
        self.quota = quota
        self.n_students = n_students
        self.ranking = normalized
        self.rank_by_group = {tuple([s.index for s in subset]): pos for pos, subset in enumerate(normalized)}
        self._hash = hash((owner, quota, normalized))
        self._responsive = None
        # the codes of the students (i) and of () (n), ordered by their ranks here
        ranks = [self.rank_by_group[(i,)] for i in range(n_students)] + [self.rank_by_group[()]]
        self.induced = CollegeRanking.from_idx(owner, sorted(range(n_students + 1), key=ranks.__getitem__))

    def rank_of(self, subset: Iterable[StudentId]) -> int:
        try:
            # a member that is no student reads as index -1, which no group holds
            return self.rank_by_group[tuple(sorted([s.index if type(s) is StudentId else -1 for s in subset]))]
        except (KeyError, TypeError):
            raise UnknownOutcomeError(f"{subset!r} is not ranked by {self.owner}") from None

    def __contains__(self, subset) -> bool:
        # an entry as the ranking holds it: a sorted tuple of students
        try:
            return self.ranking[self.rank_of(subset)] == subset
        except UnknownOutcomeError:
            return False

    # compared through rank_of, as a Ranking is
    prefers = Ranking.prefers
    weakly_prefers = Ranking.weakly_prefers
    top = Ranking.top

    def is_acceptable(self, s: StudentId) -> bool:
        return self.induced.is_acceptable(s)

    def induced_order(self) -> tuple:
        """Singleton comparisons flattened into a ranking of students and OUTSIDE."""
        return self.induced.ranking

    def responsiveness(self):
        """`is_responsive(self)`, computed on first use and kept."""
        if self._responsive is None:
            self._responsive = is_responsive(self)
        return self._responsive

    def __eq__(self, other) -> bool:
        if not isinstance(other, CollegePreference):
            return NotImplemented
        return (
            self.owner == other.owner
            and self.quota == other.quota
            and self.ranking == other.ranking
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        def show(s):
            return "{" + ",".join(x.name for x in s) + "}" if s else "{}"

        return f"{self.owner.name}(q={self.quota}): " + " ".join(show(s) for s in self.ranking)


def is_responsive(cp: CollegePreference):
    """Check subset comparisons against the singleton ranking they should follow.

    Adding an acceptable student to a small set must help, adding an
    unacceptable one must hurt, and swapping a member for an outsider must
    follow the singleton comparison. Ranks are read by index tuples.
    """
    rank, n = cp.rank_by_group, cp.n_students
    # a base of every student has no one left to add, so larger ones are moot
    for k in range(min(cp.quota, n)):
        for base in itertools.combinations(range(n), k):
            rest = [s for s in range(n) if s not in base]
            here, grown = rank[base], {s: rank[tuple(sorted(base + (s,)))] for s in rest}
            for s in rest:
                if (grown[s] < here) != (rank[(s,)] < rank[()]):
                    return PropertyCheck(False, ("gain", tuple(map(student, base)), student(s)))
            for s, t in itertools.permutations(rest, 2):
                if (grown[s] < grown[t]) != (rank[(s,)] < rank[(t,)]):
                    return PropertyCheck(False, ("swap", tuple(map(student, base)), student(s), student(t)))
    return PropertyCheck(True)


def responsive_extension(
    owner: CollegeId, quota: int, induced: Sequence
) -> CollegePreference:
    """The canonical responsive subset ranking built from a student ranking.

    Subsets compare by their member ranks padded with the outside option's
    rank up to the quota, sorted; this lexicographic rule is one responsive
    completion among many. Padding only up to the student count keeps the
    order: it drops the same pads from every key.
    """
    n = sum(1 for x in induced if x is not OUTSIDE)
    rank = {x: pos for pos, x in enumerate(induced)}
    if OUTSIDE not in rank:
        raise ValidationError("induced ranking omits the outside option")
    pad = rank[OUTSIDE]
    size = min(quota, n)

    def key(subset):
        return tuple(sorted([rank[s] for s in subset] + [pad] * (size - len(subset))))

    subsets = [
        s
        for k in range(size + 1)
        for s in itertools.combinations(students(n), k)
    ]
    subsets.sort(key=key)
    return CollegePreference(owner, quota, n, subsets)


class MtoMatching:
    """An assignment of students to colleges within quotas."""

    __slots__ = ("quotas", "n_students", "_students_of", "_college_of")

    def __init__(self, quotas: Sequence[int], n_students: int, assignment: Sequence[Iterable[int]]):
        quotas = tuple(quotas)
        if len(assignment) != len(quotas):
            raise ValidationError(
                f"assignment covers {len(assignment)} colleges, market has {len(quotas)}"
            )
        college_of: list[Optional[int]] = [None] * n_students
        students_of = []
        for ci, group in enumerate(assignment):
            raw = tuple(group)
            idx = tuple(sorted(set(raw)))
            if len(idx) != len(raw):
                raise ValidationError(f"college c{ci + 1} lists a student twice")
            if len(idx) > quotas[ci]:
                raise ValidationError(
                    f"college c{ci + 1} holds {len(idx)} students over quota {quotas[ci]}"
                )
            for si in idx:
                if not 0 <= si < n_students:
                    raise ValidationError(f"student index {si} out of range")
                if college_of[si] is not None:
                    raise ValidationError(f"student s{si + 1} assigned to two colleges")
                college_of[si] = ci
            students_of.append(idx)
        self.quotas = quotas
        self.n_students = n_students
        self._students_of = tuple(students_of)
        self._college_of = tuple(college_of)

    def students_of(self, c: CollegeId) -> tuple[StudentId, ...]:
        return tuple(StudentId(i) for i in self._students_of[c.index])

    def college_of(self, s: StudentId):
        ci = self._college_of[s.index]
        return OUTSIDE if ci is None else CollegeId(ci)

    @property
    def assignment(self) -> tuple[tuple[int, ...], ...]:
        return self._students_of

    @property
    def pairs(self) -> tuple:
        return tuple(
            (CollegeId(ci), tuple(StudentId(si) for si in group))
            for ci, group in enumerate(self._students_of)
        )

    @property
    def unmatched_students(self) -> tuple[StudentId, ...]:
        return tuple(StudentId(i) for i, ci in enumerate(self._college_of) if ci is None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MtoMatching):
            return NotImplemented
        return (
            self.quotas == other.quotas
            and self.n_students == other.n_students
            and self._students_of == other._students_of
        )

    def __hash__(self) -> int:
        return hash((self.quotas, self.n_students, self._students_of))

    def __repr__(self) -> str:
        parts = [
            f"c{ci + 1}:{{{','.join('s%d' % (si + 1) for si in group)}}}"
            for ci, group in enumerate(self._students_of)
        ]
        solo = [s.name for s in self.unmatched_students]
        if solo:
            parts.append("free:" + ",".join(solo))
        return "MtoMatching[" + " ".join(parts) + "]"


class MtoProfile:
    """One college preference per college, one student preference per student."""

    __slots__ = ("college_prefs", "student_prefs")

    def __init__(self, college_prefs: Sequence[CollegePreference], student_prefs: Sequence[StudentPreference]):
        college_prefs = tuple(college_prefs)
        student_prefs = tuple(student_prefs)
        if not college_prefs or not student_prefs:
            raise ValidationError("need at least one college and one student")
        for i, cp in enumerate(college_prefs):
            if cp.owner.index != i:
                raise ValidationError(f"college preference {i} is owned by {cp.owner}")
            if cp.n_students != len(student_prefs):
                raise ValidationError(
                    f"{cp.owner} ranks subsets of {cp.n_students} students, market has {len(student_prefs)}"
                )
        for i, sp in enumerate(student_prefs):
            if sp.owner.index != i:
                raise ValidationError(f"student preference {i} is owned by {sp.owner}")
            if sp.n_opposite != len(college_prefs):
                raise ValidationError(
                    f"{sp.owner} ranks {sp.n_opposite} colleges, market has {len(college_prefs)}"
                )
        self.college_prefs = college_prefs
        self.student_prefs = student_prefs

    @property
    def n_colleges(self) -> int:
        return len(self.college_prefs)

    @property
    def n_students(self) -> int:
        return len(self.student_prefs)

    @property
    def quotas(self) -> tuple[int, ...]:
        return tuple(cp.quota for cp in self.college_prefs)

    @property
    def agents(self) -> tuple[MtoAgent, ...]:
        return colleges(self.n_colleges) + students(self.n_students)

    def __getitem__(self, agent: MtoAgent):
        if isinstance(agent, CollegeId):
            return self.college_prefs[agent.index]
        if isinstance(agent, StudentId):
            return self.student_prefs[agent.index]
        raise UnknownOutcomeError(f"no preference for {agent!r}")

    def replace(self, updates: Mapping[MtoAgent, object]) -> "MtoProfile":
        cps = list(self.college_prefs)
        sps = list(self.student_prefs)
        for agent, pref in updates.items():
            if isinstance(agent, CollegeId):
                if not isinstance(pref, CollegePreference) or pref.owner != agent:
                    raise ValidationError(f"replacement for {agent} has wrong owner or type")
                cps[agent.index] = pref
            elif isinstance(agent, StudentId):
                if not isinstance(pref, StudentPreference) or pref.owner != agent:
                    raise ValidationError(f"replacement for {agent} has wrong owner or type")
                sps[agent.index] = pref
            else:
                raise UnknownOutcomeError(f"no preference for {agent!r}")
        return MtoProfile(cps, sps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MtoProfile):
            return NotImplemented
        return self.college_prefs == other.college_prefs and self.student_prefs == other.student_prefs

    def __hash__(self) -> int:
        return hash((self.college_prefs, self.student_prefs))


@dataclass(frozen=True)
class MtoStep:
    """One simultaneous proposal round of the student-proposing rule."""

    number: int
    proposals: tuple[tuple[int, int], ...]  # (student, college) index pairs
    rejections: tuple[tuple[int, int], ...]  # (college, student) index pairs
    tentative: tuple[tuple[int, ...], ...]  # held students per college


def require_responsive(profile: MtoProfile) -> None:
    for cp in profile.college_prefs:
        check = cp.responsiveness()
        if not check:
            raise NotResponsiveError(
                f"college {cp.owner} has a non-responsive subset ranking: {check.detail}"
            )


def _seat_ranges(quotas: Sequence[int], n_students: int) -> list[range]:
    """The seats of each college in the seat market (Roth & Sotomayor 1990,
    ch. 5): a college of quota k has min(k, n_students) seats, as many as
    can be filled, numbered college by college."""
    stops = list(itertools.accumulate([min(q, n_students) for q in quotas]))
    return [range(start, stop) for start, stop in zip([0, *stops], stops)]


def _spda_engine(college_prefs: Sequence[CollegePreference]) -> tuple[Callable, Callable]:
    """(view, evaluate) of SPDA on colleges with these reports' quotas, for
    `spda_matching` and the scans (`MtoDomain.spda_market`). It runs on the
    seats of `_seat_ranges`. A college report's view gives each of its seats
    the `rank_row` of its induced ranking, a student report's is its
    acceptable seats, best first; `da._sequential_da` on those seats, one
    held slot each, holds SPDA's students. evaluate(views), colleges first,
    returns a fresh list: each college's students as a sorted index tuple,
    then each student's college index, or the college count when unmatched."""
    nc, n = len(college_prefs), college_prefs[0].n_students
    seat_ranges = _seat_ranges([cp.quota for cp in college_prefs], n)
    seat_college = [c for c, r in enumerate(seat_ranges) for _ in r]

    def view(pref) -> Sequence:
        if isinstance(pref, CollegePreference):
            return [pref.induced.rank_row] * len(seat_ranges[pref.owner.index])
        return tuple([j for c in pref.acceptable_idx for j in seat_ranges[c]])

    def evaluate(views: list) -> list:
        seats = []
        for seat_rows in views[:nc]:
            seats += seat_rows
        held = [n] * len(seats)
        _sequential_da(views[nc:], seats, held)
        college_of = [nc] * n
        for s, i in enumerate(held):
            if i < n:
                college_of[i] = seat_college[s]
        groups = [[] for _ in range(nc)]
        for i, c in enumerate(college_of):
            if c < nc:
                groups[c].append(i)  # students come in index order
        return [*map(tuple, groups), *college_of]

    return view, evaluate


def spda_matching(profile: MtoProfile) -> MtoMatching:
    """Student-proposing deferred acceptance, untraced; `run_spda` is its oracle."""
    require_responsive(profile)
    view, evaluate = _spda_engine(profile.college_prefs)
    lots = evaluate([*map(view, profile.college_prefs), *map(view, profile.student_prefs)])
    return MtoMatching(profile.quotas, profile.n_students, lots[: profile.n_colleges])


def run_spda(profile: MtoProfile) -> tuple[MtoMatching, tuple[MtoStep, ...]]:
    """Student-proposing deferred acceptance with a full round trace.

    Responsiveness is a precondition: colleges judge applicants by the
    student ranking their subset order induces.
    """
    require_responsive(profile)

    def step(number: int, proposals: list, rejections: list, holding: tuple) -> MtoStep:
        return MtoStep(
            number=number,
            proposals=tuple(proposals),
            rejections=tuple([(ci, si) for si, ci in rejections]),
            tentative=holding,
        )

    induced = [cp.induced for cp in profile.college_prefs]
    steps = _traced_da(profile.student_prefs, induced, profile.quotas, step)
    return MtoMatching(profile.quotas, profile.n_students, steps[-1].tentative), steps


def is_individually_rational_mto(profile: MtoProfile, nu: MtoMatching) -> bool:
    return is_individually_rational(to_marriage_matching(profile, nu), to_marriage_profile(profile))


def blocking_pairs_mto(profile: MtoProfile, nu: MtoMatching) -> list[tuple[CollegeId, StudentId]]:
    """Every college-student pair that would defect, in index order: the
    seat market's blocking pairs, each seat read as its college."""
    pairs = blocking_pairs(to_marriage_matching(profile, nu), to_marriage_profile(profile))
    seat_college = [c for c, seats in enumerate(_seat_ranges(profile.quotas, profile.n_students)) for _ in seats]
    return [(CollegeId(c), StudentId(s)) for c, s in sorted({(seat_college[w.index], m.index) for m, w in pairs})]


def is_stable_mto(profile: MtoProfile, nu: MtoMatching) -> bool:
    return is_stable(to_marriage_matching(profile, nu), to_marriage_profile(profile))


# --- domains and manipulation -------------------------------------------------


class MtoDomain(ProductDomain):
    """Admissible preference sets per agent, colleges first. College rankings
    must be responsive, and all rankings a college may report share its quota."""

    __slots__ = ("_spda",)

    SIDES = ("colleges", "students")

    @property
    def n_colleges(self) -> int:
        return self.sizes[0]

    @property
    def n_students(self) -> int:
        return self.sizes[1]

    @staticmethod
    def side_of(agent) -> Optional[int]:
        return {CollegeId: 0, StudentId: 1}.get(type(agent))

    def check_ranking(self, agent: MtoAgent, pref, first) -> None:
        kind = StudentPreference if isinstance(agent, StudentId) else CollegePreference
        if not isinstance(pref, kind):
            raise ValidationError(f"set for {agent} holds a {type(pref).__name__}, expected a {kind.__name__}")
        if kind is StudentPreference:
            if pref.n_opposite != self.n_colleges:
                raise ValidationError(f"preference for {agent} sized for {pref.n_opposite} colleges")
            return
        check = pref.responsiveness()
        if not check:
            raise NotResponsiveError(
                f"admissible set for {agent} contains a non-responsive ranking: {check.detail}"
            )
        if pref.n_students != self.n_students:
            raise ValidationError(f"preference for {agent} sized for {pref.n_students} students")
        if pref.quota != first.quota:
            raise ValidationError(
                f"admissible set for {agent} mixes quota {first.quota} with quota {pref.quota}; "
                "all rankings a college may report share its quota"
            )

    def make_profile(self, prefs: Sequence) -> MtoProfile:
        return MtoProfile(prefs[: self.n_colleges], prefs[self.n_colleges :])

    def spda_market(self) -> _Market:
        """SPDA's market record (`manipulation._Market`) for the coalition
        scan, built on first use and kept. The domain holds only responsive,
        market-sized reports with one quota per college, so a college's
        first report gives the seats of `_spda_engine`, and each report's
        view is built once; a college ranks its group by its report's
        ``rank_by_group``."""
        try:
            return self._spda
        except AttributeError:
            pass
        nc = self.n_colleges
        lists = self.product_order().lists
        view, evaluate = _spda_engine([l[0] for l in lists[:nc]])
        engine = ({pref: view(pref) for l in lists for pref in l}.__getitem__, evaluate)

        def ranks(true: Sequence) -> list:
            return [pref.rank_by_group for pref in true[:nc]] + [pref.rank_row for pref in true[nc:]]

        quotas = [l[0].quota for l in lists[:nc]]
        witness = _witnesses(MtoWitness, lambda lots: MtoMatching(quotas, self.n_students, lots[:nc]))
        self._spda = _Market(lambda: engine, ranks, witness)
        return self._spda


@dataclass(frozen=True)
class MtoWitness:
    """A coalition misreport after which every member strictly gains."""

    base: MtoProfile
    coalition: tuple[MtoAgent, ...]
    misreports: tuple[tuple[MtoAgent, object], ...]
    outcome_before: MtoMatching
    outcome_after: MtoMatching

    def deviated_profile(self) -> MtoProfile:
        return self.base.replace(dict(self.misreports))

    def __repr__(self) -> str:
        members = " ".join(a.name for a in self.coalition)
        return f"MtoWitness[{{{members}}} -> {self.outcome_after!r}]"


def _true_rank(base: MtoProfile, agent: MtoAgent, nu: MtoMatching) -> int:
    """The agent's true rank of its lot: a college's students, a student's college."""
    lot = nu.students_of(agent) if isinstance(agent, CollegeId) else nu.college_of(agent)
    return base[agent].rank_of(lot)


def validate_mto_witness(witness: MtoWitness, domain: Optional[MtoDomain] = None) -> None:
    """Re-derive every condition of a mixed-coalition witness."""
    _check_witness(witness, domain, spda_matching, _true_rank)


def find_manipulation_mto(
    domain: MtoDomain,
    base: MtoProfile,
    max_coalition: int,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> Optional[MtoWitness]:
    """Coalition scan in canonical order: colleges before students.

    Improvement for a college means a strictly better subset by its true
    ranking; for a student a strictly better college. SPDA's market record
    comes from the domain, which keeps it.
    """
    return next(_scan(domain.spda_market(), domain, base, range(len(domain.agents)), max_coalition, budget), None)


def students_satisfy_utp(domain: MtoDomain) -> PropertyCheck:
    """Unrestricted top pairs over the students' admissible sets."""
    return _check_each_agent(domain, 1, utp_missing)


# --- the worked counterexample ---------------------------------------------------


@dataclass(frozen=True)
class MixedCoalitionExample:
    """A college and an unmatched student jointly gaming the student-proposing rule."""

    profile: MtoProfile
    witness: MtoWitness

    @property
    def truthful_outcome(self) -> MtoMatching:
        return self.witness.outcome_before

    @property
    def manipulated_outcome(self) -> MtoMatching:
        return self.witness.outcome_after


def mixed_coalition_counterexample() -> MixedCoalitionExample:
    """Three colleges, five students; the first college (quota 2) and the
    last student misreport together and both strictly gain."""
    c = colleges(3)
    s = students(5)
    s1, s2, s3, s4, s5 = s

    student_prefs = [
        StudentPreference(s1, (c[2], c[0], c[1], OUTSIDE)),
        StudentPreference(s2, (c[0], c[2], c[1], OUTSIDE)),
        StudentPreference(s3, (c[0], OUTSIDE, c[1], c[2])),
        StudentPreference(s4, (c[0], c[1], c[2], OUTSIDE)),
        StudentPreference(s5, (c[1], OUTSIDE, c[0], c[2])),
    ]
    p_c1 = CollegePreference(
        c[0],
        2,
        5,
        [
            (s1, s2), (s1, s3), (s1, s4), (s2, s3), (s2, s4), (s3, s4),
            (s1,), (s2,), (s3,), (s4,), (),
            (s1, s5), (s2, s5), (s3, s5), (s4, s5), (s5,),
        ],
    )
    p_c2 = CollegePreference(c[1], 1, 5, [(s4,), (s5,), (), (s1,), (s2,), (s3,)])
    p_c3 = CollegePreference(c[2], 1, 5, [(s2,), (s5,), (s1,), (), (s3,), (s4,)])
    profile = MtoProfile([p_c1, p_c2, p_c3], student_prefs)

    tilde_s5 = StudentPreference(s5, (c[2], c[1], c[0], OUTSIDE))
    tilde_c1 = CollegePreference(
        c[0],
        2,
        5,
        [
            (s1, s4), (s2, s4), (s3, s4), (s1, s2), (s1, s3), (s2, s3),
            (s4,), (s1,), (s2,), (s3,), (),
            (s4, s5), (s1, s5), (s2, s5), (s3, s5), (s5,),
        ],
    )
    before = MtoMatching((2, 1, 1), 5, [(1, 2), (3,), (0,)])
    after = MtoMatching((2, 1, 1), 5, [(0, 3), (4,), (1,)])
    witness = MtoWitness(
        base=profile,
        coalition=(c[0], s5),
        misreports=((c[0], tilde_c1), (s5, tilde_s5)),
        outcome_before=before,
        outcome_after=after,
    )
    return MixedCoalitionExample(profile=profile, witness=witness)


# --- the seat market ------------------------------------------------------------


def to_marriage_profile(profile: MtoProfile) -> Profile:
    """The seat market: students as men, each seat of `_seat_ranges` a woman
    ranking students by its college's induced ranking, and each student
    ranking a college's seats one after another, first seat first. A college
    matching is stable exactly when its seat matching is."""
    seat_ranges = _seat_ranges(profile.quotas, profile.n_students)
    blocks = [*seat_ranges, (seat_ranges[-1].stop,)]  # the outside option's code last
    men_prefs = [
        Preference.from_idx(man(i), [j for c in sp.ranking_idx for j in blocks[c]])
        for i, sp in enumerate(profile.student_prefs)
    ]
    seat_prefs = [
        Preference.from_idx(woman(j), cp.induced.ranking_idx)
        for cp, seats in zip(profile.college_prefs, seat_ranges)
        for j in seats
    ]
    return Profile(men_prefs + seat_prefs)


def to_marriage_matching(profile: MtoProfile, nu: MtoMatching) -> Matching:
    """``nu`` in the seat market of ``profile``: each college's students fill
    its seats best first by its induced ranking."""
    if nu.quotas != profile.quotas or nu.n_students != profile.n_students:
        raise DimensionMismatchError(
            f"matching has quotas {nu.quotas} and {nu.n_students} students, "
            f"market has {profile.quotas} and {profile.n_students}"
        )
    seat_ranges = _seat_ranges(profile.quotas, profile.n_students)
    seat_of: list[Optional[int]] = [None] * nu.n_students
    for cp, seats, group in zip(profile.college_prefs, seat_ranges, nu.assignment):
        for j, si in zip(seats, sorted(group, key=cp.induced.rank_row.__getitem__)):
            seat_of[si] = j
    return Matching.from_assignment(nu.n_students, seat_ranges[-1].stop, seat_of)
