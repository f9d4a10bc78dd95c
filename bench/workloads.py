"""The four benchmark workloads: seeded inputs, one timed unit, one check.

A workload object is built once per set-up (the harness times that) and
then yields unit inputs from its seed. `run` is the timed unit; `check`
runs outside the timer and returns a failure reason or None. `run_checks`
holds the checks made once per run. Inputs are generated here, never by
the program's own generators, and the program receives only the inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from typing import Iterator, Optional

# units call the program through module attributes, so the traced run's
# rebinding of those attributes is seen
from matchlab import cli, domains, manipulation, mto
from matchlab.core import OUTSIDE, Preference, Profile, Side, men, women
from matchlab.domains import PreferenceDomain, all_preferences, minimal_utp_rankings
from matchlab.formats import mto_domain_from_json, mto_profile_from_json
from matchlab.manipulation import mpda_rule
from matchlab.mto import MtoProfile, colleges, students, validate_mto_witness

import checks

FIXTURES = "fixtures"


def random_full_profile(rng: random.Random, p: int, q: int) -> Profile:
    """Every agent ranks the whole opposite side and the outside option at random."""
    return Profile(Preference(a, tuple(ranking)) for a, ranking in random_rankings(rng, p, q))


def random_rankings(rng: random.Random, p: int, q: int) -> list:
    out = []
    for a in men(p) + women(q):
        ranking = list(women(q) if a.side is Side.MAN else men(p)) + [OUTSIDE]
        rng.shuffle(ranking)
        out.append((a, ranking))
    return out


def planted_crossing_base() -> Profile:
    """3x3 market whose first two pairs cross (two stable matchings) and
    whose third pair is mutual first choice, so under MPDA the women of the
    crossing gain by truncating."""
    m1, m2, m3 = men(3)
    w1, w2, w3 = women(3)
    table = {
        m1: (w1, w2, w3),
        m2: (w2, w1, w3),
        m3: (w3, w1, w2),
        w1: (m2, m1, m3),
        w2: (m1, m2, m3),
        w3: (m3, m1, m2),
    }
    return Profile(Preference(a, (*r, OUTSIDE)) for a, r in table.items())


def master_list_rankings(rng: random.Random, n: int, proposers: Side) -> list:
    """Complete lists where the proposing side shares one random ranking.

    DA then takes exactly n rounds with n(n+1)/2 proposals whatever the
    seed, so a traced run does the same work on every seed; on uniform
    random markets the round count varies fivefold between seeds.
    """
    shared = list(women(n) if proposers is Side.MAN else men(n))
    rng.shuffle(shared)
    out = []
    for a in men(n) + women(n):
        if a.side is proposers:
            ranking = list(shared)
        else:
            ranking = list(women(n) if a.side is Side.MAN else men(n))
            rng.shuffle(ranking)
        out.append((a, ranking + [OUTSIDE]))
    return out


def utp_domain(rng: random.Random, shape: tuple) -> PreferenceDomain:
    """2x2 domain with unrestricted top pairs for the proposing men.

    shape = (e1, e2, s1, s2): man i holds the minimal UTP rankings plus
    e_i random others, woman j holds s_j random rankings.
    """
    sets = {}
    utp = set(minimal_utp_rankings(women(2)))
    for a, extra in zip(men(2), shape[:2]):
        pool = all_preferences(a, 2)
        base = [pref for pref in pool if pref.ranking in utp]
        sets[a] = base + rng.sample([pref for pref in pool if pref.ranking not in utp], extra)
    for a, size in zip(women(2), shape[2:]):
        sets[a] = rng.sample(all_preferences(a, 2), size)
    return PreferenceDomain(sets)


# 2x2 has one ranking outside the minimal UTP set, so each man takes 0 or
# 1 extra; each woman holds 1 to 6 of the 6 rankings
UTP_SHAPES = list(itertools.product((0, 1), (0, 1), range(1, 7), range(1, 7)))


class Workload:
    name = ""
    cycle = 1  # the run stops only between whole cycles of this many units
    subprocesses = False  # units run the program in child processes

    def __init__(self, seed: int, root: str, workdir: str):
        self.seed = seed
        self.root = root

    def inputs(self) -> Iterator:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def timed(self, inp) -> tuple:
        """Run one unit; return its output and its latency in seconds."""
        t0 = time.perf_counter()
        out = self.run(inp)
        return out, time.perf_counter() - t0

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process that ran the program."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def check(self, inp, out) -> Optional[str]:
        raise NotImplementedError

    def run_checks(self) -> list:
        """Checks made once per run: one failure reason or None for each."""
        return []

    def units_for(self, seconds: float) -> Optional[int]:
        """A fixed unit count for a timed run, or None to run for `seconds`."""
        return None


class Survey(Workload):
    """Theorem 1 witness survey on seeded random full 3x3 profiles."""

    name = "survey-3x3"

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.domain = PreferenceDomain.full(3, 3)
        self.planted = planted_crossing_base()

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            yield random_full_profile(rng, 3, 3)

    def run(self, base):
        return list(manipulation.iter_manipulations(mpda_rule(), self.domain, base, max_coalition=2))

    def check(self, base, witnesses):
        return checks.check_survey(base, witnesses)

    def run_checks(self):
        witnesses = self.run(self.planted)
        if not witnesses:
            return ["the planted crossing base yielded no witness"]
        return [checks.check_survey(self.planted, witnesses)]


class Certify(Workload):
    """Lemma C1 / Theorem 2 certification on seeded proposer-UTP 2x2 domains."""

    name = "certify-2x2"

    def inputs(self):
        # runs walk shuffled rounds of all domain shapes, so runs on
        # different seeds share one mix of domain sizes, which sets most of
        # a unit's cost
        rng = random.Random(self.seed)
        shapes = list(UTP_SHAPES)
        while True:
            rng.shuffle(shapes)
            for shape in shapes:
                yield utp_domain(rng, shape)

    def run(self, domain):
        auto = domains.exists_stable_sp_rule(domain, "auto")
        table = domains.exists_stable_sp_rule(domain, "backtracking")
        gsp = manipulation.is_group_strategy_proof(auto.rule, domain).holds if auto.exists else None
        return auto, table, gsp

    def check(self, domain, out):
        auto, table, gsp = out
        return checks.check_certify(domain, auto, table, gsp)


class College(Workload):
    """Example 2: single-agent scans under SPDA at bases from the fixture domain."""

    name = "college-fixture"

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        fixtures = os.path.join(root, FIXTURES)
        with open(os.path.join(fixtures, "example2_domain.json"), encoding="utf-8") as f:
            self.domain = mto_domain_from_json(json.load(f))
        with open(os.path.join(fixtures, "example2_mto.json"), encoding="utf-8") as f:
            self.base = mto_profile_from_json(json.load(f))

    def inputs(self):
        rng = random.Random(self.seed)
        cs = colleges(self.base.n_colleges)
        ss = students(self.base.n_students)
        while True:
            yield MtoProfile(
                [rng.choice(self.domain.admissible(c)) for c in cs],
                [rng.choice(self.domain.admissible(s)) for s in ss],
            )

    def run(self, base):
        return mto.find_manipulation_mto(self.domain, base, max_coalition=1)

    def check(self, base, witness):
        return checks.check_college(witness)

    def run_checks(self):
        pair = mto.find_manipulation_mto(self.domain, self.base, max_coalition=2)
        return [checks.check_pair_witness(pair, lambda w: validate_mto_witness(w, domain=self.domain))]


def market_doc(rankings: list, n: int) -> dict:
    def token(x):
        return "@" if x is OUTSIDE else x.name

    return {
        "schema": "matchlab/1",
        "kind": "market",
        "men": n,
        "women": n,
        "preferences": {a.name: [token(x) for x in r] for a, r in rankings},
    }


# Starts one command, times it and reports its exit code and peak memory,
# then its output. A child's peak-memory record starts from its parent's
# peak (Linux carries the pre-exec image's high-water mark), so commands
# are started from this small interpreter, not from the harness.
LAUNCHER = """
import json, os, subprocess, sys, time
t0 = time.perf_counter()
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
out = child.stdout.read()
_, status, usage = os.wait4(child.pid, 0)
took = time.perf_counter() - t0
head = [took, os.waitstatus_to_exitcode(status), usage.ru_maxrss]
sys.stdout.buffer.write(json.dumps(head).encode() + b"\\n" + out)
"""


class CliMarkets(Workload):
    """One `matchlab` command per unit, cycling through a fixed mix.

    Timed runs start a fresh interpreter per command (`timed`); the traced
    run clears `subprocesses` and calls `cli.main` in-process (`run`), so
    spans can be recorded.
    """

    name = "cli-markets"
    SIZES = (30, 100, 300)

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        self.subprocesses = True
        self.child_peak_kb = 0
        self.counts = None  # set by the traced run to count emitted bytes
        rng = random.Random(seed)
        self.markets = {f"market-{n}": random_rankings(rng, n, n) for n in self.SIZES + (6,)}
        self.markets["master-men-100"] = master_list_rankings(rng, 100, Side.MAN)
        self.markets["master-women-300"] = master_list_rankings(rng, 300, Side.WOMAN)
        self.profiles = {}  # built on first check: checker data, not program input
        paths = {}
        for stem, rankings in self.markets.items():
            paths[stem] = os.path.join(workdir, stem + ".json")
            with open(paths[stem], "w", encoding="utf-8") as f:
                json.dump(market_doc(rankings, len(rankings) // 2), f)
        fx = os.path.join(root, FIXTURES)
        mix = []
        for n in self.SIZES:
            for rule in ("mpda", "wpda"):
                mix.append(("solve", f"market-{n}", ["solve", paths[f"market-{n}"], "--rule", rule]))
        for stem, rule in (("master-men-100", "mpda"), ("master-women-300", "wpda")):
            mix.append(("solve-trace", stem, ["solve", paths[stem], "--rule", rule, "--trace"]))
        mix.append(("stable-set", "market-6", ["stable-set", paths["market-6"]]))
        mix.append((
            "manipulate",
            None,
            ["manipulate", os.path.join(fx, "example2_mto.json"), os.path.join(fx, "example2_domain.json"),
             "--rule", "spda", "--max-coalition", "2"],
        ))
        mix.append((
            "check-domain",
            None,
            ["check-domain", os.path.join(fx, "full_2x2_domain.json"), "--property", "utp", "--json"],
        ))
        for suite in ("example1", "prop4"):
            mix.append(("verify", None, ["verify", "--suite", suite, "--json"]))
        self.mix = [
            {"kind": kind, "expect": 0, "market": stem, "argv": argv}
            for kind, stem, argv in mix
        ]
        self.cycle = len(self.mix)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("MATCHLAB_BUDGET", None)

    def inputs(self):
        return itertools.cycle(self.mix)

    def units_for(self, seconds):
        # whole cycles, as many as fit in `seconds` at about 6 s a cycle
        # here; a count that moved with the machine's speed would move p90,
        # which sits on the few n = 300 commands of each cycle
        return self.cycle * max(1, round(seconds / 6.0))

    def run(self, spec):
        """The command in this process, as the traced run needs it."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(spec["argv"]))
        text = out.getvalue()
        if self.counts is not None:
            self.counts["formats.emit.bytes"] += len(text.encode())
        return code, text

    def timed(self, spec):
        if not self.subprocesses:
            return super().timed(spec)
        # its own session, so a command that hangs goes down with its launcher
        launcher = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "matchlab.cli", *spec["argv"]],
            stdout=subprocess.PIPE,
            env=self.env,
            cwd=self.root,
            start_new_session=True,
        )
        try:
            stdout, _ = launcher.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(launcher.pid, signal.SIGKILL)
            launcher.communicate()
            raise
        if launcher.returncode != 0:
            raise subprocess.CalledProcessError(launcher.returncode, "launcher")
        head, _, out = stdout.partition(b"\n")
        took, code, rss_kb = json.loads(head)
        self.child_peak_kb = max(self.child_peak_kb, rss_kb)
        return (code, out.decode()), took

    def peak_rss_kb(self):
        return self.child_peak_kb if self.subprocesses else super().peak_rss_kb()

    def check(self, spec, out):
        stem = spec["market"]
        if stem is not None and stem not in self.profiles:
            rankings = self.markets[stem]
            self.profiles[stem] = Profile(Preference(a, tuple(r)) for a, r in rankings)
        return checks.check_cli(spec, *out, profile=self.profiles.get(stem))


WORKLOADS = {w.name: w for w in (Survey, Certify, College, CliMarkets)}
