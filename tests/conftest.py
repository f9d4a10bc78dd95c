"""Shared builders for the canonical 2x2 market used throughout the tests."""

import os
import random
from pathlib import Path

import pytest

from matchlab import core, da, mto
from matchlab.core import (
    OUTSIDE,
    Matching,
    Preference,
    Profile,
    Side,
    man,
    men,
    woman,
    women,
)

M1, M2 = man(0), man(1)
W1, W2 = woman(0), woman(1)

# the commands that tests run in a child interpreter import the package
# from the same source tree as the tests
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def pref(owner, *ranking):
    return Preference(owner, ranking)


def profile_p1() -> Profile:
    """Both sides mutually acceptable; men and women want opposite pairings."""
    return Profile(
        [
            pref(M1, W1, W2, OUTSIDE),
            pref(M2, W2, W1, OUTSIDE),
            pref(W1, M2, M1, OUTSIDE),
            pref(W2, M1, M2, OUTSIDE),
        ]
    )


def profile_p2() -> Profile:
    """Like p1 but m1 now finds w2 unacceptable."""
    return profile_p1().replace({M1: pref(M1, W1, OUTSIDE, W2)})


def profile_p3() -> Profile:
    """Like p1 but w1 now finds m1 unacceptable."""
    return profile_p1().replace({W1: pref(W1, M2, OUTSIDE, M1)})


def mu_straight() -> Matching:
    return Matching(2, 2, [(M1, W1), (M2, W2)])


def mu_crossed() -> Matching:
    return Matching(2, 2, [(M1, W2), (M2, W1)])


def random_profile(rng: random.Random, p: int, q: int) -> Profile:
    prefs = []
    for a in men(p) + women(q):
        opposite = list(women(q) if a.side is Side.MAN else men(p))
        ranking = opposite + [OUTSIDE]
        rng.shuffle(ranking)
        prefs.append(Preference(a, ranking))
    return Profile(prefs)


def truncations(ranking: tuple) -> list:
    """Every truncation of a ranking: its first k acceptable agents kept, the
    others moved below the outside option in order, k = 0 .. its list size."""
    return [
        ranking[:k] + (OUTSIDE,) + tuple([x for x in ranking[k:] if x is not OUTSIDE])
        for k in range(ranking.index(OUTSIDE) + 1)
    ]


def check_gain_first(got, cold: list, i: int, rank, bar: int) -> None:
    """A gain-first call's result against the cold lot vector of the same
    views: None exactly when agent i does not rank its lot above the bar,
    else an equal fresh list, which the caller may then overwrite."""
    if rank[cold[i]] >= bar:
        assert got is None
    else:
        assert type(got) is list and got == cold and got is not cold
        got[:] = [-1] * len(got)


def count_evaluations(monkeypatch, module, factory: str, record=lambda args, views: None) -> tuple[list, list]:
    """Count the evaluations of every engine that `module.<factory>(*args)`
    builds, at its evaluate and insertion callables, each as record(args,
    views) of the views evaluated, and every `_sequential_da` run; a run
    that is no evaluation is a warm start. The counted callables pass a
    gain-first call's agent, rank row and bar on unchanged."""
    evaluations, runs = [], []
    build, kernel = getattr(module, factory), da._sequential_da

    def counting_factory(*args):
        view, evaluate, insert, proposers = build(*args)

        def counted(views, *gain):
            evaluations.append(record(args, views))
            return evaluate(views, *gain)

        def counted_insert(views, i):
            evaluate_with = insert(views, i)

            def counted_with(viewed, *gain):
                evaluations.append(record(args, [*views[:i], viewed, *views[i + 1 :]]))
                return evaluate_with(viewed, *gain)

            return counted_with

        return view, counted, counted_insert, proposers

    def counting_kernel(*args):
        runs.append(None)
        return kernel(*args)

    monkeypatch.setattr(module, factory, counting_factory)
    for owner in (da, mto):
        monkeypatch.setattr(owner, "_sequential_da", counting_kernel)
    return evaluations, runs


@pytest.fixture(autouse=True)
def empty_outcome_memos():
    """Every test starts with no DA outcome and no stable options
    remembered by acceptable lists, so the DA runs and the option passes a
    test counts do not depend on which tests ran before it."""
    core.list_keys.cache_clear()


@pytest.fixture
def p1():
    return profile_p1()


@pytest.fixture
def p2():
    return profile_p2()


@pytest.fixture
def p3():
    return profile_p3()


@pytest.fixture
def mu():
    return mu_straight()


@pytest.fixture
def mu_tilde():
    return mu_crossed()
