"""Shared builders for the canonical 2x2 market used throughout the tests."""

import os
import random
from pathlib import Path

import pytest

from matchlab import core
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
