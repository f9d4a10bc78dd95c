"""What a command imports, and the lazy package namespace.

`cli` and `formats` import only `core`, `errors` and each other at top
level; every handler and reader imports the engines it runs when it is
called. These tests run commands in a fresh interpreter with bytecode
writing off, as the commands start in use, and list the matchlab modules
each one loaded.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchlab

ROOT = Path(__file__).resolve().parent.parent
P1 = str(ROOT / "fixtures" / "example1_p1.json")
DOMAIN = str(ROOT / "fixtures" / "full_2x2_domain.json")
MTO = str(ROOT / "fixtures" / "example2_mto.json")
MTO_DOMAIN = str(ROOT / "fixtures" / "example2_domain.json")

# loaded by the commands that use them, never by a marriage solve or stable-set
ENGINES = {"matchlab.domains", "matchlab.manipulation", "matchlab.mto", "matchlab.suites"}

# runs its argument as Python, then prints the modules it loaded
PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_after(code: str) -> set:
    # conftest has put the source tree on PYTHONPATH
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", PROBE, code], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(result.stdout))


def _modules_after(code: str) -> set:
    return {m for m in _loaded_after(code) if m.split(".")[0] == "matchlab"}


def test_bare_import_loads_no_submodule():
    assert _modules_after("import matchlab") == {"matchlab"}


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--rule", "mpda", P1],
        ["solve", "--rule", "wpda", P1],
        ["solve", "--rule", "mpda", "--trace", P1],
        ["solve", "--rule", "wpda", "--trace", "--text", P1],
        ["stable-set", P1],
    ],
    ids=["mpda", "wpda", "mpda-trace", "wpda-trace", "stable-set"],
)
def test_marriage_commands_load_no_engine_they_do_not_run(argv):
    loaded = _modules_after(f"from matchlab.cli import main; assert main({argv!r}) == 0")
    assert "matchlab.cli" in loaded
    assert loaded & ENGINES == set()


@pytest.mark.parametrize(
    "argv",
    [["solve", "--rule", "mpda", P1], ["solve", "--rule", "mpda", "--trace", P1]],
    ids=["mpda", "mpda-trace"],
)
def test_marriage_solve_leaves_dataclasses_unloaded(argv):
    # DA's trace records are named tuples: `dataclasses` costs a solve
    # several milliseconds of imports (`inspect`, `ast`, `dis`)
    loaded = _loaded_after(f"from matchlab.cli import main; assert main({argv!r}) == 0")
    assert "matchlab.da" in loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    "argv, code",
    [
        (["solve", "--rule", "spda", MTO], 0),
        (["solve", "--rule", "spda", "--trace", MTO], 0),
        (["manipulate", "--rule", "spda", MTO, MTO_DOMAIN], 1),
    ],
    ids=["spda", "spda-trace", "manipulate-spda"],
)
def test_college_commands_load_no_suites(argv, code):
    # the college rankings share their type with marriage agents through
    # `core`, not through the suites that reproduce the paper's examples
    loaded = _modules_after(f"from matchlab.cli import main; assert main({argv!r}) == {code}")
    assert "matchlab.mto" in loaded
    assert "matchlab.suites" not in loaded


def test_domain_property_check_loads_no_rule_or_certification():
    # the property checks run on the domain alone; only the rule searches
    # and the Theorem 3 clauses import the rules and certifications
    argv = ["check-domain", "--property", "utp", DOMAIN]
    loaded = _modules_after(f"from matchlab.cli import main; assert main({argv!r}) == 0")
    assert "matchlab.domains" in loaded
    assert loaded & {"matchlab.manipulation", "matchlab.da"} == set()


@pytest.mark.parametrize(
    "code",
    [
        "import matchlab",
        "import matchlab; from matchlab import core, domains",
        f"from matchlab.cli import main; assert main({['solve', '--rule', 'mpda', P1]!r}) == 0",
    ],
    ids=["import", "import-domains", "solve"],
)
def test_no_list_keys_or_stable_table_are_built_before_a_search(code):
    # the rule search's per-shape table of stable options, and the list
    # keys it and the DA outcome memo share, are built on first use
    probe = code + (
        "\nimport sys"
        "\ncore, domains = sys.modules.get('matchlab.core'), sys.modules.get('matchlab.domains')"
        "\nassert core is None or core.list_keys.cache_info().currsize == 0"
        "\nassert domains is None or domains._stable_table.cache_info().currsize == 0"
    )
    _loaded_after(probe)


def test_manipulation_loads_no_domain_module():
    # the DA outcome memo numbers acceptable lists from `core` alone; only
    # the certifications' callers hand it a domain
    loaded = _modules_after("import matchlab.manipulation")
    assert "matchlab.manipulation" in loaded
    assert "matchlab.domains" not in loaded


def test_public_names_are_their_submodules_objects():
    for name in matchlab.__all__:
        module = importlib.import_module(f"matchlab.{matchlab._SOURCE[name]}")
        assert getattr(matchlab, name) is getattr(module, name), name
    namespace = {}
    exec("from matchlab import *", namespace)
    assert set(matchlab.__all__) <= namespace.keys()
    assert set(matchlab.__all__) <= set(dir(matchlab))
    # the parser's constants are one object wherever they are imported from
    from matchlab import core, manipulation, suites

    assert suites.SUITE_IDS is core.SUITE_IDS and matchlab.SUITE_IDS is core.SUITE_IDS
    assert manipulation.DEFAULT_EVAL_BUDGET is core.DEFAULT_EVAL_BUDGET
    assert manipulation.EXHAUSTIVE_PROFILE_BUDGET is core.EXHAUSTIVE_PROFILE_BUDGET
    with pytest.raises(AttributeError):
        matchlab.no_such_name
