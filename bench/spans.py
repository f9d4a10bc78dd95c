"""Per-layer spans and counters, recorded from outside the package.

`install` rebinds matchlab's public functions (and two methods) to
wrappers that open a span around each call, in every matchlab module that
holds a reference to them, and returns a function that puts the originals
back. Spans live in memory as [name, start, end, parent, unit] lists and
are written out once, at the end of the traced run. Nothing is recorded
while `Tracer.active` is false, so checks and input generation stay out.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import Counter
from typing import Callable, Optional

import matchlab
from matchlab import cli, core, da, domains, formats, manipulation, mto, suites
from matchlab.core import count_matchings

MODULES = (matchlab, core, da, domains, formats, manipulation, mto, suites, cli)

# per-layer metric name -> unit, in report order
PER_LAYER = {
    "core.profile_build.calls": "count/unit",
    "core.profile_build.self_s": "s/unit",
    "core.stable_set.calls": "count/unit",
    "core.stable_set.self_s": "s/unit",
    "core.stable_set.matchings_checked": "count/unit",
    "core.stable_set.yield": "ratio",
    "da.evals": "count/unit",
    "da.self_s": "s/unit",
    "da.us_per_eval": "us",
    "da.trace.calls": "count/unit",
    "da.trace.self_s": "s/unit",
    "da.trace.rounds": "count/unit",
    "da.trace.proposals": "count/unit",
    "manipulation.scan.calls": "count/unit",
    "manipulation.scan.self_s": "s/unit",
    "manipulation.evals.planned": "count/unit",
    "manipulation.evals.requested": "count/unit",
    "manipulation.evals.computed": "count/unit",
    "manipulation.cache_hit_ratio": "ratio",
    "manipulation.witnesses": "count/unit",
    "domains.shortcut.self_s": "s/unit",
    "domains.backtracking.self_s": "s/unit",
    "domains.backtracking.profiles": "count/unit",
    "domains.property_checks.self_s": "s/unit",
    "domains.witness_search.self_s": "s/unit",
    "mto.responsive.calls": "count/unit",
    "mto.responsive.self_s": "s/unit",
    "mto.spda.calls": "count/unit",
    "mto.spda.self_s": "s/unit",
    "mto.spda.rounds": "count/unit",
    "mto.scan.self_s": "s/unit",
    "formats.parse.self_s": "s/unit",
    "formats.parse.bytes": "bytes/unit",
    "formats.emit.self_s": "s/unit",
    "formats.emit.bytes": "bytes/unit",
    "cli.startup_s": "s",
    "cli.command.self_s": "s/unit",
    "suites.run.self_s": "s/unit",
    "trace.units": "count",
    "trace.overhead_ratio": "ratio",
}

class Tracer:
    """In-memory span list plus named counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self.unit = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, start, end, parent, unit in self.spans:
                out.write(json.dumps([name, start, end, parent, unit]) + "\n")


def self_times(spans: list) -> dict:
    """Sum, per span name, of span time minus the time its children cover.

    Children are clipped to their parent and overlapping children are
    merged, so the result never goes below zero.
    """
    children: dict[int, list] = {}
    for name, start, end, parent, _unit in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: Counter = Counter()
    for idx, (name, start, end, _parent, _unit) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (end - start) - covered
    return dict(out)


def _wrap(tracer: Tracer, name, fn: Callable, after: Optional[Callable] = None) -> Callable:
    """Span each call under `name` (a string, a function of the arguments,
    or None for no span) and pass the call and its result to `after`."""

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if name is None:
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result
        idx = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _wrap_iter(tracer: Tracer, name: str, fn: Callable, per_item: Callable) -> Callable:
    """Span every resumption of the generator a function returns."""

    def resumed(gen):
        while True:
            idx = tracer.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            per_item(item)
            yield item

    def traced(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not tracer.active:
            return gen
        tracer.counts[name + ".calls"] += 1
        return resumed(gen)

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch the package for tracing; the returned function undoes it."""
    undo: list[tuple] = []
    c = tracer.counts

    def rebind(fn: Callable, wrapper: Callable, modules=MODULES) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def method(cls, attr: str, wrapper_of: Callable) -> None:
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, wrapper_of(original))

    def count(key: str, fn: Callable = lambda a, k, r: 1) -> Callable:
        def after(args, kwargs, result):
            c[key] += fn(args, kwargs, result)

        return after

    def calls(name: str) -> Callable:
        return count(name + ".calls")

    # core
    method(core.Profile, "__init__", lambda f: _wrap(tracer, "core.profile_build", f, calls("core.profile_build")))

    def on_stable_set(args, kwargs, result):
        profile = args[0]
        c["core.stable_set.calls"] += 1
        c["core.stable_set.matchings_checked"] += count_matchings(profile.p, profile.q)
        c["core.stable_set.found"] += len(result)

    rebind(core.stable_set, _wrap(tracer, "core.stable_set", core.stable_set, on_stable_set))

    # da: every fast-path evaluation, and separately those the rule cache asked for
    def on_eval(args, kwargs, result):
        c["da.evals"] += 1

    def on_rule_eval(args, kwargs, result):
        c["da.evals"] += 1
        c["manipulation.evals.computed"] += 1

    original_da = da.da_assignment
    rebind(original_da, _wrap(tracer, "da", original_da, on_rule_eval), (manipulation,))
    rebind(original_da, _wrap(tracer, "da", original_da, on_eval))

    def on_run_da(args, kwargs, result):
        steps = result[1].steps
        c["da.trace.calls"] += 1
        c["da.trace.rounds"] += len(steps)
        c["da.trace.proposals"] += sum(len(s.proposals) for s in steps)

    rebind(da.run_da, _wrap(tracer, "da.trace", da.run_da, on_run_da))

    # manipulation
    method(
        manipulation.MatchingRule,
        "assignment",
        lambda f: _wrap(tracer, None, f, count("manipulation.evals.requested")),
    )
    rebind(
        manipulation.planned_evaluations,
        _wrap(
            tracer,
            None,
            manipulation.planned_evaluations,
            count("manipulation.evals.planned", lambda a, k, r: r),
        ),
        (manipulation,),
    )

    def on_find(args, kwargs, result):
        c["manipulation.scan.calls"] += 1
        c["manipulation.witnesses"] += result is not None

    def on_witness(item):
        c["manipulation.witnesses"] += 1

    rebind(
        manipulation.find_manipulation,
        _wrap(tracer, "manipulation.scan", manipulation.find_manipulation, on_find),
    )
    rebind(
        manipulation.iter_manipulations,
        _wrap_iter(tracer, "manipulation.scan", manipulation.iter_manipulations, on_witness),
    )

    # domains
    def search_span(args, kwargs):
        path = kwargs.get("path", args[1] if len(args) > 1 else "auto")
        return "domains.shortcut" if path == "auto" else "domains.backtracking"

    def on_search(args, kwargs, result):
        if result.path == "backtracking":
            c["domains.backtracking.profiles"] += args[0].profile_count

    rebind(
        domains.exists_stable_sp_rule,
        _wrap(tracer, search_span, domains.exists_stable_sp_rule, on_search),
    )
    for fn in (
        domains.satisfies_top_dominance,
        domains.satisfies_unrestricted_top_pairs,
        domains.satisfies_cyclical_inclusion,
        domains.is_anonymous,
        domains.domain_is_single_peaked,
    ):
        rebind(fn, _wrap(tracer, "domains.property_checks", fn))
    for fn in (
        manipulation.is_strategy_proof,
        manipulation.is_group_strategy_proof,
        domains.find_incompatibility_witness,
    ):
        rebind(fn, _wrap(tracer, "domains.witness_search", fn))

    # mto
    rebind(mto.is_responsive, _wrap(tracer, "mto.responsive", mto.is_responsive, calls("mto.responsive")))

    def on_spda(args, kwargs, result):
        c["mto.spda.calls"] += 1
        c["mto.spda.rounds"] += len(result[1])

    rebind(mto.run_spda, _wrap(tracer, "mto.spda", mto.run_spda, on_spda))
    rebind(mto.find_manipulation_mto, _wrap(tracer, "mto.scan", mto.find_manipulation_mto))

    # formats: document conversion both ways, plus the CLI's file read and print
    for attr, fn in list(vars(formats).items()):
        if callable(fn) and not attr.startswith("_") and getattr(fn, "__module__", "") == formats.__name__:
            if attr.endswith("_from_json"):
                rebind(fn, _wrap(tracer, "formats.parse", fn))
            elif attr.endswith("_to_json"):
                rebind(fn, _wrap(tracer, "formats.emit", fn))

    def on_load(args, kwargs, result):
        c["formats.parse.bytes"] += os.path.getsize(args[0])

    rebind(cli._load_json, _wrap(tracer, "formats.parse", cli._load_json, on_load))
    rebind(cli._emit, _wrap(tracer, "formats.emit", cli._emit))

    # cli and suites
    rebind(cli.main, _wrap(tracer, "cli.command", cli.main))
    rebind(suites.run_suite, _wrap(tracer, "suites.run", suites.run_suite))

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-unit layer figures from the spans and counters of a traced pass."""
    selfs = self_times(tracer.spans)
    c = tracer.counts
    n = max(units, 1)
    out = {name: c[name] / n if name in c else 0.0 for name in PER_LAYER}
    for name in out:
        if name.endswith(".self_s"):
            out[name] = selfs.get(name[: -len(".self_s")], 0.0) / n
    out["da.self_s"] = selfs.get("da", 0.0) / n
    checked = c["core.stable_set.matchings_checked"]
    out["core.stable_set.yield"] = c["core.stable_set.found"] / checked if checked else 0.0
    out["da.us_per_eval"] = selfs.get("da", 0.0) / c["da.evals"] * 1e6 if c["da.evals"] else 0.0
    requested = c["manipulation.evals.requested"]
    out["manipulation.cache_hit_ratio"] = (
        1.0 - c["manipulation.evals.computed"] / requested if requested else 0.0
    )
    out["trace.units"] = float(units)
    return out
