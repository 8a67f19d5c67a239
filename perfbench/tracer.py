"""Span recorder for one traced `loopzip` command, and its summary.

Run as a program, it wraps the public functions listed in LAYERS, runs
`loopzip.cli.main` on the remaining arguments and, when the command ends,
writes the recorded spans next to OUT:

    PYTHONPATH=src python3 perfbench/tracer.py OUT verify --suite psi --mu 1,0

Nothing under src/ is edited. A wrapper replaces the function in every
`loopzip` module namespace (and module-level dict, such as the suite table)
that holds the same object, so `from .coset import class_of` in another
module is traced too. Methods are replaced on their class. A listed name
that no longer exists is reported as absent, not as an error, so the code
under measurement may rename or delete it without a benchmark edit.

Two kinds of wrapper:
  SPAN   records (name, start, end, parent) per call; self time is the
         duration minus the durations of the direct child spans.
  COUNT  only counts calls, for operations so cheap that a timed wrapper
         would cost as much as the operation itself.

`summarize` (imported by run.py) turns the written spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from collections import defaultdict

SPAN, COUNT = "span", "count"

# (key, module under loopzip, qualified names, kind). A SPAN key K yields
# K.calls, K.self_s, K.s (time in outermost calls), K.p50_us and K.p99_us;
# a COUNT key is the metric name itself. "*" means every public function
# defined in the module, generators excepted (a span would end at creation).
LAYERS = [
    ("coset.build", "coset", ["ClassContext.__init__"], SPAN),
    ("coset.canonical", "coset", ["ClassContext.canonical"], SPAN),
    ("coset.class_of", "coset", ["class_of"], SPAN),
    ("coset.witt_class_of", "coset", ["witt_class_of"], SPAN),
    ("coset.pair_matrix", "coset", ["pair_matrix"], SPAN),
    ("matring.flat_mul", "matring", ["flat_mul"], SPAN),
    ("matring.flat_inverse.calls", "matring", ["flat_inverse"], COUNT),
    ("matring.snf_dvr", "matring", ["snf_dvr"], SPAN),
    ("matring.mat_mul", "matring", ["Mat.__mul__"], SPAN),
    ("matring.mat_inverse", "matring", ["Mat.inverse"], SPAN),
    ("series.mul", "series", ["LaurentElt.__mul__"], SPAN),
    ("series.add", "series", ["LaurentElt.__add__"], SPAN),
    ("series.inverse", "series", ["LaurentElt.inverse"], SPAN),
    ("gf.ops.calls", "gf", ["FqElem.__add__", "FqElem.__sub__", "FqElem.__mul__",
                            "FqElem.__neg__", "FqElem.inverse", "FqElem.frobenius",
                            "FqElem.__pow__"], COUNT),
    ("gf.elems.built", "gf", ["FqElem.__init__"], COUNT),
    ("witt.structure_polys", "witt", ["witt_structure_polys"], SPAN),
    ("witt.add", "witt", ["WittElt.__add__"], SPAN),
    ("witt.mul", "witt", ["WittElt.__mul__"], SPAN),
    ("witt.frac_mul", "witt", ["WittFraction.__mul__"], SPAN),
    ("witt.ghost_selftest", "witt", ["ghost_selftest"], SPAN),
    ("grpdata.enumerate", "grpdata", ["enumerate_gl_flat", "enumerate_unipotent_flat",
                                      "enumerate_levi_flat", "enumerate_zip_pairs_flat",
                                      "enumerate_points"], SPAN),
    ("grpdata.is_member.calls", "grpdata", ["is_member"], COUNT),
    ("grpdata.random", "grpdata", ["random_laurent", "random_integral_mat",
                                   "random_k1_mat", "random_left_h_mat",
                                   "random_witt_k1_mat"], SPAN),
    ("orbits.enumerate", "orbits", ["enumerate_orbits"], SPAN),
    ("orbits.union.calls", "orbits", ["UnionFind.union"], COUNT),
    ("weyl", "weyl", ["*", "CosetPoset.__init__"], SPAN),
    ("suites.psi", "suites", ["suite_psi"], SPAN),
    ("suites.prozip", "suites", ["suite_prozip"], SPAN),
    ("suites.witt", "suites", ["suite_witt"], SPAN),
    ("suites.chain", "suites", ["suite_chain"], SPAN),
    ("suites.run", "suites", ["run_suites"], SPAN),
    ("cli", "cli", ["main"], SPAN),
]


# Measurements taken from a traced call's arguments or result. A hook that
# no longer fits the code (a missing attribute) marks its metric absent.
def _pairs_built(rec, args, result):
    rec.counts["coset.pairs_built"] += len(args[0].canon)


def _pair_queried(rec, args, result):
    rec.distinct["coset.pairs_queried"].add((args[1], args[2]))


def _points(rec, args, result):
    rec.counts["orbits.points"] += result.total


HOOKS = {
    "coset.build": ("coset.canon_used_ratio", _pairs_built),
    "coset.canonical": ("coset.canon_used_ratio", _pair_queried),
    "orbits.enumerate": ("orbits.points", _points),
}


class Recorder:
    """Spans and counts of one process, kept in memory until `dump`."""

    def __init__(self):
        self.keys: list[str] = []
        self.span_key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict = defaultdict(int)
        self.distinct: dict = defaultdict(set)
        self.absent: set = set()

    def _hooked(self, key):
        metric, hook = HOOKS.get(key, (None, None))
        if hook is None:
            return None

        def run(args, result):
            try:
                hook(self, args, result)
            except (AttributeError, IndexError, TypeError):
                self.absent.add(metric)
        return run

    def span_wrapper(self, key, fn):
        kid = len(self.keys)
        self.keys.append(key)
        span_key, parent, start, end, stack = (
            self.span_key, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter
        hook = self._hooked(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            span_key.append(kid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def count_wrapper(self, key, fn):
        counts = self.counts
        counts[key] += 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for key, modname, qualnames, kind in LAYERS:
            try:
                module = importlib.import_module(f"loopzip.{modname}")
            except ModuleNotFoundError:
                self.absent.add(key)
                continue
            targets = []
            for qualname in qualnames:
                if qualname == "*":
                    targets += [(module, name) for name, obj in vars(module).items()
                                if inspect.isfunction(obj) and not name.startswith("_")
                                and obj.__module__ == module.__name__
                                and not inspect.isgeneratorfunction(obj)]
                    continue
                owner, _, attr = qualname.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                if attr not in getattr(holder, "__dict__", {}):
                    self.absent.add(f"{key}:{qualname}")
                    continue
                targets.append((holder, attr))
            if not targets:
                self.absent.add(key)
            for holder, attr in targets:
                self._patch(holder, attr, key, kind)

    def _patch(self, holder, attr, key, kind):
        raw = vars(holder)[attr]
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        make = self.span_wrapper if kind == SPAN else self.count_wrapper
        new = make(key, fn)
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(holder, attr, type(raw)(new))
            return
        if inspect.isclass(holder):
            setattr(holder, attr, new)
            return
        # A module-level function: replace every binding of the same object.
        for modname, module in list(sys.modules.items()):
            if modname != "loopzip" and not modname.startswith("loopzip."):
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if value is fn:
                    namespace[name] = new
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = new

    def dump(self, out: str) -> None:
        meta = {
            "keys": self.keys,
            "spans": len(self.start),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "absent": sorted(self.absent),
        }
        with open(out + ".spans", "wb") as fh:
            for arr in (self.span_key, self.parent, self.start, self.end):
                arr.tofile(fh)
        with open(out + ".json", "w") as fh:
            json.dump(meta, fh)


def _percentile(sorted_values, share):
    """Nearest-rank percentile of a sorted list."""
    return sorted_values[max(0, math.ceil(share * len(sorted_values)) - 1)]


def summarize(outs, wanted):
    """Per-layer metrics over the traced commands whose spans are at `outs`.

    Returns (metrics, absent): `metrics` maps every name in `wanted` that
    the spans define to its value; `absent` lists wrapped names or metrics
    that the code no longer has.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    outer_s = defaultdict(float)
    durations = defaultdict(list)
    counts = defaultdict(int)
    distinct = defaultdict(int)
    absent = set()
    for out in outs:
        with open(out + ".json") as fh:
            meta = json.load(fh)
        n = meta["spans"]
        arrays = [array("i"), array("i"), array("d"), array("d")]
        with open(out + ".spans", "rb") as fh:
            for arr in arrays:
                arr.fromfile(fh, n)
        span_key, parent, start, end = arrays
        keys = meta["keys"]
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        want_outer = {k for k in set(keys) if f"{k}.s" in wanted}
        want_pct = {k for k in set(keys) if f"{k}.p50_us" in wanted or f"{k}.p99_us" in wanted}
        for i in range(n):
            key = keys[span_key[i]]
            calls[key] += 1
            self_s[key] += dur[i] - child[i]
            if key in want_pct:
                durations[key].append(dur[i])
            if key in want_outer:
                a = parent[i]
                while a >= 0 and keys[span_key[a]] != key:
                    a = parent[a]
                if a < 0:
                    outer_s[key] += dur[i]
        for key in keys:
            calls[key] += 0
        for k, v in meta["counts"].items():
            counts[k] += v
        for k, v in meta["distinct"].items():
            distinct[k] += v
        absent.update(meta["absent"])

    metrics = dict(counts)
    for key in calls:
        metrics[f"{key}.calls"] = calls[key]
        metrics[f"{key}.self_s"] = self_s[key]
        metrics[f"{key}.s"] = outer_s[key]
        ds = sorted(durations[key])
        metrics[f"{key}.p50_us"] = _percentile(ds, 0.50) * 1e6 if ds else 0.0
        metrics[f"{key}.p99_us"] = _percentile(ds, 0.99) * 1e6 if ds else 0.0
    for key, (metric, _) in HOOKS.items():
        if key in calls:
            metrics.setdefault(metric, 0)
    if "coset.build" in calls and "coset.canonical" in calls:
        built = counts.get("coset.pairs_built", 0)
        queried = distinct.get("coset.pairs_queried", 0)
        metrics["coset.canon_used_ratio"] = queried / built if built else 0.0
    for metric in absent:
        metrics.pop(metric, None)
    return {k: v for k, v in metrics.items() if k in wanted}, sorted(absent)


def main(argv) -> int:
    out, args = argv[0], argv[1:]
    import loopzip.cli

    rec = Recorder()
    rec.install()
    try:
        rc = loopzip.cli.main(args)
    finally:
        sys.stdout.flush()
        rec.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
