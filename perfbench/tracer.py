"""Outside-in span tracer for the `urysohn` package.

The tracer wraps public functions of `urysohn` modules and the public
methods of `LimitOracle` from the outside; nothing under `src/` knows it
exists.  Several modules bind helpers with `from .x import f`, so a function
is replaced in every `urysohn` module namespace that holds the same object,
not only where it is defined.

Spans are kept in memory as flat lists and written out when the run ends.
Self time, inclusive time and counts are derived from the spans afterwards.
"""
from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from time import perf_counter

# Leaf functions whose whole call costs the same order as the wrapper and
# that run in innermost loops (tuple_dist once per pair of table cells in
# find_lipschitz_violation).  Wrapping them would turn their callers' time
# into tracing overhead; their cost stays in the caller's self time instead.
SKIP = {
    "engine.LimitOracle.distance",
    "engine.LimitOracle.suitable_at",
    "engine.LimitOracle.lip_index_at",
    "metric.tuple_dist",
}

# Layers that are traced.  `rationals` is a leaf of every layer (parse and
# format of single numbers) and is charged to its callers.
MODULES = (
    "cli",
    "engine",
    "relational",
    "cauchy",
    "metric",
    "product",
    "spaces",
    "lipschitz",
    "files",
    "certificates",
    "randgen",
)

# span fields, one flat list per span
NAME, START, END, PARENT, REP, FAILED, OUTER = range(7)


def _targets():
    """(span name, owner, attribute, function) for every traced callable."""
    out = []
    for short in MODULES:
        mod = sys.modules[f"urysohn.{short}"]
        if short == "cli":
            # the cmd_* handlers are reached only through main(); the cli
            # layer is main's own time (argparse, file I/O and glue)
            names = ["main"]
        else:
            names = [
                n
                for n, obj in vars(mod).items()
                if inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not n.startswith("_")
            ]
        for n in names:
            if f"{short}.{n}" not in SKIP:
                out.append((f"{short}.{n}", mod, n, getattr(mod, n)))
    oracle = sys.modules["urysohn.engine"].LimitOracle
    for n, obj in vars(oracle).items():
        if inspect.isfunction(obj) and not n.startswith("_"):
            if f"engine.LimitOracle.{n}" not in SKIP:
                out.append((f"engine.{n}", oracle, n, obj))
    return out


class Tracer:
    """Records one span per call of every wrapped function.

    `install` patches the package; `uninstall` restores every original
    binding.  Spans of one repetition share the `rep` id set by the caller.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.rep = 0
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        # predicate_value keys seen, per repetition, and the oracle of each
        # grow call in call order; the oracle objects are held so that id()
        # values stay unique within a repetition
        self.pv_keys: dict[int, set] = {}
        self.grow_oracles: dict[int, list[int]] = {}
        self.held: dict[int, object] = {}
        # table cells scanned by find_lipschitz_violation, per repetition
        self.cells: dict[int, int] = {}

    # -- patching ------------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "urysohn" or k.startswith("urysohn.")]
        for name, owner, attr, fn in _targets():
            wrapper = self._wrap(name, fn)
            if isinstance(owner, type):
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def begin(self, rep: int):
        """Start a repetition; oracles held for the previous one are released."""
        self.rep = rep
        self.held.clear()

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def _probe(self, name: str, args):
        if name == "engine.predicate_value":
            o, n, g, tup = args[:4]
            self.held[id(o)] = o
            self.pv_keys.setdefault(self.rep, set()).add((id(o), n, g, tup))
        elif name == "engine.grow":
            self.held[id(args[0])] = args[0]
            self.grow_oracles.setdefault(self.rep, []).append(id(args[0]))
        elif name == "relational.find_lipschitz_violation":
            self.cells[self.rep] = self.cells.get(self.rep, 0) + len(args[1])

    def _wrap(self, name: str, fn):
        spans, stack, active = self.spans, self._stack, self._active
        probed = name in ("engine.predicate_value", "engine.grow", "relational.find_lipschitz_violation")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probed:
                tracer._probe(name, args)
            depth = active.get(name, 0)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.rep, False, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] = depth + 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                active[name] = depth
                stack.pop()

        return wrapper

    # -- derived statistics ------------------------------------------------

    def rep_stats(self, rep: int) -> dict[str, dict]:
        """Per-function calls, self_s, total_s, fail and latencies of one rep."""
        child = {}
        for i, s in enumerate(self.spans):
            if s[REP] == rep and s[PARENT] >= 0:
                child[s[PARENT]] = child.get(s[PARENT], 0.0) + (s[END] - s[START])
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            if s[REP] != rep:
                continue
            dur = s[END] - s[START]
            st = out.setdefault(
                s[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0, "fail": 0, "lat": []}
            )
            st["calls"] += 1
            st["self_s"] += dur - child.get(i, 0.0)
            if s[OUTER]:
                st["total_s"] += dur
            st["fail"] += s[FAILED]
            st["lat"].append(dur)
        return out

    def first_oracle_grow_lat(self, rep: int) -> list[float]:
        """Latencies, in call order, of the grow calls on the first oracle
        that grows in the repetition (on profile-label, the prod+lip one)."""
        lat = self.rep_stats(rep).get("engine.grow", {}).get("lat", [])
        ids = self.grow_oracles.get(rep, [])
        return [t for t, i in zip(lat, ids) if i == ids[0]]

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent index, rep, failed."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:OUTER]) + "\n")


def late_early(latencies: list[float]) -> float:
    """Mean latency of the last quarter of calls over that of the first."""
    q = len(latencies) // 4
    if q == 0:
        return 0.0
    return statistics.fmean(latencies[-q:]) / statistics.fmean(latencies[:q])


def quantile_ms(latencies: list[float], q: float) -> float:
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1000.0
