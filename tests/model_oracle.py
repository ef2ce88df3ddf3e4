"""A definitional model of the limit oracle's one-point extension step.

A point adjoined over a base B, at distances e_b that are positive and
Katetov on B (|e_b - e_c| <= d(b, c) <= e_b + e_c), sits at the path rule
r(q) = min over b of e_b + d(b, q) from every earlier point q (Katetov
1988); over an empty base it sits at the joint-embedding gap, twice every
value anywhere.  A predicate slot is the Katetov envelope of its pins,
E(t) = max(0, max over pins (p, w) of w - d(p, t)) in the sum metric, and a
value once realized never changes.  Each value a step walks must lie in the
Katetov window [max(0, max of w - d), min of w + d] over the slot's stored
pins and the entries walked before it: ``grow`` refuses one outside it and
``grow_clamped`` moves it in.  An entry above the low end of its window is a
pin.  Profiles and labels are checked pairwise against every earlier point.

Distances are Fractions in one dict and pins one dict per slot, scanned in
full.  A refusal is a ``Refused`` whose first arg, its kind, names the
check that made it, in the order every step checks: ``shape`` (a replayed
record's id and distance keys), ``base``, ``payload``, ``slots`` (the
extension, the slot map, births and pins), ``walk``, ``row`` (profiles and
labels).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import inf, lcm
from operator import itemgetter

from urysohn.engine import GrowthResult
from urysohn.metric import jep_gap
from urysohn.relational import tuples_over, validate_pattern
from urysohn.spaces import eval_suitable, validate_suitable

ZERO = Fraction(0)


class Refused(Exception):
    """A step the model refuses, with args (kind, why): the check and why."""


def refuse_unless(ok, kind: str, why: str = ""):
    if not ok:
        raise Refused(kind, why)


class ModelOracle:
    """The oracle's public growth and read methods, from the definitions."""

    def __init__(self, modes=("rel",), compact=None, polish=None, lip_const=None):
        self.modes, self.compact, self.polish, self.lip_const = modes, compact, polish, lip_const
        self.points: list[str] = []
        self.d: dict[tuple[str, str], Fraction] = {}  # both orders of each pair
        self.pins: dict[tuple[int, int], dict[tuple[str, ...], Fraction]] = {}
        self.registry: dict[tuple[int, int], int] = {}  # slot -> the step that made it
        self.suit: dict = {}
        self.lip: dict[str, int] = {}

    def distance(self, x: str, y: str) -> Fraction:
        return ZERO if x == y else self.d[(x, y)]

    def realized_count(self, n: int) -> int:
        return sum(1 for m, _ in self.pins if m == n)

    def predicate_values(self, n: int, g: int, tups) -> list[Fraction]:
        """E(t) = max(0, max over pins (p, w) of w - d(p, t)) at each of
        ``tups``, exactly, in integers over the least common denominator of
        the distances and the pins.  The pins are scanned heaviest first: as
        d >= 0, one no heavier than the best so far cannot raise it."""
        pins = sorted(self.pins[(n, g)].items(), key=itemgetter(1), reverse=True)
        lcd = lcm(*(v.denominator for v in self.d.values()), *(w.denominator for _, w in pins))
        d = {k: v.numerator * (lcd // v.denominator) for k, v in self.d.items()}
        pins = [(p, w.numerator * (lcd // w.denominator)) for p, w in pins]
        out = []
        for t in tups:
            best = 0
            for p, w in pins:
                if w <= best:
                    break
                best = max(best, w - sum(d[xy] for xy in zip(p, t) if xy[0] != xy[1]))
            out.append(Fraction(best, lcd))
        return out

    def grow(self, base_dists, rel=None, suitable=None, lip_index=None) -> GrowthResult:
        """Walk order: per slot, sorted, a fresh slot's birth pins sorted,
        then the extension's tuples without the new point, then with it,
        each sorted."""
        e = self.check_base(dict(base_dists))
        self.check_payload(rel is not None, suitable, lip_index)
        new = f"u{len(self.points) + 1}"
        slots = [] if rel is None else self.extension(rel, e, new)
        return self.step(e, new, slots, suitable, lip_index)

    def grow_clamped(self, base_dists, new, slots, accept) -> GrowthResult:
        """Walk order: per slot, as listed, its births in the order given,
        then the tuples over the base and ``new`` sorted by (new in t, t);
        a fresh slot's births must hold its base tuples."""
        e = self.check_base(dict(base_dists))
        self.check_payload(True, None, None)
        refuse_unless(new not in self.points, "slots", "the new point is an oracle point")
        steps = []
        for slot, g, born, want in slots:
            tups = sorted(tuples_over((*e, new), slot[0]), key=lambda t: (new in t, t))
            refuse_unless(g is not None or all(t in born for t in tups if new not in t),
                          "slots", "a fresh slot lacks a base tuple")
            steps.append((slot, g, list(born.items()),
                          [(t, want[t] if new in t else None) for t in tups]))
        return self.step(e, new, steps, accept=accept)

    def check_base(self, e: dict) -> dict:
        refuse_unless(all(p in self.points for p in e), "base", "a point outside the oracle")
        refuse_unless(all(v > 0 for v in e.values()), "base", "a distance that is not positive")
        for p, q in combinations(e, 2):
            refuse_unless(abs(e[p] - e[q]) <= self.d[(p, q)] <= e[p] + e[q], "base", "not Katetov")
        return e

    def check_payload(self, rel: bool, suitable, lip_index):
        refuse_unless(("prod" in self.modes) == (suitable is not None), "payload", "profile")
        refuse_unless(("lip" in self.modes) == (lip_index is not None), "payload", "label")
        refuse_unless(not rel or "rel" in self.modes, "payload", "predicates")
        refuse_unless(suitable is None or not validate_suitable(suitable, self.compact),
                      "payload", "profile invalid")
        refuse_unless(lip_index is None or 1 <= lip_index <= self.polish.size, "payload", "label")

    def extension(self, rel, e, new) -> list[tuple]:
        """A RelExtension's walk lists, once it is the base plus one point
        at the request's distances, with a slot map of its slots and birth
        pins only on its slots."""
        ext, bm = rel.ext, rel.base_map
        xs = [p for p in ext.points if p not in bm]
        refuse_unless(not validate_pattern(ext) and len(xs) == 1
                      and len(set(ext.points)) == len(ext.points)
                      and sorted(bm.values()) == sorted(e), "slots", "not the base plus one point")
        want = {(p, q): self.distance(bm[p], bm[q]) for p in bm for q in bm if p != q}
        want.update(kv for p in bm for kv in (((xs[0], p), e[bm[p]]), ((p, xs[0]), e[bm[p]])))
        refuse_unless(all(ext.metric.table.get(k) == v for k, v in want.items()),
                      "slots", "the extension's distances are not the request's")
        refuse_unless(set(rel.slot_map) == set(ext.slots()), "slots", "not the extension's slots")
        refuse_unless(set(rel.birth_pins) <= set(rel.slot_map), "slots", "births off the slots")
        trans = {**bm, xs[0]: new}
        return [(s, rel.slot_map[s], sorted(rel.birth_pins.get(s, {}).items()),
                 [(tuple(map(trans.get, t)), ext.pred[(*s, t)])
                  for t in sorted(tuples_over(ext.points, s[0]), key=lambda t: (xs[0] in t, t))])
                for s in sorted(ext.slots())]

    def path_row(self, e: dict) -> dict:
        """r(q) = min over b of e_b + d(b, q); empty for an empty base."""
        return {q: min(v + self.distance(b, q) for b, v in e.items())
                for q in self.points} if e else {}

    def step(self, e, new, slots, suitable=None, lip_index=None, accept=None) -> GrowthResult:
        """Births only on a fresh slot, at its arity and on oracle points; a
        realized slot at most once, and a fresh one at the next free index g
        of its arity n, g <= len + 2 - n; then the walk, the row, the commit."""
        assign, count = {}, {}
        for slot, g, born, _ in sorted(slots, key=itemgetter(0)):
            n = slot[0]
            refuse_unless(not born or g is None, "slots", "births on a realized slot")
            refuse_unless(all(len(t) == n and set(t) <= set(self.points) for t, _ in born),
                          "slots", "a birth off the oracle")
            if g is None:
                count[n] = g = count.get(n, self.realized_count(n)) + 1
                refuse_unless(g <= len(self.points) + 2 - n, "slots", "no room for a fresh slot")
            else:
                refuse_unless((n, g) in self.pins, "slots", "slot not realized")
            refuse_unless((n, g) not in assign.values(), "slots", "slot taken twice")
            assign[slot] = (n, g)
        row = self.path_row(e)  # empty for an empty base: infinitely far while walking

        def d(x, y):
            if x == y:
                return ZERO
            if new in (x, y):
                return row.get(y if x == new else x, inf)
            return self.d[(x, y)]

        added, values = {}, []
        for slot, g, born, tups in slots:
            stored, done, pins = self.pins.get(assign[slot], {}), {}, {}
            for i, (t, v) in enumerate(born + tups):
                if i >= len(born) and new not in t and (t in done or g is not None):
                    val = done[t] if t in done else self.predicate_values(*assign[slot], [t])[0]
                    refuse_unless(v is None or v == val, "walk", "a realized value moved")
                else:
                    seen = [*stored.items(), *done.items()]
                    lo = max([ZERO] + [w - sum(map(d, p, t)) for p, w in seen])
                    hi = min([w + sum(map(d, p, t)) for p, w in seen], default=inf)
                    refuse_unless(accept is not None or lo <= v <= hi, "walk", "outside its window")
                    val = min(max(v, lo), hi)
                    if accept is not None:
                        accept(slot, t, v, val)
                    if val > lo:
                        pins[t] = val
                done[t] = val
            values += done.values()
            added[assign[slot]] = pins
        if not e and self.points:
            values += [*self.d.values(), *(w for p in self.pins.values() for w in p.values()),
                       *(f.max_value() for f in [*self.suit.values(), suitable] if f is not None)]
            if lip_index is not None:
                values += (self.polish.d_idx(lip_index, i) / self.lip_const
                           for i in self.lip.values())
            row = dict.fromkeys(self.points, jep_gap(values))
        fresh = [assign[slot] for slot, g, _, _ in slots if g is None]
        name = self.commit(row, fresh, added, suitable, lip_index, new)
        return GrowthResult(name, {s: g for s, (_, g) in assign.items()})

    def commit(self, row, fresh, added, suitable, lip_index, new=None) -> str:
        """Adjoin u<N> at ``row`` once its profile and label pass against
        every earlier point; ``new`` is its name in ``added``."""
        k, name = self.compact, f"u{len(self.points) + 1}"
        for u, f in self.suit.items():
            refuse_unless(all(abs(eval_suitable(suitable, i, k) - eval_suitable(f, i, k)) <= row[u]
                              for i in range(1, k.size + 1)), "row", "profile too far")
        for u, i in self.lip.items():
            refuse_unless(self.polish.d_idx(lip_index, i) <= self.lip_const * row[u],
                          "row", "label too far")
        for q, r in row.items():
            self.d[(name, q)] = self.d[(q, name)] = r
        self.points.append(name)
        for key in fresh:
            self.pins[key], self.registry[key] = {}, len(self.points)
        for key, pins in added.items():
            self.pins[key].update((tuple(name if p == new else p for p in t), v)
                                  for t, v in pins.items())
        if suitable is not None:
            self.suit[name] = suitable
        if lip_index is not None:
            self.lip[name] = lip_index
        return name

    def replay_record(self, rec):
        """Adjoin a logged step once grow could have made it: the id u<N>,
        the distances to every earlier point or to a nonempty base, checked
        as a request, the payloads, fresh slots at the next free indices,
        and pins on slots and points of the step, on a slot realized before
        it only through the new point.  Pin values are stored as logged."""
        refuse_unless(rec.point == f"u{len(self.points) + 1}", "shape", "not the id grow gives")
        keys = rec.base if rec.base is not None else self.points
        refuse_unless((rec.base is None or rec.base) and set(rec.dists) >= set(keys)
                      and (rec.base is not None or set(rec.dists) == set(keys)),
                      "shape", "distances not over the base")
        e = self.check_base({p: rec.dists[p] for p in keys})
        self.check_payload(bool(rec.pins or rec.fresh), rec.suitable, rec.lip_index)
        fresh = list(rec.fresh)
        for i, (n, g) in enumerate(fresh):
            want = self.realized_count(n) + sum(1 for m, _ in fresh[:i] if m == n) + 1
            refuse_unless(g == want <= len(self.points) + 2 - n, "slots", "not the next free index")
        for (n, g), delta in rec.pins.items():
            for t in delta:
                refuse_unless((n, g) in self.pins or (n, g) in fresh, "slots", "unregistered slot")
                refuse_unless(len(t) == n and set(t) <= {*self.points, rec.point}, "slots", "pin")
                refuse_unless((n, g) in fresh or rec.point in t, "slots", "an old realized value")
        self.commit(self.path_row(e), fresh, rec.pins, rec.suitable, rec.lip_index)
