"""The growth step as it ran with two walk phases, for the differential
tests of ``LimitOracle._step``.

``TwoWalkOracle`` is the oracle with ``grow``, ``grow_clamped``, ``_step``
and ``_walk_slot`` as they were before each slot was walked once.  Clamp
mode walked its births and targets before the row, refuse mode walked every
slot after it, and a fresh slot of clamp mode was walked a second time,
after the row, in refuse mode and in grow's order (its births off the
solver's tuples sorted first), to choose which of the same values to keep
as pins.  The method bodies are copied verbatim; everything else is the
oracle's own.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Mapping

from urysohn.engine import (
    GrowthRecord,
    GrowthResult,
    LimitOracle,
    OracleGrowthError,
    RelExtension,
    ScaledDists,
)
from urysohn.metric import _katetov_window
from urysohn.rationals import scaled
from urysohn.relational import tuples_over
from urysohn.spaces import SuitableFn


class TwoWalkOracle(LimitOracle):
    """LimitOracle with the two-walk growth step."""

    def grow(
        self,
        base_dists: Mapping[str, Fraction],
        rel: RelExtension | None = None,
        suitable: SuitableFn | None = None,
        lip_index: int | None = None,
    ) -> GrowthResult:
        """grow as it ran with two walk phases: the refuse walk after the row."""
        request = ScaledDists.of(base_dists)
        self._check_base(request)
        self._check_payload(rel is not None, suitable, lip_index)
        new, slots = f"u{len(self._points) + 1}", []
        if rel is not None:
            self._check_rel(rel, list(base_dists), base_dists)
            ext, bm = rel.ext, rel.base_map
            x = next(p for p in ext.points if p not in bm)
            trans = {**bm, x: new}
            slots = [((n, m), rel.slot_map[(n, m)], rel.birth_pins.get((n, m), {}), [
                (tuple(map(trans.get, t)), ext.pred[(n, m, t)])
                for t in sorted(tuples_over(ext.points, n), key=lambda t: (x in t, t))])
                for n, m in sorted(ext.slots())]
        return self._step(request, new, slots, suitable, lip_index)

    def grow_clamped(self, base_dists: Mapping[str, Fraction], new: str,
                     slots: list[tuple], accept) -> GrowthResult:
        """grow_clamped as it ran with two walk phases: a fresh slot walked
        again, in refuse mode and in grow's order, to decide its pins."""
        request = ScaledDists.of(base_dists)
        self._check_base(request)
        self._check_payload(True, None, None)
        if new in request.ints:
            raise OracleGrowthError(f"the new point {new!r} is a base point")
        pts = (*request.ints, new)
        return self._step(request, new, [(slot, g, born, [
            (t, want[t] if new in t else None)
            for t in sorted(tuples_over(pts, slot[0]), key=lambda t: (new in t, t))])
            for slot, g, born, want in slots], accept=accept)

    def _step(self, request: ScaledDists, new: str, slots: list[tuple], suitable=None,
              lip_index=None, accept=None) -> GrowthResult:
        """The two-walk step body: clamp mode walks before the row, refuse
        mode, and a fresh slot of clamp mode once more, after it."""
        births = {slot: born for slot, _, born, _ in slots if born}
        slot_assign, fresh = self._assign_slots({s: g for s, g, _, _ in slots}, births)
        base = list(request.ints)
        new_id = f"u{len(self._points) + 1}"
        # per slot: its oracle slot, its refuse walk's births and walk, and
        # its clamp walk's pins, None where the refuse walk decides them
        walks = []
        if accept is None:
            walks = [((slot[0], slot_assign[slot]), sorted(born.items()), walk, None)
                     for slot, _, born, walk in slots]
        else:
            olds = dict.fromkeys(chain(base, (p for b in births.values() for t in b for p in t)))
            # one scale holds every target, every oracle value and the request
            scale = lcm(self._den, request.den, *{
                v.denominator for _, _, born, walk in slots
                for v in chain(born.values(), (v for _, v in walk)) if v is not None})
            ld = self._local_dists(olds, scale // self._den, new,
                                   {p: e * (scale // request.den) for p, e in request.ints.items()})
            ren = {new: new_id}
            for slot, g, born, walk in slots:
                born, _ = self._walk_slot(slot, born.items(), {}, ld, scale, accept)
                known = dict(born)
                if g is not None:  # read in one batch, cached only after the commit
                    old = [t for t, _ in walk if new not in t]
                    known = dict(zip(old, self._envelopes(slot[0], g, old)[0]))
                out, pins = self._walk_slot(slot, walk, known, ld, scale, accept)
                walk = [(tuple(map(ren.get, t, t)), v) for t, v in out]
                if g is None:  # walked again in grow's order: the births off out first
                    listed = {t for t, _ in out}
                    walk = sorted(e for e in born if e[0] not in listed) + walk
                walks.append(((slot[0], slot_assign[slot]), [], walk, None if g is None else pins))
        values = [v for _, born, walk, _ in walks for _, v in chain(born, walk)]
        dens = {request.den, *(v.denominator for v in values)}
        gap = None
        if not base and self._points:
            gap = self._gap(values, suitable, lip_index)
            dens.add(gap.denominator)
        den = self._den_with(dens)
        row = self._extended_row(request, gap, den)
        if suitable is not None:
            self._check_suitable(suitable, row, den)
        if lip_index is not None:
            self._check_lip(lip_index, row, den)
        olds = {p for _, born, walk, pins in walks if pins is None
                for t, _ in chain(born, walk) for p in t if p != new_id}
        ld = self._local_dists(olds, den // self._den, new_id,
                               {p: row[self._pos[p]] for p in olds})
        delta, walked = {}, {}
        for (n, g), born, walk, pins in walks:
            if pins is None:
                walk, known = born + walk, {}
                if (n, g) in self._pins:  # read in one batch, cached only after the commit
                    old = [t for t, _ in walk if new_id not in t]
                    known = dict(zip(old, self._envelopes(n, g, old)[0]))
                walk, pins = self._walk_slot((n, g), walk, known, ld, den)
            if pins:
                delta[(n, g)] = dict(map(walk.__getitem__, pins))
            walked.update(((n, g, t), v) for t, v in walk)
        self._commit(GrowthRecord(new_id, {}, delta, tuple(fresh), suitable, lip_index,
                                  tuple(sorted(base)) if base else None), row, den, walked)
        return GrowthResult(new_id, slot_assign)

    def _walk_slot(self, slot, walk, known, ld, den, accept=None):
        """The window walk, pins returned as indices into the walked list."""
        entries, out, pins, where = [], [], [], "({},{})".format(*slot)
        for t, v in walk:
            if t in known:
                val = known[t]
                if v is not None and v != val:
                    raise OracleGrowthError(f"slot {where} disagrees on base tuple {t}: "
                                            f"{v} != {val}")
                lo = w = scaled(val, den)
            else:
                lo, hi = _katetov_window(entries, t, ld)
                val, w = v, scaled(v, den)
                if not lo <= w <= hi:
                    if accept is None:
                        side = (f"undershoots the envelope {Fraction(lo, den)}" if w < lo
                                else f"overshoots the ceiling {Fraction(hi, den)}")
                        fault = f"value {v} at {t} {side}"
                        raise OracleGrowthError(
                            f"{fault} of slot {where}" if slot in self._pins
                            else f"fresh slot {where} born inconsistent: {fault}")
                    w = min(max(w, lo), hi)
                    val = Fraction(w, den)
                if accept is not None:
                    accept(slot, t, v, val)
            if w > lo:
                pins.append(len(out))
            entries.append((t, w))
            out.append((t, val))
        return out, pins
