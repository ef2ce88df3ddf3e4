"""Read and damage a LimitOracle's integer state by point id.

Distances live in integer rows indexed by handle and pins in per-slot
columns; these helpers give tests one way in, at the oracle's scale
``o.den``.  Damage drops the envelope cache, so predicate_value and
snapshot read the damaged state, as they would on a replay of it.
``walk_clamp`` runs the oracle's clamp walk on one target of its own.
"""
from fractions import Fraction
from operator import add

from urysohn.engine import LimitOracle
from urysohn.metric import _getter
from urysohn.rationals import scaled


def int_dist(o, x, y):
    """d(x, y) * o.den as stored in x's row."""
    return o._rows[o._pos[x]][o._pos[y]]


def set_int_dist(o, x, y, v, both=True):
    """Store v as d(x, y) * o.den in x's row, and in y's row unless not ``both``."""
    o._rows[o._pos[x]][o._pos[y]] = v
    if both:
        o._rows[o._pos[y]][o._pos[x]] = v
    o._value_cache.clear()


def int_table(o):
    """Every ordered pair of distinct points -> its stored integer distance."""
    pts = o.points
    return {(x, y): int_dist(o, x, y) for x in pts for y in pts if x != y}


def int_pins(o):
    """Slot -> {point-id tuple: integer weight}, in storage order."""
    pts = o.points
    return {
        slot: {tuple(pts[h] for h in t): -w for t, w in zip(pins.tups, pins.neg)}
        for slot, pins in o._pins.items()
    }


def set_int_pin(o, slot, tup, v):
    """Pin ``tup`` of ``slot`` at v / o.den, overwriting a pin already there."""
    o._pins[slot].add(o._pos, {tup: v})
    o._value_cache.clear()


def _gather_min(rows: list[list[int]], gets: list, vals, a: tuple[int, ...]) -> int:
    """min over b of vals[b] + d(a, t_b) in the sum metric, where gets[c]
    is the getter of the c-th coordinates of the tuples t_b: one gather per
    coordinate of a, summed with ``map(add, ...)``, and one C-level ``min``.
    The per-target gather the rows kept before one batch kernel
    (``metric._katetov_gather``)."""
    out = map(add, vals, gets[0](rows[a[0]]))
    for get, i in zip(gets[1:], a[1:]):
        out = map(add, out, get(rows[i]))
    return min(out)


def full_scan_value(o, n, g, tup):
    """The envelope of slot (n, g) at ``tup`` by one row gather of every
    pin column at each coordinate of the tuple, summed, and one ``min``:
    the scan ``_Pins.low`` made for each cache miss before misses were read
    in batches, by its per-target gather.  It reads the current
    state and never the cache."""
    pins = o._pins[(n, g)]
    if not pins.neg:
        return Fraction(0)
    gets = [_getter(col) for col in zip(*pins.tups)]
    low = _gather_min(o._rows, gets, pins.neg, tuple(o._pos[p] for p in tup))
    return Fraction(max(0, -low), o.den)


def stale_cache_entries(o):
    """The cache entries a full scan of the current state does not give."""
    return {key: v for key, v in o._value_cache.items() if full_scan_value(o, *key) != v}


def walk_clamp(eps, defined, dist, tup, scale):
    """The target ``eps`` at ``tup`` clamped into the window of the integer
    values ``defined`` over the integer distances ``dist``, all at
    ``scale``, by the clamp a rel solver step runs: ``LimitOracle._walk_slot``
    in clamp mode, the ``defined`` tuples walked as known, then the target.
    Returns the value and its integer at ``scale``.

    The target is walked on twins of its points, at distance 0 from them and
    at their distances from every other point, so a target at a defined
    tuple is clamped against that tuple's value too, not read back."""
    twin = tuple(f"{p}'" for p in tup)
    ld = dict(dist)
    for p, q in zip(tup, twin):
        ld.update(((s, q), w) for (s, r), w in dist.items() if r == p)
        ld[(p, q)] = 0
    known = {t: Fraction(w, scale) for t, w in defined.items()}
    walk = [*((t, None) for t in known), (twin, eps)]
    out, _ = LimitOracle()._walk_slot((len(tup), 1), walk, known, ld, scale,
                                      accept=lambda *_: None)
    return out[-1][1], scaled(out[-1][1], scale)


def walked_keys(rel, result):
    """Cache key -> value of every entry grow's walk decides for the accepted
    request ``rel``: the extension's tuples mapped to oracle ids, and the
    birth pins."""
    trans = dict(rel.base_map)
    trans.update((p, result.point) for p in rel.ext.points if p not in rel.base_map)
    out = {}
    for (n, m, tup), v in rel.ext.pred.items():
        out[(n, result.slot_globals[(n, m)], tuple(trans[p] for p in tup))] = v
    for (n, m), pins in rel.birth_pins.items():
        for tup, v in pins.items():
            out[(n, result.slot_globals[(n, m)], tup)] = v
    return out
