"""Read and damage a LimitOracle's integer state by point id.

Distances live in integer rows indexed by handle and pins in per-slot
columns; these helpers give tests one way in, at the oracle's scale
``o.den``.  Damage drops the envelope cache, so predicate_value and
snapshot read the damaged state, as they would on a replay of it.
"""


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
