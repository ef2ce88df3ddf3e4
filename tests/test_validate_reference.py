"""Differential tests of the integer-row validators against rational references.

``validate_metric`` and ``LimitOracle.validate_state`` decide their checks on
integer rows over one common denominator and fall back to a per-pair or
per-triple loop only to name what fails.  The references below are the
all-rational loops they replaced; reports must match in full and in order,
and the same MetricTableError must be raised.

``validate_state`` is also the one decision for profiles and labels: on prod
and lip oracles it must pass exactly when ``validate_c`` and ``validate_l``
pass on the materialized snapshots.  On rel oracles, ``validate_k`` of the
snapshot must pass whenever ``validate_state`` does; the converse fails,
since a damaged pin leaves its envelope 1-Lipschitz.
"""
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from urysohn.cauchy import (
    PartialIso,
    embed_structure,
    extend_one_point,
    extend_partial_iso,
    homog_depth_plan,
)
from urysohn.engine import LimitOracle, OracleGrowthError
from urysohn.lipschitz import snapshot_lipschitz, validate_l
from urysohn.metric import FinMetric, MetricTableError, validate_metric
from urysohn.product import snapshot_product, validate_c
from urysohn.randgen import (
    compatible_profile,
    random_bark,
    random_compact,
    random_polish,
    random_wish_extension,
)
from urysohn.relational import validate_k
from urysohn.spaces import SuitableFn

from oracle_state import int_dist, int_pins, int_table, set_int_dist, set_int_pin
from test_grow_reference import random_request

F = Fraction


# -- validate_metric ------------------------------------------------------------


def reference_validate_metric(m):
    """All four axioms in rationals, pair by pair and triple by triple."""
    report = []
    for x, y in m.pairs():
        dxy = m.d(x, y)
        dyx = m.d(y, x)
        if dxy != dyx:
            report.append(f"symmetry ({x},{y}): {dxy} != {dyx}")
        if dxy < 0:
            report.append(f"negativity ({x},{y}): {dxy} < 0")
        elif dxy == 0:
            report.append(f"identity ({x},{y}): distinct points at distance 0")
    for a, b, c in _combinations3(m.points):
        for x, z, y in ((a, b, c), (a, c, b), (b, a, c)):
            if m.d(x, y) > m.d(x, z) + m.d(z, y):
                report.append(
                    f"triangle ({x},{y},{z}): {m.d(x, y)} > {m.d(x, z)} + {m.d(z, y)}"
                )
    return report


def _combinations3(pts):
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                yield pts[i], pts[j], pts[k]


def _outcome(fn, m):
    try:
        return fn(m)
    except MetricTableError as exc:
        return ("raised", str(exc))


_entry = st.builds(F, st.integers(min_value=1, max_value=24), st.sampled_from([1, 2, 3, 4, 6, 8]))


_DAMAGE = ["bump", "bump", "zero", "negative", "asym", "int", "missing"]


@st.composite
def metric_tables(draw):
    """A distance table that is usually a metric and sometimes broken.

    Points sit on a random tree-like metric (distances through a hub), so
    clean tables are common; then a few entries may be bumped (triangle
    violations), zeroed, negated, made asymmetric, written as an int, or
    deleted in one direction.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    pts = tuple(f"p{i}" for i in range(n))
    arm = {p: draw(_entry) for p in pts}
    table = {}
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            v = arm[x] + arm[y] if draw(st.booleans()) else max(arm[x], arm[y])
            table[(x, y)] = table[(y, x)] = v
    pairs = [(x, y) for i, x in enumerate(pts) for y in pts[i + 1 :]]
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if pairs else 0):
        x, y = draw(st.sampled_from(pairs))
        kind = draw(st.sampled_from(_DAMAGE))
        if kind == "bump":
            table[(x, y)] = table[(y, x)] = table.get((x, y), F(1)) + draw(_entry) * 4
        elif kind == "zero":
            table[(x, y)] = table[(y, x)] = F(0)
        elif kind == "negative":
            table[(x, y)] = table[(y, x)] = -draw(_entry)
        elif kind == "asym":
            table[(y, x)] = draw(_entry)
        elif kind == "int":
            table[(x, y)] = table[(y, x)] = draw(st.integers(min_value=0, max_value=6))
        else:
            table.pop(draw(st.sampled_from([(x, y), (y, x)])), None)
    return FinMetric(pts, table)


@given(metric_tables())
@settings(max_examples=400, deadline=None)
def test_validate_metric_matches_rational_reference(m):
    assert _outcome(validate_metric, m) == _outcome(reference_validate_metric, m)


def test_validate_metric_reports_in_reference_order():
    pts = ("a", "b", "c", "d")
    table = {}
    for x, y, v in (("a", "b", 1), ("a", "c", F(1, 2)), ("a", "d", 5), ("b", "c", 4),
                    ("b", "d", F(1, 3)), ("c", "d", 2)):
        table[(x, y)] = table[(y, x)] = F(v)
    table[("d", "c")] = 2  # int entries print as the rational would
    m = FinMetric(pts, table)
    got = validate_metric(m)
    assert got == reference_validate_metric(m)
    assert got == [
        "triangle (b,c,a): 4 > 1 + 1/2",
        "triangle (a,d,b): 5 > 1 + 1/3",
        "triangle (a,d,c): 5 > 1/2 + 2",
        "triangle (b,c,d): 4 > 1/3 + 2",
    ]


def test_validate_metric_raises_on_the_first_missing_entry():
    m = FinMetric(("a", "b", "c"), {("a", "b"): F(1), ("b", "a"): F(1), ("a", "c"): F(1)})
    with pytest.raises(MetricTableError, match=r"\('c', 'a'\)"):
        validate_metric(m)


# -- LimitOracle.validate_state -------------------------------------------------


def reference_validate_state(o):
    """The metric and pin checks of validate_state in rationals.

    Every triangle is tried point by point and every pin is compared with a
    full envelope scan over its slot.
    """
    report = []
    pts = o.points
    dd = int_table(o)
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            v = dd.get((x, y))
            if v is None or dd.get((y, x)) != v:
                report.append(f"metric: missing or asymmetric pair ({x},{y})")
            elif v <= 0:
                report.append(f"metric: nonpositive distance ({x},{y})")
    if report:
        return report

    def d(x, y):
        return F(0) if x == y else F(dd[(x, y)], o.den)

    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            for z in pts:
                if z != x and z != y and d(x, y) > d(x, z) + d(z, y):
                    report.append(f"metric: triangle ({x},{y}) via {z}")
                    break
    for step, rec in enumerate(o.log, start=1):
        for slot, delta in rec.pins.items():
            for tup in delta:
                why = o._bad_pin(step, slot, tup)
                if why:
                    report.append(why)
    if report:
        return report
    for (n, g), pins in sorted(int_pins(o).items()):
        for ptup, v in pins.items():
            env = max(
                [F(0)]
                + [F(w, o.den) - sum(d(a, b) for a, b in zip(q, ptup)) for q, w in pins.items()]
            )
            if env != F(v, o.den):
                report.append(f"slot ({n},{g}): pin at {ptup} not reproduced by its envelope")
    return report


def grown_oracle(rng, steps=10, max_arity=2):
    o = LimitOracle()
    for _ in range(steps):
        if o.points and rng.random() < 0.2:
            o.grow({rng.choice(o.points): F(rng.randint(1, 6), 2)})
            continue
        base_dists, rel = random_request(rng, o, max_arity)
        try:
            o.grow(base_dists, rel=rel)
        except OracleGrowthError:
            pass  # refused requests leave the oracle as it was
    return o


def perturb(rng, o):
    """Tamper with a few distances or pin values, on the oracle's own scale."""
    pts = o.points
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["dist", "dist", "pin", "pin", "pin", "asym", "zero", "newpin"])
        stored = int_pins(o)
        pins = [(slot, t) for slot, p in stored.items() for t in p]
        if kind in ("dist", "asym", "zero") and len(pts) > 1:
            x, y = rng.sample(pts, 2)
            v = int_dist(o, x, y)
            if kind == "dist":
                v = max(1, v + rng.choice([-1, 1]) * rng.randint(1, 3) * o.den)
                set_int_dist(o, x, y, v)
            elif kind == "asym":
                set_int_dist(o, x, y, v + 1, both=False)
            else:
                set_int_dist(o, x, y, 0)
        elif kind == "pin" and pins:
            slot, t = rng.choice(pins)
            w = stored[slot][t] + rng.choice([-1, 1]) * rng.randint(1, 2 * o.den)
            set_int_pin(o, slot, t, w)
        elif kind == "newpin" and pins:
            slot = rng.choice(pins)[0]
            t = tuple(rng.choice(pts) for _ in range(slot[0]))
            set_int_pin(o, slot, t, rng.randint(0, 3 * o.den))


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=80, deadline=None)
def test_validate_state_matches_rational_reference(seed):
    rng = Random(seed)
    o = grown_oracle(rng)
    assert o.validate_state() == reference_validate_state(o) == []
    perturb(rng, o)
    assert o.validate_state() == reference_validate_state(o)


def test_perturbed_oracles_reach_every_report():
    """The perturbations exercise each kind of report the reference makes."""
    kinds = ("asymmetric", "nonpositive", "triangle", "not reproduced")
    seen = set()
    for seed in range(60):
        rng = Random(seed)
        o = grown_oracle(rng)
        perturb(rng, o)
        for msg in reference_validate_state(o):
            seen.add(next(k for k in kinds if k in msg))
        if len(seen) == len(kinds):
            break
    assert seen == set(kinds)


# -- profiles and labels against the snapshot validators --------------------------


_DECORATED_MODES = [("prod",), ("lip",), ("prod", "lip")]


def decorated_oracle(rng, modes, steps=7):
    """A prod, lip or prod+lip oracle grown by random requests over one base point.

    Each new point sits at e from a random base point b, so it is at
    e + d(b, q) from every other q; its profile is clamped between the
    envelopes those distances admit, and its label is drawn from the indices
    that keep the Lipschitz bound (b's own label always does).
    """
    k = random_compact(rng, rng.randint(2, 4)) if "prod" in modes else None
    z = random_polish(rng, rng.randint(2, 4)) if "lip" in modes else None
    lip = rng.choice([F(1, 2), F(1), F(2)]) if z is not None else None
    o = LimitOracle(modes, compact=k, polish=z, lip_const=lip)
    for _ in range(steps):
        base = {}
        if o.points and rng.random() < 0.85:
            base = {rng.choice(o.points): F(rng.randint(1, 8), 4)}
        # with an empty base the joint-embedding gap keeps every value apart
        row = {q: e + o.distance(b, q) for b, e in base.items() for q in o.points}
        fn = label = None
        if k is not None:
            fn = compatible_profile(rng, k, [(o.suitable_at(q), d) for q, d in row.items()])
        if z is not None:
            label = rng.choice([
                i for i in range(1, z.size + 1)
                if all(z.d_idx(i, o.lip_index_at(q)) <= lip * d for q, d in row.items())
            ])
        o.grow(base, suitable=fn, lip_index=label)
    return o


def damage(rng, o, kind):
    """Perturb one distance, one profile pin or one label in place."""
    pts = o.points
    if kind == "dist":
        x, y = rng.sample(pts, 2)
        v = max(1, int_dist(o, x, y) + rng.choice([-1, 1]) * rng.randint(1, 4) * o.den)
        set_int_dist(o, x, y, v)
    elif kind == "pin":
        x = rng.choice([p for p in pts if o.suitable_at(p).pins])
        pins = list(o.suitable_at(x).pins)
        j = rng.randrange(len(pins))
        i, v = pins[j]
        pins[j] = (i, max(F(0), v + rng.choice([-1, 1]) * F(rng.randint(1, 8), 4)))
        o._suit[x] = SuitableFn(tuple(pins))
    else:
        o._lip[rng.choice(pts)] = rng.randint(1, o.polish.size)


def snapshot_reports(o):
    report = []
    if "prod" in o.modes:
        report += validate_c(snapshot_product(o), o.compact)
    if "lip" in o.modes:
        report += validate_l(snapshot_lipschitz(o), o.polish)
    return report


def _damage_kinds(o):
    kinds = ["dist"]
    if "prod" in o.modes and any(o.suitable_at(p).pins for p in o.points):
        kinds.append("pin")
    if "lip" in o.modes:
        kinds.append("label")
    return kinds


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_validate_state_decides_profiles_and_labels_like_the_snapshots(seed):
    rng = Random(seed)
    o = decorated_oracle(rng, rng.choice(_DECORATED_MODES))
    assert o.validate_state() == snapshot_reports(o) == []
    damage(rng, o, rng.choice(_damage_kinds(o)))
    assert (o.validate_state() == []) == (snapshot_reports(o) == [])


def test_damage_reaches_every_kind_of_report():
    """Each kind of damage makes both sides report on some oracle."""
    broken = set()
    for seed in range(80):
        rng = Random(seed)
        o = decorated_oracle(rng, _DECORATED_MODES[seed % 3])
        kind = rng.choice(_damage_kinds(o))
        damage(rng, o, kind)
        if o.validate_state() and snapshot_reports(o):
            broken.add(kind)
    assert broken == {"dist", "pin", "label"}


# -- predicates against validate_k of the snapshot ---------------------------------


def back_and_forth_oracle(rng, depth=3):
    """Two copies of a random one-point structure and one wish on each side,
    absorbed by one back-and-forth round, as `urysohn homog` runs it."""
    x = random_bark(rng, ["x1"], bound=1)
    o = LimitOracle()
    plan = homog_depth_plan(len(x), 1, depth)
    left = embed_structure(o, x, plan.copy_depth)
    right = embed_structure(o, x, plan.copy_depth)
    slots = {
        (n, left.slot_globals[(n, m)]): right.slot_globals[(n, m)]
        for (n, m) in left.slot_globals
    }
    wishes = []
    for side in (left, right):
        target = random_wish_extension(
            rng, o, side.points, x, side.slot_globals, plan.wish_depth, len(x) + 1
        )
        wishes.append(
            extend_one_point(o, list(side.points), target, side.slot_globals,
                             plan.wish_depth).point
        )
    extend_partial_iso(o, PartialIso(left.points, right.points, slots), [wishes[0]], [wishes[1]],
                       depth)
    return o


def rel_oracle(rng):
    """A rel oracle grown by requests of arity bound 1 to 3, birth pins among
    them, or by a back-and-forth round."""
    if rng.random() < 0.25:
        return back_and_forth_oracle(rng)
    return grown_oracle(rng, steps=8, max_arity=rng.randint(1, 3))


def damage_rel(rng, o, kind):
    """Move one distance or one pin weight, on the oracle's own scale."""
    if kind == "dist":
        x, y = rng.sample(o.points, 2)
        v = max(1, int_dist(o, x, y) + rng.choice([-1, 1]) * rng.randint(1, 3) * o.den)
        set_int_dist(o, x, y, v)
    else:
        stored = int_pins(o)
        slot, t = rng.choice([(slot, t) for slot, p in stored.items() for t in p])
        set_int_pin(o, slot, t, stored[slot][t] + rng.choice([-1, 1]) * rng.randint(1, 2 * o.den))


def _rel_damage_kinds(o):
    kinds = ["dist"] if len(o) > 1 else []
    if any(p.neg for p in o._pins.values()):
        kinds.append("pin")
    return kinds


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_validate_state_implies_the_snapshot_passes_validate_k(seed):
    rng = Random(seed)
    o = rel_oracle(rng)
    assert o.validate_state() == validate_k(o.snapshot()) == []
    kinds = _rel_damage_kinds(o)
    if kinds:
        damage_rel(rng, o, rng.choice(kinds))
    if o.validate_state() == []:
        assert validate_k(o.snapshot()) == []


def test_distance_damage_makes_validate_k_report():
    """The implication above is not vacuous: validate_k does see broken rows."""
    reported = 0
    for seed in range(20):
        rng = Random(seed)
        o = grown_oracle(rng, steps=8, max_arity=1 + seed % 3)
        if len(o) > 1:
            damage_rel(rng, o, "dist")
            reported += validate_k(o.snapshot()) != []
    assert reported
