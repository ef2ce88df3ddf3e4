"""Differential tests of the integer-row validators against rational references.

``validate_metric`` and ``LimitOracle.validate_state`` decide their checks on
integer rows over one common denominator and fall back to a per-pair or
per-triple loop only to name what fails.  The references below are the
all-rational loops they replaced; reports must match in full and in order,
and the same MetricTableError must be raised.

`urysohn validate LOG` decides the metric, the profiles and the labels one
record at a time, in replay, with grow's own checks, and only the pins on
the whole replayed state (``validate_state``).  Logs written in the full
form and damaged in one distance, pin value, profile or label must be
refused exactly when the rational references report on the state the log
describes, built without replay's checks: ``reference_validate_state`` for
the metric and the pins, ``validate_c`` and ``validate_l`` for profiles and
labels.  Every profile or label grow refuses, replay refuses with grow's
message.  On rel oracles, ``validate_k`` of the snapshot must pass whenever
a log validates; the converse fails, since a damaged pin leaves its
envelope 1-Lipschitz.
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
from urysohn.engine import GrowthRecord, LimitOracle, OracleGrowthError
from urysohn.files import (
    _fmt_suit,
    oracle_file,
    parse_profile_entries,
    parse_structure_file,
    replay_oracle,
    serialize_structure,
)
from urysohn.lipschitz import StructureL, validate_l
from urysohn.metric import FinMetric, MetricTableError, validate_metric
from urysohn.product import StructureC, validate_c
from urysohn.randgen import (
    compatible_profile,
    random_bark,
    random_compact,
    random_polish,
    random_wish_extension,
)
from urysohn.rationals import fmt_rat
from urysohn.relational import validate_k
from urysohn.spaces import SuitableFn, suitable

from oracle_state import int_pins, int_table, set_int_pin
from reference_log import reference_oracle_text, unchecked_replay
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
    """The metric and pin checks, in rationals, on any oracle state.

    Every pair is read both ways, every triangle is tried point by point and
    every pin is compared with a full envelope scan over its slot.  Replay
    decides the metric one record at a time and validate_state the pins.
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
    """Tamper with a few pin values, or pin a new tuple, on the oracle's own
    scale; distances are damaged in logs, which replay decides."""
    pts = o.points
    for _ in range(rng.randint(1, 3)):
        stored = int_pins(o)
        pins = [(slot, t) for slot, p in stored.items() for t in p]
        if not pins:
            return
        slot, t = rng.choice(pins)
        if rng.random() < 0.6:
            w = stored[slot][t] + rng.choice([-1, 1]) * rng.randint(1, 2 * o.den)
            set_int_pin(o, slot, t, w)
        else:
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
    """The pin perturbations leave some oracles valid and make others report."""
    seen = set()
    for seed in range(60):
        rng = Random(seed)
        o = grown_oracle(rng)
        perturb(rng, o)
        seen.add(bool(reference_validate_state(o)))
        if len(seen) == 2:
            break
    assert seen == {False, True}


# -- damaged logs: replay and validate_state against the rational references -------


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


def snapshot_reports(o):
    """validate_c and validate_l on the oracle's metric, profiles and
    labels; they report a point without a profile or a label as missing."""
    report = []
    if "prod" in o.modes:
        report += validate_c(StructureC(o.metric(), dict(o._suit)), o.compact)
    if "lip" in o.modes:
        report += validate_l(StructureL(o.metric(), dict(o._lip), o.lip_const), o.polish)
    return report


# the line each kind of damage changes: a distance moved or set to 0, a pin
# value moved, a profile or a label changed or dropped
_DAMAGED_LINE = {"dist": "gd ", "zero": "gd ", "pin": "gp ", "profile": "gsuit ",
                 "no profile": "gsuit ", "label": "gpz ", "no label": "gpz "}


def _lines_to_damage(text, kind):
    """The lines of ``text`` that ``kind`` can damage; an empty profile,
    "-", has no value to change."""
    return [i for i, line in enumerate(text.split("\n"))
            if line.startswith(_DAMAGED_LINE[kind])
            and not (kind == "profile" and line.endswith(" -"))]


def _damage_kinds(text):
    """The kinds of damage an all-gd log admits."""
    return [kind for kind in _DAMAGED_LINE if _lines_to_damage(text, kind)]


def damage_log(rng, text, kind, polish=None):
    """``text`` with one line damaged as ``kind`` says (``_DAMAGED_LINE``)."""
    lines = text.split("\n")
    i = rng.choice(_lines_to_damage(text, kind))
    head, _, last = lines[i].rpartition(" ")
    if kind.startswith("no "):
        del lines[i]
    elif kind == "zero":
        lines[i] = f"{head} 0/1"
    elif kind in ("dist", "pin"):
        v = F(last) + rng.choice([-1, 1]) * F(rng.randint(1, 6), 2)
        lines[i] = f"{head} {fmt_rat(max(F(1, 4) if kind == 'dist' else F(0), v))}"
    elif kind == "profile":
        pins = list(parse_profile_entries(last).pins)
        j = rng.randrange(len(pins))
        idx, v = pins[j]
        pins[j] = (idx, max(F(0), v + rng.choice([-1, 1]) * F(rng.randint(1, 8), 4)))
        lines[i] = f"{head} {_fmt_suit(SuitableFn(tuple(pins)))}"
    else:
        lines[i] = f"{head} {rng.randint(1, polish.size)}"
    return "\n".join(lines)


def damaged_case(seed):
    """A random rel, prod, lip or prod+lip oracle, its presentations, the
    kind of damage done, and its all-gd log so damaged."""
    rng = Random(seed)
    if seed % 4 == 0:
        o = grown_oracle(rng, steps=rng.randint(2, 10), max_arity=rng.randint(1, 3))
    else:
        o = decorated_oracle(rng, _DECORATED_MODES[seed % 4 - 1], steps=rng.randint(2, 7))
    text = reference_oracle_text(oracle_file(o))
    space = {"compact": o.compact, "polish": o.polish}
    kinds = _damage_kinds(text)
    kind = rng.choice(kinds) if kinds else None
    if kind is not None:
        text = damage_log(rng, text, kind, o.polish)
    return text, space, kind


def validate_log(text, space):
    """What `urysohn validate` decides on a log: replay's first refusal, or
    validate_state's report on the replayed oracle."""
    try:
        o = replay_oracle(parse_structure_file(text).value, **space)
    except OracleGrowthError as exc:
        return "refused", str(exc)
    return "replayed", o.validate_state()


def reference_reports(text, space):
    """The rational references on the state the log describes, built
    without replay's checks."""
    o = unchecked_replay(parse_structure_file(text).value, **space)
    return reference_validate_state(o) + snapshot_reports(o)


def _pin_report(msg):
    return msg.endswith("not reproduced by its envelope")


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_a_damaged_log_is_refused_exactly_when_the_references_report(seed):
    text, space, _ = damaged_case(seed)
    got = validate_log(text, space)
    want = reference_reports(text, space)
    if all(map(_pin_report, want)):
        # the pins are the one whole-state check: its report is the reference's
        assert got == ("replayed", want)
    else:
        assert got[0] == "refused" and got[1].startswith("step ")


# a word from each kind of report the references make on a damaged log
REPORT_KINDS = ("nonpositive", "triangle", "not reproduced", "missing profile", "profile '",
                "cross condition", "missing label", "lipschitz (")


def test_damage_reaches_every_kind_of_report():
    """Every kind of report, a clean state and both outcomes of validate are
    reached by the damaged logs of the test above."""
    kinds, outcomes = set(), set()
    for seed in range(400):
        text, space, _ = damaged_case(seed)
        want = reference_reports(text, space)
        kinds.update(k for k in REPORT_KINDS for msg in want if k in msg)
        outcomes.add((validate_log(text, space)[0], bool(want)))
    assert kinds == set(REPORT_KINDS)
    assert outcomes == {("refused", True), ("replayed", True), ("replayed", False)}


def profile_label_request(seed):
    """A prod, lip or prod+lip oracle and a request over one base point
    whose profile and label are drawn without regard to the neighbours:
    profile pins at random indices, one maybe outside the presentation, at
    random values, and a label maybe outside it; either may be left out."""
    rng = Random(seed)
    o = decorated_oracle(rng, rng.choice(_DECORATED_MODES), steps=rng.randint(1, 5))
    base = {rng.choice(o.points): F(rng.randint(1, 8), 4)}
    fn = label = None
    if o.compact is not None and rng.random() < 0.9:
        idx = rng.sample(range(o.compact.size + 2), rng.randint(1, 3))
        fn = suitable({i: F(rng.randint(0, 12), 4) for i in idx})
    if o.polish is not None and rng.random() < 0.9:
        label = rng.randint(0, o.polish.size + 1)
    return o, base, fn, label


def _payload_state(o):
    return (o.metric(), list(o.log), dict(o._suit), dict(o._lip), o.den)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_replay_refuses_each_profile_and_label_grow_refuses(seed):
    """A profile or label request, as grow takes it and as a record replay
    reads: both refuse it with one message, replay after ``step N: ``, and
    a refused record leaves the oracle as it was."""
    o, base, fn, label = profile_label_request(seed)
    copy = replay_oracle(parse_structure_file(serialize_structure("ORACLE", oracle_file(o))).value,
                         compact=o.compact, polish=o.polish)
    before = _payload_state(copy)
    rec = GrowthRecord(f"u{len(o) + 1}", base, {}, (), fn, label, tuple(base))
    try:
        o.grow(base, suitable=fn, lip_index=label)
    except OracleGrowthError as exc:
        with pytest.raises(OracleGrowthError) as replayed:
            copy.replay_record(rec)
        assert str(replayed.value) == f"step {len(o) + 1}: {exc}"
        assert _payload_state(copy) == before
    else:
        copy.replay_record(rec)
        assert _payload_state(copy) == _payload_state(o)


# a word from each refusal of a profile or a label
REFUSALS = ("requires a profile", "requires a dense index", "profile invalid",
            "too far from point", "existing profile", "outside 1..", "Lipschitz bound")


def test_profile_and_label_requests_reach_every_refusal():
    """The requests above meet each refusal grow gives, and acceptance."""
    reasons = set()
    for seed in range(300):
        o, base, fn, label = profile_label_request(seed)
        try:
            o.grow(base, suitable=fn, lip_index=label)
            reasons.add("accepted")
        except OracleGrowthError as exc:
            reasons.add(next(w for w in REFUSALS if w in str(exc)))
    assert reasons == {"accepted", *REFUSALS}


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


def damaged_rel_log(rng, o):
    """The all-gd log of ``o`` with one distance or one pin value moved."""
    text = reference_oracle_text(oracle_file(o))
    kinds = [kind for kind in _damage_kinds(text) if kind in ("dist", "pin")]
    return damage_log(rng, text, rng.choice(kinds)) if kinds else text


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_validate_state_implies_the_snapshot_passes_validate_k(seed):
    rng = Random(seed)
    o = rel_oracle(rng)
    assert o.validate_state() == validate_k(o.snapshot()) == []
    try:
        r = replay_oracle(parse_structure_file(damaged_rel_log(rng, o)).value)
    except OracleGrowthError:
        return
    if r.validate_state() == []:
        assert validate_k(r.snapshot()) == []


def test_distance_damage_makes_validate_k_report():
    """The implication above is not vacuous: validate_k does see the broken
    rows of the damaged logs that replay refuses."""
    reported = 0
    for seed in range(20):
        rng = Random(seed)
        o = grown_oracle(rng, steps=8, max_arity=1 + seed % 3)
        text = damage_log(rng, reference_oracle_text(oracle_file(o)), "dist") if len(o) > 1 else ""
        if text and validate_log(text, {})[0] == "refused":
            state = unchecked_replay(parse_structure_file(text).value)
            reported += validate_k(state.snapshot()) != []
    assert reported
