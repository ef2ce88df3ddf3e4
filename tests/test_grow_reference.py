"""Tests of LimitOracle.grow against the definitional model, of its state
on a refusal, of the envelope gather and of the path-rule row.

Random rel requests, intact and damaged, are decided by the engine as by
``model_oracle.ModelOracle``, which checks each whole from the definitions:
the same accept or refuse and the same kind of fault, and the same reads
after.  A refused request leaves the oracle unchanged, its denominator too;
predicate_value's row gather gives the low end of the Katetov window over a
(str, str) table of the same integers; and the distance row of a request is
the old per-point scan's.
"""
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from urysohn.engine import LimitOracle, OracleGrowthError, RelExtension, ScaledDists
from urysohn.metric import MetricTableError, _katetov_window, fin_metric
from urysohn.rationals import scaled
from urysohn.relational import IndexedStructure, pattern_indices

from model_oracle import ModelOracle
from oracle_state import int_pins, int_table
from random_structures import damaged, grown_rel_oracle, random_request
from test_model_oracle import fault, outcome, same_reads, twin

F = Fraction


WALK_FAULTS = {
    "fresh slot inconsistent": "born inconsistent",
    "realized undershoot": "undershoots the envelope",
    "realized overshoot": "overshoots the ceiling",
    "base disagreement": "disagrees on base",
}


def decide(o, m, base_dists, rel):
    """grow on the engine and on the model, which must decide alike: None,
    or the words of the engine's refusal."""
    want = outcome(m.grow, base_dists, rel)
    try:
        got = o.grow(base_dists, rel=rel)
    except (OracleGrowthError, MetricTableError) as exc:
        assert want == ("refused", fault(exc)), str(exc)
        return str(exc)
    assert got == want
    return None


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_grow_matches_whole_oracle_reference(seed):
    """Random rel requests among plain grows, on the engine and the model."""
    rng = Random(seed)
    o, m = LimitOracle(), ModelOracle()
    for _ in range(10):
        if o.points and rng.random() < 0.2:
            twin(o, m, "grow", {rng.choice(o.points): F(rng.randint(1, 6), 2)})
            continue
        twin(o, m, "grow", *random_request(rng, o))
    same_reads(o, m)
    assert o.validate_state() == []


def test_reference_sees_accepted_and_refused_requests():
    """The random requests reach every branch the differential test needs,
    and every refusal grow's refuse-mode walk can make, each decided as the
    model decides it."""
    seen = dict.fromkeys(["accepted", "refused", "realized", "birth", "empty base"], 0)
    seen.update(dict.fromkeys(WALK_FAULTS, 0))
    for seed in range(40):
        rng = Random(seed)
        o, m = LimitOracle(), ModelOracle()
        for _ in range(10):
            base_dists, rel = random_request(rng, o)
            refusal = decide(o, m, base_dists, rel)
            if refusal is None:
                seen["accepted"] += 1
                seen["realized"] += any(g is not None for g in rel.slot_map.values())
                seen["birth"] += bool(rel.birth_pins)
                seen["empty base"] += not base_dists
                continue
            seen["refused"] += 1
            # a fresh slot's faults all read "born inconsistent" first
            kind = next((k for k, text in WALK_FAULTS.items() if text in refusal), None)
            if kind is not None:
                seen[kind] += 1
        same_reads(o, m)
    assert all(count >= 5 for count in seen.values()), seen


def test_grow_refuses_damaged_extensions_as_the_full_metric_check_did():
    """The model checks the extension's metric whole.  Each request over two
    base points or more is sent with every fault of ``damaged`` in turn,
    then intact, to the engine and the model grown alike: each is decided
    alike, and each fault is refused."""
    refused = {}  # fault -> refusals of a request whose intact form was accepted
    for seed in range(20):
        rng = Random(seed)
        o, m = LimitOracle(), ModelOracle()
        for _ in range(4):
            twin(o, m, "grow", *random_request(rng, o))
        for _ in range(8):
            base_dists, rel = random_request(rng, o)
            if len(base_dists) < 2:
                continue
            outcomes = [(kind, twin(o, m, "grow", dists, bad))
                        for kind, dists, bad in damaged(rng, base_dists, rel)]
            if not isinstance(twin(o, m, "grow", base_dists, rel), tuple):
                for kind, got in outcomes:
                    refused[kind] = refused.get(kind, 0) + isinstance(got, tuple)
        same_reads(o, m)
    assert len(refused) == 11 and min(refused.values()) >= 5, refused


def state_of(o):
    return (
        list(o.points),
        int_table(o),
        int_pins(o),
        o.den,
        dict(o.registry),
        dict(o._counts),
        len(o.log),
    )


def test_refused_grow_keeps_denominator_and_state():
    o = LimitOracle()
    o.grow({})
    o.grow({"u1": F(1)})
    before = state_of(o)
    # a fresh slot pinned at 5 on u2 cannot sit at 0 on a point 8/7 away;
    # the request's sevenths would have rescaled the oracle
    ext = IndexedStructure(
        fin_metric(["b", "x"], {("b", "x"): F(1, 7)}),
        1,
        pattern_indices(1),
        {(1, 1, ("b",)): F(0), (1, 1, ("x",)): F(0)},
    )
    rel = RelExtension(ext, {"b": "u1"}, {(1, 1): None}, {(1, 1): {("u2",): F(5)}})
    with pytest.raises(OracleGrowthError, match="born inconsistent"):
        o.grow({"u1": F(1, 7)}, rel=rel)
    assert state_of(o) == before
    assert o.den == 1


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_predicate_gather_matches_the_pruned_envelope(seed):
    """predicate_value's row gather against the low end of
    metric._katetov_window over a (str, str) table of the same integers, on
    pins and on random tuples."""
    rng = Random(seed)
    o = grown_rel_oracle(rng, 10)
    table = int_table(o)
    o._value_cache.clear()
    for (n, g), pins in int_pins(o).items():
        tups = list(pins) + [tuple(rng.choice(o.points) for _ in range(n)) for _ in range(6)]
        for tup in tups:
            want = F(_katetov_window(pins.items(), tup, table)[0], o.den)
            assert o.predicate_value(n, g, tup) == want


def reference_row(o, base_dists, gap, den):
    """The new distance row by the old per-point scan over a (str, str) table."""
    row = {p: scaled(e, den) for p, e in base_dists.items()}
    if gap is not None:
        for q in o.points:
            row[q] = scaled(gap, den)
    table, factor = int_table(o), den // o.den
    via = list(row.items())
    for q in o.points:
        if q not in row:
            row[q] = min([e + table[(p, q)] * factor for p, e in via])
    return [row[q] for q in o.points]


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_extended_row_matches_the_per_point_scan(seed):
    """The map(min) row against the old scan: feasible bases, empty bases
    with and without earlier points, and denominators that rescale."""
    rng = Random(seed)
    o = grown_rel_oracle(rng, rng.randint(0, 6))
    for _ in range(6):
        base = {}
        if o.points and rng.random() < 0.8:
            c, r = rng.choice(o.points), F(rng.randint(1, 8), rng.choice([1, 2, 3, 4]))
            for b in rng.sample(o.points, rng.randint(1, min(3, len(o)))):
                base[b] = o.distance(c, b) + r
        gap = o._gap((), None, None) if not base and o.points else None
        incoming = list(base.values()) + [gap or F(0), F(1, rng.choice([1, 3, 5]))]
        den = o._den_with({v.denominator for v in incoming})
        assert o._extended_row(ScaledDists.of(base), gap, den) == reference_row(o, base, gap, den)
        o.grow(base)


def test_extended_row_of_an_empty_base():
    o = LimitOracle()
    assert o._extended_row(ScaledDists.of({}), None, 1) == []
    o.grow({})
    o.grow({"u1": F(1, 2)})
    gap = o._gap((), None, None)
    assert gap == 1
    assert o._extended_row(ScaledDists.of({}), gap, 2) == reference_row(o, {}, gap, 2) == [2, 2]
