"""Differential tests of the one-walk growth step against the two-walk one.

``LimitOracle._step`` walks each slot once, in two calls of ``_walk_slot``
that grow and grow_clamped share.  The reference (``two_walk_step_reference``)
is the step as it ran before: clamp mode walked before the row, refuse mode
after it, and a fresh slot of clamp mode was walked again in grow's order to
choose its pins.  On the draws of test_solver_step_reference and
test_grow_reference, and on clamp steps over an empty base, both must refuse
alike, in type and message; make the same ``accept`` calls; cache the same
values; and give the same predicate value at every tuple of arity <= 2 over
the final oracle, read from the pins alone.  Every grow(rel=...) step must
store the same pins, in the same order.
"""
from fractions import Fraction
from random import Random

import pytest

import test_solver_step_reference
from urysohn.cauchy import extend_one_point
from urysohn.engine import LimitOracle
from urysohn.relational import tuples_over

from oracle_state import int_pins, int_table
from test_grow_reference import damaged, random_request
from test_solver_step_reference import GRIDS, case
from two_walk_step_reference import TwoWalkOracle

F = Fraction


def recording(cls, calls):
    """``cls.grow_clamped`` with every ``accept`` call appended to ``calls``."""
    real = cls.grow_clamped

    def grow_clamped(self, base_dists, new, slots, accept):
        def seen(*args):
            calls.append(args)
            return accept(*args)
        return real(self, base_dists, new, slots, seen)
    return grow_clamped


def envelopes(o):
    """Every realized slot of arity <= 2 at every tuple over the oracle, read
    from its pins alone: the cache is emptied first."""
    o._value_cache.clear()
    return {(n, g): o.predicate_values(n, g, list(tuples_over(o.points, n)))
            for n, g in sorted(o.registry) if n <= 2}


def reads(o):
    """What the step decides, up to the choice of pins: the rows, the
    denominator, the registrations and the cached values."""
    return len(o), int_table(o), o.den, dict(o.registry), dict(o._value_cache)


def solve(cls, seed, depth, monkeypatch):
    """extend_one_point on case(seed) with ``cls`` as the oracle: the outcome
    or the refusal, the accept calls, the state and the envelopes."""
    build, target, known, depth = case(seed, GRIDS[seed % len(GRIDS)], depth)
    calls = []
    with monkeypatch.context() as mp:
        mp.setattr(test_solver_step_reference, "LimitOracle", cls)
        mp.setattr(cls, "grow_clamped", recording(cls, calls))
        o, anchors = build()
        assert type(o) is cls
        try:
            out = extend_one_point(o, anchors, target, known, depth)
        except Exception as exc:  # noqa: BLE001 - every refusal is compared
            out = (type(exc), str(exc))
    return out, calls, reads(o), envelopes(o)


@pytest.mark.parametrize("depth", [2, 3])
def test_solver_steps_match_the_two_walk_step(depth, monkeypatch):
    refused = 0
    for seed in range(40):
        new = solve(LimitOracle, seed, depth, monkeypatch)
        assert new == solve(TwoWalkOracle, seed, depth, monkeypatch), seed
        refused += isinstance(new[0], tuple)
    assert 0 < refused < 40


def outcome(o, base_dists, rel):
    """A grow(rel=...) step's refusal, or its logged pins in storage order."""
    try:
        o.grow(base_dists, rel=rel)
    except Exception as exc:  # noqa: BLE001 - every refusal is compared
        return type(exc), str(exc)
    return [(slot, list(pins.items())) for slot, pins in o.log[-1].pins.items()]


def test_grow_steps_match_the_two_walk_step():
    seen = {"accepted": 0, "refused": 0, "birth": 0, "damaged": 0}
    for seed in range(40):
        rng = Random(seed)
        o, ref = LimitOracle(), TwoWalkOracle()
        for _ in range(10):
            cached = dict(o._value_cache)
            base_dists, rel = random_request(rng, o)
            o._value_cache = cached  # the draw's own reads are not the step's
            requests = [(base_dists, rel)]
            if len(base_dists) >= 2 and rng.random() < 0.3:
                requests[:0] = [(dists, bad) for _, dists, bad in damaged(rng, base_dists, rel)]
            for dists, ext in requests:
                got = outcome(o, dists, ext)
                assert got == outcome(ref, dists, ext), seed
                assert reads(o) == reads(ref) and int_pins(o) == int_pins(ref)
                accepted = isinstance(got, list)
                seen["accepted" if accepted else "refused"] += 1
                seen["birth"] += accepted and bool(ext.birth_pins)
                seen["damaged"] += ext is not rel
        assert envelopes(o) == envelopes(ref)
        assert o.validate_state() == []
    assert min(seen.values()) >= 20, seen


def empty_base_request(rng, o):
    """A fresh unary and a fresh binary slot born over an empty base, births
    on random old points and targets on the 1/4 grid, up to 12 on the births
    and up to 3 at the new point."""
    pts = o.points
    slots = []
    for n in (1, 2):
        born = {tuple(rng.choice(pts) for _ in range(n)): F(rng.randint(0, 48), 4)
                for _ in range(rng.randint(0, 4))}
        slots.append(((n, 1), None, born, {("g",) * n: F(rng.randint(0, 12), 4)}))
    return slots


def test_an_empty_base_clamp_step_keeps_the_gap_over_its_clamped_values():
    """No solver step has births over an empty base, but grow_clamped takes
    them: the births clamp among themselves, and the new point sits at the
    joint-embedding gap over the walked values, the clamped ones among them,
    as it did in the two-walk step.  The oracle's distances stay below 4, so
    a clamp that lowers the largest target lowers the gap."""
    lowered = 0
    for seed in range(20):
        twins = []
        for cls in (LimitOracle, TwoWalkOracle):
            rng = Random(seed)
            o = cls()
            o.grow({})
            for _ in range(rng.randint(1, 4)):
                o.grow({rng.choice(o.points): F(rng.randint(1, 4), 4)})
            calls = []
            o.grow_clamped({}, "g", empty_base_request(rng, o), lambda *args: calls.append(args))
            twins.append((calls, reads(o), envelopes(o)))
        assert twins[0] == twins[1], seed
        calls = twins[0][0]
        lowered += max(t for *_, t, _ in calls) > max(v for *_, v in calls)
    assert lowered >= 3, lowered
