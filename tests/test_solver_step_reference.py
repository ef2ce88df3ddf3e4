"""Tests of the rel solver step: ``LimitOracle.grow_clamped`` clamps each
target into its Katetov window in the walk that decides the step's pins,
and the solver keeps only its deviation accounting.

A step the deviation bound refuses leaves the oracle as it was, a value
clamped to its bound passes and one unit beyond is refused, a fresh slot
keeps the pins of its one walk, and grow_clamped refuses a new point name
the oracle has and a fresh slot whose births omit a base tuple.  The
solver's fixed cases reach births beside realized slots, sparse index
sets, moved values and deviation refusals; ``test_model_oracle`` and
``test_one_walk_step`` hold the step to its definitional model on them.
"""
from fractions import Fraction

import pytest

from urysohn import cauchy
from urysohn.cauchy import (
    SandwichInfeasible,
    SolverError,
    embed_structure,
    extend_one_point,
    required_depth,
)
from urysohn.engine import LimitOracle, OracleGrowthError, RelExtension
from urysohn.metric import fin_metric
from urysohn.relational import indexed_structure

from random_structures import GRIDS, case

F = Fraction


def test_the_cases_cover_births_slot_mixes_and_sparse_index_sets():
    shapes = set()
    for seed in range(40):
        _, target, known, _ = case(seed, GRIDS[seed % len(GRIDS)], 2)
        sparse = any(ms != tuple(range(1, len(ms) + 1)) for ms in target.indices.values())
        births = len(target) > 1 and len(known) < len(target.slots())
        shapes.add((target.bound, sparse, births, bool(known)))
    assert {b for b, *_ in shapes} == {0, 1, 2}
    assert any(sparse for _, sparse, _, _ in shapes)
    # a fresh slot born along the anchors beside a realized one
    assert any(births and realized for _, _, births, realized in shapes)


def test_the_cases_cover_moved_values_and_deviation_refusals():
    """The solver's cases reach the deviation accounting's other branch:
    values the clamp moves off their targets, within the bound, and steps
    the bound refuses."""
    moved = refused = 0
    for seed in range(40):
        build, target, known, depth = case(seed, GRIDS[seed % len(GRIDS)], 2 + seed % 2)
        o, anchors = build()
        try:
            out = extend_one_point(o, anchors, target, known, depth)
        except (SandwichInfeasible, SolverError) as exc:
            refused += "deviates by" in str(exc)
            continue
        moved += sum(sv.value != sv.target for sv in out.values)
    assert moved >= 10 and refused >= 1, (moved, refused)


def state(o):
    return len(o), o.den, list(o.log), dict(o.registry), list(o._value_cache.items())


def test_a_step_the_deviation_bound_refuses_writes_nothing(monkeypatch):
    """x1 is realized with value 0 on a slot the target reads as 1 at both
    of its points, 1/8 apart.  Level 1 clamps the new value to its ceiling
    1/4, within the bound 3/2; level 2 reaches only 3/16, beyond the bound
    3/4, and is refused.  The cache is emptied after each commit, so the
    refused step's envelope reads miss: grow_clamped leaves the oracle as
    the committed level-1 step left it, with nothing cached."""
    x = indexed_structure(fin_metric(["x1"], {}), 1, {(1, 1, ("x1",)): F(0)})
    target = indexed_structure(fin_metric(["x1", "x2"], {("x1", "x2"): F(1, 8)}), 1,
                               {(1, 1, ("x1",)): F(1), (1, 1, ("x2",)): F(1)})
    o = LimitOracle()
    realized = embed_structure(o, x, required_depth(2, 2))
    calls, after = [], []
    real = LimitOracle.grow_clamped

    def spy(self, *args, **kwargs):
        calls.append(state(self))
        result = real(self, *args, **kwargs)
        self._value_cache.clear()
        after.append(state(self))
        return result

    monkeypatch.setattr(LimitOracle, "grow_clamped", spy)
    with pytest.raises(SandwichInfeasible, match=r"clamp at level 2, slot \(1,1\)"):
        extend_one_point(o, list(realized.points), target, dict(realized.slot_globals), 2)
    monkeypatch.undo()
    assert len(calls) == 2 and len(after) == 1 and after[0][4] == []
    assert state(o) == after[0]


def test_a_value_clamped_to_its_bound_passes_and_one_unit_beyond_is_refused():
    """x1 is realized at 0; the target reads T at both of its points, 1/8
    apart.  Level 1 places the new point at 1/4 from x1, so the clamp takes
    T to 1/4: at T = 1/4 + 3/2 the deviation is the bound 3/2 and the step
    commits, and one unit of the oracle's scale more is refused in the
    bound's words, before anything is written."""
    x = indexed_structure(fin_metric(["x1"], {}), 1, {(1, 1, ("x1",)): F(0)})

    def attempt(value):
        target = indexed_structure(fin_metric(["x1", "x2"], {("x1", "x2"): F(1, 8)}), 1,
                                   {(1, 1, ("x1",)): value, (1, 1, ("x2",)): value})
        o = LimitOracle()
        realized = embed_structure(o, x, required_depth(2, 1))
        before = state(o)
        args = (o, list(realized.points), target, dict(realized.slot_globals), 1)
        return o, before, args

    bound = cauchy.deviation_bound(1, 1)
    o, before, args = attempt(F(1, 4) + bound)
    out = extend_one_point(*args)
    assert [sv.target - sv.value for sv in out.values] == [bound]
    assert len(o) == before[0] + 1
    unit = F(1, before[1])
    o, before, args = attempt(F(1, 4) + bound + unit)
    with pytest.raises(SandwichInfeasible) as exc:
        extend_one_point(*args)
    assert str(exc.value) == ("clamp at level 1, slot (1,1), tuple ('g',) "
                              f"deviates by {bound + unit} > {bound}")
    assert state(o) == before


def three_points():
    o = LimitOracle()
    o.grow({})
    o.grow({"u1": F(1)})
    o.grow({"u2": F(1, 2), "u1": F(1)})
    return o


def test_a_fresh_slot_keeps_the_pins_of_its_one_walk():
    """In the solver's order (u3,) forces (u2,) to the low end 1/2 of its
    window, so (u2,) is no pin.  grow walks the deeper births sorted, (u2,)
    first, and pins it.  grow_clamped keeps the pins of the walk that
    clamps, and both pin sets give the same value at every point."""
    seen = []
    o = three_points()
    born = {("u1",): F(1), ("u3",): F(1), ("u2",): F(1, 4)}
    o.grow_clamped({"u1": F(1, 2)}, "g", [((1, 1), None, born, {("g",): F(1)})],
                   lambda slot, *clamped: seen.append(clamped))
    assert seen == [(("u1",), F(1), F(1)), (("u3",), F(1), F(1)),
                    (("u2",), F(1, 4), F(1, 2)), (("g",), F(1), F(1))]
    ref = three_points()
    ext = indexed_structure(fin_metric(["u1", "g"], {("u1", "g"): F(1, 2)}), 1,
                            {(1, 1, ("u1",)): F(1), (1, 1, ("g",)): F(1)})
    ref.grow({"u1": F(1, 2)}, rel=RelExtension(ext, {"u1": "u1"}, {(1, 1): None},
                                                {(1, 1): {("u3",): F(1), ("u2",): F(1, 2)}}))
    assert o.log[-1].pins == {(1, 1): {("u1",): F(1), ("u3",): F(1), ("u4",): F(1)}}
    assert ("u2",) in ref.log[-1].pins[(1, 1)]
    tups = [(p,) for p in o.points]
    for oracle in (o, ref):
        oracle._value_cache.clear()  # read from the pins alone
    assert o.predicate_values(1, 1, tups) == ref.predicate_values(1, 1, tups) == [
        F(1), F(1, 2), F(1), F(1)]


def test_grow_clamped_refuses_a_new_point_name_the_oracle_has():
    """The walk keys distances by name, so a new point named u3 would read
    d(u1, u3) as the request's 1/2, not the oracle's 1."""
    o = three_points()
    before, seen = state(o), []
    with pytest.raises(OracleGrowthError) as exc:
        o.grow_clamped({"u1": F(1, 2)}, "u3",
                       [((1, 1), None, {("u1",): F(0), ("u3",): F(1)}, {("u3",): F(0)})],
                       lambda *clamped: seen.append(clamped))
    assert str(exc.value) == "the new point 'u3' is an oracle point"
    assert seen == [] and state(o) == before


def test_grow_clamped_refuses_a_fresh_slot_whose_births_omit_a_base_tuple():
    """A fresh slot's births hold its base tuples, at which its tuples
    through the new point are walked; births without (u1,) give that walk
    no value to read there."""
    o = LimitOracle()
    o.grow({})
    o.grow({"u1": F(1)})
    before, seen = state(o), []
    with pytest.raises(OracleGrowthError) as exc:
        o.grow_clamped({"u1": F(1, 2)}, "g", [((1, 1), None, {}, {("g",): F(1)})],
                       lambda *clamped: seen.append(clamped))
    assert str(exc.value) == "fresh slot (1, 1) has no birth at the base tuple ('u1',)"
    assert seen == [] and state(o) == before
