"""Differential tests of the rel solver step against the step before it.

``LimitOracle.grow_clamped`` clamps each target into its Katetov window in
the walk that decides the step's pins, and the solver keeps only its
deviation accounting.  The reference (``solver_step_reference``) clamps in
the solver, builds a RelExtension and grows the oracle with
``grow(rel=...)``.  Both must give the same point ids, slot registrations,
StepValues, checks, ORACLE log bytes and value-cache keys, on realized and
fresh slots with birth pins at depth >= 2, sparse index sets, arity bounds
0 to 2 and targets on grids from 1/8 to 1/1024, and refuse the same input
with the same exception and message.  A step the deviation bound refuses
must leave the oracle as it was.
"""
from dataclasses import fields
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from urysohn import cauchy
from urysohn.cauchy import SandwichInfeasible, embed_structure, extend_one_point, required_depth
from urysohn.engine import LimitOracle, OracleGrowthError, RelExtension
from urysohn.files import oracle_file, serialize_structure
from urysohn.metric import fin_metric
from urysohn.randgen import _random_row, random_metric, random_table
from urysohn.relational import IndexedStructure, indexed_structure, tuples_over

from solver_step_reference import reference_extend_one_point

F = Fraction
GRIDS = (8, 16, 64, 256, 1024)


def sparse_bark(rng, n_points, pden):
    """Random structure of bound 0..2, index sets drawn from 1..9, metric
    on the 1/8 grid and predicate values on the 1/pden grid."""
    ids = [f"x{i}" for i in range(1, n_points + 1)]
    metric = random_metric(rng, ids)
    bound = rng.randint(0, min(2, n_points))
    indices = {n: tuple(sorted(rng.sample(range(1, 10), bound + 1 - n)))
               for n in range(1, bound + 1)}
    pred = {}
    for n, ms in indices.items():
        for m in ms:
            table = random_table(rng, metric, n, den=pden, hi=2 * pden)
            pred.update(((n, m, t), v) for t, v in table.items())
    return IndexedStructure(metric, bound, indices, pred)


def extension(rng, x, pden):
    """x plus one point; a raised bound brings one new slot per arity, at a
    sparse index above the old ones."""
    pts = list(x.points)
    entries = {(a, b): x.metric.d(a, b) for a, b in x.metric.pairs()}
    entries.update({(a, "xn"): v for a, v in _random_row(rng, pts, x.metric.d).items()})
    metric = fin_metric(pts + ["xn"], entries)
    bound = min(x.bound + 1, 2) if rng.random() < 0.5 else x.bound
    indices = {}
    for n in range(1, bound + 1):
        ms = list(x.indices.get(n, ()))
        while len(ms) < bound + 1 - n:
            ms.append(max(ms, default=0) + rng.randint(1, 3))
        indices[n] = tuple(ms)
    pred = {}
    for n, ms in indices.items():
        for m in ms:
            base = ({t: x.pred[(n, m, t)] for t in tuples_over(x.points, n)}
                    if m in x.indices.get(n, ()) else {})
            table = random_table(rng, metric, n, base, den=pden, hi=2 * pden)
            pred.update(((n, m, t), v) for t, v in table.items())
    return IndexedStructure(metric, bound, indices, pred)


def case(seed, pden, depth):
    """An embedded x, a one-point extension of it and a random part of x's
    registrations as known: a function that makes fresh oracles and
    anchors, the target, the known slots and the depth.  In 30% of the
    cases with predicates the oracle holds x's values raised by a constant,
    still 1-Lipschitz, so the target disagrees with the realized base
    tuples: clamps move values and may break the deviation bound."""
    rng = Random(seed)
    x = sparse_bark(rng, rng.randint(1, 2), pden)
    target = extension(rng, x, pden)
    anchor_depth = required_depth(len(target), depth)
    registered = embed_structure(LimitOracle(), x, anchor_depth).slot_globals
    known = {s: g for s, g in registered.items() if s in target.slots() and rng.random() < 0.7}
    realized = x
    if x.bound and rng.random() < 0.3:
        c = F(rng.choice([1, 8, 16]), 4)
        realized = IndexedStructure(x.metric, x.bound, x.indices,
                                    {key: v + c for key, v in x.pred.items()})

    def build():
        o = LimitOracle()
        return o, list(embed_structure(o, realized, anchor_depth).points)

    return build, target, known, depth


def log_bytes(o):
    return serialize_structure("ORACLE", oracle_file(o))


def run(solver, build, *args):
    """What ``solver`` does on a fresh oracle: the outcome's fields (point,
    checks, slot registrations and StepValues), the log bytes, the registry
    and the value-cache keys; or, when it refuses, the exception, the log
    and the registry."""
    o, anchors = build()
    try:
        out = solver(o, anchors, *args)
    except Exception as exc:  # noqa: BLE001 - every refusal is compared
        return (type(exc), str(exc), log_bytes(o), dict(o.registry))
    return ({f.name: getattr(out, f.name) for f in fields(out)}, list(out.slot_globals.items()),
            log_bytes(o), dict(o.registry), sorted(o._value_cache))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pden=st.sampled_from(GRIDS), depth=st.integers(2, 3))
def test_the_clamped_step_matches_the_reference(seed, pden, depth):
    build, target, known, depth = case(seed, pden, depth)
    new = run(extend_one_point, build, target, known, depth)
    assert new == run(reference_extend_one_point, build, target, known, depth)


def test_the_cases_cover_births_slot_mixes_and_sparse_index_sets():
    shapes = set()
    for seed in range(40):
        build, target, known, depth = case(seed, GRIDS[seed % len(GRIDS)], 2)
        slots = target.slots()
        sparse = any(ms != tuple(range(1, len(ms) + 1)) for ms in target.indices.values())
        births = len(target) > 1 and len(known) < len(slots)
        shapes.add((target.bound, sparse, births, bool(known)))
        new = run(extend_one_point, build, target, known, depth)
        assert new == run(reference_extend_one_point, build, target, known, depth)
    assert {b for b, *_ in shapes} == {0, 1, 2}
    assert any(sparse for _, sparse, _, _ in shapes)
    # a fresh slot born along the anchors beside a realized one
    assert any(births and realized for _, _, births, realized in shapes)


def test_the_cases_cover_moved_values_and_deviation_refusals():
    """The clamped step's draws reach the deviation accounting's other
    branch: values the clamp moves off their targets, within the bound, and
    steps the bound refuses, both as the reference decides them."""
    moved = refused = 0
    for seed in range(40):
        build, target, known, depth = case(seed, GRIDS[seed % len(GRIDS)], 2 + seed % 2)
        new = run(extend_one_point, build, target, known, depth)
        assert new == run(reference_extend_one_point, build, target, known, depth)
        if new[0] is SandwichInfeasible and "deviates by" in new[1]:
            refused += 1
        elif not isinstance(new[0], type):
            moved += sum(sv.value != sv.target for sv in new[0]["values"])
    assert moved >= 10 and refused >= 1, (moved, refused)


@pytest.mark.parametrize("seed", range(4))
def test_embed_structure_matches_with_the_reference_step(seed, monkeypatch):
    rng = Random(200 + seed)
    x = sparse_bark(rng, 3, GRIDS[seed])

    def embed(o, anchors):
        return embed_structure(o, x, 2)

    def build():
        return LimitOracle(), []

    new = run(embed, build)
    monkeypatch.setattr(cauchy, "extend_one_point", reference_extend_one_point)
    assert new == run(embed, build)
    assert not isinstance(new[0], type), new


def state(o):
    return len(o), o.den, list(o.log), dict(o.registry), list(o._value_cache.items())


def test_a_step_the_deviation_bound_refuses_writes_nothing(monkeypatch):
    """x1 is realized with value 0 on a slot the target reads as 1 at both
    of its points, 1/8 apart.  Level 1 clamps the new value to its ceiling
    1/4, within the bound 3/2; level 2 reaches only 3/16, beyond the bound
    3/4, and is refused in the same words by both steps.  The cache is
    emptied after each commit, so the refused step's envelope reads miss:
    the reference's step caches them before it refuses, and grow_clamped
    leaves the oracle as the committed level-1 step left it."""
    x = indexed_structure(fin_metric(["x1"], {}), 1, {(1, 1, ("x1",)): F(0)})
    target = indexed_structure(fin_metric(["x1", "x2"], {("x1", "x2"): F(1, 8)}), 1,
                               {(1, 1, ("x1",)): F(1), (1, 1, ("x2",)): F(1)})
    outcomes = []
    for solver, method in ((extend_one_point, "grow_clamped"),
                           (reference_extend_one_point, "grow")):
        o = LimitOracle()
        realized = embed_structure(o, x, required_depth(2, 2))
        calls, after = [], []
        real = getattr(LimitOracle, method)

        def spy(self, *args, real=real, calls=calls, after=after, **kwargs):
            calls.append(state(self))
            result = real(self, *args, **kwargs)
            self._value_cache.clear()
            after.append(state(self))
            return result

        monkeypatch.setattr(LimitOracle, method, spy)
        with pytest.raises(SandwichInfeasible, match=r"clamp at level 2, slot \(1,1\)") as exc:
            solver(o, list(realized.points), target, dict(realized.slot_globals), 2)
        monkeypatch.undo()
        assert len(after) == 1 and after[0][4] == []
        outcomes.append((str(exc.value), len(calls), state(o) == after[0]))
    assert outcomes[0][0] == outcomes[1][0]
    assert outcomes[0][1:] == (2, True)
    assert outcomes[1][1:] == (1, False)


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
