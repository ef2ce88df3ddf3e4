"""Differential tests of cauchy.extend_one_point against its reference.

The reference is the solver step as it ran before it worked in the target's
own slot indices: each step renumbers the target's slots to the initial
segments 1..bound + 1 - n, keeps a second distance table for the anchor
tails, reads a realized slot's base values into a dict of their own, and
clamps birth pins and new tuples in two copies of the same code.  Both must
give the same point ids, slot registrations, clamped values, checks and
ORACLE log bytes, on targets with sparse index sets, mixes of known and
fresh slots and arity bounds 0 to 2, and refuse the same bad input with the
same exception and message.
"""
from dataclasses import fields
from fractions import Fraction
from math import lcm
from random import Random

import pytest

from urysohn import cauchy
from urysohn.cauchy import (
    ExtensionOutcome,
    SandwichInfeasible,
    SolverError,
    StepValue,
    _check_anchors,
    _sandwich_chain,
    deviation_bound,
    embed_structure,
    extend_one_point,
    required_depth,
)
from urysohn.engine import LimitOracle, RelExtension
from urysohn.files import oracle_file, serialize_structure
from urysohn.metric import _katetov_window, fin_metric
from urysohn.randgen import random_metric, random_table
from urysohn.rationals import scaled
from urysohn.relational import (
    IndexedStructure,
    PredTable,
    pattern_indices,
    tuples_over,
    validate_k,
)

from random_structures import random_extension_bark


def _clamped(eps, defined, dist, tup, scale) -> tuple[Fraction, int]:
    """A target clamped into the window of the values ``defined``, as a solver
    step's walk clamps it; values, ``dist`` and the second result at ``scale``."""
    val = scaled(eps, scale)
    lo, hi = _katetov_window(defined.items(), tup, dist)
    v = min(max(val, lo), hi)
    return (eps if v == val else Fraction(v, scale)), v


def reference_extend_one_point(o, anchors, target, known=None, depth=6, drift_slack=0):
    known = dict(known or {})
    report = validate_k(target)
    if report:
        raise SolverError(f"target structure invalid: {report[0]}")
    k = len(target)
    _check_anchors(anchors, k, depth)
    pts = target.points
    olds, new_pt = pts[:-1], pts[-1]
    canon = {}
    for n in sorted(target.indices):
        for pos, m in enumerate(target.indices[n], start=1):
            canon[(n, m)] = (n, pos)
    for slot, g in known.items():
        if slot not in canon:
            raise SolverError(f"known slot {slot} is not a slot of the target")
        if not 1 <= g <= o.realized_count(slot[0]):
            raise SolverError(f"oracle slot ({slot[0]}, {g}) not realized")
    assigned = {canon[s]: g for s, g in known.items()}

    all_checks = []
    values = []
    pred_den = lcm(1, *{v.denominator for v in target.pred.values()})

    def step(level, avec, prev, base_dists):
        rel = None
        if target.bound > 0:
            base_pts = list(base_dists)
            temp = "g"
            assert temp not in base_pts
            entries = {
                (x, y): o.distance(x, y)
                for i, x in enumerate(base_pts)
                for y in base_pts[i + 1 :]
            }
            entries.update({(temp, p): v for p, v in base_dists.items()})
            ext_metric = fin_metric(base_pts + [temp], entries)
            scale = lcm(pred_den, o.den, *{v.denominator for v in base_dists.values()})
            ext_d = {pair: scaled(v, scale) for pair, v in ext_metric.table.items()}
            tail_d = None
            to_target = {a: olds[i] for i, a in enumerate(avec)}
            if prev:
                to_target[prev] = new_pt
            to_target[temp] = new_pt
            back = {(n, canon[(n, m)][1]): m for n, m in canon}
            pred: PredTable = {}
            birth_pins = {}
            for n in sorted(target.indices):
                for pos in range(1, target.bound + 2 - n):
                    g_known = assigned.get((n, pos))
                    orig_m = back[(n, pos)]
                    defined = {}
                    defined_i = {}
                    if g_known is None:
                        if tail_d is None:
                            tails = list(dict.fromkeys(
                                a.at(required_depth(k, lev))
                                for lev in range(1, depth + 1)
                                for a in anchors
                            ))
                            tail_d = {
                                (x, y): scaled(o.distance(x, y), scale)
                                for x in tails
                                for y in tails
                                if x != y
                            }
                        acc = {}
                        for lev in range(1, depth + 1):
                            pts_j = tuple(a.at(required_depth(k, lev)) for a in anchors)
                            proj = {p: olds[i] for i, p in enumerate(pts_j)}
                            for tup in tuples_over(pts_j, n):
                                if tup in acc:
                                    continue
                                eps = target.pred[
                                    (n, orig_m, tuple(proj[p] for p in tup))
                                ]
                                val, val_i = _clamped(eps, acc, tail_d, tup, scale)
                                sv = StepValue(level, (n, orig_m), tup, eps, val)
                                values.append(sv)
                                if sv.deviation > deviation_bound(n, level):
                                    raise SandwichInfeasible(
                                        f"birth pin at slot ({n},{orig_m}), tuple {tup} "
                                        f"deviates by {sv.deviation}"
                                    )
                                acc[tup] = val_i
                                if lev == 1:
                                    defined[tup] = val
                                    defined_i[tup] = val_i
                                else:
                                    birth_pins.setdefault((n, pos), {})[tup] = val
                    tups = sorted(
                        tuples_over(tuple(base_pts + [temp]), n),
                        key=lambda t: (temp in t, t),
                    )
                    realized = {}
                    if g_known is not None:
                        base_tups = [t for t in tups if temp not in t]
                        realized = dict(zip(base_tups, o.predicate_values(n, g_known, base_tups)))
                    for tup in tups:
                        if tup in defined:
                            continue
                        if tup in realized:
                            val = realized[tup]
                            val_i = scaled(val, scale)
                        else:
                            eps = target.pred[
                                (n, orig_m, tuple(to_target[p] for p in tup))
                            ]
                            val, val_i = _clamped(eps, defined_i, ext_d, tup, scale)
                            sv = StepValue(level, (n, orig_m), tup, eps, val)
                            values.append(sv)
                            if sv.deviation > deviation_bound(n, level):
                                raise SandwichInfeasible(
                                    f"clamp at level {level}, slot ({n},{orig_m}), tuple {tup} "
                                    f"deviates by {sv.deviation} > {deviation_bound(n, level)}"
                                )
                        defined[tup] = val
                        defined_i[tup] = val_i
                    for tup, val in defined.items():
                        pred[(n, pos, tup)] = val
            ext = IndexedStructure(ext_metric, target.bound, pattern_indices(target.bound), pred)
            slot_map = {s: assigned.get(s) for s in ext.slots()}
            rel = RelExtension(ext, {p: p for p in base_pts}, slot_map, birth_pins)

        result = o.grow(base_dists, rel=rel)
        if rel is not None and level == 1:
            assigned.update(result.slot_globals)
        return result.point

    point = _sandwich_chain(o, anchors, target.metric, depth, drift_slack, all_checks, step)
    outcome_slots = {s: assigned[canon[s]] for s in canon} if target.bound > 0 else {}
    return ExtensionOutcome(point, tuple(all_checks), outcome_slots, tuple(values))


def sparse_bark(rng: Random, n_points: int) -> IndexedStructure:
    """Random structure of bound 0..2 whose index sets are drawn from 1..9."""
    ids = [f"x{i}" for i in range(1, n_points + 1)]
    metric = random_metric(rng, ids)
    bound = rng.randint(0, min(2, n_points))
    indices = {n: tuple(sorted(rng.sample(range(1, 10), bound + 1 - n)))
               for n in range(1, bound + 1)}
    pred = {}
    for n, ms in indices.items():
        for m in ms:
            pred.update(((n, m, t), v) for t, v in random_table(rng, metric, n).items())
    return IndexedStructure(metric, bound, indices, pred)


def log_bytes(o: LimitOracle) -> str:
    return serialize_structure("ORACLE", oracle_file(o))


def run(solver, build, *args, **kwargs):
    """Build a fresh oracle and anchors, run ``solver`` on them; the outcome
    and the log, or the exception type and message it raised."""
    o, anchors = build()
    try:
        out = solver(o, anchors, *args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return (fields_of(out), list(out.slot_globals.items()), log_bytes(o))


def fields_of(out) -> dict:
    return {f.name: getattr(out, f.name) for f in fields(out)}


def extension_case(seed: int, depth: int = 2):
    """An embedded sparse structure x, a one-point extension of it (raising
    the bound or not) and a random part of x's registrations as known."""
    rng = Random(seed)
    x = sparse_bark(rng, rng.randint(1, 2))
    target = random_extension_bark(rng, x, raise_bound=rng.random() < 0.5)
    anchor_depth = required_depth(len(target), depth)

    def build():
        o = LimitOracle()
        return o, list(embed_structure(o, x, anchor_depth).points)

    globals_ = embed_structure(LimitOracle(), x, anchor_depth).slot_globals
    known = {s: g for s, g in globals_.items()
             if s in target.slots() and rng.random() < 0.7}
    return build, target, known, depth


@pytest.mark.parametrize("seed", range(16))
def test_extend_one_point_matches_the_renumbering_reference(seed):
    build, target, known, depth = extension_case(seed)
    new = run(extend_one_point, build, target, known, depth)
    ref = run(reference_extend_one_point, build, target, known, depth)
    assert new == ref
    assert not isinstance(new[0], type), new


def test_the_cases_cover_sparse_index_sets_and_slot_mixes():
    shapes = set()
    for seed in range(16):
        _, target, known, _ = extension_case(seed)
        slots = target.slots()
        sparse = any(ms != tuple(range(1, len(ms) + 1)) for ms in target.indices.values())
        shapes.add((target.bound, sparse, len(known) == len(slots), not known))
    assert {b for b, *_ in shapes} >= {0, 1, 2}
    assert any(sparse for _, sparse, _, _ in shapes)
    assert any(s and not whole and not none for _, s, whole, none in shapes)


@pytest.mark.parametrize("seed", range(4))
def test_embed_structure_matches_with_the_reference_step(seed, monkeypatch):
    rng = Random(100 + seed)
    x = sparse_bark(rng, 3)

    def embed(o, anchors):
        return embed_structure(o, x, 2)

    def build():
        return LimitOracle(), []

    new = run(embed, build)
    monkeypatch.setattr(cauchy, "extend_one_point", reference_extend_one_point)
    ref = run(embed, build)
    assert new == ref
    assert not isinstance(new[0], type), new


def test_refusals_match_the_reference():
    build, target, _, depth = extension_case(5)
    assert target.indices == {1: (1, 9), 2: (8,)}
    broken = IndexedStructure(target.metric, target.bound, target.indices,
                              dict(list(target.pred.items())[1:]))
    for tgt, known, error in [
        (target, {(1, 2): 1}, "known slot (1, 2) is not a slot of the target"),
        (target, {(1, 9): 9}, "oracle slot (1, 9) not realized"),
        (broken, {}, "target structure invalid: totality: p_1^1 missing on ('x1',)"),
    ]:
        new = run(extend_one_point, build, tgt, known, depth)
        ref = run(reference_extend_one_point, build, tgt, known, depth)
        assert new == ref == (SolverError, error)
