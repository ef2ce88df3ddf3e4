"""The rel solver step as it ran before the oracle clamped: each step
clamps every target into its Katetov window itself (``_clamped``),
packs the values into a FinMetric, an IndexedStructure and a RelExtension,
and grows the oracle with ``grow(rel=...)``, which checks the extension
(``_check_rel``) and walks the same entries again in refuse mode.  The
body of ``extend_one_point`` is copied verbatim; the differential tests
hold ``LimitOracle.grow_clamped`` to it.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from urysohn.cauchy import (
    CauchyPoint,
    ExtensionOutcome,
    SandwichInfeasible,
    SolverError,
    Slot,
    StepValue,
    _check_anchors,
    _sandwich_chain,
    deviation_bound,
    required_depth,
)
from urysohn.certificates import Check
from urysohn.engine import LimitOracle, RelExtension
from urysohn.metric import fin_metric
from urysohn.rationals import scaled
from urysohn.relational import IndexedStructure, PredTable, tuples_over, validate_k

from katetov_reference import _clamped


def reference_extend_one_point(
    o: LimitOracle,
    anchors: Sequence[CauchyPoint],
    target: IndexedStructure,
    known: Mapping[Slot, int] | None = None,
    depth: int = 6,
    drift_slack: int = 0,
) -> ExtensionOutcome:
    """Realize the last point of ``target`` over already-realized anchors.

    ``anchors[i]`` stands for target point i; ``known`` maps target slots to
    realized oracle slots, every other slot is freshly registered at step 1.
    Step l reads the anchors at level k+l+2, checks their pairwise drift
    against the target metric (within 2^-(l+k+1), widened by ``drift_slack``
    powers of two), solves the sandwich system, clamps the requested
    predicate values into their Katetov windows and grows the oracle.  Each
    step's extension keeps the target's own slot indices.
    """
    assigned = dict(known or {})
    report = validate_k(target)
    if report:
        raise SolverError(f"target structure invalid: {report[0]}")
    k = len(target)
    _check_anchors(anchors, k, depth)
    olds, new_pt = target.points[:-1], target.points[-1]
    slots = target.slots()
    for slot, g in assigned.items():
        if slot not in slots:
            raise SolverError(f"known slot {slot} is not a slot of the target")
        if not 1 <= g <= o.realized_count(slot[0]):
            raise SolverError(f"oracle slot ({slot[0]}, {g}) not realized")

    all_checks: list[Check] = []
    values: list[StepValue] = []
    # windows are clamped in integers over a scale that holds every target
    # value, every oracle value and the step's own distances
    pred_den = lcm(1, *{v.denominator for v in target.pred.values()})

    def step(level, avec, prev, base_dists):
        if target.bound == 0:
            return o.grow(base_dists).point
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
        dist = {pair: scaled(v, scale) for pair, v in ext_metric.table.items()}
        to_target = {**dict(zip(avec, olds)), prev: new_pt, temp: new_pt}
        slot_map = {s: assigned.get(s) for s in slots}
        if None in slot_map.values():
            # fresh slots are pinned along every anchor tail level this run
            # will read, so the table gains the distances among the tails
            tails = {a.at(required_depth(k, lev)) for lev in range(1, depth + 1) for a in anchors}
            dist.update(((x, y), scaled(o.distance(x, y), scale))
                        for x in tails for y in tails if x != y)
        pred: PredTable = {}
        birth_pins: dict[Slot, dict[tuple[str, ...], Fraction]] = {}

        def clamp(n, m, tup, eps, defined_i):
            val, val_i = _clamped(eps, defined_i, dist, tup, scale)
            sv = StepValue(level, (n, m), tup, eps, val)
            values.append(sv)
            if sv.deviation > deviation_bound(n, level):
                raise SandwichInfeasible(
                    f"clamp at level {level}, slot ({n},{m}), tuple {tup} "
                    f"deviates by {sv.deviation} > {deviation_bound(n, level)}"
                )
            return val, val_i

        for (n, m), g in slot_map.items():
            tups = sorted(
                tuples_over(tuple(base_pts + [temp]), n),
                key=lambda t: (temp in t, t),
            )
            if g is not None:
                # the realized slot's base tuples, read in one batch
                base_tups = [t for t in tups if temp not in t]
                defined = dict(zip(base_tups, o.predicate_values(n, g, base_tups)))
                defined_i = {t: scaled(v, scale) for t, v in defined.items()}
            else:
                # birth of a fresh slot: pin it along the anchor tails, so
                # later steps see target-accurate values, not a sagging envelope
                defined, defined_i = {}, {}
                acc: dict[tuple[str, ...], int] = {}
                for lev in range(1, depth + 1):
                    pts_j = tuple(a.at(required_depth(k, lev)) for a in anchors)
                    proj = dict(zip(pts_j, olds))
                    for tup in tuples_over(pts_j, n):
                        if tup in acc:
                            continue
                        eps = target.pred[(n, m, tuple(proj[p] for p in tup))]
                        val, acc[tup] = clamp(n, m, tup, eps, acc)
                        if lev == 1:
                            defined[tup], defined_i[tup] = val, acc[tup]
                        else:
                            birth_pins.setdefault((n, m), {})[tup] = val
            for tup in tups:
                if tup not in defined:
                    eps = target.pred[(n, m, tuple(to_target[p] for p in tup))]
                    defined[tup], defined_i[tup] = clamp(n, m, tup, eps, defined_i)
            pred.update(((n, m, tup), val) for tup, val in defined.items())
        ext = IndexedStructure(ext_metric, target.bound, target.indices, pred)
        result = o.grow(base_dists, rel=RelExtension(
            ext, {p: p for p in base_pts}, slot_map, birth_pins
        ))
        if level == 1:
            assigned.update(result.slot_globals)
        return result.point

    point = _sandwich_chain(o, anchors, target.metric, depth, drift_slack, all_checks, step)
    outcome_slots = {s: assigned[s] for s in slots}
    return ExtensionOutcome(point, tuple(all_checks), outcome_slots, tuple(values))

