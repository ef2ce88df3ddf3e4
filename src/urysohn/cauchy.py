"""Certified Cauchy approximants of limit points, built step by step.

Every point of the completion is represented by a finite sequence of oracle
points u^1, u^2, ... with exact successive gaps d(u^j, u^{j+1}) = 2^-(j+1),
so the tail after u^j stays strictly inside 2^-j.  The step construction is
the sandwich extension: the new point at step l keeps a controlled positive
offset (2i-1)/(k 2^(l+1)) .. 2i/(k 2^(l+1)) over each target distance and
an exact 2^-l link to its predecessor, which squeezes the realized
distances onto the targets as l grows.  Predicate values along the way are
clamped into their admissible Katetov windows around the target values.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Mapping, Sequence

from .certificates import Check
from .engine import LimitOracle, RelExtension
from .metric import FinMetric, _ceiling, _envelope, fin_metric
from .rationals import ZERO, pow2, scaled
from .relational import (
    IndexedStructure,
    PredTable,
    indexed_structure,
    pattern_indices,
    restrict_k,
    tuples_over,
    validate_k,
)

Slot = tuple[int, int]


class SolverError(Exception):
    """A solver precondition failed (shallow anchors, drift, bad input)."""


class SandwichInfeasible(Exception):
    """The sandwich system had no solution; indicates corrupted input state."""


@dataclass(frozen=True)
class CauchyPoint:
    """Oracle point sequence with exact certified successive gaps."""

    ids: tuple[str, ...]
    certs: tuple[Fraction, ...]

    @property
    def depth(self) -> int:
        return len(self.ids)

    def at(self, j: int) -> str:
        """The j-th approximant, 1-based."""
        return self.ids[j - 1]

    def last(self) -> str:
        return self.ids[-1]


def verify_cauchy(o: LimitOracle, p: CauchyPoint) -> list[str]:
    """Re-check the gap certificates against the oracle, exactly."""
    report = []
    if len(p.certs) != len(p.ids) - 1:
        report.append("certificate count does not match the sequence length")
        return report
    for j in range(1, p.depth):
        actual = o.distance(p.at(j), p.at(j + 1))
        if actual != p.certs[j - 1]:
            report.append(f"gap {j}: recorded {p.certs[j - 1]}, oracle has {actual}")
        if p.certs[j - 1] > pow2(-(j + 1)):
            report.append(f"gap {j}: {p.certs[j - 1]} exceeds 2^-{j + 1}")
    return report


def tail_bound(p: CauchyPoint, j: int) -> Fraction:
    """Exact sum of the certified gaps from level j on; strictly below 2^-j."""
    return sum(p.certs[j - 1 :], start=ZERO)


@dataclass(frozen=True)
class SandwichSolution:
    """Exact distances for one sandwich step.

    ``eta`` and ``gamma`` run parallel to the anchor list; ``order`` is the
    anchor ranking by descending target that fixes the offset bands.
    """

    eta: tuple[Fraction, ...]
    gamma: tuple[Fraction, ...]
    link: Fraction | None
    order: tuple[int, ...]
    checks: tuple[Check, ...]


def solve_sandwich(
    anchors: Sequence[str],
    targets: Sequence[Fraction],
    dist,
    level: int,
    prev: str | None = None,
) -> SandwichSolution:
    """Solve one step: distances to the anchors inside their offset bands plus
    an exact 2^-level link to the previous approximant.

    Offsets take the smallest band value (2i-1)/(k 2^(level+1)); with rational
    targets this already makes every distance rational.  Each base pair must
    pass its Katetov sandwich checks; the first to fail raises with a full dump.
    """
    if len(anchors) != len(targets):
        raise SolverError("anchor/target length mismatch")
    if len(set(anchors)) != len(anchors) or prev in anchors:
        raise SolverError(f"anchors and prev must be distinct points: {anchors}, {prev!r}")
    k = len(anchors) + 1
    order = tuple(sorted(range(len(anchors)), key=lambda i: (-targets[i], i)))
    gamma = [ZERO] * len(anchors)
    eta = [ZERO] * len(anchors)
    checks: list[Check] = []
    unit = Fraction(1, k * 2 ** (level + 1))
    for pos, i in enumerate(order, start=1):
        gamma[i] = (2 * pos - 1) * unit
        eta[i] = targets[i] + gamma[i]
        checks.append(Check(f"band-lower-{anchors[i]}", targets[i] + gamma[i], "<=", eta[i]))
        checks.append(Check(f"band-upper-{anchors[i]}", eta[i], "<=", targets[i] + 2 * pos * unit))
    link = pow2(-level) if prev is not None else None
    spec_eta = dict(zip(anchors, eta))
    if prev is not None:
        spec_eta[prev] = link
        checks.append(Check("link", link, "=", pow2(-level)))
    entries = {(x, y): dist(x, y) for x, y in combinations(spec_eta, 2)}
    for p, e in spec_eta.items():
        if e == 0:
            raise ValueError(f"eta({p}) = 0: the new point must be distinct")
        if e < 0:
            raise ValueError(f"eta({p}) < 0")
    for (x, y), dxy in entries.items():
        ex, ey = spec_eta[x], spec_eta[y]
        gap = Check(f"triangle-gap-{x}-{y}", abs(ex - ey), "<=", dxy)
        tri = Check(f"triangle-sum-{x}-{y}", dxy, "<=", ex + ey)
        checks += gap, tri
        if not (gap.holds and tri.holds):
            why = (f"|eta({x}) - eta({y})| = {gap.lhs} > d = {dxy}" if not gap.holds
                   else f"d({x},{y}) = {dxy} > eta({x}) + eta({y}) = {tri.rhs}")
            raise SandwichInfeasible(
                f"no admissible point at level {level}: {why}; "
                f"targets={list(map(str, targets))} eta={list(map(str, eta))} "
                f"base={[(x, y, str(v)) for (x, y), v in entries.items()]}"
            )
    return SandwichSolution(tuple(eta), tuple(gamma), link, order, tuple(checks))


@dataclass(frozen=True)
class StepValue:
    """One clamped predicate value with its target, for deviation accounting."""

    level: int
    slot: Slot
    tup: tuple[str, ...]
    target: Fraction
    value: Fraction

    @property
    def deviation(self) -> Fraction:
        return abs(self.value - self.target)


@dataclass(frozen=True)
class ExtensionOutcome:
    point: CauchyPoint
    slot_globals: dict[Slot, int]
    values: tuple[StepValue, ...]
    checks: tuple[Check, ...]


def required_depth(k: int, depth: int) -> int:
    """Anchor depth a k-point extension run to the given depth consumes."""
    return k + depth + 2


def deviation_bound(arity: int, level: int) -> Fraction:
    """Committed per-step bound on |realized - target| for arity-n tuples."""
    return (2 * arity + 1) * pow2(-level)


def extend_one_point(
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
    predicate values into their Katetov windows and grows the oracle.
    """
    known = dict(known or {})
    report = validate_k(target)
    if report:
        raise SolverError(f"target structure invalid: {report[0]}")
    k = len(target)
    _check_anchors(anchors, k, depth)
    pts = target.points
    olds, new_pt = pts[:-1], pts[-1]
    canon: dict[Slot, Slot] = {}
    for n in sorted(target.indices):
        for pos, m in enumerate(target.indices[n], start=1):
            canon[(n, m)] = (n, pos)
    for slot, g in known.items():
        if slot not in canon:
            raise SolverError(f"known slot {slot} is not a slot of the target")
        if not 1 <= g <= o.realized_count(slot[0]):
            raise SolverError(f"oracle slot ({slot[0]}, {g}) not realized")
    assigned: dict[Slot, int] = {canon[s]: g for s, g in known.items()}

    all_checks: list[Check] = []
    values: list[StepValue] = []
    # windows are clamped in integers over a scale that holds every target
    # value, every oracle value and the step's own distances
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
            birth_pins: dict[Slot, dict[tuple[str, ...], Fraction]] = {}
            for n in sorted(target.indices):
                for pos in range(1, target.bound + 2 - n):
                    g_known = assigned.get((n, pos))
                    orig_m = back[(n, pos)]
                    defined: dict[tuple[str, ...], Fraction] = {}
                    defined_i: dict[tuple[str, ...], int] = {}
                    if g_known is None:
                        # birth of a fresh slot: pin it along every anchor
                        # tail level this run will read, so later steps see
                        # target-accurate values instead of a sagging envelope
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
                        acc: dict[tuple[str, ...], int] = {}
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
                        # the realized slot's base tuples, read in one batch
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
            slot_map: dict[Slot, int | None] = {s: assigned.get(s) for s in ext.slots()}
            rel = RelExtension(ext, {p: p for p in base_pts}, slot_map, birth_pins)

        result = o.grow(base_dists, rel=rel)
        if rel is not None and level == 1:
            assigned.update(result.slot_globals)
        return result.point

    point = _sandwich_chain(o, anchors, target.metric, depth, drift_slack, all_checks, step)
    outcome_slots = {s: assigned[canon[s]] for s in canon} if target.bound > 0 else {}
    return ExtensionOutcome(point, outcome_slots, tuple(values), tuple(all_checks))


def _check_anchors(anchors: Sequence[CauchyPoint], k: int, depth: int) -> int:
    """Refuse a wrong anchor count or a shallow anchor; returns the deepest
    level a k-point run to ``depth`` reads its anchors at."""
    if len(anchors) != k - 1:
        raise SolverError(f"{k}-point target needs {k - 1} anchors")
    need = required_depth(k, depth)
    for i, a in enumerate(anchors):
        if a.depth < need:
            raise SolverError(
                f"anchor {i} of depth {a.depth} too shallow: depth {need} required"
            )
    return need


def _sandwich_chain(
    o: LimitOracle,
    anchors: Sequence[CauchyPoint],
    target_metric: FinMetric,
    depth: int,
    drift_slack: int,
    checks: list[Check],
    step,
) -> CauchyPoint:
    """The per-level loop every one-point solver shares.

    ``anchors[i]`` stands for point i of ``target_metric``, whose last point
    is the one realized.  Level l reads the anchors at ``required_depth(k,
    l)``, checks their pairwise drift against the target metric (within
    2^-(l+k+1), widened by ``drift_slack`` powers of two) and solves the
    sandwich system.  ``step(level, avec, prev, base_dists)`` then adds the
    solver's decoration, grows the oracle over ``base_dists`` (the anchors,
    then the previous approximant ``prev``) and returns the new point id.
    Every check made is appended to ``checks``.
    """
    k = len(target_metric)
    pts = target_metric.points
    olds, new_pt = pts[:-1], pts[-1]
    ids: list[str] = []
    certs: list[Fraction] = []
    for level in range(1, depth + 1):
        avec = [a.at(required_depth(k, level)) for a in anchors]
        if len(set(avec)) != len(avec):
            raise SolverError(f"anchors coincide at level {required_depth(k, level)}")
        bound = pow2(-(level + k + 1 - drift_slack))
        for i in range(len(avec)):
            for j in range(i + 1, len(avec)):
                drift = abs(o.distance(avec[i], avec[j]) - target_metric.d(olds[i], olds[j]))
                checks.append(Check(f"drift-{level}-{olds[i]}-{olds[j]}", drift, "<", bound))
                if drift >= bound:
                    raise SolverError(
                        f"anchor drift {drift} at level {level} reaches the bound {bound} "
                        f"for ({olds[i]}, {olds[j]})"
                    )
        prev = ids[-1] if ids else None
        sol = solve_sandwich(
            avec,
            [target_metric.d(olds[i], new_pt) for i in range(len(olds))],
            o.distance,
            level,
            prev,
        )
        checks.extend(sol.checks)
        base_dists = {a: sol.eta[i] for i, a in enumerate(avec)}
        if prev:
            base_dists[prev] = sol.link
        ids.append(step(level, avec, prev, base_dists))
        if prev:
            certs.append(sol.link)
    return CauchyPoint(tuple(ids), tuple(certs))


def _clamped(eps, defined, dist, tup, scale) -> tuple[Fraction, int]:
    """Clamp a target into the window the already-defined values admit.

    ``defined`` holds values and ``dist`` the distances between distinct
    points as integers at ``scale``; the clamped value comes back both as a
    rational and at that scale.
    """
    val = scaled(eps, scale)
    pins = defined.items()
    v = min(max(val, _envelope(pins, tup, dist)), _ceiling(pins, tup, dist))
    return (eps if v == val else Fraction(v, scale)), v


def extend_singleton(
    o: LimitOracle,
    value: Fraction | None,
    depth: int,
) -> ExtensionOutcome:
    """Realize a fresh single point, optionally with one unary predicate value.

    With a rational target the constant value is admissible at every step, so
    the realized values match it exactly.
    """
    if value is None:
        target = indexed_structure(FinMetric(("b1",), {}), bound=0)
        known = {}
    else:
        if value < 0:
            raise SolverError("predicate values must be nonnegative")
        target = indexed_structure(
            FinMetric(("b1",), {}), bound=1, pred={(1, 1, ("b1",)): value}
        )
        known = None
    return extend_one_point(o, [], target, known or {}, depth)


@dataclass(frozen=True)
class EmbeddingOutcome:
    points: tuple[CauchyPoint, ...]
    slot_globals: dict[Slot, int]
    values: tuple[StepValue, ...]
    checks: tuple[Check, ...]


def stage_depths(n_points: int, depth: int) -> list[int]:
    """Build depth for each stage so later stages find deep enough anchors."""
    depths = [0] * n_points
    if n_points:
        depths[-1] = depth
        for j in range(n_points - 2, -1, -1):
            depths[j] = depths[j + 1] + (j + 2) + 2
    return depths


def embed_structure(o: LimitOracle, x: IndexedStructure, depth: int) -> EmbeddingOutcome:
    """Realize a whole structure point by point inside the oracle.

    Stage k realizes the k-th point of x over the first k-1, carrying along
    the slot registrations made so far; earlier stages are built deeper so
    every later stage finds its anchors.
    """
    report = validate_k(x)
    if report:
        raise SolverError(f"structure invalid: {report[0]}")
    depths = stage_depths(len(x), depth)
    built: list[CauchyPoint] = []
    slot_globals: dict[Slot, int] = {}
    values: list[StepValue] = []
    checks: list[Check] = []
    for k in range(1, len(x) + 1):
        stage = restrict_k(x, x.points[:k])
        outcome = extend_one_point(
            o,
            built,
            stage,
            {s: slot_globals[s] for s in slot_globals if s in set(stage.slots())},
            depths[k - 1],
        )
        built.append(outcome.point)
        slot_globals.update(outcome.slot_globals)
        values.extend(outcome.values)
        checks.extend(outcome.checks)
    return EmbeddingOutcome(tuple(built), slot_globals, tuple(values), tuple(checks))


@dataclass(frozen=True)
class PartialIso:
    """Finite partial isomorphism between two realized tuples in one oracle."""

    dom: tuple[CauchyPoint, ...]
    rng: tuple[CauchyPoint, ...]
    slots: dict[Slot, int]  # (n, dom-side global) -> rng-side global


def witness_checks(
    o: LimitOracle,
    iso: PartialIso,
    eval_depth: int,
    tol: Fraction,
) -> list[Check]:
    """One check per matched pair of distances and predicate tuples."""
    if len(iso.dom) != len(iso.rng):
        raise SolverError("sides have different lengths")
    for p in list(iso.dom) + list(iso.rng):
        if p.depth < eval_depth:
            raise SolverError(f"point of depth {p.depth} cannot be read at {eval_depth}")
    checks = []
    dpts = [p.at(eval_depth) for p in iso.dom]
    rpts = [p.at(eval_depth) for p in iso.rng]
    for i in range(len(dpts)):
        for j in range(i + 1, len(dpts)):
            gap = abs(o.distance(dpts[i], dpts[j]) - o.distance(rpts[i], rpts[j]))
            checks.append(Check(f"match-dist-{i}-{j}", gap, "<=", tol))
    for (n, g_dom), g_rng in sorted(iso.slots.items()):
        sels = list(tuples_over(tuple(range(len(dpts))), n))
        dvs = o.predicate_values(n, g_dom, [tuple(dpts[i] for i in sel) for sel in sels])
        rvs = o.predicate_values(n, g_rng, [tuple(rpts[i] for i in sel) for sel in sels])
        for sel, dv, rv in zip(sels, dvs, rvs):
            sel_name = ".".join(map(str, sel))
            checks.append(
                Check(f"match-slot-{n}.{g_dom}-{sel_name}", abs(dv - rv), "<=", tol)
            )
    return checks


def validate_witness(
    o: LimitOracle,
    iso: PartialIso,
    eval_depth: int,
    tol: Fraction,
) -> tuple[Fraction, list[str]]:
    """Exact re-check of a witness at a given level; returns (max gap, failures)."""
    try:
        checks = witness_checks(o, iso, eval_depth, tol)
    except SolverError as exc:
        return ZERO, [str(exc)]
    return _worst_gap(checks), _failures(checks)


def _worst_gap(checks: Iterable[Check]) -> Fraction:
    return max((c.lhs for c in checks), default=ZERO)


def _failures(checks: Iterable[Check]) -> list[str]:
    return [f"{c.name}: {c.lhs} > {c.rhs}" for c in checks if not c.holds]


def _slot_family_shape(slots: Iterable[Slot]) -> tuple[int, dict[int, tuple[int, ...]]]:
    per: dict[int, list[int]] = {}
    for n, g in slots:
        per.setdefault(n, []).append(g)
    if not per:
        return 0, {}
    bound = max(len(gs) + n - 1 for n, gs in per.items())
    for n in range(1, bound + 1):
        if len(per.get(n, [])) != bound - n + 1:
            raise SolverError(
                "matched slot family is not pattern shaped; "
                f"arity {n} has {len(per.get(n, []))} slots, wants {bound - n + 1}"
            )
    return bound, {n: tuple(sorted(gs)) for n, gs in per.items()}


def absorption_build_depths(k0: int, n_rounds: int, depth: int) -> list[int]:
    """Build depth per absorption round; round r anchors every later round."""
    build = [0] * n_rounds
    for r in range(n_rounds - 1, -1, -1):
        build[r] = depth if r == n_rounds - 1 else max(
            depth, build[r + 1] + (k0 + r + 2) + 2
        )
    return build


def absorption_input_depth(k0: int, n_rounds: int, depth: int) -> int:
    """Depth every input point needs before absorbing n_rounds wishes."""
    if not n_rounds:
        return depth
    return required_depth(k0 + 1, absorption_build_depths(k0, n_rounds, depth)[0])


@dataclass(frozen=True)
class HomogPlan:
    """Depth budget for a two-copy back-and-forth run."""

    wish_depth: int
    copy_depth: int


def homog_depth_plan(k0: int, wish_count: int, depth: int) -> HomogPlan:
    wish_depth = absorption_input_depth(k0, 2 * wish_count, depth)
    return HomogPlan(wish_depth, required_depth(k0 + 1, wish_depth))


@dataclass(frozen=True)
class BackAndForthOutcome:
    iso: PartialIso
    new_dom: tuple[CauchyPoint, ...]
    new_rng: tuple[CauchyPoint, ...]
    checks: tuple[Check, ...]  # the final witness checks, at tolerance 2^-(depth-1)

    @property
    def worst_gap(self) -> Fraction:
        return _worst_gap(self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(_failures(self.checks))


def extend_partial_iso(
    o: LimitOracle,
    iso: PartialIso,
    wish_dom: Sequence[CauchyPoint],
    wish_rng: Sequence[CauchyPoint],
    depth: int,
) -> BackAndForthOutcome:
    """Absorb wishlist points into a partial isomorphism, one per round.

    A domain wish is measured on the domain side and realized on the range
    side over the current range tuple (and vice versa), reusing the matched
    slot registrations, so the witness stays within tolerance 2^-(depth-1)
    at evaluation level ``depth``.
    """
    rounds = [("dom", w) for w in wish_dom]
    rounds_rng = [("rng", w) for w in wish_rng]
    interleaved = []
    for i in range(max(len(rounds), len(rounds_rng))):
        if i < len(rounds):
            interleaved.append(rounds[i])
        if i < len(rounds_rng):
            interleaved.append(rounds_rng[i])

    k0 = len(iso.dom)
    n_rounds = len(interleaved)
    build_depths = absorption_build_depths(k0, n_rounds, depth)
    need_input = absorption_input_depth(k0, n_rounds, depth)
    for p in list(iso.dom) + list(iso.rng) + list(wish_dom) + list(wish_rng):
        if p.depth < need_input:
            raise SolverError(
                f"input point of depth {p.depth} too shallow; depth {need_input} required"
            )

    worst, failures = validate_witness(o, iso, depth, pow2(-depth))
    if failures:
        raise SolverError(f"input witness out of tolerance: {failures[0]}")

    bound, dom_family = _slot_family_shape(iso.slots.keys())
    rng_family = {
        n: tuple(sorted(iso.slots[(n, g)] for g in dom_family[n]))
        for n in dom_family
    }
    inv_slots = {(n, g_rng): g_dom for (n, g_dom), g_rng in iso.slots.items()}
    dom, rng = list(iso.dom), list(iso.rng)
    new_dom: list[CauchyPoint] = []
    new_rng: list[CauchyPoint] = []
    for r, (side, wish) in enumerate(interleaved):
        k = len(dom) + 1
        build_depth = build_depths[r]
        level = required_depth(k, build_depth)
        src = dom if side == "dom" else rng
        dst = rng if side == "dom" else dom
        src_family = dom_family if side == "dom" else rng_family
        measured = [p.at(level) for p in src] + [wish.at(level)]
        entries = {
            (x, y): o.distance(x, y)
            for i, x in enumerate(measured)
            for y in measured[i + 1 :]
        }
        eff_bound = min(bound, k)
        idx = {n: src_family[n][: eff_bound + 1 - n] for n in range(1, eff_bound + 1)}
        pred = {}
        for n in idx:
            tups = list(tuples_over(tuple(measured), n))
            for m in idx[n]:
                pred.update(((n, m, t), v) for t, v in zip(tups, o.predicate_values(n, m, tups)))
        target = IndexedStructure(fin_metric(measured, entries), eff_bound, idx, pred)
        pair_of = iso.slots if side == "dom" else inv_slots
        known = {(n, m): pair_of[(n, m)] for n in idx for m in idx[n]}
        outcome = extend_one_point(
            o, dst, target, known, build_depth, drift_slack=1
        )
        if side == "dom":
            dom.append(wish)
            rng.append(outcome.point)
            new_rng.append(outcome.point)
        else:
            rng.append(wish)
            dom.append(outcome.point)
            new_dom.append(outcome.point)

    final = PartialIso(tuple(dom), tuple(rng), dict(iso.slots))
    checks = witness_checks(o, final, depth, pow2(-(depth - 1)))
    return BackAndForthOutcome(final, tuple(new_dom), tuple(new_rng), tuple(checks))
