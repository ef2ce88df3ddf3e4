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
from math import lcm
from typing import Iterable, Mapping, Sequence

from .certificates import Check
from .engine import LimitOracle, RelExtension
from .metric import FinMetric, OnePointSpec, fin_metric, one_point_feasible, validate_metric
from .rationals import ZERO, pow2, scaled
from .relational import PredTable, StructureK, find_lipschitz_violation, tuples_over

Slot = tuple[int, int]


class SolverError(Exception):
    """A solver precondition failed (shallow anchors, drift, bad input)."""


class SandwichInfeasible(Exception):
    """The sandwich system had no solution; indicates corrupted input state."""


@dataclass(frozen=True)
class IndexedStructure:
    """Finite metric space with predicate tables over arbitrary finite index sets.

    For each arity n <= bound the index set has exactly bound - n + 1
    members; every indexed table is total and 1-Lipschitz in the sum metric.
    A bound of zero means a bare metric space.
    """

    metric: FinMetric
    bound: int
    indices: dict[int, tuple[int, ...]]
    pred: dict[tuple[int, int, tuple[str, ...]], Fraction]

    @property
    def points(self) -> tuple[str, ...]:
        return self.metric.points

    def slots(self) -> list[Slot]:
        return [(n, m) for n in sorted(self.indices) for m in self.indices[n]]

    def __len__(self) -> int:
        return len(self.metric)


def indexed_structure(
    metric: FinMetric,
    bound: int | None = None,
    pred: Mapping[tuple[int, int, tuple[str, ...]], Fraction] | None = None,
    indices: Mapping[int, Iterable[int]] | None = None,
) -> IndexedStructure:
    """Build with initial-segment index sets by default; zero-fill missing slots."""
    if bound is None:
        bound = len(metric)
    if indices is None:
        idx = {n: tuple(range(1, bound + 2 - n)) for n in range(1, bound + 1)}
    else:
        idx = {n: tuple(sorted(indices[n])) for n in indices}
    table = dict(pred or {})
    for n in idx:
        for m in idx[n]:
            for tup in tuples_over(metric.points, n):
                table.setdefault((n, m, tup), ZERO)
    return IndexedStructure(metric, bound, idx, table)


def validate_bark(s: IndexedStructure) -> list[str]:
    report = [f"metric: {msg}" for msg in validate_metric(s.metric)]
    if s.bound < 0 or s.bound > len(s):
        report.append(f"arity bound {s.bound} outside 0..{len(s)}")
        return report
    if set(s.indices.keys()) != set(range(1, s.bound + 1)):
        report.append("index sets must cover exactly the arities 1..bound")
        return report
    for n, members in s.indices.items():
        if len(set(members)) != len(members) or list(members) != sorted(members):
            report.append(f"index set for arity {n} must be sorted and duplicate-free")
        if len(members) != s.bound - n + 1:
            report.append(
                f"index set for arity {n} has {len(members)} members, "
                f"wants {s.bound - n + 1}"
            )
        if any(m < 1 for m in members):
            report.append(f"index set for arity {n} has a non-positive member")
    if any("index set" in msg for msg in report):
        return report
    expected = {
        (n, m, tup)
        for n, m in s.slots()
        for tup in tuples_over(s.points, n)
    }
    missing = expected - set(s.pred.keys())
    stray = set(s.pred.keys()) - expected
    for n, m, tup in sorted(missing):
        report.append(f"totality: slot ({n},{m}) missing on {tup}")
    for n, m, tup in sorted(stray):
        report.append(f"totality: stray entry at slot ({n},{m}) on {tup}")
    if missing or stray:
        return report
    for n, m in s.slots():
        values = {tup: s.pred[(n, m, tup)] for tup in tuples_over(s.points, n)}
        bad = find_lipschitz_violation(s.metric, values)
        if bad is not None:
            ta, tb, lhs, rhs = bad
            report.append(f"lipschitz: slot ({n},{m}) at {ta} vs {tb} ({lhs} > {rhs})")
    return report


def restrict_bark(s: IndexedStructure, keep: Sequence[str], bound: int | None = None) -> IndexedStructure:
    """Substructure on a point prefix, index sets truncated to leading members."""
    keep = tuple(keep)
    new_bound = min(s.bound, len(keep)) if bound is None else bound
    idx = {n: s.indices[n][: new_bound + 1 - n] for n in range(1, new_bound + 1)}
    pred = {}
    keepset = set(keep)
    for n in idx:
        for m in idx[n]:
            for tup in tuples_over(keep, n):
                pred[(n, m, tup)] = s.pred[(n, m, tup)]
    return IndexedStructure(s.metric.restrict(keepset), new_bound, idx, pred)


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
    targets this already makes every distance rational.  Feasibility of the
    whole system is verified exactly and a failure raises with a full dump.
    """
    if len(anchors) != len(targets):
        raise SolverError("anchor/target length mismatch")
    if len(set(anchors)) != len(anchors):
        raise SolverError(f"anchors must be distinct oracle points: {anchors}")
    k = len(anchors) + 1
    order = tuple(sorted(range(len(anchors)), key=lambda i: (-targets[i], i)))
    gamma = [ZERO] * len(anchors)
    eta = [ZERO] * len(anchors)
    checks: list[Check] = []
    for pos, i in enumerate(order, start=1):
        gamma[i] = Fraction(2 * pos - 1, k * 2 ** (level + 1))
        eta[i] = targets[i] + gamma[i]
        checks.append(
            Check(f"band-lower-{anchors[i]}", targets[i] + Fraction(2 * pos - 1, k * 2 ** (level + 1)), "<=", eta[i])
        )
        checks.append(
            Check(f"band-upper-{anchors[i]}", eta[i], "<=", targets[i] + Fraction(2 * pos, k * 2 ** (level + 1)))
        )
    link = pow2(-level) if prev is not None else None
    base_pts = list(anchors) + ([prev] if prev is not None else [])
    spec_eta = {a: eta[i] for i, a in enumerate(anchors)}
    if prev is not None:
        spec_eta[prev] = link
        checks.append(Check("link", link, "=", pow2(-level)))
    if base_pts:
        entries = {
            (x, y): dist(x, y)
            for i, x in enumerate(base_pts)
            for y in base_pts[i + 1 :]
        }
        base = fin_metric(base_pts, entries)
        ok, why = one_point_feasible(base, OnePointSpec(tuple(base_pts), spec_eta))
        if not ok:
            raise SandwichInfeasible(
                f"no admissible point at level {level}: {why}; "
                f"targets={list(map(str, targets))} eta={list(map(str, eta))} "
                f"base={[(x, y, str(v)) for (x, y), v in entries.items()]}"
            )
        for x, y in base.pairs():
            checks.append(
                Check(f"triangle-gap-{x}-{y}", abs(spec_eta[x] - spec_eta[y]), "<=", base.d(x, y))
            )
            checks.append(
                Check(f"triangle-sum-{x}-{y}", base.d(x, y), "<=", spec_eta[x] + spec_eta[y])
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
    report = validate_bark(target)
    if report:
        raise SolverError(f"target structure invalid: {report[0]}")
    k = len(target)
    if len(anchors) != k - 1:
        raise SolverError(f"{k}-point target needs {k - 1} anchors")
    need = required_depth(k, depth)
    for i, a in enumerate(anchors):
        if a.depth < need:
            raise SolverError(
                f"anchor {i} of depth {a.depth} too shallow: depth {need} required"
            )
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

    ids: list[str] = []
    certs: list[Fraction] = []
    all_checks: list[Check] = []
    values: list[StepValue] = []
    # windows are clamped in integers over a scale that holds every target
    # value, every oracle value and the step's own distances
    pred_den = lcm(1, *{v.denominator for v in target.pred.values()})
    for level in range(1, depth + 1):
        avec = [a.at(required_depth(k, level)) for a in anchors]
        if len(set(avec)) != len(avec):
            raise SolverError(f"anchors coincide at level {required_depth(k, level)}")
        bound = pow2(-(level + k + 1 - drift_slack))
        for i in range(len(avec)):
            for j in range(i + 1, len(avec)):
                drift = abs(o.distance(avec[i], avec[j]) - target.metric.d(olds[i], olds[j]))
                all_checks.append(Check(f"drift-{level}-{olds[i]}-{olds[j]}", drift, "<", bound))
                if drift >= bound:
                    raise SolverError(
                        f"anchor drift {drift} at level {level} reaches the bound {bound} "
                        f"for ({olds[i]}, {olds[j]})"
                    )
        prev = ids[-1] if ids else None
        sol = solve_sandwich(
            avec,
            [target.metric.d(olds[i], new_pt) for i in range(len(olds))],
            o.distance,
            level,
            prev,
        )
        all_checks.extend(sol.checks)
        base_pts = list(avec) + ([prev] if prev else [])
        base_dists = {a: sol.eta[i] for i, a in enumerate(avec)}
        if prev:
            base_dists[prev] = sol.link

        rel = None
        if target.bound > 0:
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
                    for tup in sorted(
                        tuples_over(tuple(base_pts + [temp]), n),
                        key=lambda t: (temp in t, t),
                    ):
                        if tup in defined:
                            continue
                        if g_known is not None and temp not in tup:
                            val = o.predicate_value(n, g_known, tup)
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
            ext = StructureK(ext_metric, target.bound, pred)
            slot_map: dict[Slot, int | None] = {
                (n, pos): assigned.get((n, pos))
                for n in sorted(target.indices)
                for pos in range(1, target.bound + 2 - n)
            }
            rel = RelExtension(ext, {p: p for p in base_pts}, slot_map, birth_pins)

        result = o.grow(base_dists, rel=rel)
        if rel is not None and level == 1:
            assigned.update(result.slot_globals)
        ids.append(result.point)
        if prev:
            certs.append(sol.link)

    outcome_slots = {s: assigned[canon[s]] for s in canon} if target.bound > 0 else {}
    return ExtensionOutcome(
        CauchyPoint(tuple(ids), tuple(certs)), outcome_slots, tuple(values), tuple(all_checks)
    )


def _clamped(eps, defined, dist, tup, scale) -> tuple[Fraction, int]:
    """Clamp a target into the window the already-defined values admit.

    ``defined`` holds values and ``dist`` the distances between distinct
    points as integers at ``scale``; the clamped value comes back both as a
    rational and at that scale.
    """
    val = v = scaled(eps, scale)
    lo = hi = None
    for t2, w in defined.items():
        s = 0
        for x, y in zip(t2, tup):
            if x != y:
                s += dist[(x, y)]
        if lo is None or w - s > lo:
            lo = w - s
        if hi is None or w + s < hi:
            hi = w + s
    if lo is not None and v < lo:
        v = lo
    if hi is not None and v > hi:
        v = hi
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
    report = validate_bark(x)
    if report:
        raise SolverError(f"structure invalid: {report[0]}")
    depths = stage_depths(len(x), depth)
    built: list[CauchyPoint] = []
    slot_globals: dict[Slot, int] = {}
    values: list[StepValue] = []
    checks: list[Check] = []
    for k in range(1, len(x) + 1):
        stage = restrict_bark(x, x.points[:k])
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
        for sel in tuples_over(tuple(range(len(dpts))), n):
            dv = o.predicate_value(n, g_dom, tuple(dpts[i] for i in sel))
            rv = o.predicate_value(n, g_rng, tuple(rpts[i] for i in sel))
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
    worst = max((c.lhs for c in checks), default=ZERO)
    failures = [f"{c.name}: {c.lhs} > {c.rhs}" for c in checks if not c.holds]
    return worst, failures


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
    worst_gap: Fraction
    failures: tuple[str, ...]


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
        pred = {
            (n, m, tup): o.predicate_value(n, m, tup)
            for n in idx
            for m in idx[n]
            for tup in tuples_over(tuple(measured), n)
        }
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
    worst, failures = validate_witness(o, final, depth, pow2(-(depth - 1)))
    return BackAndForthOutcome(final, tuple(new_dom), tuple(new_rng), worst, tuple(failures))
