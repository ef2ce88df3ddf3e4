"""Structures carrying a closed-subset profile over a fixed compact presentation.

Each point holds a finitely-supported nonnegative 1-Lipschitz profile over
the compact space's dense set; the value at dense index n is read as the
distance, in the sum metric, of (point, q_n) from the encoded closed set.
The cross condition

    p(a)(n) <= p(b)(m) + d_K(q_n, q_m) + d(a, b)

reduces, because profiles are 1-Lipschitz, to support-only checks; the
validator uses that reduction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Mapping, Sequence

from .cauchy import CauchyPoint, ExtensionOutcome, SolverError, _check_anchors, _sandwich_chain
from .certificates import Check
from .engine import LimitOracle
from .lipschitz import _check_label, _label_targets
from .metric import FinMetric, jep_gap, jep_gap_metric, path_amalgam_carry, validate_metric
from .rationals import ZERO, pow2
from .spaces import (
    CompactPresentation,
    SuitableFn,
    _cross_breaks,
    _window,
    build_suitable,
    eval_suitable,
    suitable,
    validate_suitable,
)


@dataclass(frozen=True)
class StructureC:
    """Finite metric space with one profile per point."""

    metric: FinMetric
    fns: dict[str, SuitableFn]

    @property
    def points(self) -> tuple[str, ...]:
        return self.metric.points


def validate_c(s: StructureC, k: CompactPresentation) -> list[str]:
    """Profiles valid and the cross condition holds; support-reduced check."""
    report = [f"metric: {msg}" for msg in validate_metric(s.metric)]
    for p in s.points:
        if p not in s.fns:
            report.append(f"missing profile for {p!r}")
            continue
        for msg in validate_suitable(s.fns[p], k):
            report.append(f"profile {p!r}: {msg}")
    if report:
        return report
    for a, b in permutations(s.points, 2):
        d = s.metric.d(a, b)
        for i, v, other in _cross_breaks(s.fns[a], s.fns[b], d, k):
            report.append(f"cross condition ({a},{b}) at index {i}: {v} > {other} + {d}")
    return report


def amalgamate_c(
    b: StructureC,
    c: StructureC,
    a: StructureC,
    map_b: Mapping[str, str],
    map_c: Mapping[str, str],
    k: CompactPresentation,
) -> StructureC:
    """Shortest-path amalgam; profiles are carried over unchanged."""
    for p in a.points:
        fb, fc = b.fns[map_b[p]], c.fns[map_c[p]]
        for i in range(1, k.size + 1):
            if eval_suitable(fb, i, k) != eval_suitable(fc, i, k):
                raise ValueError(f"sides disagree on the profile of {p!r} at index {i}")
    metric, fns = path_amalgam_carry(b.metric, c.metric, a.metric, map_b, map_c, b.fns, c.fns)
    return StructureC(metric, fns)


def joint_embed_c(a: StructureC, b: StructureC, k: CompactPresentation) -> StructureC:
    """Disjoint union at a constant gap dominating every value on both sides."""
    gap = jep_gap(
        [s.metric.diam() for s in (a, b)]
        + [f.max_value() for s in (a, b) for f in s.fns.values()]
    )
    metric = jep_gap_metric(a.metric, b.metric, gap)
    return StructureC(metric, {**a.fns, **b.fns})


@dataclass(frozen=True)
class ProfileValue:
    level: int
    index: int
    target: Fraction
    value: Fraction

    @property
    def deviation(self) -> Fraction:
        return abs(self.value - self.target)


def extend_one_point_c(
    o: LimitOracle,
    anchors: Sequence[CauchyPoint],
    target_metric: FinMetric,
    new_fn: SuitableFn,
    depth: int,
    lip_target: int | Sequence[int] | None = None,
) -> ExtensionOutcome:
    """Realize the last point of ``target_metric`` with profile targets ``new_fn``.

    Step l works over the net at scale 2^-(l+2) joined with the supports of
    every base profile; raw targets are clamped into the window the base
    profiles admit, then lifted into a consistent profile.  The per-step
    sup-norm guarantee |realized(n) - target(n)| <= 2^-l is enforced.

    On an oracle that also carries a Lipschitz label, ``lip_target`` supplies
    the label targets (a constant index or a sequence), so one growth feeds
    both decorations.
    """
    k_space = o.compact
    if k_space is None:
        raise SolverError("oracle does not carry a compact presentation")
    k = len(target_metric)
    lip_seq: list[int] | None = None
    if lip_target is not None:
        if "lip" not in o.modes:
            raise SolverError("oracle does not carry labels")
        # the modulus checks are made, not certified: a product certificate
        # keeps its own lines
        lip_seq = _label_targets(o, lip_target, k, depth)[0]
    elif "lip" in o.modes:
        raise SolverError("this oracle also needs a label target per point")
    bad = validate_suitable(new_fn, k_space)
    if bad:
        raise SolverError(f"target profile invalid: {bad[0]}")
    need = _check_anchors(anchors, k, depth)
    pts = target_metric.points
    olds, new_pt = pts[:-1], pts[-1]
    # the implied extension must be plausible against the realized base
    # profiles, up to their own convergence radius at the deepest level
    for i, a in enumerate(anchors):
        base_fn = o.suitable_at(a.at(need))
        slack = pow2(-(k + 2))
        d_t = target_metric.d(olds[i], new_pt)
        for idx in set(new_fn.support) | set(base_fn.support):
            gap = abs(
                eval_suitable(new_fn, idx, k_space)
                - eval_suitable(base_fn, idx, k_space)
            )
            if gap > d_t + slack:
                raise SolverError(
                    f"target profile too far from anchor {i} at index {idx}: "
                    f"{gap} > {d_t} + {slack}"
                )

    checks: list[Check] = []
    values: list[ProfileValue] = []

    def step(level, avec, prev, base_dists):
        base = [(o.suitable_at(u), du) for u, du in base_dists.items()]
        support = set(k_space.net_chain(level))
        for fu, _ in base:
            support.update(fu.support)
        gamma = {
            i: _window(eval_suitable(new_fn, i, k_space), i, base, k_space)
            for i in sorted(support)
        }
        f = build_suitable(gamma, k_space)
        lip_index = None
        if lip_seq is not None:
            lip_index = lip_seq[level - 1]
            _check_label(o, lip_index, level, base_dists, "label", checks)
        result = o.grow(base_dists, suitable=f, lip_index=lip_index)
        for n in range(1, k_space.size + 1):
            pv = ProfileValue(
                level, n, eval_suitable(new_fn, n, k_space), eval_suitable(f, n, k_space)
            )
            values.append(pv)
            checks.append(
                Check(f"profile-{level}-{n}", pv.deviation, "<=", pow2(-level))
            )
            if pv.deviation > pow2(-level):
                raise SolverError(
                    f"profile deviation {pv.deviation} at level {level}, index {n} "
                    f"exceeds 2^-{level}"
                )
        return result.point

    point = _sandwich_chain(o, anchors, target_metric, depth, 0, checks, step)
    return ExtensionOutcome(point, tuple(checks), values=tuple(values))


def embed_point_c(
    o: LimitOracle,
    new_fn: SuitableFn,
    depth: int,
    lip_target: int | Sequence[int] | None = None,
) -> ExtensionOutcome:
    """Singleton case: realize one point whose profile tracks ``new_fn``."""
    return extend_one_point_c(
        o, [], FinMetric(("b1",), {}), new_fn, depth, lip_target=lip_target
    )


def realize_zero_witness(
    o: LimitOracle, u: str, n: int, eps: Fraction
) -> tuple[str, tuple[Check, ...]]:
    """Grow a point v with d(u, v) <= p(u)(n) + eps and p(v)(n) = 0 exactly.

    The construction shifts u's profile down by the realized value q and
    drops the support entries that vanish; for q = 0 the point u itself
    already witnesses membership and is returned without growth.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    k_space = o.compact
    if k_space is None:
        raise SolverError("oracle does not carry a compact presentation")
    k_space.check_index(n)
    fn = o.suitable_at(u)
    q = eval_suitable(fn, n, k_space)
    if q == 0:
        return u, (Check("zero-witness-distance", ZERO, "<=", eps),)
    shifted = suitable({i: v - q for i, v in fn.pins if v > q})
    result = o.grow({u: q}, suitable=shifted)
    v = result.point
    checks = (
        Check("zero-witness-distance", o.distance(u, v), "<", q + eps),
        Check("zero-witness-value", eval_suitable(shifted, n, k_space), "=", ZERO),
    )
    if not all(c.holds for c in checks):
        raise SolverError("zero witness construction failed its own checks")
    return v, checks


def snapshot_product(o: LimitOracle) -> StructureC:
    """The oracle's current product-mode state as one finite structure."""
    return StructureC(o.metric(), {p: o.suitable_at(p) for p in o.points})


@dataclass(frozen=True)
class Membership:
    state: str  # IN | OUT | UNKNOWN
    value: Fraction | None
    threshold: Fraction | None


def membership_c(o: LimitOracle, p: CauchyPoint, n: int, depth: int) -> Membership:
    """Read the realized profile at the requested depth and classify.

    OUT means the value certifiably exceeds the approximation radius;
    IN means membership holds up to the certified precision.  UNKNOWN is
    reserved for structurally missing data.
    """
    if depth < 1 or p.depth < depth or len(p.certs) < depth - 1:
        return Membership("UNKNOWN", None, None)
    point = p.at(depth)
    try:
        fn = o.suitable_at(point)
    except KeyError:
        return Membership("UNKNOWN", None, None)
    value = eval_suitable(fn, n, o.compact)
    threshold = pow2(-(depth - 1))
    return Membership("OUT" if value > threshold else "IN", value, threshold)
