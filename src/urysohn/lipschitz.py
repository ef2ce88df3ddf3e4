"""Structures carrying an L-Lipschitz map into a fixed Polish presentation.

Each point is labelled with one dense index of the target space; the label
metric must contract by the factor L.  The limit function is read off a
Cauchy point by taking the label at depth j, certified within L * 2^-j.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cauchy import CauchyPoint, ExtensionOutcome, SolverError, _check_anchors, _sandwich_chain
from .certificates import Check
from .engine import LimitOracle
from .metric import FinMetric, jep_gap, jep_gap_metric, path_amalgam_carry, validate_metric
from .rationals import pow2
from .spaces import PolishPresentation


@dataclass(frozen=True)
class StructureL:
    """Finite metric space with a dense-index label per point."""

    metric: FinMetric
    labels: dict[str, int]
    lip: Fraction

    @property
    def points(self) -> tuple[str, ...]:
        return self.metric.points


def validate_l(s: StructureL, z: PolishPresentation) -> list[str]:
    report = [f"metric: {msg}" for msg in validate_metric(s.metric)]
    if s.lip <= 0:
        report.append("the Lipschitz constant must be positive")
    for p in s.points:
        if p not in s.labels:
            report.append(f"missing label for {p!r}")
            continue
        try:
            z.check_index(s.labels[p])
        except IndexError as exc:
            report.append(str(exc))
    if report:
        return report
    for i, a in enumerate(s.points):
        for b in s.points[i + 1 :]:
            dz = z.d_idx(s.labels[a], s.labels[b])
            if dz > s.lip * s.metric.d(a, b):
                report.append(
                    f"lipschitz ({a},{b}): {dz} > {s.lip} * {s.metric.d(a, b)}"
                )
    return report


def amalgamate_l(
    b: StructureL,
    c: StructureL,
    a: StructureL,
    map_b: Mapping[str, str],
    map_c: Mapping[str, str],
    z: PolishPresentation,
) -> StructureL:
    if b.lip != c.lip:
        raise ValueError(f"mismatched Lipschitz constants: {b.lip} != {c.lip}")
    for p in a.points:
        if b.labels[map_b[p]] != c.labels[map_c[p]]:
            raise ValueError(f"sides disagree on the label of {p!r}")
    metric, labels = path_amalgam_carry(
        b.metric, c.metric, a.metric, map_b, map_c, b.labels, c.labels
    )
    return StructureL(metric, labels, b.lip)


def joint_embed_l(a: StructureL, b: StructureL, z: PolishPresentation) -> StructureL:
    """Disjoint union at a constant gap.

    The gap uses max d_Z(labels)/L across the two sides, so the Lipschitz
    condition holds at every cross pair for any positive L.
    """
    if a.lip != b.lip:
        raise ValueError(f"mismatched Lipschitz constants: {a.lip} != {b.lip}")
    gap = jep_gap(
        [a.metric.diam(), b.metric.diam()]
        + [z.d_idx(a.labels[p], b.labels[q]) / a.lip for p in a.points for q in b.points]
    )
    metric = jep_gap_metric(a.metric, b.metric, gap)
    return StructureL(metric, {**a.labels, **b.labels}, a.lip)


def check_label_modulus(
    seq: Sequence[int], k: int, z: PolishPresentation, lip: Fraction
) -> list[Check]:
    """The label sequence must contract like d_Z(q_j, q_i) < L / (k 2^(j+2))."""
    checks = []
    for j in range(1, len(seq) + 1):
        for i in range(j + 1, len(seq) + 1):
            checks.append(
                Check(
                    f"modulus-{j}-{i}",
                    z.d_idx(seq[j - 1], seq[i - 1]),
                    "<",
                    lip / (k * 2 ** (j + 2)),
                )
            )
    return checks


def _label_targets(
    o: LimitOracle, target: int | Sequence[int], k: int, depth: int
) -> tuple[list[int], list[Check]]:
    """The label targets of a one-point step on a ``k``-point target, a
    constant index or a sequence, as a list of at least ``depth`` dense
    indices of the oracle's polish presentation, and the modulus checks of
    its first ``depth``, every one of which holds; SolverError otherwise."""
    z = o.polish
    seq = [target] * depth if isinstance(target, int) else list(target)
    if len(seq) < depth:
        raise SolverError(f"label sequence of length {len(seq)} shorter than {depth}")
    try:
        for i in seq:
            z.check_index(i)
    except IndexError as exc:
        raise SolverError(f"label target: {exc}") from None
    checks = check_label_modulus(seq[:depth], k, z, o.lip_const)
    for c in checks:
        if not c.holds:
            raise SolverError(f"label sequence breaks its modulus: {c.name}")
    return seq, checks


def extend_one_point_l(
    o: LimitOracle,
    anchors: Sequence[CauchyPoint],
    target_metric: FinMetric,
    target: int | Sequence[int],
    depth: int,
) -> ExtensionOutcome:
    """Realize the last point of ``target_metric`` with label targets ``target``.

    A plain index means the constant sequence.  Every per-step Lipschitz
    inequality against the base is verified exactly before growth.
    """
    if o.polish is None or o.lip_const is None:
        raise SolverError("oracle does not carry a polish presentation")
    k = len(target_metric)
    seq, checks = _label_targets(o, target, k, depth)
    _check_anchors(anchors, k, depth)

    def step(level, avec, prev, base_dists):
        label = seq[level - 1]
        _check_label(o, label, level, base_dists, "step-lipschitz", checks)
        return o.grow(base_dists, lip_index=label).point

    point = _sandwich_chain(o, anchors, target_metric, depth, 0, checks, step)
    return ExtensionOutcome(point, tuple(checks))


def _check_label(
    o: LimitOracle,
    label: int,
    level: int,
    base_dists: Mapping[str, Fraction],
    prefix: str,
    checks: list[Check],
):
    """The label of a new point at ``level`` must keep the Lipschitz bound
    against every base point; one check per base point, named by ``prefix``."""
    for u, du in base_dists.items():
        c = Check(
            f"{prefix}-{level}-{u}",
            o.polish.d_idx(label, o.lip_index_at(u)),
            "<=",
            o.lip_const * du,
        )
        checks.append(c)
        if not c.holds:
            raise SolverError(
                f"label {label} at level {level} breaks the Lipschitz bound "
                f"against {u!r}"
            )


def snapshot_lipschitz(o: LimitOracle) -> StructureL:
    """The oracle's current label state as one finite structure."""
    return StructureL(o.metric(), {p: o.lip_index_at(p) for p in o.points}, o.lip_const)


def eval_limit_function(
    o: LimitOracle, p: CauchyPoint, depth: int
) -> tuple[int, Fraction]:
    """Dense index at the given depth plus the certified radius L * 2^-depth.

    The radius shrinks with depth, so deeper reads never loosen the bound.
    """
    if depth < 1 or p.depth < depth:
        raise SolverError(f"point of depth {p.depth} cannot be read at {depth}")
    if len(p.certs) != p.depth - 1:
        raise SolverError("missing gap certificates")
    return o.lip_index_at(p.at(depth)), o.lip_const * pow2(-depth)
