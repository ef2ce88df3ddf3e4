"""Finite presentations of compact and Polish spaces, and finitely-supported
nonnegative 1-Lipschitz profiles over a compact presentation.

A profile is stored by its support pins; its value everywhere else is the
Katetov envelope max(0, max_i (r_i - d(q_j, q_i))).  On a finite dense set
this form spans exactly the nonnegative 1-Lipschitz functions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from .metric import FinMetric, _katetov_window, validate_metric
from .rationals import ZERO, pow2


@dataclass(frozen=True)
class _Presentation:
    """A finite dense set with exact distances; dense indices are 1-based
    positions in the point list."""

    metric: FinMetric

    @property
    def size(self) -> int:
        return len(self.metric)

    @cached_property
    def _d(self) -> dict[tuple[int, int], Fraction]:
        """d(q_i, q_j) for distinct dense indices, the table the Katetov
        kernel reads; built once, on first use, and not compared."""
        pts = self.metric.points
        return {
            (i, j): self.metric.d(x, y)
            for i, x in enumerate(pts, 1)
            for j, y in enumerate(pts, 1)
            if i != j
        }

    def d_idx(self, i: int, j: int) -> Fraction:
        return ZERO if i == j else self._d[(i, j)]

    def check_index(self, i: int):
        if not 1 <= i <= self.size:
            raise IndexError(f"dense index {i} outside 1..{self.size}")


@dataclass(frozen=True)
class CompactPresentation(_Presentation):
    """Compact space given by a finite rational metric on its dense points.

    Nets are computed greedily and refine each other level by level, so the
    net at scale 2^-(l+3) always contains the net at scale 2^-(l+2).
    """

    _nets: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False, compare=False)

    def net_chain(self, level: int) -> tuple[int, ...]:
        """Net at scale 2^-(level+2); nested along increasing level."""
        if level in self._nets:
            return self._nets[level]
        seed = self.net_chain(level - 1) if level > 1 else ()
        result = self._greedy(pow2(-(level + 2)), seed=seed)
        self._nets[level] = result
        return result

    def _greedy(self, eps: Fraction, seed: tuple[int, ...]) -> tuple[int, ...]:
        chosen = list(seed)
        for i in range(1, self.size + 1):
            if all(self.d_idx(i, j) >= eps for j in chosen):
                chosen.append(i)
        return tuple(sorted(chosen))


def validate_compact(k: CompactPresentation) -> list[str]:
    return validate_metric(k.metric)


@dataclass(frozen=True)
class PolishPresentation(_Presentation):
    """Polish space given by a finite prefix of a dense set with exact distances.

    Distinct indices at distance zero are only legal when declared aliases.
    """

    aliases: frozenset[tuple[int, int]] = frozenset()


def validate_polish(z: PolishPresentation) -> list[str]:
    # identity is re-checked below against the alias list
    report = [msg for msg in validate_metric(z.metric) if "identity" not in msg]
    for i in range(1, z.size + 1):
        for j in range(i + 1, z.size + 1):
            if z.d_idx(i, j) == 0 and (i, j) not in z.aliases:
                report.append(f"identity ({i},{j}): zero distance without alias")
    return report


@dataclass(frozen=True)
class SuitableFn:
    """Finitely-supported nonnegative 1-Lipschitz profile over the dense set."""

    pins: tuple[tuple[int, Fraction], ...]  # sorted by index

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.pins)

    def pin_value(self, i: int) -> Fraction:
        for j, v in self.pins:
            if j == i:
                return v
        raise KeyError(i)

    def max_value(self) -> Fraction:
        return max((v for _, v in self.pins), default=ZERO)


def suitable(values: Mapping[int, Fraction]) -> SuitableFn:
    return SuitableFn(tuple(sorted(values.items())))


def eval_suitable(f: SuitableFn, j: int, k: CompactPresentation) -> Fraction:
    """max(0, max_i (r_i - d(q_j, q_i))); agrees with the pins on the support."""
    k.check_index(j)
    d = k._d
    env = 0
    for i, v in f.pins:
        if v > env:
            s = v if i == j else v - d[(i, j)]
            if s > env:
                env = s
    return env or ZERO


def _cross_breaks(f: SuitableFn, g: SuitableFn, d: Fraction, k: CompactPresentation):
    """Yield (i, v, w) for each support pin (i, v) of f with v > w + d, w = g(i).

    The cross condition f <= g + d between two points at distance d: g + d
    is 1-Lipschitz and f is the envelope of its pins, so the pins decide it.
    Lazy, so a caller that stops at the first break evaluates g no further.
    """
    for i, v in f.pins:
        w = eval_suitable(g, i, k)
        if v > w + d:
            yield i, v, w


def _window(v: Fraction, i: int, neighbours, k: CompactPresentation) -> Fraction:
    """``v`` clamped into [max f(i) - d, min f(i) + d] over the profiles f
    of ``neighbours`` at distances d: one Katetov clamp, neighbour j as the
    1-tuple (j,) and the clamped point as None."""
    pins = [((j,), eval_suitable(f, i, k)) for j, (f, _) in enumerate(neighbours)]
    dist = {(j, None): d for j, (_, d) in enumerate(neighbours)}
    lo, hi = _katetov_window(pins, (None,), dist)
    return min(max(v, lo), hi)


def validate_suitable(f: SuitableFn, k: CompactPresentation) -> list[str]:
    """Pins must be in range, nonnegative, and mutually 1-Lipschitz.

    Mutual consistency is exactly what makes the envelope interpolate its
    own pins.
    """
    report = []
    seen = set()
    for i, v in f.pins:
        if not 1 <= i <= k.size:
            report.append(f"support index {i} outside 1..{k.size}")
            continue
        if i in seen:
            report.append(f"duplicate support index {i}")
        seen.add(i)
        if v < 0:
            report.append(f"negative value at {i}")
    if report:
        return report
    for i, vi in f.pins:
        for j, vj in f.pins:
            if vi > vj + k.d_idx(i, j):
                report.append(
                    f"support clash: r_{i} = {vi} > {vj} + {k.d_idx(i, j)} = r_{j} + d"
                )
    return report


def build_suitable(gamma: Mapping[int, Fraction], k: CompactPresentation) -> SuitableFn:
    """Lift raw target values into a consistent profile, largest first.

    Indices are processed by descending value; each one receives its own
    target unless the envelope of the earlier pins already exceeds it.
    """
    order = sorted(gamma, key=lambda i: (-gamma[i], i))
    out: dict[int, Fraction] = {}
    pins: list[tuple[tuple[int], Fraction]] = []
    for i in order:
        eta = _katetov_window(pins, (i,), k._d)[0]
        out[i] = eta if eta > gamma[i] else gamma[i]
        pins.append(((i,), gamma[i]))
    return suitable(out)


def suitable_from_values(values: Mapping[int, Fraction], k: CompactPresentation) -> SuitableFn:
    """Encode explicitly given values, dropping pins the others already force."""
    items = sorted(values.items())
    for i, v in items:
        k.check_index(i)
        if v < 0:
            raise ValueError(f"negative value at index {i}")
        for j, w in items:
            if v > w + k.d_idx(i, j):
                raise ValueError(f"values at {i} and {j} are not 1-Lipschitz")
    kept: dict[int, Fraction] = dict(items)
    for i, v in items:
        rest = SuitableFn(tuple(sorted((j, w) for j, w in kept.items() if j != i)))
        if eval_suitable(rest, i, k) == v:
            del kept[i]
    return suitable(kept)
