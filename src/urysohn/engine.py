"""Joint embedding and amalgamation for predicate structures, and the lazy
limit oracle.

The oracle is a growing finite approximation of the homogeneous limit: an
append-only chain of points with exact rational distances, decorated per
mode with

  rel   indexed n-ary predicate tables, stored by their Katetov pins;
  prod  one finitely-supported Lipschitz profile per point;
  lip   one dense index of a Polish presentation per point.

Each one-point growth request is amalgamated with the current state over
its base: distances to points outside the base go through the cheapest
base point, predicate data extends canonically.  Realized values never
change afterwards.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Mapping

from .metric import (
    FinMetric,
    MetricTableError,
    WitnessError,
    _ceiling,
    _envelope,
    _gather_min,
    _getter,
    jep_gap,
    jep_gap_metric,
    katetov_break,
    path_amalgam_metric,
)
from .rationals import ZERO, fmt_scaled, scaled
from .relational import (
    EMPTY_STRUCTURE,
    EmbeddingWitness,
    IndexedStructure,
    PredTable,
    canonical_extend,
    check_embedding_k,
    identity_witness,
    indexed_structure,
    pattern_indices,
    pattern_slots,
    tuples_over,
    validate_pattern,
)
from .spaces import (
    CompactPresentation,
    PolishPresentation,
    SuitableFn,
    _cross_breaks,
    validate_suitable,
)


@dataclass(frozen=True)
class Amalgam:
    """Amalgamation output with the two commuting embedding witnesses."""

    result: IndexedStructure
    wit_b: EmbeddingWitness
    wit_c: EmbeddingWitness


def joint_embed_k(a: IndexedStructure, b: IndexedStructure) -> Amalgam:
    """Joint embedding: disjoint union at constant gap twice the largest value.

    Both sides must have initial-segment index sets.  Predicate slots
    undefined on a side are filled with zero, which the gap makes consistent.
    """
    if set(a.points) & set(b.points):
        raise MetricTableError("point ids must be disjoint for joint embedding")
    gap = jep_gap(
        v for s in (a, b) for vals in (s.metric.table, s.pred) for v in vals.values()
    )
    metric = jep_gap_metric(a.metric, b.metric, gap)
    n_d = max(a.bound, b.bound)
    a_set, b_set = set(a.points), set(b.points)
    pred: PredTable = {}
    for n, md in pattern_slots(n_d):
        for tup in tuples_over(metric.points, n):
            if n <= a.bound and md <= a.bound + 1 - n and all(p in a_set for p in tup):
                pred[(n, md, tup)] = a.pred[(n, md, tup)]
            elif n <= b.bound and md <= b.bound + 1 - n and all(p in b_set for p in tup):
                pred[(n, md, tup)] = b.pred[(n, md, tup)]
            else:
                pred[(n, md, tup)] = ZERO
    d = IndexedStructure(metric, n_d, pattern_indices(n_d), pred)
    return Amalgam(d, identity_witness(a), identity_witness(b))


def _normalizing_perm(
    s: IndexedStructure, a: IndexedStructure, w: EmbeddingWitness
) -> dict[int, dict[int, int]]:
    """Index permutation of s sending the transported common slots to initial segments."""
    rho: dict[int, dict[int, int]] = {}
    for n in range(1, s.bound + 1):
        size = s.bound + 1 - n
        perm: dict[int, int] = {}
        if n <= a.bound:
            for m in range(1, a.bound + 2 - n):
                perm[w.pi[n][m]] = m
        free_targets = [t for t in range(1, size + 1) if t not in perm.values()]
        free_sources = [m for m in range(1, size + 1) if m not in perm]
        for src, tgt in zip(free_sources, free_targets):
            perm[src] = tgt
        rho[n] = perm
    return rho


def _reindex(s: IndexedStructure, rho: dict[int, dict[int, int]]) -> IndexedStructure:
    pred = {(n, rho[n][m], tup): v for (n, m, tup), v in s.pred.items()}
    return replace(s, pred=pred)


def amalgamate_k(
    b: IndexedStructure,
    c: IndexedStructure,
    a: IndexedStructure,
    wab: EmbeddingWitness,
    wac: EmbeddingWitness,
) -> Amalgam:
    """Amalgamate b and c over a, all three with initial-segment index sets.

    Both witnesses must transport a's data exactly.  The two sides are first
    reindexed so the common slots sit at initial segments; b then keeps its
    slot indices in the output while c's slots beyond the common pattern are
    shifted up by b.bound - a.bound.  Tuples mixing the two new sides are filled by
    the Katetov extension, brand-new slots with zero.
    """
    ok, why = check_embedding_k(a, b, wab)
    if not ok:
        raise WitnessError(f"common part does not embed into b: {why}")
    ok, why = check_embedding_k(a, c, wac)
    if not ok:
        raise WitnessError(f"common part does not embed into c: {why}")
    rho_b = _normalizing_perm(b, a, wab)
    rho_c = _normalizing_perm(c, a, wac)
    b2, c2 = _reindex(b, rho_b), _reindex(c, rho_c)

    metric = path_amalgam_metric(b.metric, c.metric, a.metric, wab.phi, wac.phi)
    back_b = {w: p for p, w in wab.phi.items()}
    back_c = {w: p for p, w in wac.phi.items()}
    out_b = {p: back_b.get(p, p) for p in b.points}
    out_c = {p: back_c.get(p, p) for p in c.points}

    n_d = b.bound + c.bound - a.bound
    shift = b.bound - a.bound
    partial: dict[tuple[int, int], dict[tuple[str, ...], Fraction]] = {}
    for (n, m, tup), v in b2.pred.items():
        partial.setdefault((n, m), {})[tuple(out_b[p] for p in tup)] = v
    for (n, m, tup), v in c2.pred.items():
        slot = (n, m) if n <= a.bound and m <= a.bound + 1 - n else (n, m + shift)
        mt = tuple(out_c[p] for p in tup)
        known = partial.setdefault(slot, {})
        if mt in known and known[mt] != v:
            raise WitnessError(
                f"sides disagree over the common part at slot {slot}, tuple {mt}: "
                f"{known[mt]} != {v}"
            )
        known[mt] = v
    pred: PredTable = {}
    for n, m in pattern_slots(n_d):
        vals = partial.get((n, m))
        if vals is None:
            for tup in tuples_over(metric.points, n):
                pred[(n, m, tup)] = ZERO
        else:
            for tup, v in canonical_extend(metric, vals, n).items():
                pred[(n, m, tup)] = v
    d = IndexedStructure(metric, n_d, pattern_indices(n_d), pred)

    wit_b = EmbeddingWitness(
        out_b,
        {n: dict(rho_b[n]) for n in range(1, b.bound + 1)},
    )
    pi_c: dict[int, dict[int, int]] = {}
    for n in range(1, c.bound + 1):
        pi_c[n] = {}
        for m in range(1, c.bound + 2 - n):
            t = rho_c[n][m]
            pi_c[n][m] = t if n <= a.bound and t <= a.bound + 1 - n else t + shift
    wit_c = EmbeddingWitness(out_c, pi_c)
    return Amalgam(d, wit_b, wit_c)


class OracleGrowthError(Exception):
    """A growth request is inconsistent with the current oracle state."""


@dataclass(frozen=True)
class RelExtension:
    """One-point predicate extension request against the oracle.

    ``ext`` is a valid structure whose points map into the oracle via
    ``base_map`` except for exactly one new point.  ``slot_map`` sends every
    slot of ext either to a realized global index or to None for a fresh one.

    ``birth_pins`` may pin a freshly registered slot on further existing
    points beyond the extension's own base, which is how a new predicate is
    given accurate values along anchor tails it will be read at later; the
    whole pin set of a fresh slot must be mutually 1-Lipschitz.
    """

    ext: IndexedStructure
    base_map: dict[str, str]
    slot_map: dict[tuple[int, int], int | None]
    birth_pins: dict[tuple[int, int], dict[tuple[str, ...], Fraction]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class GrowthResult:
    point: str
    slot_globals: dict[tuple[int, int], int]


@dataclass(frozen=True)
class GrowthRecord:
    """Materialized state delta of one growth step, sufficient for replay.

    A parsed record holds its distances as a ScaledDists; a committed one,
    grown or replayed, reads them from the oracle's rows through a RowDists.

    ``base`` is None when the record gives the new point's distance to
    every earlier point.  Otherwise it is the step's base, sorted, and only
    the distances to those points are logged: replay rebuilds the rest of
    the row by the path rule, as grow built it (``_extended_row``).
    """

    point: str
    dists: Mapping[str, Fraction]
    pins: dict[tuple[int, int], dict[tuple[str, ...], Fraction]]
    fresh: tuple[tuple[int, int], ...]
    suitable: SuitableFn | None
    lip_index: int | None
    base: tuple[str, ...] | None = None


class RowDists(Mapping):
    """Read-only distances from the point of handle ``h`` to the points
    before it, read from the oracle's integer rows at its current scale.

    It holds the oracle's ids, handles, rows and one-element scale cell,
    never the oracle: a back-reference would put every grown oracle in a
    reference cycle, and a dead one would wait for the cyclic collector.
    """

    __slots__ = ("_ids", "_pos", "_rows", "_h", "_scale")

    def __init__(self, ids: list[str], pos: dict[str, int], rows: list[list[int]],
                 h: int, scale: list[int]):
        self._ids, self._pos, self._rows, self._h, self._scale = ids, pos, rows, h, scale

    def __getitem__(self, p: str) -> Fraction:
        k = self._pos.get(p, self._h)
        if k >= self._h:
            raise KeyError(p)
        return Fraction(self._rows[self._h][k], self._scale[0])

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids[: self._h])

    def __len__(self) -> int:
        return self._h

    def texts(self, ids: Iterable[str] | None = None) -> list[tuple[str, str]]:
        """(id, canonical "num/den") pairs in id order, from the integers;
        only at ``ids``, given in id order, when they are given."""
        row, pos, den = self._rows[self._h], self._pos, self._scale[0]
        if ids is None:
            ids = sorted(self._ids[: self._h])
        return [(p, fmt_scaled(row[pos[p]], den)) for p in ids]


class ScaledDists(Mapping):
    """Distances to earlier points as integers over one denominator:
    ``ints`` maps each id to its distance times ``den``.  A parsed record
    holds its distances this way, one int per point, and replay_record
    reads every record's distances this way."""

    __slots__ = ("ints", "den")

    def __init__(self, ints: dict[str, int], den: int):
        self.ints, self.den = ints, den

    @classmethod
    def of(cls, dists: Mapping[str, Fraction]) -> ScaledDists:
        """``dists`` over the least common denominator of its values."""
        if isinstance(dists, cls):
            return dists
        den = lcm(*(v.denominator for v in dists.values()))
        return cls({p: scaled(v, den) for p, v in dists.items()}, den)

    def __getitem__(self, p: str) -> Fraction:
        return Fraction(self.ints[p], self.den)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ints)

    def __len__(self) -> int:
        return len(self.ints)

    def texts(self, ids: Iterable[str] | None = None) -> list[tuple[str, str]]:
        """(id, canonical "num/den") pairs in id order, from the integers;
        only at ``ids``, given in id order, when they are given."""
        ints, den = self.ints, self.den
        return [(p, fmt_scaled(ints[p], den)) for p in (sorted(ints) if ids is None else ids)]


class _Pins:
    """The stored pins of one global slot, as columns: handle tuples, their
    negated integer weights at the oracle's scale, and one row getter per
    coordinate, rebuilt on first use after a pin is added.

    Pinning a tuple again overwrites its weight in place, as a dict would.
    """

    __slots__ = ("tups", "neg", "_gets")

    def __init__(self):
        self.tups: dict[tuple[int, ...], int] = {}  # in column order -> column
        self.neg: list[int] = []
        self._gets: list | None = None

    def add(self, pos: dict[str, int], delta: Mapping[tuple[str, ...], int]):
        for tup, w in delta.items():
            t = tuple(map(pos.__getitem__, tup))
            i = self.tups.get(t)
            if i is None:
                self.tups[t] = len(self.neg)
                self.neg.append(-w)
                self._gets = None
            else:
                self.neg[i] = -w

    def gets(self) -> list:
        if self._gets is None:
            self._gets = [_getter(col) for col in zip(*self.tups)]
        return self._gets

    def unreproduced(self, rows: list[list[int]]) -> Iterator[tuple[int, ...]]:
        """The pins their envelope does not reproduce, in column order, on
        rows >= 0, as grow and replay_record keep them: each refuses a step
        whose distances are not positive.  Each pin is checked against the
        strictly heavier pins alone (validate_state has the proof): sorted
        heaviest first, they are a prefix, and ``map`` in the row gather
        stops at its end."""
        order = sorted(range(len(self.neg)), key=self.neg.__getitem__)
        neg = [self.neg[i] for i in order]
        tups = list(self.tups)
        gets = [_getter(col) for col in zip(*(tups[i] for i in order))]
        for t, w in zip(tups, self.neg):
            heavier = bisect_left(neg, w)
            if w > 0 or heavier and _gather_min(rows, gets, neg[:heavier], t) < w:
                yield t


class LimitOracle:
    """Append-only growing approximation of the homogeneous limit."""

    def __init__(
        self,
        modes: Iterable[str] = ("rel",),
        compact: CompactPresentation | None = None,
        polish: PolishPresentation | None = None,
        lip_const: Fraction | None = None,
    ):
        self.modes = tuple(modes)
        for mode in self.modes:
            if mode not in ("rel", "prod", "lip"):
                raise ValueError(f"unknown mode {mode!r}")
        if "prod" in self.modes and compact is None:
            raise ValueError("prod mode needs a compact presentation")
        if "lip" in self.modes and (polish is None or lip_const is None or lip_const <= 0):
            raise ValueError("lip mode needs a polish presentation and a positive constant")
        self.compact = compact
        self.polish = polish
        self.lip_const = lip_const
        self._points: list[str] = []
        # point -> its handle: its index in _points and in _rows, the step
        # that added it minus one
        self._pos: dict[str, int] = {}
        self._counts: dict[int, int] = {}
        self.registry: dict[tuple[int, int], int] = {}
        self._suit: dict[str, SuitableFn] = {}
        self._lip: dict[str, int] = {}
        self.log: list[GrowthRecord] = []
        # distances and pin values are held as integers over one common
        # denominator, which keeps the envelope scans in machine arithmetic;
        # every exact rational survives unchanged (divisibility is asserted)
        self._den: int = 1
        self._scale: list[int] = [1]  # _den again, shared with the RowDists
        # _rows[h][k] = d(h, k) * _den by handle, zero on the diagonal
        self._rows: list[list[int]] = []
        self._pins: dict[tuple[int, int], _Pins] = {}
        # realized values never change once their points exist, so envelope
        # values are memoized for the lifetime of the oracle: predicate_values
        # stores each value it computes, and grow, after its commit, stores
        # the value its walk gave each entry of the request (_rel_pins), which
        # equals the envelope there.  Replay and a refused request store none.
        self._value_cache: dict[tuple[int, int, tuple[str, ...]], Fraction] = {}

    # -- scaled representation ----------------------------------------------

    @property
    def den(self) -> int:
        """The common denominator every stored distance and pin value fits."""
        return self._den

    def _den_with(self, dens: Iterable[int]) -> int:
        """The denominator that holds the present state and values over the
        denominators ``dens`` exactly.

        Pure: the state is rescaled only by ``_rescale`` at commit time.
        """
        need = lcm(self._den, *dens)
        if need == self._den:
            return need
        # pad with a block of two-powers so chains of halving levels do not
        # force a rescale at every step
        return need * 2**12

    def _rescale(self, den: int):
        factor = den // self._den
        if factor == 1:
            return
        # in place, one row at a time: the RowDists hold this very list and
        # its rows.  Below the diagonal, row h takes the ints the rows above
        # it already hold, so each distance stays one object shared by both
        # orders, as _append leaves it, and only one row is transient.
        rows = self._rows
        for h, row in enumerate(rows):
            row[:h] = map(itemgetter(h), rows[:h])
            row[h:] = map(mul, row[h:], repeat(factor))
        for pins in self._pins.values():
            pins.neg = [w * factor for w in pins.neg]
        self._den = self._scale[0] = den

    def _append(self, point: str, row: list[int]):
        """Adjoin ``point`` at the distances ``row`` to every earlier point,
        by handle."""
        for r, v in zip(self._rows, row):
            r.append(v)
        row.append(0)
        self._pos[point] = len(self._points)
        self._points.append(point)
        self._rows.append(row)

    # -- read access -------------------------------------------------------

    @property
    def points(self) -> tuple[str, ...]:
        return tuple(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def distance(self, x: str, y: str) -> Fraction:
        if x == y:
            if x not in self._pos:
                raise MetricTableError(f"unknown point {x!r}")
            return ZERO
        try:
            return Fraction(self._rows[self._pos[x]][self._pos[y]], self._den)
        except KeyError:
            raise MetricTableError(f"unknown pair ({x!r}, {y!r})") from None

    def realized_count(self, arity: int) -> int:
        return self._counts.get(arity, 0)

    def predicate_value(self, n: int, g: int, tup: tuple[str, ...]) -> Fraction:
        """Katetov envelope of the stored pins of global slot (n, g) at
        ``tup``: ``predicate_values`` of the one tuple."""
        return self.predicate_values(n, g, (tup,))[0]

    def predicate_values(
        self, n: int, g: int, tups: Iterable[tuple[str, ...]]
    ) -> list[Fraction]:
        """Katetov envelopes of the stored pins of global slot (n, g) at each
        of ``tups``, in their order; every value computed is cached.

        KeyError for an unrealized slot, and, before any value is cached, for
        a tuple of another arity or on a point outside the oracle; only a
        cache miss checks, since the cache holds nothing else.
        """
        vals, missed = self._envelopes(n, g, tups)
        self._value_cache.update(missed)
        return vals

    def _envelopes(
        self, n: int, g: int, tups: Iterable[tuple[str, ...]]
    ) -> tuple[list[Fraction], dict[tuple[int, int, tuple[str, ...]], Fraction]]:
        """``predicate_values`` without its cache write: the values, and the
        cache entries of the misses.

        E(t) = max(0, -low(t)), with low(t) the min over pins (p, w) of
        d(p, t) - w in the sum metric.  Split t into its first n - 1 points h
        and its last point z: d(p, t) - w = (d(p', h) - w) + d(p_n, z), p'
        the first n - 1 points of p.  So the misses take one summed gather of
        the pin columns per distinct prefix h, one gather of the last column
        per distinct last point z, and then one ``map(add)`` and one ``min``
        per tuple.
        """
        if not 1 <= g <= self._counts.get(n, 0):
            raise KeyError(f"global slot ({n}, {g}) not realized")
        keys = [(n, g, t) for t in tups]
        vals = list(map(self._value_cache.get, keys))
        miss = [key for key, v in zip(keys, vals) if v is None]
        if not miss:
            return vals, {}
        pos = self._pos
        handles = {}
        for key in miss:
            tup = key[2]
            if len(tup) != n:
                raise KeyError(f"tuple {tup!r} has arity {len(tup)}, slot ({n}, {g}) wants {n}")
            try:
                handles[key] = tuple(map(pos.__getitem__, tup))
            except KeyError:
                raise KeyError(f"tuple {tup!r} has a point outside the oracle") from None
        pins = self._pins[(n, g)]
        if not pins.neg:
            missed = dict.fromkeys(handles, ZERO)
        else:
            rows, gets, den = self._rows, pins.gets(), self._den
            heads: dict[tuple[int, ...], list[int]] = {(): pins.neg}
            tails: dict[int, tuple[int, ...]] = {}
            missed = {}
            for key, t in handles.items():
                head = heads.get(t[:-1])
                if head is None:
                    head = pins.neg
                    for get, i in zip(gets, t[:-1]):
                        head = map(add, head, get(rows[i]))
                    head = heads[t[:-1]] = list(head)
                tail = tails.get(t[-1])
                if tail is None:
                    tail = tails[t[-1]] = gets[-1](rows[t[-1]])
                missed[key] = Fraction(max(0, -min(map(add, head, tail))), den)
        return [missed[key] if v is None else v for key, v in zip(keys, vals)], missed

    def suitable_at(self, point: str) -> SuitableFn:
        return self._suit[point]

    def lip_index_at(self, point: str) -> int:
        return self._lip[point]

    def metric(self) -> FinMetric:
        den, pts = self._den, self._points
        return FinMetric(
            tuple(pts),
            {
                (x, y): Fraction(v, den)
                for x, row in zip(pts, self._rows)
                for y, v in zip(pts, row)
                if x != y
            },
        )

    # -- growth ------------------------------------------------------------

    def grow(
        self,
        base_dists: Mapping[str, Fraction],
        rel: RelExtension | None = None,
        suitable: SuitableFn | None = None,
        lip_index: int | None = None,
    ) -> GrowthResult:
        """Adjoin one point; returns its minted id and any fresh slot indices.

        Distances to non-base points go through the cheapest base point; with
        an empty base against a nonempty oracle, a joint-embedding gap twice
        the largest value anywhere is used instead.  Every check runs before
        the first write, so a refused request leaves the oracle unchanged.
        """
        base = list(base_dists.keys())
        request = ScaledDists.of(base_dists)
        self._check_base(request)
        self._check_payload(rel is not None, suitable, lip_index)

        slot_assign: dict[tuple[int, int], int] = {}
        fresh: list[tuple[int, int]] = []
        if rel is not None:
            slot_assign, fresh = self._check_rel(rel, base, base_dists)

        # every path-rule distance is a base distance plus a stored one, so
        # the request's own values fix the scale of the whole new row
        dens = {request.den}
        if rel is not None:
            dens.update(v.denominator for v in rel.ext.pred.values())
            for pins in rel.birth_pins.values():
                dens.update(v.denominator for v in pins.values())
        gap = None
        if not base and self._points:
            gap = self._gap(rel, suitable, lip_index)
            dens.add(gap.denominator)
        den = self._den_with(dens)
        row = self._extended_row(request, gap, den)

        if suitable is not None:
            self._check_suitable(suitable, row, den)
        if lip_index is not None:
            self._check_lip(lip_index, row, den)

        new_id = f"u{len(self._points) + 1}"
        pins, walked = {}, {}
        if rel is not None:
            pins, walked = self._rel_pins(rel, slot_assign, new_id, row, den)
        rec = GrowthRecord(new_id, {}, pins, tuple(fresh), suitable, lip_index,
                           tuple(sorted(base)) if base else None)
        self._commit(rec, row, den)
        self._value_cache.update(walked)
        return GrowthResult(new_id, slot_assign)

    def _check_base(self, request: ScaledDists):
        """Refuse a base whose points are not in the oracle, or whose
        requested distances e are not positive or not Katetov on the base:
        |e_p - e_q| <= d(p, q) <= e_p + e_q for each pair.  In integers over
        the lcm of the request's denominator and the oracle's.  grow and
        replay_record both decide a base here, so replay refuses exactly
        what grow refuses."""
        pos, rows = self._pos, self._rows
        for p in request.ints:
            if p not in pos:
                raise OracleGrowthError(f"base point {p!r} not in the oracle")
        den = lcm(request.den, self._den)
        fe, fd = den // request.den, den // self._den
        base = [(p, e * fe) for p, e in request.ints.items()]
        for i, (p, ep) in enumerate(base):
            if ep <= 0:
                raise OracleGrowthError(f"distance to {p!r} must be positive")
            row = rows[pos[p]]
            for q, eq in base[i + 1 :]:
                dpq = row[pos[q]] * fd
                if abs(ep - eq) > dpq or dpq > ep + eq:
                    raise OracleGrowthError(
                        f"metric infeasible at the base pair ({p!r}, {q!r})"
                    )

    def _commit(self, rec: GrowthRecord, row: list[int], den: int):
        """Write the step ``rec``, its point at the integer distances ``row``
        over ``den``.  grow and replay_record call it only once every check
        has passed, so a refused step writes nothing.  The logged record
        reads its distances from ``row`` through a RowDists, whatever
        ``rec.dists`` held, so the oracle keeps each distance once."""
        self._rescale(den)
        step = len(self._points) + 1
        self._append(rec.point, row)
        for n, g in rec.fresh:
            self._counts[n] = g  # the next free index of its arity
            self.registry[(n, g)] = step
            self._pins[(n, g)] = _Pins()
        for slot, delta in rec.pins.items():
            self._pins[slot].add(self._pos, {tup: scaled(v, den) for tup, v in delta.items()})
        if rec.suitable is not None:
            self._suit[rec.point] = rec.suitable
        if rec.lip_index is not None:
            self._lip[rec.point] = rec.lip_index
        rec = replace(rec, dists=RowDists(self._points, self._pos, self._rows, step - 1,
                                          self._scale))
        self.log.append(rec)
        return rec

    def _extended_row(self, base_dists: Mapping[str, Fraction], gap, den) -> list[int]:
        """Distances from the new point to every point by handle, as
        integers at ``den``.

        With an empty base every point sits at ``gap``.  Otherwise point q
        sits at r_q = min over base points b of e_b + d(b, q), with e_b the
        requested distance: one C-level ``map(min, ...)`` over the base
        rows, each rescaled to ``den`` and shifted by its e_b.  On the base
        this is the request itself: b's own row gives e_b + d(b, b) = e_b,
        and every other base point b' gives e_b' + d(b', b) >= e_b, because
        ``_check_base`` has checked |e_b - e_b'| <= d(b, b').
        """
        if gap is not None:
            return [scaled(gap, den)] * len(self._points)
        request = ScaledDists.of(base_dists)
        factor, fe = den // self._den, den // request.den
        shifted = []
        for p, e in request.ints.items():
            row = self._rows[self._pos[p]]
            if factor != 1:
                row = map(mul, row, repeat(factor))
            shifted.append(map(add, row, repeat(e * fe)))
        if len(shifted) < 2:
            return list(shifted[0]) if shifted else []
        return list(map(min, *shifted))

    def _gap(self, rel, suitable, lip_index) -> Fraction:
        """Joint-embedding gap over every value anywhere, the request's too."""
        den = self._den
        values = [Fraction(max(map(max, self._rows), default=0), den)]
        values += (Fraction(-min(p.neg, default=0), den) for p in self._pins.values())
        if rel is not None:
            values += rel.ext.pred.values()
        values += (f.max_value() for f in self._suit.values())
        if suitable is not None:
            values.append(suitable.max_value())
        if lip_index is not None:
            values += (
                self.polish.d_idx(lip_index, i) / self.lip_const for i in self._lip.values()
            )
        return jep_gap(values)

    def _check_rel(self, rel: RelExtension, base, base_dists):
        """Every check of an extension but the 1-Lipschitz law and base
        agreement, which are _rel_pins's walk.  Its metric needs none of its
        own: _check_base has made the request e positive and Katetov on the
        base, and below, the points but one new x are distinct and mapped
        injectively onto the base, with d(x, p) = d(p, x) = e there and
        d(p, q) = d(q, p) = the oracle's distance.  So the extension is the
        base plus one Katetov row: a metric."""
        ext, bm = rel.ext, rel.base_map
        report = validate_pattern(ext)
        if report:
            raise OracleGrowthError(f"extension structure invalid: {report[0]}")
        new_pts = [p for p in ext.points if p not in bm]
        if len(new_pts) != 1:
            raise OracleGrowthError("extension must have exactly one unmapped point")
        if len(set(ext.points)) != len(ext.points):
            raise OracleGrowthError("extension repeats a point")
        if len(set(bm.values())) != len(bm):
            raise OracleGrowthError("base map is not injective")
        if set(bm.values()) != set(base):
            raise OracleGrowthError("base map image must equal the base")
        new_pt, d = new_pts[0], ext.metric.d
        for p in bm:
            if not d(new_pt, p) == d(p, new_pt) == base_dists[bm[p]]:
                raise OracleGrowthError(f"distance to {bm[p]!r} disagrees with the request")
        for p in bm:
            for q in bm:
                if p < q and not d(p, q) == d(q, p) == self.distance(bm[p], bm[q]):
                    raise OracleGrowthError(
                        f"extension distorts the base pair ({bm[p]!r}, {bm[q]!r})"
                    )
        if set(rel.slot_map.keys()) != set(ext.slots()):
            raise OracleGrowthError("slot map must cover exactly the extension slots")
        for slot, pins in rel.birth_pins.items():
            if rel.slot_map.get(slot, 0) is not None:
                raise OracleGrowthError(
                    f"birth pins are only allowed on fresh slots, got {slot}"
                )
            for tup in pins:
                if len(tup) != slot[0]:
                    raise OracleGrowthError(f"birth pin arity mismatch at {tup}")
                if any(p not in self._pos for p in tup):
                    raise OracleGrowthError(f"birth pin on unknown points {tup}")
        slot_assign: dict[tuple[int, int], int] = {}
        fresh: list[tuple[int, int]] = []
        taken = dict(self._counts)
        used: dict[int, set[int]] = {}
        for (n, m), g in sorted(rel.slot_map.items()):
            if g is None:
                g_new = self._fresh_slot(n, taken)
                slot_assign[(n, m)] = g_new
                fresh.append((n, g_new))
            else:
                if not 1 <= g <= self._counts.get(n, 0):
                    raise OracleGrowthError(f"global slot ({n}, {g}) not realized")
                if g in used.setdefault(n, set()):
                    raise OracleGrowthError(f"global slot ({n}, {g}) used twice")
                used[n].add(g)
                slot_assign[(n, m)] = g
        return slot_assign, fresh

    def _rel_pins(self, rel, slot_assign, new_id, row, den) -> dict:
        """Walk each slot's entries once; keep the pins the envelope does not force.

        Returns the pins to store, by slot, and the value the walk gave each
        entry, by cache key (n, g, tuple): grow caches those after its commit,
        by (d) below, and stores nothing for a refused request.

        Integers at ``den`` up to the pins it keeps, which come back as the
        log's rationals, and no read of the oracle beyond the points the
        request touches: the new point's own row, the distances among the
        request's points, and envelope values on base tuples.

        A slot's entries are its birth pins, then the extension's tuples
        without the new point x, then those with x.  Each entry (t, v) must
        lie in the window [lo, hi] of the entries (s, w) before it, lo =
        max(0, max of w - d(s, t)) (``_envelope``) and hi = min of w + d(s, t)
        (``_ceiling``): v >= 0 and |v - w| <= d(s, t), so each pair of entries
        is decided once, when its later entry is walked.  Write P for a
        realized slot's stored pins, E for their envelope, B for the base and
        e_b for the requested distance to b.  On a realized slot a tuple
        without x gets the window [E(t), E(t)], inside [lo, hi] as E is
        1-Lipschitz.  As _check_rel has matched the request's distances to
        the extension's, the walk decides validate_k's 1-Lipschitz law on the
        extension and base agreement on B^n.  The entries above lo are the
        pins.  One at lo leaves the envelope of the entries before it
        unchanged: lo - d(t, u) <= max(0, max of w - d(s, u)) for every u, as
        d(s, u) <= d(s, t) + d(t, u) (the new row is Katetov, by (a)).  So the
        envelope over every earlier entry is the one over the base entries
        plus the pins added, and it decides each refusal and pin.

        (a) Path row.  For every old point q, d(x, q) = min over b of
            e_b + d(b, q): off the base the row is built that way, and on the
            base it holds because grow has checked |e_b - e_q| <= d(b, q).
            Summing over the coordinates of t, every old tuple p has
            d(p, t) = min over s in S(t) of d(p, s) + d(s, t), where S(t) are
            the base tuples that put a base point at each place of x in t.
            So E(t) = max(0, max over s in S(t) of E(s) - d(s, t)), and s may
            range over all of B^n, because E is 1-Lipschitz.
        (b) Base agreement.  The walk has v(s) = E(s) for every base tuple s,
            so (a) is the envelope of the request's base entries.  Pins added
            earlier in the request join both envelopes alike, so the local
            envelope is the one over P plus those pins.
        (c) Lipschitz law against every stored pin (p, w).  The walk gives
            v(t) >= v(s) - d(s, t) for every s in B^n and v(t) >= 0, so
            v(t) >= E(t) >= w - d(p, t) by (a) and (b).  Conversely, take
            s in S(t) attaining d(p, t) in (a); then
            v(t) <= v(s) + d(s, t) = E(s) + d(s, t) <= w + d(p, s) + d(s, t)
            = w + d(p, t), since E(p) = w: every stored pin is reproduced by
            its envelope, which grow keeps and validate_state checks.
        With an empty base, d(x, q) is the gap, at least twice every stored
        and requested value; then E(t) = 0, the envelope of no entries, and
        d(p, t) >= gap covers both directions of (c).  So the scan of every
        stored pin that (c) replaces could never refuse a request that the
        walk accepts; the tests keep it as a reference.
        (d) Cached values.  Once the step is committed, the slot's envelope
            E' over P and the pins added equals v(t) at every walked entry
            (t, v).  E'(t) >= v(t), along the walk: an entry kept as a pin
            has E'(t) >= v - d(t, t) = v; a base tuple of a realized slot
            has E'(t) >= E(t) = v, as added pins only raise the envelope; and
            an entry at lo has E'(s) >= w at every earlier entry (s, w), so
            E'(t) >= max(0, max of E'(s) - d(s, t)) >= lo = v, since E' is
            1-Lipschitz.  E'(t) <= v(t): v >= 0; each added pin is an entry,
            and every pair of entries (s, w), (t, v) has |v - w| <= d(s, t),
            by the window of the later one or, for two base tuples of a
            realized slot, as both sit at the 1-Lipschitz E; and each stored
            pin (p, w) has w - d(p, t) <= v(t), by (c) for a tuple with x and
            by v = E(t) for a base tuple.
        """
        ext, bm = rel.ext, rel.base_map
        trans = dict(bm)
        new_pt = next(p for p in ext.points if p not in bm)
        trans[new_pt] = new_id

        touched = dict.fromkeys(trans.values())
        for pins in rel.birth_pins.values():
            for tup in pins:
                touched.update(dict.fromkeys(tup))
        factor = den // self._den
        rows, pos = self._rows, self._pos
        ld: dict[tuple[str, str], int] = {}
        for x in touched:
            for y in touched:
                if x != y:
                    ld[(x, y)] = (
                        row[pos[y]] if x == new_id else row[pos[x]] if y == new_id
                        else rows[pos[x]][pos[y]] * factor
                    )

        delta: dict[tuple[int, int], dict[tuple[str, ...], Fraction]] = {}
        walked: dict[tuple[int, int, tuple[str, ...]], Fraction] = {}
        for (n, m) in sorted(ext.slots()):
            g = slot_assign[(n, m)]
            fresh_slot = (n, g) not in self._pins
            births = sorted(rel.birth_pins.get((n, m), {}).items())
            tups = sorted(tuples_over(ext.points, n), key=lambda t: (new_pt in t, t))
            walk = births + [(tuple(map(trans.get, t)), ext.pred[(n, m, t)]) for t in tups]
            entries = [(mt, scaled(v, den)) for mt, v in walk]
            known = {}
            if not fresh_slot:
                # read in one batch, and cached by grow only after its commit
                base = [mt for mt, _ in entries if new_id not in mt]
                known = dict(zip(base, self._envelopes(n, g, base)[0]))
            added: dict[tuple[str, ...], Fraction] = {}
            for i, (mt, v) in enumerate(entries):
                base_tuple = not fresh_slot and new_id not in mt
                if base_tuple:
                    lo = hi = scaled(known[mt], den)
                else:
                    before = entries[:i]
                    lo, hi = _envelope(before, mt, ld), _ceiling(before, mt, ld)
                if lo <= v <= hi:
                    if v > lo:
                        added[mt] = walk[i][1]
                    continue
                val = Fraction(v, den)
                if base_tuple:
                    raise OracleGrowthError(f"slot ({n},{g}) disagrees on base tuple {mt}: "
                                            f"{val} != {Fraction(lo, den)}")
                side = (f"undershoots the envelope {Fraction(lo, den)}" if v < lo
                        else f"overshoots the ceiling {Fraction(hi, den)}")
                fault = f"value {val} at {mt} {side}"
                raise OracleGrowthError(f"fresh slot ({n},{g}) born inconsistent: {fault}"
                                        if fresh_slot else f"{fault} of slot ({n},{g})")
            if added:
                delta[(n, g)] = added
            walked.update(((n, g, mt), v) for mt, v in walk)
        return delta, walked

    def _fresh_slot(self, n, taken, claimed=None) -> int:
        """Take the next free arity-``n`` index g after ``taken``, within the
        budget len + 2 - n that keeps n + g - 1 at most the point count.  A
        replayed record must have ``claimed`` that very index."""
        g = taken.get(n, 0) + 1
        if n < 1 or claimed not in (None, g):
            raise OracleGrowthError(
                f"fresh slot ({n}, {claimed}) is not the next free "
                f"arity-{n} index {g}"
            )
        budget = len(self._points) + 2 - n
        if g > budget:
            raise OracleGrowthError(
                f"no room for a fresh arity-{n} slot: {g} of {budget}"
            )
        taken[n] = g
        return g

    def _check_payload(self, rel: bool, suitable, lip_index):
        """Refuse a step without the profile or the label its modes want, or
        with a payload of a mode the oracle does not carry."""
        if "prod" in self.modes and suitable is None:
            raise OracleGrowthError(f"prod mode requires a profile for the new point")
        if "lip" in self.modes and lip_index is None:
            raise OracleGrowthError(f"lip mode requires a dense index for the new point")
        for given, mode, what in (
            (rel, "rel", "indexed predicates"),
            (suitable is not None, "prod", "profiles"),
            (lip_index is not None, "lip", "labels"),
        ):
            if given and mode not in self.modes:
                raise OracleGrowthError(f"oracle does not carry {what}")

    def _check_suitable(self, f: SuitableFn, row: list[int], den: int):
        """Refuse a profile that is invalid on its own or breaks the cross
        condition, either way, against the profile of an earlier point at
        its distance in ``row``: validate_c's checks on every pair with the
        new point."""
        k = self.compact
        report = validate_suitable(f, k)
        if report:
            raise OracleGrowthError(f"profile invalid: {report[0]}")
        for u, fu in self._suit.items():
            d = Fraction(row[self._pos[u]], den)
            for i, v, _ in _cross_breaks(f, fu, d, k):
                raise OracleGrowthError(f"profile value {v} at {i} too far from point {u!r}")
            for i, _, _ in _cross_breaks(fu, f, d, k):
                raise OracleGrowthError(
                    f"existing profile of {u!r} at {i} too far from the new point"
                )

    def _check_lip(self, idx: int, row: list[int], den: int):
        """Refuse a label outside the presentation, or one that breaks the
        Lipschitz bound against an earlier point's label at its distance in
        ``row``: validate_l's checks on every pair with the new point."""
        try:
            self.polish.check_index(idx)
        except IndexError as exc:
            raise OracleGrowthError(str(exc)) from None
        for u, iu in self._lip.items():
            if self.polish.d_idx(idx, iu) > self.lip_const * Fraction(row[self._pos[u]], den):
                raise OracleGrowthError(
                    f"index {idx} breaks the Lipschitz bound against {u!r}"
                )

    def _check_row(self, row: list[int], den: int):
        """Refuse a whole row, as a ``gd`` record gives it, that is not
        positive or not a Katetov function on the earlier points
        (``metric.katetov_break``), so the oracle stays a metric.  Its
        failures name what _check_base names for a base."""
        pts = self._points
        if row and min(row) <= 0:
            raise OracleGrowthError(f"distance to {pts[row.index(min(row))]!r} must be positive")
        pair = katetov_break(self._rows, row, den // self._den)
        if pair is not None:
            s, q = sorted(pair)
            raise OracleGrowthError(f"metric infeasible at the pair ({pts[s]!r}, {pts[q]!r})")

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> IndexedStructure:
        """Materialize the relational state as one pattern-total structure.

        The arity bound is the least one admitting every realized slot;
        pattern slots beyond the realized ones are filled with zero tables.
        Exponential in the arity bound, intended for small oracles.
        """
        if not self._points:
            return EMPTY_STRUCTURE
        n_u = max(
            (n + g - 1 for (n, g) in self.registry),
            default=1,
        )
        metric = self.metric()
        pred: PredTable = {}
        for n, ms in pattern_indices(n_u).items():
            tups = list(tuples_over(metric.points, n))
            for m in ms[: self._counts.get(n, 0)]:
                pred.update(((n, m, t), v) for t, v in zip(tups, self.predicate_values(n, m, tups)))
        return indexed_structure(metric, n_u, pred)

    def validate_state(self) -> list[str]:
        """Report each stored pin that its slot's envelope does not reproduce.

        Every other invariant is decided one step at a time, before the step
        is written, by grow and replay_record alike (``_replayed_row``): the
        rows stay a metric, each pin sits where its step could put it, and
        profiles and labels pass validate_c's and validate_l's checks pair
        by pair.  Replay reads pin values as logged; they are decided here.

        The check runs on the oracle's own integer rows and pin columns.  A
        pin (p, v) of a slot with pins P is reproduced,
        E(p) = max(0, max over (q, w) in P of w - d(q, p)) = v, exactly when
        v >= 0 and low(p) + v >= 0, with low(p) = min over (q, w) in P of
        d(q, p) - w: the pin itself gives low(p) <= -v, so the second
        condition says low(p) = -v, no pin pushes E(p) above v, and
        E(p) = max(0, v) = v.  The rows are >= 0, so a pin with w <= v gives
        d(q, p) - w >= -v and cannot decide low(p) + v >= 0: one row gather
        per pin, over the strictly heavier pins only, decides it
        (``_Pins.unreproduced``).  That is quadratic in the pins of a slot,
        and it needs none of the exponential tuple tables a materialized
        snapshot needs.

        It is the one decision for predicates: once it reports nothing,
        neither can validate_k(snapshot()).  The rows are a metric, so the
        snapshot's metric passes.  grow and replay_record take a fresh
        arity-n slot only at g <= len + 2 - n, len counted before the step
        (``_fresh_slot``), so the bound n_u, the largest n + g - 1, lies in
        1..len(self), and the initial segments of pattern_indices(n_u) hold
        every realized slot.  Every pattern tuple has a value: zero beyond
        the realized slots, else E(t) = max(0, max over pins (p, w) of
        w - d(p, t)), whatever the pins are.  Both are 1-Lipschitz in the
        sum metric: d(p, s) <= d(p, t) + d(t, s) coordinatewise, so each
        term w - d(p, t) <= w - d(p, s) + d(s, t) <= E(s) + d(s, t), as is
        0.  A damaged pin leaves its envelope 1-Lipschitz, so only the
        reproduction check sees it; tests/test_validate_reference.py
        compares the two on damaged oracles.
        """
        pts, rows = self._points, self._rows
        return [
            f"slot ({n},{g}): pin at {tuple(pts[h] for h in t)} not reproduced by its envelope"
            for (n, g), pins in sorted(self._pins.items())
            for t in pins.unreproduced(rows)
        ]

    def _bad_pin(self, rec: GrowthRecord, slot: tuple[int, int],
                 tup: tuple[str, ...]) -> str | None:
        """Why grow could not have stored this pin of ``rec``, or None; the
        record's slots and point are not yet written."""
        if slot not in rec.fresh and slot not in self.registry:
            return f"pin on slot {slot}, which is not registered by then"
        if len(tup) != slot[0]:
            return f"pin at {tup} has the wrong arity for slot {slot}"
        for p in tup:
            if p != rec.point and p not in self._pos:
                return f"pin at {tup} on {p!r}, which does not exist yet"
        return None

    def replay_record(self, rec: GrowthRecord):
        """Re-apply a logged step; OracleGrowthError, with a ``step N: ``
        prefix and before anything is written, for a step grow would have
        refused or could not have written (``_replayed_row``).  Returns the
        logged record, whose distances are a RowDists on the new row."""
        try:
            row, den = self._replayed_row(rec)
        except OracleGrowthError as exc:
            raise OracleGrowthError(f"step {len(self._points) + 1}: {exc}") from None
        return self._commit(rec, row, den)

    def _replayed_row(self, rec: GrowthRecord) -> tuple[list[int], int]:
        """The new point's row, as integers at the denominator returned,
        once ``rec`` has passed every check; OracleGrowthError otherwise.

        The record must have the shape grow writes: a new point id,
        distances to exactly the earlier points or to a base, fresh slots
        that take the next free index of their arity within the budget
        len + 2 - n, and pins on slots registered at or before the record
        and on points that exist at that step.  Its values go through
        grow's own checks, with grow's messages: the base (``_check_base``),
        the payloads its modes want or do not carry (``_check_payload``),
        and the profile and the label against every earlier point at the
        replayed row (``_check_suitable``, ``_check_lip``).  A record that
        gives the whole row must give one that is positive and Katetov on
        the earlier points (``_check_row``).  Pin values are left to
        validate_state.

        A record with a base gives the distances e_b to its base points
        only, and the row is rebuilt from them by the path rule, as grow
        built it: r(q) = min over base points b of e_b + d(b, q).  It needs
        no check beyond the base's.  The earlier points form a metric, as
        every earlier step was checked, and ``_check_base`` has made each
        e_b positive and Katetov on the base.  Each term e_b + d(b, .) is
        then >= e_b > 0 and 1-Lipschitz, and so is their min: r is positive
        and |r(p) - r(q)| <= d(p, q).  With b and c attaining r(p) and r(q),
        r(p) + r(q) = e_b + d(b, p) + e_c + d(c, q)
        >= d(b, c) + d(b, p) + d(c, q) >= d(p, q), as e_b + e_c >= d(b, c).
        So r is Katetov on every earlier point, and the rows stay a metric.

        Every record is read as integers over one denominator
        (``ScaledDists.of``), so the new row costs one multiply or one
        ``min`` per distance.
        """
        if rec.point in self._pos:
            raise OracleGrowthError(f"point {rec.point!r} already exists")
        if rec.base is None:
            dists = ScaledDists.of(rec.dists)
            ints = dists.ints
            if ints.keys() != self._pos.keys():
                stray = sorted(ints.keys() - self._pos.keys())
                missing = [p for p in self._points if p not in ints]
                raise OracleGrowthError(
                    f"distances must cover exactly the earlier points; "
                    f"stray {stray}, missing {missing}"
                )
        else:
            dists = rec.dists
            if not isinstance(dists, ScaledDists):
                dists = ScaledDists.of({p: dists[p] for p in rec.base if p in dists})
            if not rec.base or tuple(dists.ints) != rec.base:
                raise OracleGrowthError(
                    f"base {list(rec.base)} wants one distance per base point, in its order"
                )
            self._check_base(dists)
        self._check_payload(bool(rec.pins or rec.fresh), rec.suitable, rec.lip_index)
        taken = dict(self._counts)
        for n, g in rec.fresh:
            self._fresh_slot(n, taken, g)
        for slot, delta in rec.pins.items():
            for tup in delta:
                why = self._bad_pin(rec, slot, tup)
                if why:
                    raise OracleGrowthError(why)
        dens = {dists.den}
        for delta in rec.pins.values():
            dens.update(v.denominator for v in delta.values())
        den = self._den_with(dens)
        if rec.base is None:
            row = list(map(mul, map(ints.__getitem__, self._points), repeat(den // dists.den)))
            self._check_row(row, den)
        else:
            row = self._extended_row(dists, None, den)
        if rec.suitable is not None:
            self._check_suitable(rec.suitable, row, den)
        if rec.lip_index is not None:
            self._check_lip(rec.lip_index, row, den)
        return row, den
