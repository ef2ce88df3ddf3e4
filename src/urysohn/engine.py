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

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from .metric import (
    FinMetric,
    MetricTableError,
    WitnessError,
    jep_gap_metric,
    path_amalgam_metric,
)
from .rationals import ZERO, scaled
from .relational import (
    EMPTY_STRUCTURE,
    EmbeddingWitness,
    PredTable,
    StructureK,
    canonical_extend,
    check_embedding_k,
    pattern_slots,
    tuples_over,
    validate_k,
)
from .spaces import (
    CompactPresentation,
    PolishPresentation,
    SuitableFn,
    eval_suitable,
    validate_suitable,
)


@dataclass(frozen=True)
class Amalgam:
    """Amalgamation output with the two commuting embedding witnesses."""

    result: StructureK
    wit_b: EmbeddingWitness
    wit_c: EmbeddingWitness


def _all_values(s: StructureK) -> Iterable[Fraction]:
    yield from s.metric.table.values()
    yield from s.pred.values()


def joint_embed_k(a: StructureK, b: StructureK) -> Amalgam:
    """Joint embedding: disjoint union at constant gap twice the largest value.

    Predicate slots undefined on a side are filled with zero, which the gap
    makes consistent.
    """
    if set(a.points) & set(b.points):
        raise MetricTableError("point ids must be disjoint for joint embedding")
    m = max((v for s in (a, b) for v in _all_values(s)), default=ZERO)
    gap = 2 * m if m > 0 else Fraction(1)
    metric = jep_gap_metric(a.metric, b.metric, gap)
    n_d = max(a.n_a, b.n_a)
    a_set, b_set = set(a.points), set(b.points)
    pred: PredTable = {}
    for n, md in pattern_slots(n_d):
        for tup in tuples_over(metric.points, n):
            if n <= a.n_a and md <= a.n_a + 1 - n and all(p in a_set for p in tup):
                pred[(n, md, tup)] = a.pred[(n, md, tup)]
            elif n <= b.n_a and md <= b.n_a + 1 - n and all(p in b_set for p in tup):
                pred[(n, md, tup)] = b.pred[(n, md, tup)]
            else:
                pred[(n, md, tup)] = ZERO
    d = StructureK(metric, n_d, pred)
    return Amalgam(d, _inclusion_witness(a), _inclusion_witness(b))


def _inclusion_witness(s: StructureK) -> EmbeddingWitness:
    return EmbeddingWitness(
        {p: p for p in s.points},
        {n: {m: m for m in range(1, s.n_a + 2 - n)} for n in range(1, s.n_a + 1)},
    )


def _normalizing_perm(s: StructureK, a: StructureK, w: EmbeddingWitness) -> dict[int, dict[int, int]]:
    """Index permutation of s sending the transported common slots to initial segments."""
    rho: dict[int, dict[int, int]] = {}
    for n in range(1, s.n_a + 1):
        size = s.n_a + 1 - n
        perm: dict[int, int] = {}
        if n <= a.n_a:
            for m in range(1, a.n_a + 2 - n):
                perm[w.pi[n][m]] = m
        free_targets = [t for t in range(1, size + 1) if t not in perm.values()]
        free_sources = [m for m in range(1, size + 1) if m not in perm]
        for src, tgt in zip(free_sources, free_targets):
            perm[src] = tgt
        rho[n] = perm
    return rho


def _reindex(s: StructureK, rho: dict[int, dict[int, int]]) -> StructureK:
    pred = {(n, rho[n][m], tup): v for (n, m, tup), v in s.pred.items()}
    return StructureK(s.metric, s.n_a, pred)


def amalgamate_k(
    b: StructureK,
    c: StructureK,
    a: StructureK,
    wab: EmbeddingWitness,
    wac: EmbeddingWitness,
) -> Amalgam:
    """Amalgamate b and c over a.

    Both witnesses must transport a's data exactly.  The two sides are first
    reindexed so the common slots sit at initial segments; b then keeps its
    slot indices in the output while c's slots beyond the common pattern are
    shifted up by n_b - n_a.  Tuples mixing the two new sides are filled by
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

    n_d = b.n_a + c.n_a - a.n_a
    shift = b.n_a - a.n_a
    partial: dict[tuple[int, int], dict[tuple[str, ...], Fraction]] = {}
    for (n, m, tup), v in b2.pred.items():
        partial.setdefault((n, m), {})[tuple(out_b[p] for p in tup)] = v
    for (n, m, tup), v in c2.pred.items():
        slot = (n, m) if n <= a.n_a and m <= a.n_a + 1 - n else (n, m + shift)
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
    d = StructureK(metric, n_d, pred)

    wit_b = EmbeddingWitness(
        out_b,
        {n: dict(rho_b[n]) for n in range(1, b.n_a + 1)},
    )
    pi_c: dict[int, dict[int, int]] = {}
    for n in range(1, c.n_a + 1):
        pi_c[n] = {}
        for m in range(1, c.n_a + 2 - n):
            t = rho_c[n][m]
            pi_c[n][m] = t if n <= a.n_a and t <= a.n_a + 1 - n else t + shift
    wit_c = EmbeddingWitness(out_c, pi_c)
    return Amalgam(d, wit_b, wit_c)


class OracleGrowthError(Exception):
    """A growth request is inconsistent with the current oracle state."""


def _envelope(entries, tup, dist) -> int:
    """Katetov envelope max(0, w - d(t, tup)) over integer pins ``(t, w)``.

    ``dist`` maps ordered pairs of distinct points to integer distances on the
    pins' scale; a candidate is cut as soon as it falls under the running
    maximum.
    """
    env = 0
    for ptup, w in entries:
        if w <= env:
            continue
        s = w
        for x, y in zip(ptup, tup):
            if x != y:
                s -= dist[(x, y)]
                if s <= env:
                    break
        else:
            env = s
    return env


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

    ext: StructureK
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
    """Materialized state delta of one growth step, sufficient for replay."""

    point: str
    dists: dict[str, Fraction]
    pins: dict[tuple[int, int], dict[tuple[str, ...], Fraction]]
    fresh: tuple[tuple[int, int], ...]
    suitable: SuitableFn | None
    lip_index: int | None


class LimitOracle:
    """Append-only growing approximation of the homogeneous limit."""

    def __init__(
        self,
        modes: Iterable[str] = ("rel",),
        compact: CompactPresentation | None = None,
        polish: PolishPresentation | None = None,
        lip_const: Fraction | None = None,
        seed: int = 0,
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
        self.seed = seed
        self._points: list[str] = []
        self._pos: dict[str, int] = {}  # point -> the step that added it
        self._counts: dict[int, int] = {}
        self.registry: dict[tuple[int, int], int] = {}
        self._suit: dict[str, SuitableFn] = {}
        self._lip: dict[str, int] = {}
        self.log: list[GrowthRecord] = []
        # distances and pin values are held as integers over one common
        # denominator, which keeps the envelope scans in machine arithmetic;
        # every exact rational survives unchanged (divisibility is asserted)
        self._den: int = 1
        self._dist_i: dict[tuple[str, str], int] = {}
        self._pins_i: dict[tuple[int, int], dict[tuple[str, ...], int]] = {}
        # realized values never change once their points exist, so envelope
        # evaluations can be memoized for the lifetime of the oracle
        self._value_cache: dict[tuple[int, int, tuple[str, ...]], Fraction] = {}

    # -- scaled representation ----------------------------------------------

    @property
    def den(self) -> int:
        """The common denominator every stored distance and pin value fits."""
        return self._den

    def _den_for(self, values: Iterable[Fraction]) -> int:
        """The denominator that holds the present state and ``values`` exactly.

        Pure: the state is rescaled only by ``_rescale`` at commit time.
        """
        need = lcm(self._den, *{v.denominator for v in values})
        if need == self._den:
            return need
        # pad with a block of two-powers so chains of halving levels do not
        # force a rescale at every step
        return need * 2**12

    def _rescale(self, den: int):
        factor = den // self._den
        if factor == 1:
            return
        for key in self._dist_i:
            self._dist_i[key] *= factor
        for pins in self._pins_i.values():
            for key in pins:
                pins[key] *= factor
        self._den = den

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
            return Fraction(self._dist_i[(x, y)], self._den)
        except KeyError:
            raise MetricTableError(f"unknown pair ({x!r}, {y!r})") from None

    def realized(self) -> dict[tuple[int, int], int]:
        return dict(self.registry)

    def realized_count(self, arity: int) -> int:
        return self._counts.get(arity, 0)

    def predicate_value(self, n: int, g: int, tup: tuple[str, ...]) -> Fraction:
        """Katetov envelope of the stored pins of global slot (n, g)."""
        if not 1 <= g <= self._counts.get(n, 0):
            raise KeyError(f"global slot ({n}, {g}) not realized")
        key = (n, g, tup)
        cached = self._value_cache.get(key)
        if cached is None:
            cached = Fraction(self._envelope_i(self._pins_i[(n, g)], tup), self._den)
            self._value_cache[key] = cached
        return cached

    def _envelope_i(self, pins: Mapping[tuple[str, ...], int], tup) -> int:
        # hot path: recent pins tend to be closest, so scan newest first
        return _envelope(reversed(pins.items()), tup, self._dist_i)

    def suitable_at(self, point: str) -> SuitableFn:
        return self._suit[point]

    def lip_index_at(self, point: str) -> int:
        return self._lip[point]

    def metric(self) -> FinMetric:
        den = self._den
        return FinMetric(
            tuple(self._points),
            {key: Fraction(v, den) for key, v in self._dist_i.items()},
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
        for p in base:
            if p not in self._pos:
                raise OracleGrowthError(f"base point {p!r} not in the oracle")
        if "prod" in self.modes and suitable is None:
            raise OracleGrowthError("prod mode requires a profile for the new point")
        if "lip" in self.modes and lip_index is None:
            raise OracleGrowthError("lip mode requires a dense index for the new point")
        if rel is not None and "rel" not in self.modes:
            raise OracleGrowthError("oracle does not carry indexed predicates")

        for i, p in enumerate(base):
            ep = base_dists[p]
            if ep <= 0:
                raise OracleGrowthError(f"distance to {p!r} must be positive")
            for q in base[i + 1 :]:
                eq, dpq = base_dists[q], self.distance(p, q)
                if abs(ep - eq) > dpq or dpq > ep + eq:
                    raise OracleGrowthError(
                        f"metric infeasible at the base pair ({p!r}, {q!r})"
                    )

        slot_assign: dict[tuple[int, int], int] = {}
        fresh: list[tuple[int, int]] = []
        if rel is not None:
            slot_assign, fresh = self._check_rel(rel, base, base_dists)

        # every path-rule distance is a base distance plus a stored one, so
        # the request's own values fix the scale of the whole new row
        incoming = list(base_dists.values())
        if rel is not None:
            incoming += rel.ext.pred.values()
            for pins in rel.birth_pins.values():
                incoming += pins.values()
        gap = None
        if not base and self._points:
            gap = self._gap(rel, suitable, lip_index)
            incoming.append(gap)
        den = self._den_for(incoming)
        row = self._extended_row(base_dists, gap, den)
        full = {q: Fraction(v, den) for q, v in row.items()}

        if suitable is not None:
            self._check_suitable(suitable, full)
        if lip_index is not None:
            self._check_lip(lip_index, full)

        new_id = f"u{len(self._points) + 1}"
        pins_delta: dict[tuple[int, int], dict[tuple[str, ...], int]] = {}
        if rel is not None:
            pins_delta = self._rel_pins(rel, slot_assign, new_id, row, den)

        # commit
        self._rescale(den)
        self._points.append(new_id)
        step = len(self._points)
        self._pos[new_id] = step
        for p, vi in row.items():
            self._dist_i[(new_id, p)] = vi
            self._dist_i[(p, new_id)] = vi
        for n, g in fresh:
            self._counts[n] = max(self._counts.get(n, 0), g)
            self.registry[(n, g)] = step
            self._pins_i[(n, g)] = {}
        log_pins: dict[tuple[int, int], dict[tuple[str, ...], Fraction]] = {}
        for slot, delta in pins_delta.items():
            self._pins_i[slot].update(delta)
            log_pins[slot] = {tup: Fraction(v, den) for tup, v in delta.items()}
        if suitable is not None:
            self._suit[new_id] = suitable
        if lip_index is not None:
            self._lip[new_id] = lip_index
        self.log.append(
            GrowthRecord(new_id, full, log_pins, tuple(fresh), suitable, lip_index)
        )
        return GrowthResult(new_id, slot_assign)

    def _extended_row(self, base_dists, gap, den) -> dict[str, int]:
        """Distances from the new point to every point, as integers at ``den``.

        Base points keep their requested distance.  Every other point goes
        through its cheapest base point, or sits at ``gap`` when the base is
        empty.
        """
        row = {p: scaled(e, den) for p, e in base_dists.items()}
        if gap is not None:
            gap_i = scaled(gap, den)
            for q in self._points:
                row[q] = gap_i
            return row
        factor = den // self._den
        dd = self._dist_i
        via = list(row.items())
        for q in self._points:
            if q not in row:
                row[q] = min([e + dd[(p, q)] * factor for p, e in via])
        return row

    def _gap(self, rel, suitable, lip_index) -> Fraction:
        """Joint-embedding gap: twice the largest value anywhere, or 1."""
        m = Fraction(max(self._dist_i.values(), default=0), self._den)
        for pins in self._pins_i.values():
            m = max(m, Fraction(max(pins.values(), default=0), self._den))
        if rel is not None:
            m = max(m, max(rel.ext.pred.values(), default=ZERO))
        for f in self._suit.values():
            m = max(m, f.max_value())
        if suitable is not None:
            m = max(m, suitable.max_value())
        if lip_index is not None and self._lip:
            m_f = max(
                self.polish.d_idx(lip_index, i) / self.lip_const
                for i in self._lip.values()
            )
            m = max(m, m_f)
        return 2 * m if m > 0 else Fraction(1)

    def _check_rel(self, rel: RelExtension, base, base_dists):
        ext, bm = rel.ext, rel.base_map
        report = validate_k(ext)
        if report:
            raise OracleGrowthError(f"extension structure invalid: {report[0]}")
        new_pts = [p for p in ext.points if p not in bm]
        if len(new_pts) != 1:
            raise OracleGrowthError("extension must have exactly one unmapped point")
        if len(set(bm.values())) != len(bm):
            raise OracleGrowthError("base map is not injective")
        if set(bm.values()) != set(base):
            raise OracleGrowthError("base map image must equal the base")
        new_pt = new_pts[0]
        for p in bm:
            if ext.metric.d(new_pt, p) != base_dists[bm[p]]:
                raise OracleGrowthError(f"distance to {bm[p]!r} disagrees with the request")
        for p in bm:
            for q in bm:
                if p < q and ext.metric.d(p, q) != self.distance(bm[p], bm[q]):
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
        next_free: dict[int, int] = {}
        used: dict[int, set[int]] = {}
        for (n, m), g in sorted(rel.slot_map.items()):
            if g is None:
                next_free[n] = next_free.get(n, self._counts.get(n, 0)) + 1
                g_new = next_free[n]
                budget = len(self._points) + 2 - n
                if g_new > budget:
                    raise OracleGrowthError(
                        f"no room for a fresh arity-{n} slot: {g_new} of {budget}"
                    )
                slot_assign[(n, m)] = g_new
                fresh.append((n, g_new))
            else:
                if not 1 <= g <= self._counts.get(n, 0):
                    raise OracleGrowthError(f"global slot ({n}, {g}) not realized")
                if g in used.setdefault(n, set()):
                    raise OracleGrowthError(f"global slot ({n}, {g}) used twice")
                used[n].add(g)
                slot_assign[(n, m)] = g
        # realized slots must agree with the oracle on every base tuple
        for (n, m), g in slot_assign.items():
            if (n, g) in fresh:
                continue
            for tup in tuples_over(tuple(bm.keys()), n):
                want = ext.pred[(n, m, tup)]
                got = self.predicate_value(n, g, tuple(bm[p] for p in tup))
                if want != got:
                    raise OracleGrowthError(
                        f"slot ({n},{g}) disagrees on base tuple "
                        f"{tuple(bm[p] for p in tup)}: {want} != {got}"
                    )
        return slot_assign, fresh

    def _rel_pins(self, rel, slot_assign, new_id, row, den) -> dict:
        """Transport extension values, keep only pins the envelope does not force.

        Integers at ``den`` throughout, and no read of the oracle beyond the
        points the request touches: the new point's own row, the distances
        among the request's points, and envelope values on base tuples,
        which _check_rel has already read.

        A fresh slot holds no pins yet; all its entries, birth pins included,
        must be mutually 1-Lipschitz.  On a realized slot, a tuple t that
        contains the new point x takes its envelope over the request's base
        entries plus the pins this request has already added.  Write P for
        the stored pins, E(t) = max(0, max over (p, w) in P of w - d(p, t))
        for their envelope, B for the base and e_b for the requested distance
        to b.

        (a) Path row.  For every old point q, d(x, q) = min over b of
            e_b + d(b, q): off the base the row is built that way, and on the
            base it holds because grow has checked |e_b - e_q| <= d(b, q).
            Summing over the coordinates of t, every old tuple p has
            d(p, t) = min over s in S(t) of d(p, s) + d(s, t), where S(t) are
            the base tuples that put a base point at each place of x in t.
            So E(t) = max(0, max over s in S(t) of E(s) - d(s, t)), and s may
            range over all of B^n, because E is 1-Lipschitz.
        (b) Base agreement.  _check_rel has verified v(s) = E(s) for every
            base tuple s, so (a) is the envelope of the request's base
            entries.  Pins added earlier in the request join both envelopes
            alike, so the local envelope is the one over P plus those pins.
        (c) Lipschitz law against every stored pin (p, w).  validate_k(ext)
            gives v(t) >= v(s) - d(s, t) for every s in B^n and v(t) >= 0,
            so v(t) >= E(t) >= w - d(p, t) by (a) and (b).  Conversely, take
            s in S(t) attaining d(p, t) in (a); then
            v(t) <= v(s) + d(s, t) = E(s) + d(s, t) <= w + d(p, s) + d(s, t)
            = w + d(p, t), since E(p) = w: every stored pin is reproduced by
            its envelope, which grow keeps and validate_state checks.
        With an empty base, d(x, q) is the gap, at least twice every stored
        and requested value; then E(t) = 0, the envelope of no entries, and
        d(p, t) >= gap covers both directions of (c).  So the scan of every
        stored pin that (c) replaces could never refuse a request that
        validate_k and _check_rel accept; the tests keep it as a reference.
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
        dd = self._dist_i
        ld: dict[tuple[str, str], int] = {}
        for x in touched:
            for y in touched:
                if x != y:
                    ld[(x, y)] = (
                        row[y] if x == new_id else row[x] if y == new_id
                        else dd[(x, y)] * factor
                    )

        delta: dict[tuple[int, int], dict[tuple[str, ...], int]] = {}
        for (n, m) in sorted(ext.slots()):
            g = slot_assign[(n, m)]
            fresh_slot = (n, g) not in self._pins_i
            entries: list[tuple[tuple[str, ...], int]] = []
            for tup, v in sorted(rel.birth_pins.get((n, m), {}).items()):
                entries.append((tup, scaled(v, den)))
            for tup in sorted(tuples_over(ext.points, n), key=lambda t: (new_pt in t, t)):
                entries.append(
                    (tuple(trans[p] for p in tup), scaled(ext.pred[(n, m, tup)], den))
                )
            if fresh_slot:
                # a new slot must be born mutually consistent
                for i, (ta, va) in enumerate(entries):
                    for tb, vb in entries[i + 1 :]:
                        gap = sum(ld[(x, y)] for x, y in zip(ta, tb) if x != y)
                        if va > vb + gap or vb > va + gap:
                            raise OracleGrowthError(
                                f"fresh slot ({n},{g}) born inconsistent at "
                                f"{ta} = {Fraction(va, den)} vs {tb} = {Fraction(vb, den)}"
                            )
            base_entries: list[tuple[tuple[str, ...], int]] = []
            added: dict[tuple[str, ...], int] = {}
            for mt, v in entries:
                if fresh_slot:
                    env = _envelope(added.items(), mt, ld)
                elif new_id in mt:
                    env = _envelope(base_entries + list(added.items()), mt, ld)
                else:
                    env = scaled(self.predicate_value(n, g, mt), den)
                    base_entries.append((mt, env))
                if v < env:
                    raise OracleGrowthError(
                        f"value {Fraction(v, den)} at {mt} undershoots the envelope "
                        f"{Fraction(env, den)} of slot ({n},{g})"
                    )
                if v > env:
                    added[mt] = v
            if added:
                delta[(n, g)] = added
        return delta

    def _check_suitable(self, f: SuitableFn, full: dict[str, Fraction]):
        report = validate_suitable(f, self.compact)
        if report:
            raise OracleGrowthError(f"profile invalid: {report[0]}")
        for u, fu in self._suit.items():
            d = full[u]
            for i, v in f.pins:
                if v > eval_suitable(fu, i, self.compact) + d:
                    raise OracleGrowthError(
                        f"profile value {v} at {i} too far from point {u!r}"
                    )
            for i, v in fu.pins:
                if v > eval_suitable(f, i, self.compact) + d:
                    raise OracleGrowthError(
                        f"existing profile of {u!r} at {i} too far from the new point"
                    )

    def _check_lip(self, idx: int, full: dict[str, Fraction]):
        self.polish.check_index(idx)
        for u, iu in self._lip.items():
            if self.polish.d_idx(idx, iu) > self.lip_const * full[u]:
                raise OracleGrowthError(
                    f"index {idx} breaks the Lipschitz bound against {u!r}"
                )

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> StructureK:
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
        n_u = max(n_u, 1)
        if n_u > len(self._points):
            raise OracleGrowthError("realized slots exceed the structure pattern")
        metric = self.metric()
        pred: PredTable = {}
        for n, m in pattern_slots(n_u):
            realized = m <= self._counts.get(n, 0)
            for tup in tuples_over(metric.points, n):
                pred[(n, m, tup)] = (
                    self.predicate_value(n, m, tup) if realized else ZERO
                )
        return StructureK(metric, n_u, pred)

    def validate_state(self) -> list[str]:
        """Check the oracle's invariants directly on the lazy representation.

        The envelope of any pin set is 1-Lipschitz by construction, so the
        realized state is valid exactly when the distance table is a metric
        and every pin value is reproduced by its slot's envelope.  Each
        logged pin must also sit on a slot registered by its step and on
        points that exist at that step.  Runs in integer arithmetic; cubic in the point count but free of the
        exponential tuple tables a materialized snapshot would need.
        """
        report = []
        pts = self._points
        dd = self._dist_i
        for i, x in enumerate(pts):
            for y in pts[i + 1 :]:
                v = dd.get((x, y))
                if v is None or dd.get((y, x)) != v:
                    report.append(f"metric: missing or asymmetric pair ({x},{y})")
                elif v <= 0:
                    report.append(f"metric: nonpositive distance ({x},{y})")
        if report:
            return report
        for i, x in enumerate(pts):
            for j in range(i + 1, len(pts)):
                y = pts[j]
                dxy = dd[(x, y)]
                for z in pts:
                    if z != x and z != y and dxy > dd[(x, z)] + dd[(z, y)]:
                        report.append(f"metric: triangle ({x},{y}) via {z}")
                        break
        # where each pin stands is checked against the step that logged it
        for step, rec in enumerate(self.log, start=1):
            for slot, delta in rec.pins.items():
                for tup in delta:
                    why = self._bad_pin(step, slot, tup)
                    if why:
                        report.append(why)
        if report:
            return report
        for (n, g), pins in sorted(self._pins_i.items()):
            for ptup, v in pins.items():
                if self._envelope_i(pins, ptup) != v:
                    report.append(
                        f"slot ({n},{g}): pin at {ptup} not reproduced by its envelope"
                    )
        if self.compact is not None:
            for i, x in enumerate(pts):
                fx = self._suit.get(x)
                if fx is None:
                    report.append(f"profile missing for {x!r}")
                    continue
                for y in pts[i + 1 :]:
                    d = Fraction(dd[(x, y)], self._den)
                    fy = self._suit[y]
                    for idx, v in fx.pins:
                        if v > eval_suitable(fy, idx, self.compact) + d:
                            report.append(f"profiles of ({x},{y}) clash at index {idx}")
                    for idx, v in fy.pins:
                        if v > eval_suitable(fx, idx, self.compact) + d:
                            report.append(f"profiles of ({x},{y}) clash at index {idx}")
        if self.polish is not None:
            for i, x in enumerate(pts):
                for y in pts[i + 1 :]:
                    dz = self.polish.d_idx(self._lip[x], self._lip[y])
                    if dz > self.lip_const * Fraction(dd[(x, y)], self._den):
                        report.append(f"labels of ({x},{y}) break the Lipschitz bound")
        return report

    def _bad_pin(self, step: int, slot: tuple[int, int], tup: tuple[str, ...]) -> str | None:
        """Why grow could not have stored this pin at ``step``, or None."""
        born = self.registry.get(slot)
        if born is None or born > step:
            return f"step {step}: pin on slot {slot}, which is not registered by then"
        if len(tup) != slot[0]:
            return f"step {step}: pin at {tup} has the wrong arity for slot {slot}"
        for p in tup:
            if self._pos.get(p, step + 1) > step:
                return f"step {step}: pin at {tup} on {p!r}, which does not exist yet"
        return None

    def replay_record(self, rec: GrowthRecord):
        """Re-apply a logged step.

        Values are not re-validated (validate_state does that), but every pin
        must sit on a slot registered at or before its record and on points
        that exist at that step; OracleGrowthError otherwise.
        """
        incoming = list(rec.dists.values())
        for delta in rec.pins.values():
            incoming += delta.values()
        den = self._den_for(incoming)
        self._rescale(den)
        self._points.append(rec.point)
        step = len(self._points)
        self._pos[rec.point] = step
        for p, v in rec.dists.items():
            vi = scaled(v, den)
            self._dist_i[(rec.point, p)] = vi
            self._dist_i[(p, rec.point)] = vi
        for n, g in rec.fresh:
            self._counts[n] = max(self._counts.get(n, 0), g)
            self.registry[(n, g)] = step
            self._pins_i[(n, g)] = {}
        for slot, delta in rec.pins.items():
            for tup in delta:
                why = self._bad_pin(step, slot, tup)
                if why:
                    raise OracleGrowthError(why)
            self._pins_i[slot].update({tup: scaled(v, den) for tup, v in delta.items()})
        if rec.suitable is not None:
            self._suit[rec.point] = rec.suitable
        if rec.lip_index is not None:
            self._lip[rec.point] = rec.lip_index
        self.log.append(rec)
