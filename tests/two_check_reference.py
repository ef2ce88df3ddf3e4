"""The row checks as they ran in two implementations, for the differential
tests of ``LimitOracle._check_base``.

``TwoCheckOracle`` is the oracle with ``_check_base``, ``_check_row`` and
``_replayed_row`` as they were before every adjoined row went through one
base check and one row builder.  ``_check_base`` decided a grow request or
a ``gb`` record by a loop over its pairs, in request order;
``_check_row`` decided the whole row of a ``gd`` record through
``metric.katetov_break``, after the record's pins and payloads; and
``_replayed_row`` built the replayed row itself.  The method bodies are
copied verbatim.  ``katetov_break`` is here in the signature of that time,
which read the rows of the first len(r) points; everything else is the
oracle's own.
"""
from __future__ import annotations

from itertools import repeat
from math import lcm
from operator import mul

from urysohn import metric
from urysohn.engine import GrowthRecord, LimitOracle, OracleGrowthError, ScaledDists


def katetov_break(rows, r, factor=1):
    """``metric.katetov_break`` on the first len(r) points of ``rows``."""
    return metric.katetov_break(rows, r, range(len(r)), factor)


class TwoCheckOracle(LimitOracle):
    """LimitOracle with the pairwise base check and the separate row check."""

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

    def _replayed_row(self, rec: GrowthRecord) -> tuple[list[int], int]:
        """The new point's row, as integers at the denominator returned,
        once ``rec`` has passed every check; OracleGrowthError otherwise.

        The record must have the shape grow writes: the id grow gives step
        N, u<N>, distances to exactly the earlier points or to a base, fresh
        slots that take the next free index of their arity within the budget
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
        if rec.point != (want := f"u{len(self._points) + 1}"):
            raise OracleGrowthError(f"point {rec.point!r} is not {want!r}, the id grow gives it")
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
