"""The ORACLE log writer that gives every step's whole distance row, and
the state such a log describes, written without replay's checks.

``reference_oracle_text`` writes each growth block with one ``gd`` line per
earlier point, whatever the step's base, as every log was written before
base steps were logged by their base alone.  Such logs must still parse,
replay and validate; tests compare the two writers' texts through replay.
``unchecked_replay`` builds the state of a damaged all-``gd`` log, for the
rational references to judge.
"""
from urysohn.engine import LimitOracle, RowDists, ScaledDists
from urysohn.files import OracleFile, _fmt_suit
from urysohn.rationals import fmt_rat


def reference_oracle_text(of: OracleFile) -> str:
    """``of`` as an all-``gd`` log.  A grown or replayed record reads its
    whole row; a parsed base record holds only its base and is refused."""
    lines = ["ORACLE"] + [f"mode {mode}" for mode in of.modes]
    if of.lip is not None:
        lines.append(f"L {fmt_rat(of.lip)}")
    for rec in of.records:
        dists = rec.dists
        if not isinstance(dists, RowDists):
            if rec.base is not None:
                raise ValueError(f"record {rec.point} holds its base distances only")
            dists = ScaledDists.of(dists)
        lines.append(f"grow {rec.point}")
        lines += [f"gd {p} {text}" for p, text in dists.texts()]
        for (n, g) in sorted(rec.pins):
            for tup in sorted(rec.pins[(n, g)]):
                lines.append(f"gp {n} {g} {' '.join(tup)} {fmt_rat(rec.pins[(n, g)][tup])}")
        for n, g in sorted(rec.fresh):
            lines.append(f"greg {n} {g}")
        if rec.suitable is not None:
            lines.append(f"gsuit {_fmt_suit(rec.suitable)}")
        if rec.lip_index is not None:
            lines.append(f"gpz {rec.lip_index}")
    return "\n".join(lines) + "\n"


def unchecked_replay(of: OracleFile, compact=None, polish=None) -> LimitOracle:
    """The oracle an all-``gd`` log describes, each record written through
    ``LimitOracle._commit`` with none of replay_record's checks: its row as
    logged, its pins, fresh slots, profile and label as they are."""
    o = LimitOracle(of.modes, compact=compact, polish=polish, lip_const=of.lip)
    for rec in of.records:
        dists = ScaledDists.of(rec.dists)
        den = o._den_with({dists.den} | {v.denominator for delta in rec.pins.values()
                                         for v in delta.values()})
        o._commit(rec, [dists.ints[p] * (den // dists.den) for p in o.points], den)
    return o
