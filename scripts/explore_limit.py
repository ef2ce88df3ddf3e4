#!/usr/bin/env python3
"""Grow a small approximation of the enriched limit and print what happened.

Embeds a random three-point structure with unary and binary predicate data,
then reads back realized distances and predicate values at the final depth
with their certified error radii.
"""
import argparse
import sys
from fractions import Fraction
from random import Random

from urysohn.cauchy import embed_structure
from urysohn.engine import LimitOracle
from urysohn.randgen import random_metric, random_table
from urysohn.rationals import fmt_rat, pow2
from urysohn.relational import indexed_structure, tuples_over, validate_k


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depth", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=3)
    args = ap.parse_args()

    rng = Random(args.seed)
    ids = [f"x{i}" for i in range(1, args.points + 1)]
    metric = random_metric(rng, ids)
    bound = min(2, args.points)
    pred = {}
    for n in range(1, bound + 1):
        for m in range(1, bound + 2 - n):
            for tup, v in random_table(rng, metric, n).items():
                pred[(n, m, tup)] = v
    x = indexed_structure(metric, bound, pred)

    oracle = LimitOracle()
    out = embed_structure(oracle, x, args.depth)
    print(f"oracle grew to {len(oracle)} points; registry: {dict(oracle.registry)}")
    radius = pow2(-args.depth)
    for i, p in enumerate(ids):
        for j in range(i + 1, len(ids)):
            realized = oracle.distance(
                out.points[i].at(args.depth), out.points[j].at(args.depth)
            )
            print(
                f"d({p},{ids[j]}): target {fmt_rat(metric.d(p, ids[j]))}, "
                f"realized {fmt_rat(realized)} (radius {fmt_rat(2 * radius)})"
            )
    for (n, m), g in sorted(out.slot_globals.items()):
        worst = Fraction(0)
        sels = list(tuples_over(tuple(range(len(ids))), n))
        tups = [tuple(out.points[i].at(args.depth) for i in sel) for sel in sels]
        for sel, v in zip(sels, oracle.predicate_values(n, g, tups)):
            ideal = x.pred[(n, m, tuple(ids[i] for i in sel))]
            worst = max(worst, abs(v - ideal))
        print(f"slot ({n},{m}) -> global {g}: worst deviation {fmt_rat(worst)}")
    report = validate_k(oracle.snapshot())
    print("snapshot valid" if not report else f"snapshot INVALID: {report[0]}")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
