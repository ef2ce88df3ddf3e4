from fractions import Fraction
from random import Random

from urysohn.metric import fin_metric
from urysohn.randgen import _clamp, rand_rat, random_table
from urysohn.relational import pattern_slots, tuples_over, validate_k

from random_structures import random_extension_bark, random_slot_permutation, random_structure_k


def pattern_extension(rng, s, new_id, raise_bound=False, den=8):
    """Reference: the one-point extension written for initial-segment indices."""
    pts = list(s.points)
    entries = {(x, y): s.metric.d(x, y) for x, y in s.metric.pairs()}
    new_entries = {}
    for i, x in enumerate(pts):
        lo = max(
            (abs(new_entries[y] - s.metric.d(x, y)) for y in pts[:i]),
            default=Fraction(1, den),
        )
        lo = max(lo, Fraction(1, den))
        cap = min((new_entries[y] + s.metric.d(x, y) for y in pts[:i]), default=None)
        new_entries[x] = _clamp(rand_rat(rng, den), lo, cap)
    entries.update({(x, new_id): v for x, v in new_entries.items()})
    metric = fin_metric(pts + [new_id], entries)
    bound = min(s.bound + 1, len(pts) + 1) if raise_bound else s.bound
    pred = {}
    for n, m in pattern_slots(bound):
        if n <= s.bound and m <= s.bound + 1 - n:
            base = {tup: s.pred[(n, m, tup)] for tup in tuples_over(s.points, n)}
        else:
            base = {}
        for tup, v in random_table(rng, metric, n, base, den=den).items():
            pred[(n, m, tup)] = v
    return metric, bound, pred


def test_extension_of_a_pattern_structure_draws_like_the_pattern_reference():
    for seed in range(40):
        rng = Random(seed)
        s = random_structure_k(rng, [f"a{i}" for i in range(1, 2 + seed % 3)])
        raise_bound = seed % 2 == 0
        ours, ref = Random(seed), Random(seed)
        out = random_extension_bark(ours, s, "new", raise_bound=raise_bound)
        metric, bound, pred = pattern_extension(ref, s, "new", raise_bound=raise_bound)
        assert (out.metric, out.bound, out.pred) == (metric, bound, pred)
        assert out.slots() == pattern_slots(bound)
        assert validate_k(out) == []
        assert ours.getstate() == ref.getstate()


def test_slot_permutation_keeps_the_index_sets():
    rng = Random(5)
    s = random_structure_k(rng, ["a1", "a2", "a3"], max_arity=3)
    p, sigma = random_slot_permutation(rng, s)
    assert p.indices == s.indices
    assert validate_k(p) == []
    for (n, m, tup), v in s.pred.items():
        assert p.pred[(n, sigma[n][m], tup)] == v
