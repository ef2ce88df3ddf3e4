"""Differential tests of the one-walk growth step against the definitional
model.

``LimitOracle._step`` walks each slot once, in two calls of ``_walk_slot``
that grow and grow_clamped share.  The step once walked twice (clamp mode
before the row, refuse mode after it), and the tests keep that form's
name; ``model_oracle.ModelOracle`` now decides each step from the
definitions.  On the solver's fixed cases at depths 2 and 3, and on random
grow requests, some damaged, both refuse alike, for the same kind of
fault; make the same ``accept`` calls; and read the same distances and the
same envelope value at every tuple of arity <= 2 of every realized slot.
"""
from collections import Counter
from random import Random

import pytest

from urysohn.engine import LimitOracle

from model_oracle import ModelOracle
from random_structures import GRIDS, damaged, random_request
from test_model_oracle import reads, same_reads, solve, twin


@pytest.mark.parametrize("depth", [2, 3])
def test_solver_steps_match_the_two_walk_step(depth):
    refused = 0
    for seed in range(40):
        got, _ = solve(seed, GRIDS[seed % len(GRIDS)], depth)
        refused += isinstance(got, tuple)
    assert 0 < refused < 40, refused


def test_grow_steps_match_the_two_walk_step():
    """Random rel requests, some sent first with each fault of ``damaged``:
    each is refused by both, for the same kind of fault, leaving both as
    they were, or accepted by both."""
    seen = Counter()
    for seed in range(40):
        rng = Random(seed)
        o, m = LimitOracle(), ModelOracle()
        for _ in range(10):
            base_dists, rel = random_request(rng, o)
            requests = [("intact", base_dists, rel)]
            if len(base_dists) >= 2 and rng.random() < 0.3:
                requests[:0] = damaged(rng, base_dists, rel)
            for kind, dists, ext in requests:
                before = reads(o)
                got = twin(o, m, "grow", dists, ext)
                accepted = not isinstance(got, tuple)
                if not accepted:
                    assert reads(o) == before == reads(m), (seed, kind)
                seen["accepted" if accepted else "refused"] += 1
                seen["birth"] += accepted and bool(ext.birth_pins)
                seen["damaged"] += kind != "intact"
        same_reads(o, m)
        assert o.validate_state() == []
    assert min(seen.values()) >= 20, seen
