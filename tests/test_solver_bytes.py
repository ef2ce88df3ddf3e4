"""Pinned output bytes of the one-point solvers.

Each case runs one solver on a small fixed input and hashes the certificate
it emits and the ORACLE log of the oracle it grew, written twice: by the
all-``gd`` reference writer, whose hashes are those of the logs written
before base steps were logged by their base alone, and by the log writer.
The solvers must keep producing these bytes exactly: check names, check
order, distances, pins, profiles and labels all enter the hashes.  They
must produce them on an oracle that never pads its denominator too, so the
padding reaches no output.
"""
import hashlib
from fractions import Fraction
from math import lcm

import pytest

from urysohn.cauchy import (
    PartialIso,
    embed_structure,
    extend_one_point,
    extend_partial_iso,
    homog_depth_plan,
    indexed_structure,
    stage_depths,
    witness_checks,
)
from urysohn.certificates import emit_certificate
from urysohn.engine import LimitOracle
from urysohn.files import oracle_file, serialize_structure
from urysohn.lipschitz import extend_one_point_l
from urysohn.metric import fin_metric
from urysohn.product import embed_point_c, extend_one_point_c
from urysohn.rationals import pow2
from urysohn.spaces import CompactPresentation, PolishPresentation, suitable

from reference_log import reference_oracle_text

F = Fraction


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _hashes(o: LimitOracle, checks) -> tuple[str, str, str]:
    of = oracle_file(o)
    return (_sha(emit_certificate(list(checks))), _sha(reference_oracle_text(of)),
            _sha(serialize_structure("ORACLE", of)))


def _bark3():
    m = fin_metric(
        ["x1", "x2", "x3"],
        {("x1", "x2"): F(3, 4), ("x1", "x3"): F(1), ("x2", "x3"): F(1, 2)},
    )
    pred = {
        (1, 1, ("x1",)): F(0),
        (1, 1, ("x2",)): F(1, 2),
        (1, 1, ("x3",)): F(3, 4),
        (1, 2, ("x1",)): F(1, 4),
        (2, 1, ("x1", "x2")): F(1, 2),
        (2, 1, ("x2", "x1")): F(1, 8),
        (2, 1, ("x2", "x3")): F(1, 4),
    }
    return indexed_structure(m, bound=2, pred=pred)


def case_embed():
    o = LimitOracle()
    out = embed_structure(o, _bark3(), 3)
    return _hashes(o, out.checks)


def case_drift_slack():
    # the last point realized again over the first two, with the drift
    # bound widened by one power of two, as back-and-forth rounds run
    o = LimitOracle()
    x = _bark3()
    out = embed_structure(o, x, 3)
    again = extend_one_point(o, out.points[:2], x, out.slot_globals, 3, drift_slack=1)
    return _hashes(o, out.checks + again.checks)


def case_prod_lip():
    k = CompactPresentation(
        fin_metric(
            ["q1", "q2", "q3"],
            {("q1", "q2"): F(1), ("q1", "q3"): F(1, 2), ("q2", "q3"): F(3, 4)},
        )
    )
    z = PolishPresentation(fin_metric(["z1", "z2"], {("z1", "z2"): F(2)}))
    o = LimitOracle(modes=("prod", "lip"), compact=k, polish=z, lip_const=F(1))
    depth = 4
    m = fin_metric(
        ["b1", "b2", "b3"],
        {("b1", "b2"): F(2), ("b1", "b3"): F(5, 2), ("b2", "b3"): F(3, 2)},
    )
    d1, d2, _ = stage_depths(3, depth)
    first = embed_point_c(o, suitable({1: F(1)}), d1, lip_target=1)
    second = extend_one_point_c(
        o, [first.point], m.restrict({"b1", "b2"}), suitable({2: F(1, 2)}), d2, lip_target=2
    )
    third = extend_one_point_c(
        o, [first.point, second.point], m, suitable({1: F(3, 2), 3: F(1)}), depth,
        lip_target=[2] * depth,
    )
    return _hashes(o, first.checks + second.checks + third.checks)


def case_lip():
    z = PolishPresentation(
        fin_metric(
            ["z1", "z2", "z3"],
            {("z1", "z2"): F(1), ("z1", "z3"): F(1, 2), ("z2", "z3"): F(1)},
        )
    )
    o = LimitOracle(modes=("lip",), polish=z, lip_const=F(1))
    m = fin_metric(
        ["b1", "b2", "b3"],
        {("b1", "b2"): F(1), ("b1", "b3"): F(3, 4), ("b2", "b3"): F(5, 4)},
    )
    d1, d2, d3 = stage_depths(3, 4)
    first = extend_one_point_l(o, [], m.restrict({"b1"}), 1, d1)
    second = extend_one_point_l(o, [first.point], m.restrict({"b1", "b2"}), 2, d2)
    third = extend_one_point_l(o, [first.point, second.point], m, [3] * d3, d3)
    return _hashes(o, first.checks + second.checks + third.checks)


def case_partial_iso():
    # two copies of a two-point structure, one wish on the domain side
    o = LimitOracle()
    depth = 3
    x = indexed_structure(
        fin_metric(["x1", "x2"], {("x1", "x2"): F(1)}),
        bound=1,
        pred={(1, 1, ("x1",)): F(0), (1, 1, ("x2",)): F(1, 2)},
    )
    plan = homog_depth_plan(2, 1, depth)
    left = embed_structure(o, x, plan.copy_depth)
    right = embed_structure(o, x, plan.copy_depth)
    g_l, g_r = left.slot_globals[(1, 1)], right.slot_globals[(1, 1)]
    wish = indexed_structure(
        fin_metric(
            ["x1", "x2", "w"],
            {("x1", "x2"): F(1), ("x1", "w"): F(1, 2), ("x2", "w"): F(3, 4)},
        ),
        bound=1,
        pred={(1, 1, ("x1",)): F(0), (1, 1, ("x2",)): F(1, 2), (1, 1, ("w",)): F(1, 4)},
    )
    wish_out = extend_one_point(o, list(left.points), wish, {(1, 1): g_l}, plan.wish_depth)
    iso = PartialIso(left.points, right.points, {(1, g_l): g_r})
    result = extend_partial_iso(o, iso, [wish_out.point], [], depth)
    assert not result.failures, result.failures
    checks = witness_checks(o, result.iso, depth, pow2(-(depth - 1)))
    return _hashes(o, wish_out.checks + tuple(checks))


# (certificate sha256, reference log sha256, log sha256)
PINNED = {
    "embed": (
        "3c8f84640a54c3ea1b329c8dcc79be9a49d499b4ac3345abec2fd68998c13119",
        "ddcd58882705673328ef7085a9dc5bbae0e5ffff4420acf00ce81a46f31b8eab",
        "7068c5bc05e816eb82e4288d03d279143ce5714a89adf682a4e083890b014a68",
    ),
    "drift_slack": (
        "dda9ce65e1783b6f3bcc75c235435a9f353fa2dc76f9aebff3e7e2de12ae2f4c",
        "852a3fc9ac5fe8117de1110360ff0ffdb94b2c2e1dc79dacb1242bec880b65fe",
        "6a5b34df762f0014eb77c5ff4bbeca98dcaff97402a29fc02a85fd2c187291dc",
    ),
    "prod_lip": (
        "e29d94c71512e012d493bbbb78bc457f66ef136fc68abeed58210b3faa3d30b3",
        "10dbdfb8135c20612419545115bc962958ce1dc90137b6fbc425fcd55b1fb8c2",
        "54cc215913d54caea5149b35fe4f78fee0069e475409791ef39bcc4d48b22485",
    ),
    "lip": (
        "6638c4cb1e4857ce9a3a9f6b6a6d30cb0ee2587fd40792cd542ba1a0b71bf498",
        "cf537798f7ab4d2327b5d3cde06dfd5eeda3ecead22d16ce3c136a5300de0f9a",
        "af08bda7ffe5ff1514cad0067cb29b5d3c3d5a7e7e38a86361f45441ec014b27",
    ),
    "partial_iso": (
        "53bffded2ff6eea9ef738cff5fc15a9cb148b366792111a2c1959d280c585d84",
        "f10c499ea50ae9601fe4a337673d38b01afc253c1c1a97e38a72f5632fbd9aea",
        "5bec188f1addf14c7ea76b12f12f5d6a7b37f5b24fbbd288fec549ccbc308dbe",
    ),
}

CASES = {
    "embed": case_embed,
    "drift_slack": case_drift_slack,
    "prod_lip": case_prod_lip,
    "lip": case_lip,
    "partial_iso": case_partial_iso,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_output_bytes_are_pinned(name):
    assert CASES[name]() == PINNED[name]


def plain_lcm(o, dens):
    """The least denominator that holds the state and ``dens``: the one
    ``LimitOracle._den_with`` pads with two-powers."""
    return lcm(o.den, *dens)


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_denominator_padding_reaches_no_output(name, monkeypatch):
    monkeypatch.setattr(LimitOracle, "_den_with", plain_lcm)
    assert CASES[name]() == PINNED[name]


def test_the_model_draws_pass_without_the_padding(monkeypatch):
    """A few draws of test_model_oracle and test_one_walk_step on an oracle
    that never pads."""
    import test_model_oracle as t
    import test_one_walk_step

    monkeypatch.setattr(LimitOracle, "_den_with", plain_lcm)
    for seed in range(4):
        t.solve(seed, t.GRIDS[seed % len(t.GRIDS)], 2 + seed % 2)
    test_one_walk_step.test_grow_steps_match_the_two_walk_step()
    t.test_an_empty_base_clamp_step_keeps_the_gap_over_its_clamped_values()
    t.test_embed_structure_matches_the_model(3)
