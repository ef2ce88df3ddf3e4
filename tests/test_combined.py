"""One oracle carrying both a closed-subset profile and a Lipschitz label."""
import re
from fractions import Fraction

import pytest

from urysohn.cauchy import SolverError, required_depth
from urysohn.engine import LimitOracle, OracleGrowthError
from urysohn.lipschitz import (
    eval_limit_function,
    extend_one_point_l,
    snapshot_lipschitz,
    validate_l,
)
from urysohn.metric import fin_metric, single_point
from urysohn.product import (
    embed_point_c,
    extend_one_point_c,
    membership_c,
    snapshot_product,
    validate_c,
)
from urysohn.rationals import pow2
from urysohn.spaces import CompactPresentation, PolishPresentation, suitable

F = Fraction


def combined_oracle():
    k = CompactPresentation(fin_metric(["q1", "q2"], {("q1", "q2"): F(1)}))
    z = PolishPresentation(fin_metric(["z1", "z2"], {("z1", "z2"): F(2)}))
    return LimitOracle(modes=("prod", "lip"), compact=k, polish=z, lip_const=F(1)), k, z


def test_growth_requires_both_payloads():
    o, k, z = combined_oracle()
    with pytest.raises(OracleGrowthError):
        o.grow({}, suitable=suitable({1: F(1)}))
    with pytest.raises(OracleGrowthError):
        o.grow({}, lip_index=1)
    o.grow({}, suitable=suitable({1: F(1)}), lip_index=1)
    assert len(o) == 1


def test_both_structures_on_one_oracle():
    o, k, z = combined_oracle()
    depth = 4
    first = embed_point_c(o, suitable({1: F(1)}), required_depth(2, depth), lip_target=1)
    m = fin_metric(["b1", "b2"], {("b1", "b2"): F(2)})
    second = extend_one_point_c(
        o, [first.point], m, suitable({2: F(1, 2)}), depth, lip_target=2
    )
    assert all(c.holds for c in second.checks)
    assert validate_c(snapshot_product(o), k) == []
    assert validate_l(snapshot_lipschitz(o), z) == []
    # the same approximant answers both kinds of queries
    assert membership_c(o, second.point, 2, depth).state == "OUT"
    assert membership_c(o, second.point, 1, depth).state == "IN"
    idx, bound = eval_limit_function(o, second.point, depth)
    assert idx == 2 and bound == pow2(-depth)


def test_solver_demands_label_on_combined_oracle():
    o, k, z = combined_oracle()
    with pytest.raises(Exception, match="label"):
        embed_point_c(o, suitable({1: F(1)}), 3)


def _polish_oracle():
    # z1, z2 at 3/16, L = 1
    k = CompactPresentation(fin_metric(["q1", "q2"], {("q1", "q2"): F(1)}))
    z = PolishPresentation(fin_metric(["z1", "z2"], {("z1", "z2"): F(3, 16)}))
    return LimitOracle(modes=("prod", "lip"), compact=k, polish=z, lip_const=F(1))


@pytest.mark.parametrize("target, error", [
    ([1, 2, 2, 2, 2, 2], "label sequence breaks its modulus: modulus-1-2"),
    ([1, 1], "label sequence of length 2 shorter than 6"),
    (99, "label target: dense index 99 outside 1..2"),
    ([1, 1, 1, 1, 1, 1, 0], "label target: dense index 0 outside 1..2"),
])
def test_profile_solver_refuses_label_targets_as_the_label_solver_does(target, error):
    o = _polish_oracle()
    with pytest.raises(SolverError, match=f"^{re.escape(error)}$"):
        embed_point_c(o, suitable({1: F(1, 2)}), 6, lip_target=target)
    with pytest.raises(SolverError, match=f"^{re.escape(error)}$"):
        extend_one_point_l(o, [], single_point("b1"), target, 6)
    assert len(o) == 0
    # with one anchor the index is checked before anything reads it
    o = _polish_oracle()
    first = embed_point_c(o, suitable({1: F(1, 2)}), 6, lip_target=1)
    grown = len(o)
    m = fin_metric(["b1", "b2"], {("b1", "b2"): F(1)})
    with pytest.raises(SolverError, match="^label "):
        extend_one_point_c(o, [first.point], m, suitable({1: F(1, 2)}), 4, lip_target=target)
    assert len(o) == grown
