"""Differential tests of the one base check every adjoined row goes through.

``LimitOracle._check_base`` decides a grow request, a ``gb`` record's base
and a ``gd`` record's whole row, the base of every earlier point, through
``metric.katetov_break``; ``_replayed_row`` builds the row with grow's
``_row``.  The reference (``two_check_reference``) is the oracle as it was
before: a pairwise loop for bases, ``_check_row`` for whole rows, checked
after the record's pins, and a row builder of replay's own.  Both must
accept and refuse the same requests and the same logs.  A refusal must name
a distance that is not positive, or a pair, in handle order, at which the
Katetov condition fails; on a whole row it must be the reference's own
message, in the one wording both checks now share.
"""
import io
import re
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from urysohn import cli
from urysohn.engine import LimitOracle, OracleGrowthError, ScaledDists

from test_local_steps import damaged_log, replay_refusal
from test_log_read import TOKENS, _dist_lines, _gb_damage, _mutate_lines, fuzz_inputs  # noqa: F401
from test_validate_reference import grown_oracle
from two_check_reference import TwoCheckOracle

seeds = st.integers(0, 2**32)
POSITIVE = re.compile(r"distance to '(\w+)' must be positive")
PAIR = re.compile(r"metric infeasible at the base pair \('(\w+)', '(\w+)'\)")


def refusal(check, o, *args):
    try:
        check(o, *args)
    except OracleGrowthError as exc:
        return str(exc)
    return None


def row_refusal(o, request):
    """The reference's refusal of ``request`` as a ``gd`` record's whole
    row: ``_check_row`` on the row at the replay denominator."""
    den = o._den_with({request.den})
    row = [request.ints[p] * (den // request.den) for p in o.points]
    return refusal(TwoCheckOracle._check_row, o, row, den)


@contextmanager
def reference_checks():
    """LimitOracle with the reference's checks and replayed row."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_check_base", "_check_row", "_replayed_row"):
            mp.setattr(LimitOracle, name, getattr(TwoCheckOracle, name), raising=False)
        yield


def random_request(rng, o):
    """A request on ``o`` and whether it gives every point: a base of 0-4
    points or all of them, at a Katetov row (a point c beyond an oracle
    point), sometimes damaged by a unit of the oracle's scale, by 1 or to
    far away, set to 0 or below, or naming a point outside the oracle."""
    pts = o.points
    whole = bool(pts) and rng.random() < 0.3
    base = list(pts) if whole else rng.sample(pts, min(len(pts), rng.randint(0, 4)))
    q, c = rng.choice(pts), F(rng.randint(1, 4), rng.choice([1, 2, 3]))
    dists = {p: c + o.distance(q, p) for p in base}
    for _ in range(rng.choice([0, 0, 1, 2])):
        if not base:
            break
        p = rng.choice(base)
        how = rng.choice(["unit", "one", "far", "zero", "negative"])
        if how == "unit":
            dists[p] = max(F(1, o.den), dists[p] + rng.choice([-1, 1]) * F(1, o.den))
        elif how == "one":
            dists[p] = max(F(1, 2), dists[p] + rng.choice([-1, 1]))
        elif how == "far":
            dists[p] = F(999)
        else:
            dists[p] = F(0) if how == "zero" else -dists[p]
    if not whole and rng.random() < 0.05:
        dists["nope"] = F(1)
    return ScaledDists.of(dists), whole


def assert_names_a_fault(o, request, msg):
    """``msg`` names a point outside the oracle, a distance that is not
    positive, or a pair in handle order, all distances positive, at which
    |e_p - e_q| <= d(p, q) <= e_p + e_q fails."""
    if msg == "base point 'nope' not in the oracle":
        return
    if m := POSITIVE.fullmatch(msg):
        assert request[m[1]] <= 0
        return
    m = PAIR.fullmatch(msg)
    assert m, msg
    p, q = m.groups()
    assert o.points.index(p) < o.points.index(q)
    assert min(request.values()) > 0
    ep, eq, d = request[p], request[q], o.distance(p, q)
    assert not abs(ep - eq) <= d <= ep + eq


@given(seeds)
@settings(max_examples=120, deadline=None)
def test_base_checks_decide_as_the_pairwise_and_row_checks(seed):
    rng = Random(seed)
    o = grown_oracle(rng, steps=rng.randint(1, 10))
    for _ in range(8):
        request, whole = random_request(rng, o)
        got = refusal(LimitOracle._check_base, o, request)
        assert (got is None) == (refusal(TwoCheckOracle._check_base, o, request) is None)
        if got is not None:
            assert_names_a_fault(o, request, got)
        if whole:
            want = row_refusal(o, request)
            assert got == (want and want.replace("at the pair", "at the base pair"))


def test_the_draws_reach_each_refusal():
    seen = set()
    for seed in range(60):
        rng = Random(seed)
        o = grown_oracle(rng, steps=6)
        for _ in range(8):
            request, whole = random_request(rng, o)
            got = refusal(LimitOracle._check_base, o, request)
            seen.add((whole, got and re.sub(r"'\w+'", "_", got)))
    assert seen >= {(w, m) for w in (False, True) for m in (
        None, "distance to _ must be positive", "metric infeasible at the base pair (_, _)")}
    assert (False, "base point _ not in the oracle") in seen


# -- damaged logs ---------------------------------------------------------------


def reference_refusal(text):
    """replay's refusal of the log ``text`` with the reference checks."""
    with reference_checks():
        return replay_refusal(text)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_a_damaged_all_gd_log_is_refused_in_the_reference_words(seed):
    rng = Random(seed)
    o = grown_oracle(rng, steps=rng.randint(2, 12))
    if len(o) < 2:
        return
    text = damaged_log(rng, o)
    want = reference_refusal(text)
    assert replay_refusal(text) == (want and want.replace("at the pair", "at the base pair"))


def validate(path, extra, reference):
    """``urysohn validate``'s exit code and stdout on ``path``, with the
    reference checks patched in when ``reference``."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        with reference_checks() if reference else nullcontext():
            code = cli.main(["validate", str(path), *extra])
    return code, out.getvalue()


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_validate_exits_as_the_reference_on_fuzzed_logs(fuzz_inputs, data):
    d, inputs = fuzz_inputs
    text, extra = data.draw(st.sampled_from([i for i in inputs if i[0].startswith("ORACLE")]))
    if data.draw(st.booleans()):
        text = _mutate_lines(data, text)
    else:
        lines = text.split("\n")
        for i in data.draw(st.lists(st.sampled_from(_dist_lines(text)), min_size=0, max_size=2)):
            lines[i] = f"{lines[i].rsplit(' ', 1)[0]} {data.draw(TOKENS)}".rstrip()
        _gb_damage(data, lines)
        text = "\n".join(lines)
    path = d / "differential"
    path.write_text(text, encoding="utf-8")
    assert validate(path, extra, False) == validate(path, extra, True)
