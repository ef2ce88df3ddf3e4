"""Differential tests of LimitOracle against the definitional model.

``model_oracle.ModelOracle`` adjoins each point from the definitions alone:
the path-rule row, the envelope of the pins by a full scan, each walked
value's Katetov window over the stored pins and the entries walked before
it, profiles and labels checked pairwise.  The engine is read only through
its public methods, never its denominator, so a change of scale, padding or
kernel can break these tests only by changing an output.

On each draw the engine and the model accept or refuse alike, a refusal of
the same kind (``fault``); they make the same ``accept`` calls and return
the same outcome; and the engine, the model and the model's replay of the
engine's log read the same distance at every pair and the same envelope
value at every tuple of arity <= 2 of every realized slot (``reads``).  The
draws here: the rel solver's cases on grids 1/8 to 1/1024 at depths 2 and
3 drawn by hypothesis, ``embed_structure``, clamp steps over an empty base,
random bases and whole rows, damaged all-gd logs, fuzzed logs, and profiles
and labels.  ``solve`` and ``twin`` also run the solver's fixed cases in
test_one_walk_step and test_solver_step_reference, and random grow
requests, damaged and intact, in test_one_walk_step and test_grow_reference.
"""
import re
from fractions import Fraction
from itertools import combinations
from math import lcm
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from urysohn.cauchy import SandwichInfeasible, SolverError, embed_structure, extend_one_point
from urysohn.engine import LimitOracle, OracleGrowthError
from urysohn.files import ParseError, oracle_file, parse_structure_file, replay_oracle
from urysohn.metric import MetricTableError
from urysohn.relational import tuples_over
from urysohn.spaces import suitable

import random_structures
from model_oracle import ModelOracle, Refused
from random_structures import GRIDS, case, sparse_bark
from reference_log import reference_oracle_text
from test_local_steps import set_gd
from test_log_read import LOGS, TOKENS, _dist_lines, _gb_damage, _mutate_lines
from test_validate_reference import decorated_oracle, grown_oracle

F = Fraction
seeds = st.integers(0, 2**32)

# the words of the engine's refusals, by the check that makes them; every
# other refusal is of the slots and pins
WORDS = {
    "shape": ("already exists", "the id grow gives it", "must cover exactly", "wants one distance"),
    "base": ("not in the oracle", "must be positive", "metric infeasible"),
    "payload": ("mode requires", "does not carry", "profile invalid", "dense index"),
    "walk": ("born inconsistent", "undershoots", "overshoots", "disagrees on base tuple"),
    "row": ("too far", "Lipschitz bound"),
}


def fault(exc) -> str:
    """The kind of check behind a refusal: the model's own kind, or the
    engine's by its words."""
    if isinstance(exc, Refused):
        return exc.args[0]
    return next((kind for kind, words in WORDS.items() if any(w in str(exc) for w in words)),
                "slots")


def outcome(call, *args):
    """``call``'s result; a tuple for a refusal: ("refused", kind) for a
    refused step, or the type and words of a solver's own refusal."""
    try:
        return call(*args)
    except (OracleGrowthError, MetricTableError, Refused) as exc:
        return "refused", fault(exc)
    except (SandwichInfeasible, SolverError) as exc:
        return type(exc).__name__, str(exc)


def reads(o):
    """The points, every distance, the registrations and every realized
    slot of arity <= 2 at every tuple, through public reads."""
    pts = tuple(o.points)
    return (pts, {(x, y): o.distance(x, y) for x in pts for y in pts if x != y},
            dict(o.registry), {(n, g): o.predicate_values(n, g, list(tuples_over(pts, n)))
                               for n, g in sorted(o.registry) if n <= 2})


def replayed(o) -> ModelOracle:
    """The model replaying the log of ``o``."""
    m = ModelOracle(o.modes, o.compact, o.polish, o.lip_const)
    for rec in o.log:
        m.replay_record(rec)
    return m


def same_reads(o, m):
    assert reads(o) == reads(m) == reads(replayed(o))


def twin(o, m, method, *args):
    """One step on the engine and on the model, which must decide alike."""
    got = outcome(getattr(o, method), *args)
    assert outcome(getattr(m, method), *args) == got, (method, args)
    return got


# -- the rel solver ---------------------------------------------------------------


def recorded(cls, calls):
    """``cls`` with every ``accept`` call of its grow_clamped appended to ``calls``."""

    class Recorded(cls):
        def grow_clamped(self, base_dists, new, slots, accept):
            def seen(*args):
                calls.append(args)
                return accept(*args)
            return super().grow_clamped(base_dists, new, slots, seen)
    return Recorded


def solve(seed, pden, depth):
    """extend_one_point on case(seed) with the engine and with the model as
    the oracle, built alike: the outcome, the accept calls and the oracle."""
    runs = []
    for cls in (LimitOracle, ModelOracle):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(random_structures, "LimitOracle", recorded(cls, calls))
            build, target, known, depth = case(seed, pden, depth)
            o, anchors = build()
            runs.append((outcome(extend_one_point, o, anchors, target, known, depth), calls, o))
    (got, calls, o), (want, model_calls, m) = runs
    assert got == want and calls == model_calls, seed
    same_reads(o, m)
    return got, calls


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pden=st.sampled_from(GRIDS), depth=st.integers(2, 3))
def test_the_clamped_step_matches_the_model(seed, pden, depth):
    solve(seed, pden, depth)


@pytest.mark.parametrize("seed", range(4))
def test_embed_structure_matches_the_model(seed):
    x = sparse_bark(Random(200 + seed), 3, GRIDS[seed])
    o, m = LimitOracle(), ModelOracle()
    got = embed_structure(o, x, 2)
    assert got == embed_structure(m, x, 2)
    same_reads(o, m)


# -- grow requests ------------------------------------------------------------------


def empty_base_request(rng, o):
    """A fresh unary and a fresh binary slot born over an empty base, births
    on random old points and targets on the 1/4 grid, up to 12 on the births
    and up to 3 at the new point."""
    pts = o.points
    slots = []
    for n in (1, 2):
        born = {tuple(rng.choice(pts) for _ in range(n)): F(rng.randint(0, 48), 4)
                for _ in range(rng.randint(0, 4))}
        slots.append(((n, 1), None, born, {("g",) * n: F(rng.randint(0, 12), 4)}))
    return slots


def test_an_empty_base_clamp_step_keeps_the_gap_over_its_clamped_values():
    """No solver step has births over an empty base, but grow_clamped takes
    them: the births clamp among themselves, and the new point sits at the
    joint-embedding gap over the walked values, the clamped ones among them.
    The oracle's distances stay below 4, so a clamp that lowers the largest
    target lowers the gap."""
    lowered = 0
    for seed in range(20):
        rng = Random(seed)
        o, m = LimitOracle(), ModelOracle()
        twin(o, m, "grow", {})
        for _ in range(rng.randint(1, 4)):
            twin(o, m, "grow", {rng.choice(o.points): F(rng.randint(1, 4), 4)})
        slots, calls = empty_base_request(rng, o), ([], [])
        for oracle, seen in zip((o, m), calls):
            oracle.grow_clamped({}, "g", slots, lambda *args, seen=seen: seen.append(args))
        assert calls[0] == calls[1], seed
        same_reads(o, m)
        lowered += max(t for *_, t, _ in calls[0]) > max(v for *_, v in calls[0])
    assert lowered >= 3, lowered


# -- bases, whole rows and logs -----------------------------------------------------


def unit(o) -> Fraction:
    """One unit of the grid every distance of ``o`` lies on."""
    return F(1, lcm(*(o.distance(p, q).denominator for p, q in combinations(o.points, 2))))


def random_base(rng, o):
    """A request on ``o``: a base of 0-4 points or all of them, at a Katetov
    row (a point c beyond an oracle point), sometimes damaged by a unit of
    the distances' grid, by 1 or to far away, set to 0 or below, or naming a
    point outside the oracle."""
    pts = o.points
    if not pts:
        return {}
    base = list(pts) if rng.random() < 0.3 else rng.sample(pts, min(len(pts), rng.randint(0, 4)))
    q, c = rng.choice(pts), F(rng.randint(1, 4), rng.choice([1, 2, 3]))
    dists = {p: c + o.distance(q, p) for p in base}
    for _ in range(rng.choice([0, 0, 1, 2]) if base else 0):
        p = rng.choice(base)
        how = rng.choice(["unit", "one", "far", "zero", "negative"])
        if how == "unit":
            dists[p] = max(unit(o), dists[p] + rng.choice([-1, 1]) * unit(o))
        elif how == "one":
            dists[p] = max(F(1, 2), dists[p] + rng.choice([-1, 1]))
        elif how == "far":
            dists[p] = F(999)
        else:
            dists[p] = F(0) if how == "zero" else -dists[p]
    if rng.random() < 0.05:
        dists["nope"] = F(1)
    return dists


def assert_names_a_fault(o, dists):
    """The engine's refusal of ``dists`` names a point outside the oracle, a
    distance that is not positive, or a pair, in the oracle's order, all
    distances positive, at which |e_p - e_q| <= d(p, q) <= e_p + e_q fails."""
    with pytest.raises(OracleGrowthError) as exc:
        o.grow(dists)
    msg = str(exc.value)
    if msg == "base point 'nope' not in the oracle":
        return
    if m := re.fullmatch(r"distance to '(\w+)' must be positive", msg):
        assert dists[m[1]] <= 0
        return
    p, q = re.fullmatch(r"metric infeasible at the base pair \('(\w+)', '(\w+)'\)", msg).groups()
    assert o.points.index(p) < o.points.index(q) and min(dists.values()) > 0
    assert not abs(dists[p] - dists[q]) <= o.distance(p, q) <= dists[p] + dists[q]


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_base_checks_decide_as_the_model(seed):
    rng = Random(seed)
    o = grown_oracle(rng, steps=rng.randint(1, 10))
    m = replayed(o)
    for _ in range(8):
        dists = random_base(rng, o)
        if isinstance(twin(o, m, "grow", dists), tuple):
            assert_names_a_fault(o, dists)
    same_reads(o, m)


def test_the_base_draws_reach_each_refusal():
    seen = set()
    for seed in range(60):
        rng = Random(seed)
        o = grown_oracle(rng, steps=6)
        m = replayed(o)
        for _ in range(8):
            dists = random_base(rng, o)
            whole = set(dists) >= set(o.points) and len(o) > 1
            got = twin(o, m, "grow", dists)
            seen.add((whole, got[1] if isinstance(got, tuple) else None))
    assert seen >= {(w, k) for w in (False, True) for k in (None, "base")}


def damaged_gd_log(rng, o) -> str:
    """The all-gd log of ``o`` with one distance moved by one unit of the
    distances' grid, by 1 or by 3, and kept positive."""
    x, y = sorted(rng.sample(o.points, 2), key=o.points.index)
    v = o.distance(x, y) + rng.choice([-1, 1]) * rng.choice([unit(o), 1, 3])
    return set_gd(reference_oracle_text(oracle_file(o)), y, x, max(unit(o), v))


def replay_step(of, oracle):
    """Replay ``of`` into ``oracle``: None, or the step refused and its kind."""
    for step, rec in enumerate(of.records, 1):
        try:
            oracle.replay_record(rec)
        except (OracleGrowthError, Refused) as exc:
            return step, fault(exc)
    return None


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_a_damaged_all_gd_log_is_refused_as_the_model_refuses_it(seed):
    rng = Random(seed)
    o = grown_oracle(rng, steps=rng.randint(2, 12))
    if len(o) < 2:
        return
    text = damaged_gd_log(rng, o)
    engine, model = LimitOracle(), ModelOracle()
    got = replay_step(parse_structure_file(text).value, engine)
    assert got == replay_step(parse_structure_file(text).value, model)
    assert got is None or got[1] == "base"
    if got is None:
        same_reads(replay_oracle(parse_structure_file(text).value), model)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_logs_replay_as_the_model_replays_them(data):
    """The small logs of test_log_read with lines dropped, duplicated,
    swapped or re-tokened, or gd and gb values damaged: each log that parses
    is refused at the same step for the same kind of fault by both, or
    replayed by both into the same reads."""
    _, text, spaces = data.draw(st.sampled_from(LOGS))
    lines = text.split("\n")
    if data.draw(st.booleans()):
        lines = _mutate_lines(data, text).split("\n")
    else:
        for i in data.draw(st.lists(st.sampled_from(_dist_lines(text)), max_size=2)):
            lines[i] = f"{lines[i].rsplit(' ', 1)[0]} {data.draw(TOKENS)}".rstrip()
        _gb_damage(data, lines)
    try:
        parsed = parse_structure_file("\n".join(lines))
        of = parsed.value
        engine = LimitOracle(of.modes, compact=spaces["compact"], polish=spaces["polish"],
                             lip_const=of.lip)
    except (ParseError, ValueError, AttributeError):
        return  # not an oracle log, or not one these spaces can read
    model = ModelOracle(of.modes, spaces["compact"], spaces["polish"], of.lip)
    got = replay_step(of, engine)
    assert got == replay_step(of, model)
    if got is None:
        same_reads(engine, model)


# -- profiles and labels -------------------------------------------------------------


def test_profiles_and_labels_decide_as_the_model():
    """Random profiles and labels, valid or not, near or far from the
    earlier points', on prod, lip and prod+lip oracles."""
    seen = dict.fromkeys(["accepted", "payload", "row"], 0)
    for seed in range(24):
        rng = Random(seed)
        modes = [("prod",), ("lip",), ("prod", "lip")][seed % 3]
        o = decorated_oracle(rng, modes, steps=4)
        m = replayed(o)
        for _ in range(5):
            base = {}
            if rng.random() < 0.85:
                base = {rng.choice(o.points): F(rng.randint(1, 8), 4)}
            fn = label = None
            if o.compact is not None:
                support = rng.sample(range(1, o.compact.size + 2), rng.randint(0, 2))
                fn = suitable({i: F(rng.randint(0, 8), 4) for i in support})
            if o.polish is not None:
                label = rng.randint(1, o.polish.size + 1)
            got = twin(o, m, "grow", base, None, fn, label)
            seen[got[1] if isinstance(got, tuple) else "accepted"] += 1
        same_reads(o, m)
    assert min(seen.values()) >= 5, seen
