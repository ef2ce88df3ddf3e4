from fractions import Fraction as F
from pathlib import Path

import pytest

from urysohn.cli import main
from urysohn.certificates import verify_certificate
from urysohn.files import parse_structure_file, replay_oracle

K_GOOD = """K
point a
point b
nA 1
d a b 3/4
p 1 1 a 0/1
p 1 1 b 1/2
"""

K_BAD = """K
point a
point b
nA 1
d a b 1/2
p 1 1 a 2/1
p 1 1 b 0/1
"""

BARK = """BARK
point x1
point x2
nA 1
d x1 x2 1/1
p 1 1 x1 0/1
p 1 1 x2 1/2
"""

COMPACT = """COMPACT
point q1
point q2
point q3
d q1 q2 1/1
d q1 q3 1/2
d q2 q3 3/4
"""

C_GOOD = """C
point a
point b
d a b 1/1
suit a 1=2/1
suit b 1=1/1
"""

POLISH = """POLISH
point z1
point z2
d z1 z2 1/1
"""

L_GOOD = """L
point a
point b
L 1/1
d a b 2/1
pz a 1
pz b 2
"""


def put(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_validate_good_and_bad(tmp_path, capsys):
    good = put(tmp_path, "good.k", K_GOOD)
    assert main(["validate", good]) == 0
    assert "valid" in capsys.readouterr().out
    bad = put(tmp_path, "bad.k", K_BAD)
    assert main(["validate", bad]) == 1
    out = capsys.readouterr().out
    assert "lipschitz" in out and "a" in out and "b" in out


def test_validate_c_and_l(tmp_path):
    space = put(tmp_path, "k.compact", COMPACT)
    cfile = put(tmp_path, "s.c", C_GOOD)
    assert main(["validate", cfile, "--space", space]) == 0
    z = put(tmp_path, "z.polish", POLISH)
    lfile = put(tmp_path, "s.l", L_GOOD)
    assert main(["validate", lfile, "--space", z]) == 0


def test_validate_usage_error(tmp_path):
    cfile = put(tmp_path, "s.c", C_GOOD)
    assert main(["validate", cfile]) == 2


def test_parse_error_gives_exit_one(tmp_path):
    bad = put(tmp_path, "bad.k", "K\npoint a\npoint b\nd a b 1/0\n")
    assert main(["validate", bad]) == 1


def test_joint_embed_and_amalgamate_k(tmp_path):
    a = put(tmp_path, "a.k", "K\npoint a\nnA 1\np 1 1 a 1/1\n")
    b = put(tmp_path, "b.k", "K\npoint b\nnA 1\np 1 1 b 2/1\n")
    out = str(tmp_path / "d.k")
    assert main(["joint-embed", a, b, "--out", out]) == 0
    assert main(["validate", out]) == 0
    assert "d a b 4/1" in Path(out).read_text()

    big_b = put(
        tmp_path,
        "bb.k",
        "K\npoint a\npoint b\nnA 1\nd a b 1/1\np 1 1 a 1/1\np 1 1 b 1/2\n",
    )
    big_c = put(
        tmp_path,
        "cc.k",
        "K\npoint a\npoint c\nnA 1\nd a c 2/1\np 1 1 a 1/1\np 1 1 c 3/1\n",
    )
    out2 = str(tmp_path / "amal.k")
    assert main(["amalgamate", big_b, big_c, "--over", a, "--out", out2]) == 0
    assert main(["validate", out2]) == 0
    assert "d b c 3/1" in Path(out2).read_text()


def test_grow_and_validate_oracle(tmp_path):
    ext = put(tmp_path, "ext.k", "K\npoint x\nnA 1\np 1 1 x 0/1\n")
    log = str(tmp_path / "oracle.log")
    assert main(["grow", ext, "--out-log", log]) == 0
    ext2 = put(
        tmp_path,
        "ext2.k",
        "K\npoint x\npoint y\nnA 1\nd x y 1/2\np 1 1 x 0/1\np 1 1 y 1/4\n",
    )
    assert main(
        ["grow", ext2, "--oracle", log, "--base", "x=u1", "--slot", "1:1=1", "--out-log", log]
    ) == 0
    assert main(["validate", log]) == 0


@pytest.mark.parametrize("with_ext, extra, named", [
    (True, ["--base", "y=u1", "--dist", "u1=3/1"], "--dist: not read with"),
    (False, ["--slot", "1:1=1", "--base", "x=u1", "--dist", "u1=1/1"],
     "--base and --slot: not read without"),
    (False, ["--base", "x=u1", "--dist", "u1=1/1"], "--base: not read without"),
])
def test_grow_refuses_an_option_its_request_does_not_read(tmp_path, capsys, with_ext, extra, named):
    log = tmp_path / "o.log"
    assert main(["grow", put(tmp_path, "x.k", "K\npoint x\nnA 1\np 1 1 x 0/1\n"),
                 "--out-log", str(log)]) == 0
    before = log.read_bytes()
    ext = put(tmp_path, "y.k", "K\npoint x\npoint y\nnA 1\nd x y 3/1\np 1 1 x 0/1\n"
              "p 1 1 y 0/1\n")
    capsys.readouterr()
    argv = ["grow", *([ext] if with_ext else []), "--oracle", str(log), *extra,
            "--out-log", str(log)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"usage error: {named} an extension file\n")
    assert log.read_bytes() == before


@pytest.mark.parametrize("entry", ["11", "x:1=1"])
def test_a_malformed_slot_entry_is_a_usage_error(tmp_path, capsys, entry):
    ext = put(tmp_path, "ext.k", "K\npoint x\nnA 1\np 1 1 x 0/1\n")
    assert main(["grow", ext, "--slot", entry]) == 2
    assert capsys.readouterr().err == (
        f"usage error: malformed slot entry {entry!r}, want n:m=g\n"
    )


@pytest.mark.parametrize("extra, error", [
    (["--dist", "u1=zz"], "--dist: expected num/den, got 'zz'"),
    (["--dist", "u1=1/0"], "--dist: denominator must be positive in '1/0'"),
    (["--lip", "zz"], "--lip: expected num/den, got 'zz'"),
    (["--suit", "1"], "--suit: malformed profile entry '1'"),
    (["--suit", "1=zz"], "--suit: expected num/den, got 'zz'"),
    (["--suit", "x=1/1"], "--suit: bad index 'x'"),
])
def test_a_malformed_grow_option_value_is_a_usage_error(tmp_path, capsys, extra, error):
    # as a malformed --slot is: exit 2, the option named, no line number
    space = put(tmp_path, "k.compact", COMPACT)
    log = tmp_path / "o.log"
    argv = ["grow", "--mode", "prod", "--space", space, *extra, "--out-log", str(log)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"usage error: {error}\n")
    assert not log.exists()


@pytest.mark.parametrize("slot, error", [
    ([], "fresh slot (1,2) born inconsistent: value 2 at ('u2',) overshoots the ceiling 1/2"),
    (["--slot", "1:1=1"], "value 2 at ('u2',) overshoots the ceiling 1/2 of slot (1,1)"),
])
def test_grow_refuses_a_non_lipschitz_extension_and_keeps_the_log(tmp_path, capsys, slot, error):
    log = tmp_path / "oracle.log"
    ext = put(tmp_path, "ext.k", "K\npoint x\nnA 1\np 1 1 x 0/1\n")
    assert main(["grow", ext, "--out-log", str(log)]) == 0
    before = log.read_bytes()
    # 2 > 0 + 1/2: y's value breaks the law against x's
    bad = put(tmp_path, "bad.k", "K\npoint x\npoint y\nnA 1\nd x y 1/2\np 1 1 x 0/1\np 1 1 y 2/1\n")
    capsys.readouterr()
    argv = ["grow", bad, "--oracle", str(log), "--base", "x=u1", *slot, "--out-log", str(log)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert log.read_bytes() == before


def test_embed_deterministic_and_certified(tmp_path):
    bark = put(tmp_path, "x.bark", BARK)
    c1 = str(tmp_path / "one.cert")
    c2 = str(tmp_path / "two.cert")
    assert main(["embed", bark, "--depth", "6", "--seed", "7", "--out", c1]) == 0
    assert main(["embed", bark, "--depth", "6", "--seed", "7", "--out", c2]) == 0
    assert Path(c1).read_bytes() == Path(c2).read_bytes()
    ok, problems = verify_certificate(Path(c1).read_bytes())
    assert ok, problems
    assert main(["certify", "--verify", c1]) == 0


def test_certify_rejects_tampering(tmp_path):
    bark = put(tmp_path, "x.bark", BARK)
    cert = tmp_path / "x.cert"
    assert main(["embed", bark, "--depth", "4", "--out", str(cert)]) == 0
    data = bytearray(cert.read_bytes())
    idx = data.find(b"1/64")
    data[idx] = ord("9")
    tampered = tmp_path / "t.cert"
    tampered.write_bytes(bytes(data))
    assert main(["certify", "--verify", str(tampered)]) == 1


def test_embed_log_replayable(tmp_path):
    bark = put(tmp_path, "x.bark", BARK)
    cert = str(tmp_path / "x.cert")
    log = str(tmp_path / "x.log")
    assert main(["embed", bark, "--depth", "4", "--out", cert, "--out-log", log]) == 0
    assert main(["validate", log]) == 0


def test_homog_small(tmp_path):
    bark = put(tmp_path, "x.bark", BARK)
    cert = str(tmp_path / "h.cert")
    assert main(
        ["homog", bark, "--depth", "4", "--wishes", "1", "--seed", "11", "--out", cert]
    ) == 0
    ok, problems = verify_certificate(Path(cert).read_bytes())
    assert ok, problems


def test_eval_c_file(tmp_path, capsys):
    space = put(tmp_path, "k.compact", COMPACT)
    cfile = put(tmp_path, "s.c", C_GOOD)
    assert main(["eval", cfile, "--space", space, "--point", "a", "--index", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3/2"


def test_grow_prod_mode(tmp_path):
    space = put(tmp_path, "k.compact", COMPACT)
    log = str(tmp_path / "prod.log")
    assert main(
        ["grow", "--mode", "prod", "--space", space, "--suit", "1=1/2", "--out-log", log]
    ) == 0
    assert main(
        ["grow", "--oracle", log, "--space", space, "--dist", "u1=1/4",
         "--suit", "1=1/2", "--out-log", log]
    ) == 0
    assert main(["validate", log, "--space", space]) == 0


def test_grow_lip_mode(tmp_path):
    z = put(tmp_path, "z.polish", POLISH)
    log = str(tmp_path / "lip.log")
    assert main(
        ["grow", "--mode", "lip", "--zspace", z, "--lip", "1/1", "--pz", "1", "--out-log", log]
    ) == 0
    assert main(
        ["grow", "--oracle", log, "--zspace", z, "--dist", "u1=2/1", "--pz", "2", "--out-log", log]
    ) == 0
    assert main(["validate", log, "--zspace", z]) == 0


# a two-point BARK on which a sandwich step of `homog` has no solution
BARK_INFEASIBLE = """BARK
point x1
point x2
nA 2
d x1 x2 1/8
p 1 2 x1 1/2
p 1 2 x2 3/8
p 1 8 x1 1/2
p 1 8 x2 3/8
p 2 7 x1 x1 7/8
p 2 7 x1 x2 3/4
p 2 7 x2 x1 3/4
p 2 7 x2 x2 5/8
"""


def test_infeasible_sandwich_is_an_error_not_a_traceback(tmp_path, capsys):
    x = put(tmp_path, "x.bark", BARK_INFEASIBLE)
    cert, log = str(tmp_path / "c"), str(tmp_path / "l")
    argv = ["homog", x, "--wishes", "2", "--depth", "6", "--seed", "31", "--out", cert, "--out-log", log]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: no admissible point at level 1: |eta(u6) - eta(u47)| = 1/6 > d = 147/1024; "
        "targets=['5/8', '5/8'] eta=['17/24', '7/8'] base=[('u6', 'u47', '147/1024')]\n"
    )


def test_missing_fields_are_parse_errors(tmp_path, capsys):
    k = put(tmp_path, "short.k", "K\npoint a\nnA\n")
    assert main(["validate", k]) == 1
    assert capsys.readouterr().err.startswith("parse error: line 3: nA record wants")
    log = put(tmp_path, "short.log", "ORACLE\ngrow u1\ngrow u2\ngd 1/1\n")
    assert main(["validate", log]) == 1
    assert capsys.readouterr().err.startswith("parse error: line 4: gd record wants")


def test_validate_rejects_pin_on_unregistered_slot(tmp_path, capsys):
    log = put(tmp_path, "pins.log", "ORACLE\ngrow u1\ngp 1 1 u1 1/2\ngrow u2\ngd u1 1/1\n")
    assert main(["validate", log]) == 1
    out = capsys.readouterr()
    assert "valid" not in out.out.split()
    assert "not registered" in out.err


@pytest.mark.xfail(strict=True, reason=(
    "validate_state checks pin reproduction only: the step-3 pin raises E(u2) "
    "from 0 to 1/2 and is itself reproduced, so validate prints valid, while "
    "grow refuses the request (value 3/2 overshoots the ceiling 1 of slot (1,1))"
))
def test_validate_refuses_a_pin_that_raises_an_existing_value(tmp_path, capsys):
    log = put(tmp_path, "raise.log", "ORACLE\nmode rel\ngrow u1\ngp 1 1 u1 1/2\n"
              "greg 1 1\ngrow u2\ngb u1 1/1\ngrow u3\ngb u1 1/1\ngb u2 1/1\n"
              "gp 1 1 u3 3/2\n")
    assert main(["validate", log]) == 1
    assert capsys.readouterr().err.startswith("error: step 3: ")


def test_eval_unknown_point_or_index_is_a_usage_error(tmp_path, capsys):
    space = put(tmp_path, "k.compact", COMPACT)
    cfile = put(tmp_path, "s.c", C_GOOD)
    lfile = put(tmp_path, "s.l", L_GOOD)
    assert main(["eval", cfile, "--space", space, "--point", "zz", "--index", "1"]) == 2
    assert "has no point 'zz'" in capsys.readouterr().err
    for index in ("99", "0"):
        assert main(["eval", cfile, "--space", space, "--point", "a", "--index", index]) == 2
        assert f"dense index {index} outside 1..3" in capsys.readouterr().err
    assert main(["eval", lfile, "--point", "zz"]) == 2
    assert "has no point 'zz'" in capsys.readouterr().err


def _prod_log(points: int, last_profile: str) -> str:
    """A prod log of an equilateral space at distance 1, plus one point 5 away
    from all of them whose profile is ``last_profile``."""
    lines = ["ORACLE", "mode prod"]
    for i in range(1, points):
        lines.append(f"grow u{i}")
        lines += [f"gd u{j} 1/1" for j in range(1, i)]
        lines.append("gsuit -")
    lines.append(f"grow u{points}")
    lines += [f"gd u{j} 5/1" for j in range(1, points)]
    lines.append(f"gsuit {last_profile}")
    return "\n".join(lines) + "\n"


TWO_POINT_COMPACT = "COMPACT\npoint q1\npoint q2\nd q1 q2 1/1\n"


def test_validate_reports_a_profile_grow_refuses_above_the_snapshot_cut(tmp_path, capsys):
    # 61 points, 5 away from everything, so no pair of profiles clashes:
    # the last profile is refused on its own, at its step, as grow refuses it
    space = put(tmp_path, "k.compact", TWO_POINT_COMPACT)
    good = put(tmp_path, "good.log", _prod_log(61, "1=1/1,2=0/1"))
    assert main(["validate", good, "--space", space]) == 0
    capsys.readouterr()
    bad = put(tmp_path, "bad.log", _prod_log(61, "1=5/1,2=0/1"))
    assert main(["validate", bad, "--space", space]) == 1
    assert capsys.readouterr() == (
        "", "error: step 61: profile invalid: support clash: r_1 = 5 > 0 + 1 = r_2 + d\n"
    )


def test_validate_refuses_profiles_and_labels_outside_their_presentation(tmp_path, capsys):
    space = put(tmp_path, "k.compact", TWO_POINT_COMPACT)
    for profile, index in (("0=1/4", 0), ("3=1/4", 3), ("1=1/4,99=1/2", 99)):
        log = put(tmp_path, "p.log", _prod_log(3, profile))
        assert main(["validate", log, "--space", space]) == 1
        err = capsys.readouterr().err
        assert err == f"error: step 3: profile invalid: support index {index} outside 1..2\n"
    z = put(tmp_path, "z.polish", POLISH)
    for label in (0, 99):
        log = put(tmp_path, "l.log", f"ORACLE\nmode lip\nL 1/1\ngrow u1\ngpz {label}\n")
        assert main(["validate", log, "--zspace", z]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: step 1: dense index {label} outside 1..2"
        )


def _shape_case(name, records, error):
    return pytest.param("ORACLE\n" + "\n".join(records) + "\n", error, id=name)


@pytest.mark.parametrize(
    "log, error",
    [
        _shape_case(
            "distance-to-unknown-point",
            ["grow u1", "grow u2", "gd u1 1/1", "gd u9 1/1"],
            "step 2: distances must cover exactly the earlier points; stray ['u9'], missing []",
        ),
        _shape_case(
            "self-distance",
            ["grow u1", "grow u2", "gd u1 1/1", "gd u2 1/1"],
            "step 2: distances must cover exactly the earlier points; stray ['u2'], missing []",
        ),
        _shape_case(
            "distance-left-out",
            ["grow u1", "grow u2", "gd u1 1/1", "grow u3", "gd u2 1/1"],
            "step 3: distances must cover exactly the earlier points; stray [], missing ['u1']",
        ),
        _shape_case(
            "point-id-twice",
            ["grow u1", "grow u1", "gd u1 1/1"],
            "step 2: point 'u1' already exists",
        ),
        _shape_case(
            "slot-registered-again",
            ["grow u1", "greg 1 1", "gp 1 1 u1 1/2", "grow u2", "gd u1 1/1", "greg 1 1"],
            "step 2: fresh slot (1, 1) is not the next free arity-1 index 2",
        ),
        _shape_case(
            "registration-skips-an-index",
            ["grow u1", "greg 1 2", "gp 1 2 u1 1/2", "grow u2", "gd u1 1/1"],
            "step 1: fresh slot (1, 2) is not the next free arity-1 index 1",
        ),
        _shape_case(
            "registration-over-budget",
            ["grow u1", "greg 1 1", "greg 1 2"],
            "step 1: no room for a fresh arity-1 slot: 2 of 1",
        ),
        _shape_case(
            "arity-over-budget",
            ["grow u1", "greg 2 1"],
            "step 1: no room for a fresh arity-2 slot: 1 of 0",
        ),
    ],
)
def test_validate_refuses_records_grow_cannot_write(tmp_path, capsys, log, error):
    path = put(tmp_path, "shape.log", log)
    assert main(["validate", path]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {error}\n"


@pytest.mark.parametrize(
    "flag, value, what", [("--pz", "1", "labels"), ("--suit", "1=1/1", "profiles")]
)
def test_grow_refuses_a_label_or_profile_a_rel_oracle_does_not_carry(
    tmp_path, capsys, flag, value, what
):
    log = tmp_path / "rel.log"
    assert main(["grow", flag, value, "--out-log", str(log)]) == 1
    assert capsys.readouterr().err == f"error: oracle does not carry {what}\n"
    assert not log.exists()


# three points, arity bound 2, and one predicate record: every other table
# entry is missing
K_MOSTLY_MISSING = """K
point a
point b
point c
nA 2
d a b 1/1
d a c 1/1
d b c 1/1
p 1 1 a 0/1
"""


def test_validate_reports_totality_in_sorted_order_under_any_hash_seed(tmp_path):
    import os
    import subprocess
    import sys

    import urysohn

    k = put(tmp_path, "missing.k", K_MOSTLY_MISSING)
    src = str(Path(urysohn.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "urysohn.cli", "validate", k],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.returncode == 1, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    missing = [(1, 1, ("b",)), (1, 1, ("c",))]
    missing += [(1, 2, (p,)) for p in "abc"]
    missing += [(2, 1, (p, q)) for p in "abc" for q in "abc"]
    assert outs[0].splitlines() == [
        f"totality: p_{m}^{n} missing on {tup}" for n, m, tup in missing
    ]


def test_validate_reads_bound_zero_as_a_bare_metric_space(tmp_path, capsys):
    for kind in ("K", "BARK"):
        f = put(tmp_path, f"bare.{kind}", f"{kind}\npoint a\npoint b\nnA 0\nd a b 1/2\n")
        assert main(["validate", f]) == 0
        assert capsys.readouterr().out == "valid\n"


def test_validate_names_bark_slots_like_k_slots(tmp_path, capsys):
    bark = put(tmp_path, "gap.bark", BARK.replace("p 1 1 x2 1/2\n", "p 1 1 x2 2/1\n"))
    assert main(["validate", bark]) == 1
    assert capsys.readouterr().out == (
        "lipschitz: p_1^1('x2',) = 2 > 1 = p_1^1('x1',) + d\n"
    )
    stray = put(tmp_path, "stray.bark", BARK + "p 1 3 x1 0/1\n")
    assert main(["validate", stray]) == 1
    assert capsys.readouterr().out == "index set for arity 1 has 2 members, wants 1\n"
    short = put(tmp_path, "short.bark", BARK.replace("p 1 1 x2 1/2\n", ""))
    assert main(["validate", short]) == 1
    assert capsys.readouterr().out == "totality: p_1^1 missing on ('x2',)\n"


def test_embed_reads_a_k_file_like_the_same_bark_file(tmp_path):
    k = put(tmp_path, "x.k", "K" + BARK[len("BARK"):])
    bark = put(tmp_path, "x.bark", BARK)
    outs = []
    for src in (k, bark):
        name = Path(src).name
        cert, log = tmp_path / f"{name}.cert", tmp_path / f"{name}.log"
        assert main(["embed", src, "--depth", "4", "--out", str(cert), "--out-log", str(log)]) == 0
        outs.append((cert.read_bytes(), log.read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "modes, records, error",
    [
        (["mode prod"], ["grow u1", "greg 1 1", "gp 1 1 u1 1/2", "gsuit -"],
         "step 1: oracle does not carry indexed predicates"),
        (["mode prod"], ["grow u1", "greg 1 1", "gsuit -"],
         "step 1: oracle does not carry indexed predicates"),
        ([], ["grow u1", "gsuit 1=1/1", "gpz 7"], "step 1: oracle does not carry profiles"),
        ([], ["grow u1", "gpz 1"], "step 1: oracle does not carry labels"),
    ],
    ids=["pins", "fresh-slot", "profile", "label"],
)
def test_validate_refuses_payloads_the_modes_do_not_carry(
    tmp_path, capsys, modes, records, error
):
    # the compact presentation only where a prod oracle reads it
    space = ["--space", put(tmp_path, "k.compact", TWO_POINT_COMPACT)] if modes else []
    log = put(tmp_path, "o.log", "\n".join(["ORACLE", *modes, *records]) + "\n")
    assert main(["validate", log, *space]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {error}\n"


LIP_LOG_HEAD = ["ORACLE", "mode lip", "L 1/1"]


@pytest.mark.parametrize(
    "lines, flag, error",
    [
        (["ORACLE", "mode prod", "grow u1", "gsuit 1=5/1", "grow u2", "gd u1 1/1", "gsuit -"],
         "--space", "step 2: existing profile of 'u1' at 1 too far from the new point"),
        (LIP_LOG_HEAD + ["grow u1", "gpz 1", "grow u2", "gd u1 1/2", "gpz 2"],
         "--zspace", "step 2: index 2 breaks the Lipschitz bound against 'u1'"),
        (["ORACLE", "mode prod", "grow u1", "gsuit -", "grow u2", "gd u1 1/1"],
         "--space", "step 2: prod mode requires a profile for the new point"),
        (LIP_LOG_HEAD + ["grow u1", "gpz 1", "grow u2", "gd u1 1/1"],
         "--zspace", "step 2: lip mode requires a dense index for the new point"),
    ],
    ids=["profile-clash", "label-clash", "profile-missing", "label-missing"],
)
def test_validate_reports_each_profile_and_label_fault_once(
    tmp_path, capsys, lines, flag, error
):
    # replay refuses the step, with grow's message, before it is written
    space = put(tmp_path, "space", TWO_POINT_COMPACT if flag == "--space" else POLISH)
    log = put(tmp_path, "o.log", "\n".join(lines) + "\n")
    assert main(["validate", log, flag, space]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize(
    "modes, flags, code, error",
    [
        (None, ["--space"], 2, "--space: not read for a BARK file"),
        (None, ["--zspace"], 2, "--zspace: not read for a BARK file"),
        ([], ["--space"], 2, "--space: not read for a rel oracle"),
        ([], ["--space", "--zspace"], 2, "--space and --zspace: not read for a rel oracle"),
        (["prod"], ["--space", "--zspace"], 2, "--zspace: not read for a prod oracle"),
        (["lip"], ["--space", "--zspace"], 2, "--space: not read for a lip oracle"),
        (["lip"], ["--zspace"], 0, ""),
        (["lip"], ["--space"], 0, ""),
        (["prod", "lip"], ["--space", "--zspace"], 0, ""),
    ],
)
def test_validate_refuses_a_presentation_it_does_not_read(tmp_path, capsys, modes, flags,
                                                          code, error):
    # an unread path is refused before it is read, so a missing file is not
    # what decides; the presentations read are real files
    given = {"--space": put(tmp_path, "k.compact", TWO_POINT_COMPACT),
             "--zspace": put(tmp_path, "z.polish", POLISH)}
    if code:
        given = dict.fromkeys(given, str(tmp_path / "nothere"))
    elif flags == ["--space"]:
        given["--space"] = given["--zspace"]  # a lip oracle's polish presentation
    if modes is None:
        path = put(tmp_path, "x.bark", "BARK\npoint x1\nnA 1\np 1 1 x1 0/1\n")
    else:
        lines = ["ORACLE", *(f"mode {m}" for m in modes)] + (["L 1/1"] if "lip" in modes else [])
        lines += ["grow u1"] + (["gsuit -"] if "prod" in modes else [])
        lines += ["gpz 1"] if "lip" in modes else []
        path = put(tmp_path, "o.log", "\n".join(lines) + "\n")
    assert main(["validate", path, *(x for f in flags for x in (f, given[f]))]) == code
    out = capsys.readouterr()
    assert out == (("", f"usage error: {error}\n") if code else ("valid\n", ""))


def test_certify_a_missing_file_is_a_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.cert")
    assert main(["certify", "--verify", missing]) == 2
    assert capsys.readouterr().err == f"usage error: no such file: {missing}\n"


# -- dense indices outside the presentation, and paths that are not files ------


def _c_file(support: str) -> str:
    return f"C\npoint a1\npoint a2\nd a1 a2 1/1\nsuit a1 {support}\nsuit a2 1=1/1\n"


def _l_file(a: str, b: str, label: int) -> str:
    return f"L\npoint {a}\npoint {b}\nL 1/1\nd {a} {b} 2/1\npz {a} {label}\npz {b} 1\n"


@pytest.mark.parametrize("support, message", [
    ("0=3/1", "support index 0 outside 1..2"),
    ("7=3/1", "support index 7 outside 1..2"),
])
def test_eval_refuses_a_support_index_outside_the_space(tmp_path, capsys, support, message):
    space = put(tmp_path, "k.compact", TWO_POINT_COMPACT)
    cfile = put(tmp_path, "a.c", _c_file(support))
    assert main(["eval", cfile, "--space", space, "--point", "a1", "--index", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


@pytest.mark.parametrize("label", [0, 9])
def test_joint_embed_refuses_a_label_outside_the_space(tmp_path, capsys, label):
    space = put(tmp_path, "z.polish", POLISH)
    a = put(tmp_path, "a.l", _l_file("a1", "a2", label))
    b = put(tmp_path, "b.l", _l_file("b1", "b2", 1))
    out = str(tmp_path / "out.l")
    assert main(["joint-embed", a, b, "--space", space, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: dense index {label} outside 1..2\n"
    assert not Path(out).exists()


def test_amalgamate_refuses_a_support_index_outside_the_space(tmp_path, capsys):
    space = put(tmp_path, "k.compact", TWO_POINT_COMPACT)
    common = put(tmp_path, "a.c", "C\npoint a1\nsuit a1 1=1/1\n")
    bad = put(tmp_path, "b.c", _c_file("0=3/1"))
    good = put(tmp_path, "c.c", _c_file("1=2/1"))
    out = str(tmp_path / "out.c")
    assert main(["amalgamate", bad, good, "--over", common, "--space", space, "--out", out]) == 1
    assert capsys.readouterr().err == "error: support index 0 outside 1..2\n"
    assert not Path(out).exists()


@pytest.mark.parametrize("argv", [
    ["validate", "{dir}"],
    ["certify", "--verify", "{dir}"],
    ["grow", "--oracle", "{dir}", "--dist", "u1=1/1"],
])
def test_reading_a_directory_is_a_usage_error(tmp_path, capsys, argv):
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    assert capsys.readouterr().err == f"usage error: cannot read {tmp_path}: Is a directory\n"


def test_writing_to_a_directory_is_a_usage_error(tmp_path, capsys):
    bark = put(tmp_path, "x.bark", BARK)
    assert main(["embed", bark, "--depth", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"usage error: cannot write {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("cmd", ["embed", "homog"])
@pytest.mark.parametrize("opt", ["--out", "--out-log"])
@pytest.mark.parametrize("where", ["dir", "no parent"])
def test_unwritable_output_is_refused_before_building(tmp_path, capsys, monkeypatch, cmd, opt, where):
    import urysohn.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the construction ran before the output path was checked")

    monkeypatch.setattr(cli, "embed_structure", unreachable)
    bark = put(tmp_path, "x.bark", BARK)
    if where == "dir":
        target, why = str(tmp_path), "Is a directory"
    else:
        target, why = str(tmp_path / "missing" / "out"), "No such file or directory"
    assert main([cmd, bark, "--depth", "3", opt, target]) == 2
    assert capsys.readouterr().err == f"usage error: cannot write {target}: {why}\n"


def test_a_log_on_stdout_equals_the_log_file(tmp_path, capsysbinary):
    bark = put(tmp_path, "x.bark", BARK)
    argv = ["homog", bark, "--depth", "4", "--wishes", "1", "--seed", "11",
            "--out", str(tmp_path / "h.cert")]
    log = tmp_path / "h.log"
    assert main(argv + ["--out-log", str(log)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(argv + ["--out-log", "-"]) == 0
    out = capsysbinary.readouterr().out
    assert out.startswith(b"ORACLE\n") and out == log.read_bytes()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_a_failed_streamed_write_is_a_usage_error(tmp_path, capsys):
    bark = put(tmp_path, "x.bark", BARK)
    argv = ["homog", bark, "--depth", "4", "--wishes", "1", "--seed", "11",
            "--out", str(tmp_path / "h.cert"), "--out-log", "/dev/full"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "usage error: cannot write /dev/full: No space left on device\n"


def test_grow_prints_the_new_point_before_the_log_on_a_pipe():
    import os
    import subprocess
    import sys

    import urysohn

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(urysohn.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "urysohn.cli", "grow", "--out-log", "-"],
        env=env, capture_output=True, check=True,
    ).stdout
    assert out.startswith(b"u1\nORACLE\n")


def test_one_parser_serves_every_call_and_keeps_nothing_between_them(tmp_path, capsys):
    from urysohn import cli

    log = str(tmp_path / "o.log")
    assert main(["grow", "--out-log", log]) == 0
    assert main(["grow", "--oracle", log, "--dist", "u1=1/1", "--out-log", log]) == 0
    assert main(["grow", "--oracle", log, "--dist", "u1=1/1", "--dist", "u2=1/1",
                 "--out-log", log]) == 0
    # a --dist list carried over would put u4 at 1 from u1, not 1/2 + 1
    assert main(["grow", "--oracle", log, "--dist", "u3=1/2", "--out-log", log]) == 0
    assert Path(log).read_text().split("grow u4\n")[1] == "gb u3 1/2\n"
    replayed = replay_oracle(parse_structure_file(Path(log).read_text()).value)
    assert replayed.distance("u4", "u1") == F(3, 2)

    a = put(tmp_path, "a.k", "K\npoint a\nnA 1\np 1 1 a 1/1\n")
    c = put(tmp_path, "c.k", "K\npoint a\npoint c\nnA 1\nd a c 1/1\np 1 1 a 1/1\np 1 1 c 1/1\n")
    outs = []
    for common, maps in (("p", ["--map-b", "a=p"]), ("a", [])):
        b = put(tmp_path, f"b{common}.k", f"K\npoint {common}\npoint q\nnA 1\nd {common} q 1/1\n"
                f"p 1 1 {common} 1/1\np 1 1 q 1/2\n")
        out = tmp_path / f"amal{common}.k"
        # a --map-b list carried over would look for p in the second b
        assert main(["amalgamate", b, c, "--over", a, *maps, "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]

    # a usage error still exits 2, and the next call parses afresh
    with pytest.raises(SystemExit) as exc:
        main(["grow", "--pz", "one"])
    assert exc.value.code == 2
    assert main(["validate", put(tmp_path, "s.c", C_GOOD)]) == 2
    capsys.readouterr()
    assert main(["validate", log]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert cli._parser() is cli._parser()
