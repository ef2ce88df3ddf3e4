from pathlib import Path

from urysohn.cli import main
from urysohn.certificates import verify_certificate

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
    err = capsys.readouterr().err
    assert err.startswith("error: no admissible point at level 1")


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
