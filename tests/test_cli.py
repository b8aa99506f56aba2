import gc
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qrea.cli import COMMANDS, main, parse_args
from qrea.errors import DomainError
from qrea.gtrep import HWModuleSpec
from qrea.hrep import build_bigcell_rep, spectral_data

REPO_ROOT = Path(__file__).resolve().parents[1]


def parse_report(text: str) -> dict:
    """A report, checked to carry every field of the stable schema."""
    doc = json.loads(text)
    for key in ("tool_version", "q0", "inputs", "findings", "max_residual", "pass"):
        if key not in doc:
            raise ValueError(f"missing report field {key}")
    return doc


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_verify_algebra_n2(tmp_path):
    code, doc = run_cli(["verify-algebra", "--n", "2"], tmp_path)
    assert code == 0
    assert doc["pass"] is True
    assert doc["tool_version"]


def test_classify_roots(tmp_path):
    code, doc = run_cli(["classify-roots", "--q", "0.5", "--roots", "1,0.25,0"], tmp_path)
    assert code == 0
    e = doc["inputs"]["extsig"]
    assert (e["rmod1"], e["nplus"], e["nminus"], e["nzero"]) == (0.0, 2, 0, 1)


@pytest.mark.parametrize("roots,eps", [("1,0.25", "+,+"), ("1,-0.25", "+,-")])
def test_classify_roots_canonical_weight(tmp_path, roots, eps):
    code, doc = run_cli(["classify-roots", "--roots", roots, "--eps", eps], tmp_path)
    assert code == 0 and doc["inputs"]["canonical_weight"] == [0.0, 0.0]


def test_classify_roots_eps_must_match_the_roots(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["classify-roots", "--roots", "1,0.25", "--eps", "+,-", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: positive-root count does not match eps leading products\n"


def test_classify_roots_inadmissible(tmp_path):
    code, doc = run_cli(["classify-roots", "--roots", "1,1,0"], tmp_path)
    assert code == 1
    assert doc["pass"] is False


def test_rep_build_then_verify(tmp_path):
    code = main(["rep-build", "--n", "2", "--eps", "+,-", "--r", "0.3,0.8",
                 "--depth", "12", "--out", str(tmp_path / "rep.json")])
    assert code == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["spec"]["N"] == 2

    code, rpt = run_cli(["rep-verify", "--n", "2", "--eps", "+,-", "--r", "0.3,0.8",
                         "--depth", "20", "--margin", "8"], tmp_path)
    assert code == 0
    assert rpt["pass"]
    assert rpt["inputs"]["extsig"]["rmod1"] == pytest.approx(0.5)


def test_transport_vector(tmp_path):
    code, doc = run_cli(["transport", "--by", "vector", "--n", "2", "--eps", "+,-",
                         "--r", "0.3,0.8", "--depth", "14", "--margin", "6"], tmp_path)
    assert code == 0
    assert doc["pass"]
    assert doc["inputs"]["components"] >= 2


def test_characters_cmd(tmp_path):
    code, doc = run_cli(["characters", "--n", "3", "--samples", "1", "--seed", "5"], tmp_path)
    assert code == 0
    assert doc["pass"]


def test_characters_report_is_pinned(tmp_path):
    """The N <= 6 character checks, 94 of them, give the same report byte
    for byte, pinned by its sha256."""
    out = tmp_path / "out.json"
    assert main(["characters", "--n", "6", "--samples", "2", "--seed", "7", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "9ab79de3ee3ca9e1285202e529b59d596df6d4aef1bded295ecfc232b14d1195", digest


@pytest.mark.parametrize("args", [["--n", "1"], ["--samples", "0"], ["--samples", "-1"]],
                         ids=lambda args: "".join(args))
def test_characters_needs_a_check(capsys, args):
    assert main(["characters", *args]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


def test_sweep_deterministic(tmp_path):
    code1, doc1 = run_cli(["sweep", "--n", "2", "--cells", "12", "--seed", "7",
                           "--depth", "6"], tmp_path, "a.json")
    code2, doc2 = run_cli(["sweep", "--n", "2", "--cells", "12", "--seed", "7",
                           "--depth", "6"], tmp_path, "b.json")
    assert code1 == code2 == 0
    assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()
    assert doc1["inputs"]["adapted_cells"] >= 1


def test_sweep_enumerates_patterns_once(monkeypatch, tmp_path):
    """A sweep reads the patterns of its (N, D) once, as one read-only array,
    for all of its cells."""
    import qrea.gtrep

    made, enumerate_patterns = [], qrea.gtrep._pattern_array
    monkeypatch.setattr(qrea.gtrep, "_pattern_array",
                        lambda N, D: made.append((N, D)) or enumerate_patterns(N, D))
    qrea.gtrep._kept_pattern_array.cache_clear()
    code, doc = run_cli(["sweep", "--n", "3", "--cells", "20", "--seed", "1", "--depth", "8"],
                        tmp_path)
    assert code == 0 and len(doc["findings"]) == 20
    assert made == [(3, 8)]
    assert not qrea.gtrep._kept_pattern_array(3, 8).flags.writeable


def test_report_schema_roundtrip(tmp_path):
    code, doc = run_cli(["verify-algebra", "--n", "2"], tmp_path)
    assert gc.get_freeze_count() == 0  # main leaves the caller's collector as it was
    text = (tmp_path / "out.json").read_text()
    parsed = parse_report(text)
    assert parsed == doc
    assert parsed["pass"] == (code == 0)


def test_usage_error():
    assert main(["classify-roots"]) == 2
    assert main(["transport", "--by", "bogus", "--n", "2", "--eps", "+,-",
                 "--r", "0.3,0.8"]) == 2


@pytest.mark.parametrize("by", ["bogus", "scale", "scale:abc", "uchar:0.1,x", "vector:1"])
def test_bad_transport_is_refused_before_any_build(monkeypatch, capsys, by):
    """--by is read into its kind and parameter with the rest of the command
    line: a transport that cannot be read is a usage error before the big
    cell is built."""
    import qrea.cli

    def refuse(*args, **kwargs):
        raise AssertionError("built a big cell for an unreadable transport")

    monkeypatch.setattr(qrea.cli, "build_bigcell_rep", refuse)
    assert main(["transport", "--by", by, "--n", "2", "--eps", "+,-", "--r", "0.3,0.8"]) == 2
    assert "error: argument --by:" in capsys.readouterr().err


@pytest.mark.parametrize("by,n,eps,r,message", [
    ("s", "3", "+,-,+", "3/10,4/5,9/5", "2 x 2: it needs --n 2, got --n 3"),
    ("s", "1", "+", "3/10", "2 x 2: it needs --n 2, got --n 1"),
    ("uchar:0.1,0.2", "3", "+,-,+", "3/10,4/5,9/5", "one angle per row of Z, 3 for --n 3, got 2"),
    ("uchar:0.1,0.2,0.3", "2", "+,-", "3/10,4/5", "one angle per row of Z, 2 for --n 2, got 3"),
], ids=["s-n3", "s-n1", "uchar-short", "uchar-long"])
def test_transport_of_another_size_is_refused_before_any_build(monkeypatch, capsys, by, n,
                                                               eps, r, message):
    """A transport whose blocks cannot act on an N x N Z (the quantum-SU(2)
    corepresentation at N != 2, a character with other than N angles) is
    refused by its reason before the big cell is built."""
    import qrea.cli

    def refuse(*args, **kwargs):
        raise AssertionError("built a big cell for a transport of another size")

    monkeypatch.setattr(qrea.cli, "build_bigcell_rep", refuse)
    assert main(["transport", "--by", by, "--n", n, "--eps", eps, "--r", r,
                 "--depth", "12", "--margin", "6"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["rep-verify", "--n", "2", "--eps", "+,-", "--r", "1/0,1"],
    ["classify-roots", "--roots", "1/0,1"],
], ids=lambda args: args[0])
def test_zero_denominator_is_usage_error(capsys, args):
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["rep-verify"], ["rep-build"], ["transport", "--by", "scale:0.7"],
], ids=lambda args: args[0])
def test_negative_margin_is_usage_error(tmp_path, capsys, args):
    """A negative margin would count truncated vectors as interior."""
    out = tmp_path / "out.json"
    assert main([*args, "--n", "2", "--eps", "+,-", "--r", "0.3,0.8", "--depth", "14",
                 "--margin", "-3", "--out", str(out)]) == 2
    assert "margin -3 is negative" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("by,message", [
    ("scale:nan", "finite c > 0, got c=nan"),
    ("scale:inf", "finite c > 0, got c=inf"),
    ("uchar:nan,0", "finite, got theta_1=nan"),
], ids=["scale-nan", "scale-inf", "uchar-nan"])
def test_non_finite_transport_parameter_is_usage_error(capsys, by, message):
    """A non-finite transport parameter is refused by name, before any
    spectral work on the transported blocks."""
    assert main(["transport", "--by", by, "--n", "2", "--eps", "+,-", "--r", "0.3,0.8",
                 "--depth", "10", "--margin", "6"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c,code", [
    ("1e300", 2), ("1e-160", 2), ("1e150", 2), ("1e-300", 2), ("1e37", 0), ("1e-37", 0),
])
def test_transport_scale_outside_float_range_is_refused(tmp_path, capsys, c, code):
    """A scaling whose transported Z would take verification's degree-2N
    products out of float64 is refused up front, naming the range, with no
    NumPy warning; scalings just inside the range pass."""
    out = tmp_path / "out.json"
    assert main(["transport", "--by", f"scale:{c}", "--n", "2", "--eps", "+,-",
                 "--r", "3/10,4/5", "--depth", "14", "--margin", "6",
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert "outside [2^-250, 2^250]" in err and "degree-4" in err, err
        assert not out.exists()
    else:
        assert json.loads(out.read_text())["pass"] is True


@pytest.mark.parametrize("r,exp2", [("1e20,4/5", "200000000000000000000"), ("600,4/5", "1200"),
                                    ("-126,4/5", "-252")], ids=["1e20", "600", "-126"])
@pytest.mark.parametrize("args", [["rep-verify"], ["rep-build"], ["transport", "--by", "vector"]],
                         ids=lambda args: args[0])
def test_weight_with_roots_outside_float_range_is_refused(monkeypatch, tmp_path, capsys,
                                                          args, r, exp2):
    """A weight whose exact root eps_[k] q^(2(r_k + k) - 2) leaves the scales
    at which verification's degree-2N products stay in float64 is refused
    before any pattern array or Decimal context is made; at r_1 = 600 the
    root q^1200 would underflow to 0 and misread the rank."""
    import qrea.gtrep

    def refuse(*args, **kwargs):
        raise AssertionError("made a pattern array for a refused weight")

    monkeypatch.setattr(qrea.gtrep, "_pattern_array", refuse)
    out = tmp_path / "out.json"
    assert main([*args, "--n", "2", "--eps", "+,-", "--r", r, "--depth", "14", "--margin", "6",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"root 1 of the weight is q^({exp2}), outside [2^-250, 2^250]" in err, err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["transport", "--by", "scale:0.7", "--n", "2", "--eps", "+,-", "--r", "0.3,0.8",
     "--tol", "1e-3"],
    ["rep-verify", "--n", "2", "--eps", "+,-", "--r", "0.3,0.8", "--seed", "3"],
    ["verify-algebra", "--tol", "1"],
    ["verify-algebra", "--q", "0.5"],
    ["characters", "--q", "0.5"],
    ["sweep", "--q", "0.5"],
], ids=lambda args: args[0] + ("-q" if "--q" in args else ""))
def test_unread_flags_are_usage_errors(capsys, args):
    """--tol is declared only where it is read (rep-verify), --seed only
    where it is read (characters, sweep), and --q only where q is read: the
    exact checks hold for generic q, and sign patterns do not depend on it."""
    assert main(args) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def child_env():
    """The environment of a child interpreter that imports this checkout's
    src first, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_module_entrypoint(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qrea.cli", "classify-roots", "--roots", "1,0.25",
         "--out", str(out)],
        capture_output=True, text=True, cwd=REPO_ROOT, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["pass"]


def test_closed_stdout_is_not_an_error(tmp_path):
    """A reader that closes stdout early (``qrea rep-build ... | head -c 10``)
    gets no more: the run exits with its own code and writes nothing to
    stderr.  The dump is far larger than a pipe's buffer, so the writer
    meets the closed pipe."""
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "qrea.cli", "rep-build", "--n", "3",
         "--eps", "+,-,+", "--r", "3/10,4/5,4/5", "--depth", "12", "--margin", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=child_env())
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), head, err) == (0, b'{"basis": ', b"")


DEEP_ROWS = [(2, "+,-", "3/10,4/5", D, 8) for D in (14, 24, 34, 44, 54, 60)] \
    + [(3, "+,-,+", "3/10,4/5,4/5", D, 12) for D in (12, 16, 20, 24)]


@pytest.mark.parametrize("n,eps,r,depth,margin", DEEP_ROWS,
                         ids=[f"N{row[0]}-D{row[3]}" for row in DEEP_ROWS])
def test_deep_builds_pass(tmp_path, n, eps, r, depth, margin):
    """Mixed-sign big cells keep their residuals at depth: the reflection
    equation holds to 1e-9, the signature measured from Z is the prefix
    products of eps, and every finding passes up to D=60 (N=2) and D=24
    (N=3)."""
    code, doc = run_cli(["rep-verify", "--n", str(n), "--eps", eps, "--r", r,
                         "--depth", str(depth), "--margin", str(margin)], tmp_path)
    signs = [1 if s == "+" else -1 for s in eps.split(",")]
    assert doc["inputs"]["signature"] == [int(x) for x in np.cumprod(signs)]
    assert doc["inputs"]["rank"] == n
    re_res = next(f["residual"] for f in doc["findings"] if f["name"] == "reflection_equation")
    assert re_res <= 1e-9
    assert doc["pass"] is True and code == 0, [f for f in doc["findings"] if not f["ok"]]


S_TRANSPORTS = [("+,+", "1/5,6/5"), ("+,-", "3/10,4/5"), ("-,+", "-4/5,1/5"),
                ("-,-", "-2/5,-1/2")]


@pytest.mark.parametrize("depth", [14, 20])
@pytest.mark.parametrize("eps,r", S_TRANSPORTS, ids=[eps for eps, _ in S_TRANSPORTS])
def test_transport_by_s_passes(tmp_path, capsys, eps, r, depth):
    """The quantum-SU(2) transport keeps the extended signature for every
    sign pattern: no truncated corepresentation level counts as interior."""
    out = tmp_path / "out.json"
    code = main(["transport", "--by", "s", "--n", "2", f"--eps={eps}", f"--r={r}",
                 "--depth", str(depth), "--margin", "6", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["pass"] is True and doc["inputs"]["components"] >= 1, doc["findings"]


@pytest.mark.parametrize("args,rank,signature,counts,rmod1", [
    (["--n", "2", "--eps", "+,-", "--r", "14,29/2", "--depth", "14", "--margin", "8"],
     2, [1, -1], (1, 1, 0), 0.5),
    (["--n", "3", "--eps", "+,+,-", "--r", "5,6,11/2", "--depth", "14", "--margin", "12"],
     3, [1, 1, -1], (2, 1, 0), 0.5),
    (["--n", "3", "--eps=-,+,+", "--r", "9,9,9", "--depth", "14", "--margin", "12"],
     3, [-1, -1, -1], (0, 3, 0), 0.0),
], ids=["N2-r14", "N3-r5", "N3-r9"])
def test_rep_verify_small_block_scale(tmp_path, args, rank, signature, counts, rmod1):
    """Big cells whose block scale is far below 1 keep their full rank and
    class: no zero decision is absolute."""
    code, doc = run_cli(["rep-verify", *args], tmp_path)
    assert code == 0 and doc["pass"] is True, doc["findings"]
    got = doc["inputs"]
    ext = got["extsig"]
    assert (got["rank"], got["signature"]) == (rank, signature)
    assert (ext["nplus"], ext["nminus"], ext["nzero"]) == counts
    assert abs(ext["rmod1"] - rmod1) < 1e-8


@pytest.mark.parametrize("args", [
    ["--n", "2", "--eps", "+,-", "--r", "3/10,4/5", "--depth", "14", "--by", "scale:0.02"],
    ["--n", "2", "--eps", "+,+", "--r", "0,11", "--depth", "30", "--by", "uchar:0.1,0.2"],
    ["--n", "2", "--eps=+,-", "--r=-9,-17/2", "--depth", "14", "--by", "scale:3"],
], ids=["scale-0.02", "uchar-r11", "scale-3"])
def test_transport_keeps_class_at_any_scale(tmp_path, args):
    """A transport of a big cell by a scaling or a character is one factor
    of the input's class, whatever the block scale."""
    code, doc = run_cli(["transport", *args, "--margin", "6"], tmp_path)
    assert code == 0 and doc["pass"] is True, doc["findings"]
    assert doc["inputs"]["components"] == 1


@pytest.mark.parametrize("n,eps,r,by", [
    (3, "+,-,+", "3/10,4/5,9/5", "scale:0.7"),
    (3, "+,-,+", "3/10,4/5,9/5", "vector"),
    (3, "+,-,+", "3/10,4/5,9/5", "uchar:0.2,0.7,0.4"),
    (2, "+,-", "3/10,4/5", "s"),
], ids=["N3-scale", "N3-vector", "N3-uchar", "N2-s"])
def test_transport_reports_the_class_of_spectral_data(tmp_path, n, eps, r, by):
    """transport reads the input's class without its signature; the class it
    reports is the extended signature of spectral_data on the same cell."""
    code, doc = run_cli(["transport", "--by", by, "--n", str(n), "--eps", eps, "--r", r,
                         "--depth", "12", "--margin", "6"], tmp_path)
    assert code == 0 and doc["pass"] is True, doc["findings"]
    spec = HWModuleSpec(N=n, eps=tuple(1 if s == "+" else -1 for s in eps.split(",")),
                        r=tuple(Fraction(x) for x in r.split(",")), D=12, q0=0.5)
    ext = spectral_data(build_bigcell_rep(spec, margin=6))[2]
    assert doc["inputs"]["extsig_before"] == asdict(ext)


def test_verify_algebra_refuses_n_above_limit(capsys):
    assert main(["verify-algebra", "--n", "6"]) == 2
    assert "limit N=5" in capsys.readouterr().err


def test_rep_build_refuses_non_finite_norms(tmp_path, capsys):
    # c_P at m = 33 is about 6e311, beyond the float64 range
    out = tmp_path / "rep.json"
    assert main(["rep-build", "--n", "2", "--eps", "+,-", "--r", "3/10,4/5",
                 "--depth", "40", "--margin", "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "((33,),)" in err
    assert not out.exists()
    assert main(["rep-build", "--n", "2", "--eps", "+,-", "--r", "3/10,4/5",
                 "--depth", "32", "--margin", "8", "--out", str(out)]) == 0
    json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(name))


def test_rep_verify_ok_are_booleans(tmp_path):
    code, doc = run_cli(["rep-verify", "--n", "3", "--eps", "+,-,+", "--r", "3/10,4/5,4/5",
                         "--depth", "16", "--margin", "12"], tmp_path)
    assert code == 0
    assert all(f["ok"] is True or f["ok"] is False for f in doc["findings"])
    assert '"ok": 1.0' not in (tmp_path / "out.json").read_text()


def test_rep_verify_evaluates_central_elements_once(tmp_path, monkeypatch):
    import qrea.cli
    import qrea.hrep

    calls = []
    real = qrea.hrep.central_sigma

    def counted(k, N):
        calls.append((k, N))
        return real(k, N)

    monkeypatch.setattr(qrea.hrep, "central_sigma", counted)
    code, doc = run_cli(["rep-verify", "--n", "2", "--eps", "+,-", "--r", "3/10,4/5",
                         "--depth", "20", "--margin", "8"], tmp_path)
    assert code == 0 and doc["inputs"]["rank"] == 2
    assert calls == [(1, 2), (2, 2)]


@pytest.mark.parametrize("args", [
    ["rep-build", "--n", "2", "--eps", "+,-", "--r", "0.3,0.8", "--depth", "8"],
    ["rep-verify", "--n", "2", "--eps", "+,-", "--r", "0.3,0.8", "--depth", "12"],
    ["classify-roots", "--roots", "1,0.25"],
    ["transport", "--by", "scale:0.7", "--n", "2", "--eps", "+,-", "--r", "0.3,0.8",
     "--depth", "12", "--margin", "6"],
], ids=lambda args: args[0])
def test_q_accepts_rationals(tmp_path, args):
    """Every command that reads q takes it as a decimal or a rational."""
    reports = []
    for q in ("1/2", "0.5"):
        out = tmp_path / f"{q.replace('/', '_')}.json"
        assert main(args + ["--q", q, "--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]
    assert main(args + ["--q", "abc"]) == 2


def test_weights_are_read_exactly(tmp_path):
    """A decimal weight is the exact rational it spells, not a nearby one
    of smaller denominator."""
    code, doc = run_cli(["rep-verify", "--n", "2", "--eps", "+,-",
                         "--r", "0.1234567891234,1.1234567891234",
                         "--depth", "12", "--margin", "6"], tmp_path)
    assert code == 0
    assert doc["inputs"]["r"] == ["617283945617/5000000000000", "5617283945617/5000000000000"]


TINY_REP = ["--n", "2", "--eps", "+,-", "--r", "0.3,0.8", "--depth", "10", "--margin", "6"]
TINY_ARGVS = [
    ["verify-algebra", "--n", "2"],
    ["rep-build", *TINY_REP],
    ["rep-verify", *TINY_REP],
    ["classify-roots", "--roots", "1,0.25"],
    ["characters", "--n", "2", "--samples", "1"],
    ["transport", "--by", "uchar:0.3,0.7", *TINY_REP],
    ["sweep", "--n", "2", "--cells", "3"],
]

TINY_CHILD = """
import json, sys
from qrea.cli import main
codes = [main(argv + ["--out", f"{i}.json"]) for i, argv in enumerate(json.loads(sys.argv[1]))]
print(json.dumps({"codes": codes, "numpy_random": "numpy.random" in sys.modules}))
"""


def test_no_command_imports_numpy_random(tmp_path):
    """Seeded draws come from the standard library's random module: importing
    numpy.random would cost every cold invocation about 12 ms."""
    assert sorted(argv[0] for argv in TINY_ARGVS) == sorted(row[0] for row in COMMANDS)
    proc = subprocess.run([sys.executable, "-c", TINY_CHILD, json.dumps(TINY_ARGVS)],
                          capture_output=True, text=True, cwd=tmp_path, env=child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(TINY_ARGVS), "numpy_random": False}


REP_VALUES = {"q": 0.5, "n": 2, "eps": (1, -1), "r": (Fraction(3, 10), Fraction(4, 5)),
              "depth": 10, "margin": 6}
TINY_VALUES = {
    "verify-algebra": ("cmd_verify_algebra", {"n": 2}),
    "rep-build": ("cmd_rep_build", REP_VALUES),
    "rep-verify": ("cmd_rep_verify", {**REP_VALUES, "tol": 1e-9}),
    "classify-roots": ("cmd_classify_roots", {"q": 0.5, "roots": "1,0.25", "eps": None}),
    "characters": ("cmd_characters", {"n": 2, "samples": 1, "seed": 0}),
    "transport": ("cmd_transport", {**REP_VALUES, "by": SimpleNamespace(
        kind="uchar", param=(0.3, 0.7), text="uchar:0.3,0.7")}),
    "sweep": ("cmd_sweep", {"n": 2, "cells": 3, "depth": 8, "seed": 0}),
}


@pytest.mark.parametrize("argv", TINY_ARGVS, ids=lambda argv: argv[0])
def test_single_command_parser(argv):
    """A command line parses to its handler's name and the value of every
    flag of that one command, defaults included (a string default such as
    --q's "0.5" converted like a given value, and --by read into its kind and
    parameter); a flag that only another command declares is refused."""
    handler, values = TINY_VALUES[argv[0]]
    assert parse_args(argv) == (handler, SimpleNamespace(out=None, **values))
    own = {flag for row in COMMANDS if row[0] == argv[0] for flag, _ in row[3]}
    other = next(flag for row in COMMANDS for flag, _ in row[3] if flag not in own)
    with pytest.raises(DomainError, match=f"unrecognized arguments: {other}"):
        parse_args([*argv, other, "1"])


TINY_CHILD_IMPORTS = """
import json, sys
from qrea.cli import main
codes = [main(argv + ["--out", f"{i}.json"]) for i, argv in enumerate(json.loads(sys.argv[1]))]
codes.append(main(["--help"]))
print(json.dumps({"codes": codes,
                  "loaded": [m for m in ("argparse", "gettext", "locale") if m in sys.modules]}))
"""


def test_no_command_imports_parser_machinery(tmp_path):
    """The command line is read from COMMANDS alone: argparse, and the
    gettext and locale it reaches, would cost every cold invocation about
    3 ms."""
    proc = subprocess.run([sys.executable, "-c", TINY_CHILD_IMPORTS, json.dumps(TINY_ARGVS)],
                          capture_output=True, text=True, cwd=tmp_path, env=child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * (len(TINY_ARGVS) + 1), "loaded": []}


def _joined(argv):
    """argv with every ``--flag value`` pair written as ``--flag=value``."""
    out = argv[:1]
    for flag, value in zip(argv[1::2], argv[2::2]):
        out.append(f"{flag}={value}")
    return out


@pytest.mark.parametrize("argv", TINY_ARGVS + [
    ["rep-verify", "--n", "2", "--eps", "-,-", "--r", "-2/5,-1/2", "--depth", "10",
     "--margin", "6"],
], ids=lambda argv: argv[0] + ("-neg" if "-,-" in argv else ""))
def test_flag_value_and_flag_equals_value_agree(tmp_path, argv):
    """--flag value and --flag=value give byte-identical reports, also for
    a value that starts with '-'."""
    reports = []
    for i, words in enumerate((argv, _joined(argv))):
        out = tmp_path / f"{i}.json"
        assert main(words + ["--out", str(out)]) == 0
        reports.append(out.read_text())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv,message", [
    (["bogus"], "invalid choice: 'bogus'"),
    ([], "a command is required"),
    (["sweep", "--bogus", "1"], "unrecognized arguments: --bogus"),
    (["sweep", "--dep", "5"], "unrecognized arguments: --dep"),
    (["sweep", "3"], "unrecognized arguments: 3"),
    (["rep-verify", "--n", "2", "--eps", "+,-"], "required: --r"),
    (["classify-roots", "--roots"], "argument --roots: expected a value"),
    (["sweep", "--n", "two"], "argument --n: invalid literal for int()"),
    (["rep-verify", "--n", "2", "--eps", "+,x", "--r", "0.3,0.8"], "argument --eps: bad sign 'x'"),
    (["classify-roots", "--roots", "1", "--q", "abc"],
     "argument --q: not a decimal or rational: 'abc'"),
    (["transport", "--by", "scale:abc", *TINY_REP], "argument --by: not a number in 'scale:abc'"),
    (["transport", "--by", "bogus", *TINY_REP], "argument --by: unknown transport 'bogus'"),
], ids=["unknown-command", "no-command", "unknown-flag", "prefix", "positional",
        "missing-required", "missing-value", "int", "eps", "q", "by-number", "by-kind"])
def test_usage_errors_write_nothing(tmp_path, capsys, argv, message):
    """Every usage error exits 2 with a usage line that names every command
    and an error message, and writes no report."""
    out = tmp_path / "out.json"
    words = argv[:1] + ["--out", str(out)] + argv[1:] if argv else argv
    assert main(words) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    usage, error = captured.err.splitlines()
    assert all(name in usage for name, *_ in COMMANDS)
    assert error.startswith("error: ") and message in error


@pytest.mark.parametrize("argv", TINY_ARGVS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_is_refused(tmp_path, capsys, argv, where):
    """An --out that cannot be opened for writing is a refusal: exit 2, one
    error line that names the path, and no file written."""
    out = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    (error,) = captured.err.splitlines()
    assert error.startswith("error: ") and str(out) in error


@pytest.mark.parametrize("argv", TINY_ARGVS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("spelling", [["--out", ""], ["--out="]], ids=["separate", "joined"])
def test_empty_out_is_refused(tmp_path, capsys, monkeypatch, argv, spelling):
    """An empty --out, which a script passes for an unset variable, names no
    file: a refusal like any unwritable path, not a report on stdout."""
    monkeypatch.chdir(tmp_path)
    assert main(argv + spelling) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    (error,) = captured.err.splitlines()
    assert error.startswith("error: cannot write ")


@pytest.mark.parametrize("name,options", [(row[0], row[3]) for row in COMMANDS],
                         ids=[row[0] for row in COMMANDS])
def test_command_help_names_every_flag(capsys, name, options):
    assert main([name, "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and all(flag in captured.out for flag, _ in options)


@pytest.mark.parametrize("args", [["--n", "2", "--cells", "-1"], ["--n", "0", "--cells", "2"],
                                  ["--cells", "0"]], ids=lambda args: "".join(args))
def test_sweep_needs_a_cell(tmp_path, capsys, args):
    """A sweep of no cells, or of cells of no size, checks nothing: it is
    refused rather than passed."""
    out = tmp_path / "out.json"
    assert main(["sweep", *args, "--out", str(out)]) == 2
    assert "error: sweep needs" in capsys.readouterr().err and not out.exists()


def test_help_and_usage_errors_list_every_command(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert main(["sweep", "--bogus"]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --bogus" in err
    assert all(name in err for name, *_ in COMMANDS)
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name, *_ in COMMANDS)
