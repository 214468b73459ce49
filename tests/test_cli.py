import hashlib
import json

import pytest

from dirsubdiff import cli
from dirsubdiff.cli import main
from dirsubdiff.dirset import DirectedSet
from dirsubdiff.theorems import VerificationReport


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# subdiff


def test_subdiff_1d(capsys):
    rc, out, err = run(capsys, "subdiff", "-f", "abs(x1)", "-x", "0")
    assert rc == 0
    d = json.loads(out)
    assert d == {"dim": 1, "a_neg": 1.0, "a_pos": 1.0}
    assert "interval: [-1.0, 1.0]" in err
    assert "norm: 1.0" in err


def test_subdiff_inverted_label(capsys):
    rc, out, err = run(capsys, "subdiff", "-f=-abs(x1)", "-x", "0")
    assert rc == 0
    assert "(inverted)" in err


def test_subdiff_2d_resolution_flag(capsys):
    rc, out, err = run(capsys, "subdiff", "-f", "abs(x1)", "-x", "0,0", "-M", "16")
    assert rc == 0
    d = json.loads(out)
    assert d["dim"] == 2
    assert d["grid"]["resolution"] == [16]
    assert len(d["entries"]) == 16
    assert "support range" in err


def test_subdiff_deterministic(capsys):
    argv = ("subdiff", "-f", "max(x1, x2, -x1 - x2)", "-x", "0,0", "-M", "32")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_subdiff_json_file(tmp_path, capsys):
    path = tmp_path / "set.json"
    rc, out, _ = run(capsys, "subdiff", "-f", "abs(x1)", "-x", "0,0", "-M", "16",
                     "--json", str(path))
    assert rc == 0
    assert out == ""
    s = DirectedSet.from_json(path.read_text())
    assert s.dim == 2


def test_subdiff_csv_svg(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    rc, _, _ = run(capsys, "subdiff", "-f", "abs(x1) - abs(x2)", "-x", "0,0",
                   "-M", "16", "--csv", str(csv_path), "--svg", str(svg_path))
    assert rc == 0
    assert csv_path.read_text().startswith("px,py,qx,qy,inverted")
    assert "<svg" in svg_path.read_text()


def test_subdiff_parse_error(capsys):
    rc, _, err = run(capsys, "subdiff", "-f", "abs(x1", "-x", "0")
    assert rc == 2
    assert "error:" in err


def test_subdiff_arity_error(capsys):
    rc, _, err = run(capsys, "subdiff", "-f", "x2", "-x", "0")
    assert rc == 2


def test_subdiff_bad_point(capsys):
    rc, _, err = run(capsys, "subdiff", "-f", "abs(x1)", "-x", "0,zebra")
    assert rc == 2
    assert "bad point" in err


def test_subdiff_domain_error(capsys):
    rc, _, err = run(capsys, "subdiff", "-f", "log(x1)", "-x", "0")
    assert rc == 2


@pytest.mark.parametrize("function, point", [("max(x1,x2)", "nan,0"), ("x1+x2", "inf,0")])
def test_subdiff_nonfinite_point(capsys, function, point):
    rc, out, err = run(capsys, "subdiff", "-f", function, "-x", point)
    assert rc == 2
    assert out == ""
    assert "must be finite" in err


def test_subdiff_overflow(capsys):
    rc, out, err = run(capsys, "subdiff", "-f", "exp(x1)*exp(x1)", "-x", "400")
    assert rc == 2
    assert "overflow" in err


@pytest.mark.parametrize(
    "function", ["+".join(["x1"] * 3000), "(" * 3000 + "x1" + ")" * 3000], ids=["sum", "parens"]
)
def test_subdiff_too_deep(capsys, function):
    # a long sum is not nesting: it is read, transformed and swept without
    # recursion; nesting past MAX_NESTING is a syntax error
    rc, out, err = run(capsys, "subdiff", "-f", function, "-x", "1")
    if function.startswith("x1"):
        assert rc == 0
        assert json.loads(out) == {"dim": 1, "a_neg": -3000.0, "a_pos": 3000.0}
    else:
        assert rc == 2
        assert err.startswith("error:") and err.count("\n") == 1


def test_resolution_floor(capsys):
    rc, _, err = run(capsys, "subdiff", "-f", "abs(x1)", "-x", "0,0", "-M", "4")
    assert rc == 2
    assert "at least 8" in err


def test_resolution_env_var(monkeypatch, capsys):
    monkeypatch.setenv("DIRSUBDIFF_RESOLUTION", "16")
    rc, out, _ = run(capsys, "subdiff", "-f", "abs(x1)", "-x", "0,0")
    assert rc == 0
    assert json.loads(out)["grid"]["resolution"] == [16]


def test_resolution_env_var_invalid(monkeypatch, capsys):
    monkeypatch.setenv("DIRSUBDIFF_RESOLUTION", "many")
    rc, _, err = run(capsys, "subdiff", "-f", "abs(x1)", "-x", "0,0")
    assert rc == 2
    assert "DIRSUBDIFF_RESOLUTION" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_sum_hand_case(capsys):
    rc, out, err = run(capsys, "verify", "--rule", "sum", "-f1", "x1",
                       "-f2", "max(x1, 0)", "-a", "2", "-b", "3", "-x", "0")
    assert rc == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["rule"] == "sum"
    assert reports[0]["pass"] is True
    assert reports[0]["lhs"] == {"dim": 1, "a_neg": -2.0, "a_pos": 5.0}
    assert "1/1 checks passed" in err


def test_verify_max_with_members(capsys):
    rc, out, _ = run(capsys, "verify", "--rule", "max", "--fs", "x1",
                     "--fs=-x1", "-x", "0")
    assert rc == 0
    assert json.loads(out)[0]["lhs"] == {"dim": 1, "a_neg": 1.0, "a_pos": 1.0}


def test_verify_max_needs_two_members(capsys):
    rc, _, err = run(capsys, "verify", "--rule", "max", "-x", "0")
    assert rc == 2
    assert "at least two" in err


def test_verify_quotient_zero_denominator(capsys):
    # f1 defaults to x1 when only one operand is given
    rc, _, err = run(capsys, "verify", "--rule", "quotient", "-f2", "x1", "-x", "0")
    assert rc == 2
    assert "f2(x) != 0" in err


def test_verify_chain_rule(capsys):
    rc, out, _ = run(capsys, "verify", "--rule", "chain1d", "-f1", "max(x1, x2)",
                     "--phi", "x1", "--phi", "2*x1", "--t0", "0")
    assert rc == 0
    assert json.loads(out)[0]["pass"] is True


def test_verify_missing_point(capsys):
    rc, _, err = run(capsys, "verify", "--rule", "sum", "-f1", "x1", "-f2", "x1")
    assert rc == 2
    assert "--point" in err


def test_verify_random_all(capsys):
    rc, out, err = run(capsys, "verify", "--rule", "all", "--random", "1",
                       "--seed", "3", "-M", "16")
    assert rc == 0
    reports = json.loads(out)
    assert len(reports) == len(cli.RULES)
    assert all(r["pass"] for r in reports)
    assert f"{len(reports)}/{len(reports)} checks passed" in err


def test_verify_random_deterministic(capsys):
    argv = ("verify", "--rule", "sum", "--random", "3", "--seed", "11", "-M", "16")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_verify_failure_exit_code(monkeypatch, capsys):
    # exit code 1 is reserved for genuine verification failures; none of the
    # implemented rules produces one, so substitute a failing report
    from dirsubdiff.dirset import DirectedSet

    bad = VerificationReport(
        rule="sum", passed=False, distance=1.0, tolerance=1e-9, point=(0.0,),
        lhs=DirectedSet.leaf(0.0, 0.0), rhs=DirectedSet.leaf(1.0, 1.0),
    )
    monkeypatch.setattr(cli, "verify_sum_rule", lambda *a, **k: bad)
    rc, out, err = run(capsys, "verify", "--rule", "sum", "-f1", "x1",
                       "-f2", "x1", "-x", "0")
    assert rc == 1
    assert "0/1 checks passed" in err
    assert "FAIL sum" in err


def test_verify_negative_random_is_an_input_error(capsys):
    rc, out, err = run(capsys, "verify", "--random", "-1")
    assert (rc, out, err) == (2, "", "error: --random needs N >= 0, got -1\n")


@pytest.mark.parametrize("argv, message", [
    # flags are read before any rule runs: a bad point before a bad operand
    (("all", "-f1", "x1+", "-x", "0,a"), "bad point '0,a'"),
    (("all", "--fs", "x1", "--fs", "(", "-x", "0"), "unexpected 'end of input' (at position 1)"),
    # rules run in order: sum and product pass, quotient meets f2(x) = 0
    (("all", "-x", "0"), "quotient rule needs f2(x) != 0"),
    (("all", "-f2", "x1+1", "-x", "0"), "rule max needs at least two --fs expressions"),
    # within a rule, its operands are checked before the point
    (("max", "-f1", "x1"), "rule max needs at least two --fs expressions"),
    (("max", "--fs", "x1", "--fs", "x2"), "this rule needs -x/--point"),
])
def test_verify_reports_the_first_error_in_rule_order(capsys, argv, message):
    rc, out, err = run(capsys, "verify", "--rule", *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


# ---------------------------------------------------------------------------
# optcheck


def test_optcheck_minimum(capsys):
    rc, out, _ = run(capsys, "optcheck", "-f", "abs(x1) + abs(x2)", "-x", "0,0",
                     "-M", "16")
    assert rc == 0
    assert "min-candidate: yes" in out
    assert "max-candidate: no" in out


def test_optcheck_neither(capsys):
    rc, out, _ = run(capsys, "optcheck", "-f", "abs(x1) + abs(x2)", "-x", "1,0",
                     "-M", "16")
    assert rc == 0
    assert "min-candidate: no" in out
    assert "max-candidate: no" in out


def test_optcheck_maximum(capsys):
    rc, out, _ = run(capsys, "optcheck", "-f=-abs(x1)", "-x", "0")
    assert rc == 0
    assert "min-candidate: no" in out
    assert "max-candidate: yes" in out


# ---------------------------------------------------------------------------
# mvt


def test_mvt_finds_kink(capsys):
    rc, out, _ = run(capsys, "mvt", "-f", "abs(x1)", "--x0=-1", "--x1", "2")
    assert rc == 0
    t_hat = float(out.split("t_hat: ")[1].splitlines()[0])
    assert abs(t_hat - 1.0 / 3.0) <= 1e-6
    assert "residual: 0.0" in out
    assert "stored (3.0, 3.0)" in out
    assert "visualized [-3.0, 3.0]" in out


def test_mvt_no_witness(capsys):
    rc, _, err = run(capsys, "mvt", "--function=-abs(x1)", "--x0=-1", "--x1", "2")
    assert rc == 3
    assert "no witness" in err


def test_mvt_validation(capsys):
    rc, _, err = run(capsys, "mvt", "-f", "abs(x1)", "--x0", "1", "--x1", "1")
    assert rc == 2
    rc, _, err = run(capsys, "mvt", "-f", "abs(x1)", "--x0", "0", "--x1", "1",
                     "--scan", "0")
    assert rc == 2


# ---------------------------------------------------------------------------
# viz


def test_viz_from_function(tmp_path, capsys):
    csv_path = tmp_path / "segs.csv"
    rc, _, err = run(capsys, "viz", "-f", "abs(x1) - abs(x2)", "-x", "0,0",
                     "-M", "16", "--csv", str(csv_path))
    assert rc == 0
    assert "16 segments" in err
    assert "inverted" in err
    assert csv_path.exists()


def test_viz_from_stored_set(tmp_path, capsys):
    stored = tmp_path / "set.json"
    svg_path = tmp_path / "set.svg"
    run(capsys, "subdiff", "-f", "abs(x1)", "-x", "0,0", "-M", "16",
        "--json", str(stored))
    rc, _, _ = run(capsys, "viz", "--in", str(stored), "--svg", str(svg_path))
    assert rc == 0
    assert svg_path.read_text().startswith("<svg")


def test_viz_needs_source_and_sink(tmp_path, capsys):
    rc, _, err = run(capsys, "viz", "--csv", str(tmp_path / "x.csv"))
    assert rc == 2
    rc, _, err = run(capsys, "viz", "-f", "abs(x1)", "-x", "0,0")
    assert rc == 2
    assert "--csv or --svg" in err


def test_viz_rejects_1d_input(tmp_path, capsys):
    stored = tmp_path / "leaf.json"
    stored.write_text(DirectedSet.leaf(1.0, 1.0).to_json())
    rc, _, err = run(capsys, "viz", "--in", str(stored), "--csv",
                     str(tmp_path / "x.csv"))
    assert rc == 2
    assert "2-D" in err


def test_viz_missing_file(tmp_path, capsys):
    rc, _, err = run(capsys, "viz", "--in", str(tmp_path / "absent.json"),
                     "--csv", str(tmp_path / "x.csv"))
    assert rc == 2


def test_subdiff_quotient_coefficient_underflow(capsys):
    rc, out, err = run(capsys, "subdiff", "-f", "1/x1", "-x", "1e-200")
    assert rc == 2
    assert err.startswith("error:") and "underflows" in err


@pytest.mark.parametrize("f, point", [("1e300*(1e10*x1)", "0"), ("1e300*(1e10*x2)", "0,0")])
def test_subdiff_leaf_overflow(capsys, f, point):
    rc, out, err = run(capsys, "subdiff", "-f", f, "--point=" + point, "-M", "8")
    assert rc == 2
    assert err.startswith("error:") and "overflows to" in err


@pytest.mark.parametrize("bad", ["nan", "-1", "inf"])
@pytest.mark.parametrize("argv", [
    ("subdiff", "-f", "max(x1,x2)", "-x", "0,0", "-M", "8", "--eps-active"),
    ("verify", "--rule", "max", "--fs", "x1", "--fs", "x2", "-x", "0,0", "-M", "8",
     "--eps-active"),
    ("optcheck", "-f", "x1", "-x", "0,0", "-M", "8", "--eps-order"),
    ("mvt", "-f", "abs(x1)", "--x0=-1", "--x1", "2", "--eps-order"),
], ids=["subdiff", "verify", "optcheck", "mvt"])
def test_bad_tolerance_is_an_input_error(capsys, argv, bad):
    rc, out, err = run(capsys, *argv[:-1], f"{argv[-1]}={bad}")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "must be finite and >= 0" in err
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# byte identity

_PINNED_OUTPUTS = [
    (("verify", "--rule", "all", "--random", "6", "-M", "45", "--seed", "0"),
     "349e44321988e201cbd71d7d205e88b4f77b9035cbefd8a9cc92770b220e2341"),
    (("subdiff", "-f", "max(x1,x2,-x1-x2)+abs(x1*x2)+sin(x1)", "-x", "0,0", "-M", "360"),
     "2b41d842edd225f14c8cb928ce0de9085e4730689df48cfaba41901f120fbb7d"),
    (("subdiff", "-f", "max(x1,x2,-x1-x2)+abs(x1*x2)+sin(x1)", "-x", "0.3,-0.7", "-M", "360"),
     "c26952ffa0660ea85249cda56a03c0fff50838a918185d755c69174e041f9472"),
    (("subdiff", "-f", "max(x1,x2,x3,-x1-x2-x3)+abs(x1)", "-x", "0,0,0"),
     "0d80dd32fe5400720da0f31fdabb242b91f29bfdb7f746b248648ac18498903b"),
]


@pytest.mark.parametrize("argv, digest", _PINNED_OUTPUTS, ids=["verify", "2d-kink", "2d", "3d"])
def test_json_output_is_byte_identical(tmp_path, capsys, argv, digest):
    """The ``--json`` files of these commands keep their bytes: the sets,
    the verdicts and the text layout.  A deliberate change of the file
    format or of a computed value updates these hashes, and CHANGES.md says
    which and why."""
    path = tmp_path / "out.json"
    assert run(capsys, *argv, "--json", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
