import argparse
import hashlib
import json
import math
import os
import re
from types import SimpleNamespace

import pytest

from dirsubdiff import cli, engine
from dirsubdiff.cli import main
from dirsubdiff.dirset import DirectedSet, SphereGrid, _content_id, directed_zero
from dirsubdiff.expr import DomainError
from dirsubdiff.parser import parse
from dirsubdiff.theorems import VerificationReport, check_max_condition, check_min_condition


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


@pytest.mark.parametrize("argv", [
    ("subdiff", "-f", "abs(x1)", "-x", "0,0"),
    ("verify", "--rule", "sum", "-f1", "abs(x1)", "-x", "0,0"),
    ("verify", "--rule", "sum", "--random", "1"),
    ("optcheck", "-f", "abs(x1)", "-x", "0,0"),
    ("viz", "-f", "abs(x1)", "--csv", os.devnull),
], ids=["subdiff", "verify", "verify-random", "optcheck", "viz"])
@pytest.mark.parametrize("resolution", ["3", str(cli.MAX_RESOLUTION + 1), str(2**62)])
def test_resolution_bounds_on_every_path(monkeypatch, capsys, argv, resolution):
    # a circle past the cap must never be built: a broken check fails here
    # instead of allocating without limit
    circle = SphereGrid.circle

    def guarded(cls, m=360):
        assert 8 <= m <= cli.MAX_RESOLUTION, f"circle({m}) built past the -M check"
        return circle(m)

    monkeypatch.setattr(SphereGrid, "circle", classmethod(guarded))
    rc, out, err = run(capsys, *argv, "-M", resolution)
    message = f"resolution must be at least 8 and at most 65536, got {resolution}"
    assert one_error_line(rc, out, err, message)


def test_resolution_cap_is_accepted():
    grid = cli._grid_for(2, cli.MAX_RESOLUTION)
    assert len(grid) == cli.MAX_RESOLUTION == 65536


@pytest.mark.parametrize("value", ["16", "many"])
def test_environment_does_not_set_the_resolution(monkeypatch, capsys, value):
    # -M has one default; no environment variable changes it
    monkeypatch.setenv("DIRSUBDIFF_RESOLUTION", value)
    rc, out, _ = run(capsys, "subdiff", "-f", "abs(x1)", "-x", "0,0")
    assert rc == 0
    grid = json.loads(out)["grid"]
    assert grid["resolution"] == [360] and len(grid["directions"]) == 360


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


@pytest.mark.parametrize("scan", [str(cli.MAX_SCAN + 1), str(10**9)])
def test_mvt_scan_is_bounded(monkeypatch, capsys, scan):
    # the scan holds one probe per point: a value past the cap must not reach
    # mvt_witness, so a broken check fails here instead of allocating
    def unreachable(*args, **kwargs):
        pytest.fail(f"mvt_witness ran with --scan {scan}")

    monkeypatch.setattr(cli, "mvt_witness", unreachable)
    rc, out, err = run(capsys, "mvt", "-f", "abs(x1)", "--x0=-1", "--x1", "2", "--scan", scan)
    assert one_error_line(rc, out, err, f"--scan must be at most 65536, got {scan}")


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
    # smooth functions reach no max/min, so the transform checks the tolerance itself
    ("subdiff", "-f", "x1*x2", "-x", "1,2", "-M", "8", "--eps-active"),
    ("mvt", "-f", "x1*x1+x1", "--x0=-1", "--x1", "2", "--eps-active"),
    ("viz", "-f", "x1+x2", "-x", "1,1", "-M", "8", "--csv", os.devnull, "--eps-active"),
    ("verify", "--rule", "sum", "-f1", "x1", "-f2", "x2", "-x", "0,0", "-M", "8", "--eps-active"),
], ids=["subdiff", "verify", "optcheck", "mvt", "subdiff-smooth", "mvt-smooth", "viz-smooth",
        "verify-smooth"])
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


# ---------------------------------------------------------------------------
# inputs that end in an input error, and paths no other test runs


def one_error_line(rc, out, err, message):
    return (rc, out) == (2, "") and (
        err.startswith("error: ") and message in err and err.count("\n") == 1
    )


@pytest.mark.parametrize("function, message", [
    ("é", "unexpected character 'é' (at position 0)"),
    ("x1 + ١", "unexpected character '١' (at position 5)"),
])
def test_subdiff_non_ascii_is_a_parse_error(capsys, function, message):
    assert one_error_line(*run(capsys, "subdiff", "-f", function, "-x", "0"), message)


@pytest.mark.parametrize("argv", [("subdiff", "-f", "x3", "-x", "0,0"),
                                  ("optcheck", "-f", "x1+x3", "-x", "0,0", "-M", "8")])
def test_point_too_short_is_an_input_error(capsys, argv):
    # the engine's arity check, the only one
    assert one_error_line(*run(capsys, *argv), "expression reads 3 coordinates, point has 2")


def test_subdiff_4d_point_has_no_default_grid(capsys):
    rc, out, err = run(capsys, "subdiff", "-f", "x1+x4", "-x", "0,0,0,0")
    assert one_error_line(rc, out, err, "no default grid for dimension 4")


def test_viz_needs_a_2d_point(tmp_path, capsys):
    rc, out, err = run(capsys, "viz", "-f", "x1", "-x", "0,0,0", "--csv", str(tmp_path / "x.csv"))
    assert one_error_line(rc, out, err, "viz needs a 2-D point")


def _plane():
    return directed_zero(2, SphereGrid.circle(4)).to_json_dict()


def _space():
    return directed_zero(3, SphereGrid.sphere(2, 2, 4)).to_json_dict()


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


_MALFORMED_DOCUMENTS = {
    "no-dim": _without(_plane(), "dim"),
    "lower-without-a_neg": {**_plane(), "entries": [
        {"support": 0.0, "lower": _without(e["lower"], "a_neg")} for e in _plane()["entries"]]},
    "null-support": {**_plane(), "entries": [{**e, "support": None} for e in _plane()["entries"]]},
    "entries-5": {**_plane(), "entries": 5},
    "list": [_plane()],
    "dim-string": {**_plane(), "dim": "2"},
    "huge-integer": {"dim": 1, "a_neg": 2**1100, "a_pos": 0},
    # numbers are taken as JSON gives them: no string or bool is coerced, and each is
    # refused by the door a caller's number passes
    "1-D-a_neg-string": {"dim": 1, "a_neg": "3", "a_pos": 0},
    "1-D-dim-true": {"dim": True, "a_neg": 3, "a_pos": 0},
    "2-D-format-true": {**_plane(), "format": True},
    "2-D-support-true": {**_plane(), "entries": [{**e, "support": True} for e in _plane()["entries"]]},
    "2-D-lower-dim-true": {**_plane(), "entries": [
        {**e, "lower": {**e["lower"], "dim": True}} for e in _plane()["entries"]]},
    "3-D-lower-string": {**_space(), "entries": [
        {**e, "lower": ["0"] + e["lower"][1:]} for e in _space()["entries"]]},
    "3-D-lower-true": {**_space(), "entries": [
        {**e, "lower": e["lower"][:-1] + [True]} for e in _space()["entries"]]},
    # a lower list starts with the lower set's supports
    "3-D-lower-huge-integer": {**_space(), "entries": [
        {**e, "lower": [2**1100] + e["lower"][1:]} for e in _space()["entries"]]},
    "3-D-lower-nan": {**_space(), "entries": [
        {**e, "lower": [math.nan] + e["lower"][1:]} for e in _space()["entries"]]},
}

def _integer_message(what):
    return f"{what} must be >= 1, an integer below 2**63"


# the message of the door that refuses the document's number, where it has one
_DOOR_MESSAGES = {
    "null-support": "expected a number, got a NoneType",
    "dim-string": _integer_message("a directed set document's dim"),
    # a number too large for a float, or NaN, is turned away as a non-finite entry
    "huge-integer": "directed interval entries must be finite",
    "1-D-a_neg-string": "expected a number, got a str",
    "1-D-dim-true": _integer_message("a directed set document's dim"),
    "2-D-format-true": _integer_message("a document format"),
    "2-D-support-true": "expected a number, got a bool",
    "2-D-lower-dim-true": _integer_message("a lower set's dim"),
    "3-D-lower-string": "expected a number, got a str",
    "3-D-lower-true": "expected a number, got a bool",
    "3-D-lower-huge-integer": "support values must be finite",
    "3-D-lower-nan": "support values must be finite",
}


@pytest.mark.parametrize("name", _MALFORMED_DOCUMENTS)
def test_malformed_document_is_an_input_error(tmp_path, capsys, name):
    doc = _MALFORMED_DOCUMENTS[name]
    message = _DOOR_MESSAGES.get(name, "malformed directed set document")
    with pytest.raises(ValueError, match=re.escape(message)):
        DirectedSet.from_json_dict(doc)
    stored = tmp_path / "doc.json"
    stored.write_text(json.dumps(doc))
    csv_path = tmp_path / "x.csv"
    rc, out, err = run(capsys, "viz", "--in", str(stored), "--csv", str(csv_path))
    assert one_error_line(rc, out, err, message)
    assert not csv_path.exists()


@pytest.mark.parametrize("field, value, message", [
    ("resolution", [2**70], "a grid resolution entry must be >= 1, an integer below 2**63"),
    ("dim", 2**70, "grid dimension must be >= 2, an integer below 2**63"),
    ("directions", [[2**1100, 0]], "grid directions must be unit vectors, got (inf, 0.0)"),
], ids=["resolution", "dim", "directions-past-float"])
def test_grid_integer_past_64_bits_is_an_input_error(tmp_path, capsys, field, value, message):
    # the grid's content hash packs its dimension and resolution as 64-bit integers
    # and its directions as doubles
    doc = {**_plane(), "grid": {**_plane()["grid"], field: value}}
    with pytest.raises(ValueError, match=re.escape(message)):
        DirectedSet.from_json_dict(doc)
    stored = tmp_path / "doc.json"
    stored.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "viz", "--in", str(stored), "--csv", str(tmp_path / "x.csv"))
    assert one_error_line(rc, out, err, message)


def _plane_on(**grid_fields):
    return {**_plane(), "grid": {**_plane()["grid"], **grid_fields}}


_NAN_DIRECTIONS = [[math.nan, 0.0]] + _plane()["grid"]["directions"][1:]
_EMPTY_CIRCLE = {"id": _content_id(2, (1,), (), None), "dim": 2, "resolution": [1],
                 "directions": []}
_EMPTY_SPHERE = {"id": _content_id(3, (1, 1), (), SimpleNamespace(id=_EMPTY_CIRCLE["id"])),
                 "dim": 3, "resolution": [1, 1], "directions": [], "subgrid": _EMPTY_CIRCLE}


@pytest.mark.parametrize("doc, message", [
    (_plane_on(resolution=[4.0]), _integer_message("a grid resolution entry")),
    (_plane_on(directions=[["1", "0"]] + _plane()["grid"]["directions"][1:]),
     "expected a number, got a str"),
    ({"dim": 2, "grid": _EMPTY_CIRCLE, "entries": []}, "a sphere grid needs at least one direction"),
    ({"format": 2, "dim": 3, "grid": _EMPTY_SPHERE, "entries": []},
     "a sphere grid needs at least one direction"),
    (_plane_on(directions=_NAN_DIRECTIONS, id=_content_id(2, (4,), _NAN_DIRECTIONS, None)),
     "grid directions must be unit vectors, got (nan, 0.0)"),
], ids=["resolution-float", "direction-string", "2-D-no-directions", "3-D-no-directions",
        "nan-direction"])
def test_grid_document_of_wrong_content_is_an_input_error(tmp_path, capsys, doc, message):
    # the ids match the content, so only the checks on the content can reject these
    with pytest.raises(ValueError, match=re.escape(message)):
        DirectedSet.from_json_dict(doc)
    stored = tmp_path / "doc.json"
    stored.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "viz", "--in", str(stored), "--csv", str(tmp_path / "x.csv"))
    assert one_error_line(rc, out, err, message)


def test_document_nested_too_deeply_is_an_input_error(tmp_path, capsys):
    text = "[" * 100000
    with pytest.raises(ValueError, match="nested too deeply to decode"):
        DirectedSet.from_json(text)
    stored = tmp_path / "doc.json"
    stored.write_text(text)
    rc, out, err = run(capsys, "viz", "--in", str(stored), "--csv", str(tmp_path / "x.csv"))
    assert one_error_line(rc, out, err, "nested too deeply to decode")


def test_division_by_zero_at_the_point_is_an_input_error(capsys):
    with pytest.raises(DomainError, match="division by zero at the base point"):
        engine.directed_subdiff(parse("x1/x2"), (1.0, 0.0), SphereGrid.circle(8))
    rc, out, err = run(capsys, "subdiff", "-f", "x1/x2", "-x", "1,0", "-M", "8")
    assert one_error_line(rc, out, err, "division by zero at the base point")


@pytest.mark.parametrize("flags, named", [
    (("-f1", "abs(x1)"), "-f1"),
    (("-f2", "x1"), "-f2"),
    (("--fs", "x1", "--fs", "x2"), "--fs"),
    (("--phi", "x1"), "--phi"),
    (("-x", "0"), "-x"),
    (("-f1", "abs(x1)", "-f2", "x1", "-x", "0"), "-f1, -f2, -x"),
])
def test_verify_random_rejects_instance_flags(capsys, flags, named):
    rc, out, err = run(capsys, "verify", "--rule", "sum", "--random", "2", "-M", "16", *flags)
    assert one_error_line(rc, out, err, f"--random draws its own instances; drop {named}")


def test_verify_random_zero_reads_the_instance_flags(capsys):
    rc, out, _ = run(capsys, "verify", "--rule", "sum", "--random", "0", "-f1", "abs(x1)",
                     "-x", "0")
    assert rc == 0
    # abs(x1) + x1 at 0: D = [0, 2], stored as the supports (0, 2) at -1 and +1
    assert json.loads(out)[0]["lhs"] == {"dim": 1, "a_neg": 0.0, "a_pos": 2.0}


@pytest.mark.parametrize("flags", [("-f1", "abs(x1)"), ("--fs", "abs(x1)", "--fs", "x2")],
                         ids=["f1", "first-fs-member"])
def test_verify_fixpoint_operand(capsys, flags):
    rc, out, _ = run(capsys, "verify", "--rule", "fixpoint", *flags, "-x", "0,0", "-M", "16")
    assert rc == 0
    report = json.loads(out)[0]
    assert report["rule"] == "fixpoint" and report["pass"] is True
    # the transform of abs(x1) at the origin is abs(x1) itself: |l_1| at l = (1, 0)
    assert report["lhs"]["entries"][0]["support"] == 1.0


@pytest.mark.parametrize("argv, message", [
    (("fixpoint", "-x", "0"), "rule fixpoint needs -f1"),
    (("chain1d", "-f1", "max(x1, x2)"), "rule chain1d needs -f1 (outer) and --phi"),
    (("taylor", "-f1", "abs(x1)", "-x", "0"), "rule taylor needs -f1 (outer) and --phi"),
])
def test_verify_missing_operands(capsys, argv, message):
    assert one_error_line(*run(capsys, "verify", "--rule", *argv), message)


# ---------------------------------------------------------------------------
# each subcommand accepts only the shared flags it reads

_SHARED_FLAGS = {"-M", "--eps-active", "--eps-order", "--json", "--csv", "--svg"}
_READS = {
    "subdiff": {"-M", "--eps-active", "--json", "--csv", "--svg"},
    "verify": {"-M", "--eps-active", "--json"},
    "optcheck": {"-M", "--eps-active", "--eps-order"},
    "mvt": {"--eps-active", "--eps-order"},
    "viz": {"-M", "--eps-active", "--csv", "--svg"},
}
_BASE_ARGV = {
    "subdiff": ("-f", "abs(x1)", "-x", "0,0"),
    "verify": ("--rule", "sum", "-x", "0"),
    "optcheck": ("-f", "abs(x1)", "-x", "0,0"),
    "mvt": ("-f", "abs(x1)", "--x0=-1", "--x1", "2"),
    "viz": ("-f", "abs(x1)", "-x", "0,0", "--svg", "unused.svg"),
}


def test_subcommands_accept_the_shared_flags_they_read():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_READS)
    for name, subparser in sub.choices.items():
        options = {s for a in subparser._actions for s in a.option_strings}
        assert options & _SHARED_FLAGS == _READS[name], name


@pytest.mark.parametrize("command, flag", [
    (c, f) for c in _READS for f in sorted(_SHARED_FLAGS - _READS[c])
])
def test_unread_flag_is_a_usage_error(tmp_path, capsys, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    value = "16" if flag == "-M" else "1e-3" if flag.startswith("--eps") else "out.file"
    with pytest.raises(SystemExit) as exc:
        main([command, *_BASE_ARGV[command], flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# optcheck reads both conditions off one set


@pytest.mark.parametrize("function, point", [
    ("max(x1,x2,x3,-x1-x2-x3)+abs(x1)", "0,0,0"),
    ("abs(x1) + abs(x2)", "0,0"),
    ("-(abs(x1) + abs(x2))", "0,0"),
    ("x1*x1 - x2*x2", "0,0"),
    ("-abs(x1)", "0"),
])
def test_optcheck_computes_one_set(capsys, monkeypatch, function, point):
    calls = []
    original = engine.directed_subdiffs

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "directed_subdiffs", counting)
    argv = (f"--function={function}", "-x", point) + (("-M", "16") if "," in point else ())
    rc, out, _ = run(capsys, "optcheck", *argv)
    assert rc == 0 and len(calls) == 1
    monkeypatch.undo()
    x = tuple(float(v) for v in point.split(","))
    grid = cli._grid_for(len(x), 16)
    e = parse(function)
    assert out == (f"min-candidate: {'yes' if check_min_condition(e, x, grid) else 'no'}\n"
                   f"max-candidate: {'yes' if check_max_condition(e, x, grid) else 'no'}\n")
