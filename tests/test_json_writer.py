"""``write_json`` writes the bytes of ``json.dumps(obj, indent=k)``, in pieces."""

import io
import json
import math

import pytest

from dirsubdiff import cli, dirset
from dirsubdiff.cli import main
from dirsubdiff.dirset import DirectedSet, SphereGrid, write_json
from dirsubdiff.engine import default_grid, directed_subdiff
from dirsubdiff.parser import parse
from dirsubdiff.theorems import verify_dirderiv_fixpoint, verify_max_rule, verify_sum_rule

INDENTS = (0, 1, 2, 4)
KINK_3D = ("max(x1,x2,x3,-x1-x2-x3)+abs(x1)", "0,0,0")


def written(obj, indent) -> str:
    buf = io.StringIO()
    write_json(obj, buf, indent)
    return buf.getvalue()


@pytest.fixture(scope="module")
def sets():
    return {
        "1d": directed_subdiff(parse("abs(x1) - 2*max(x1, 0)"), (0.0,)),
        "2d": directed_subdiff(parse("max(x1, x2) - abs(x1 - x2)"), (0.0, 0.0), SphereGrid.circle(16)),
        "3d": directed_subdiff(parse(KINK_3D[0]), (0.0, 0.0, 0.0), default_grid(3)),
    }


@pytest.fixture(scope="module")
def small_sets(sets):
    """The sets of ``sets``, the 3-D one on a 2x4 lattice with an 8-direction
    circle, and a 4-D set on two directions above a 1x2 lattice."""
    small = SphereGrid.sphere(2, 4, 8)
    grid_4d = SphereGrid(4, (2,), [(0.0, 0.0, 0.0, 1.0), (0.6, 0.0, -0.8, 0.0)], SphereGrid.sphere(1, 2, 4))
    return {**sets, "3d": directed_subdiff(parse(KINK_3D[0]), (0.0, 0.0, 0.0), small),
            "4d": directed_subdiff(parse("max(x1 + x2, x3 - x4) + abs(x2)"), (0.0,) * 4, grid_4d)}


@pytest.fixture(scope="module")
def documents(sets):
    circle = SphereGrid.circle(16)
    docs = {name: s.to_json_dict() for name, s in sets.items()}
    f, g = parse("abs(x1) + x2"), parse("max(x1, -x2)")
    docs["verify"] = [r.to_json_dict() for r in (
        verify_sum_rule(f, g, 1.5, -0.5, (0.0, 0.0), circle),
        verify_max_rule((f, g), (0.0, 0.0), circle),
        verify_dirderiv_fixpoint(g, (0.25, 0.0), circle),
    )]
    docs["odd"] = {
        "empty": [[], {}, [[]], [{}], {"a": []}, {"b": {"c": {}}}, [[], [[]]]],
        "floats": [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324, 0.1, -1e-7],
        "scalars": [True, False, None, 0, -7, 2**70, "", "é \"\\/\n\t\x00", "\U0001F600"],
        "tuple": ("t", 1.5, ["x", (2, ())], {"in": ()}),
        1.5: {"float key": 1},
        2: [[1]],
        None: [],
        True: {"bool key": [None]},
        False: 0,
        math.inf: [1.0],
        "ünïcode": {"z": [1, [2, [3, {"deep": [4.5]}]]]},
        "last": {},
    }
    return docs


@pytest.mark.parametrize("indent", INDENTS)
@pytest.mark.parametrize("name", ["1d", "2d", "3d", "verify", "odd"])
def test_writer_matches_json_dumps(documents, name, indent):
    assert written(documents[name], indent) == json.dumps(documents[name], indent=indent)


@pytest.mark.parametrize("obj", [
    [], {}, 1.5, math.nan, -math.inf, "s", None, True, 3, [1, 2.5], {"a": 1}, [[], {}],
    ({"k": "v"},), {1: {2: {3: [4]}}},
], ids=repr)
@pytest.mark.parametrize("indent", INDENTS)
def test_writer_matches_json_dumps_on_small_values(obj, indent):
    assert written(obj, indent) == json.dumps(obj, indent=indent)


@pytest.mark.parametrize("obj", [{(1, 2): [[1]]}, {(1, 2): 1}, [[object()]], [object()]],
                         ids=["deep-tuple-key", "flat-tuple-key", "deep-object", "flat-object"])
def test_writer_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError):
        written(obj, 2)


def dumped(obj, indent) -> str:
    """``json.dumps`` of ``obj`` with every directed set in it as its dict."""
    return json.dumps(obj, default=DirectedSet.to_json_dict, indent=indent)


def nested(value, depth: int):
    """``value`` at ``depth``: inside a list, a dict and a tuple in turn."""
    for level in range(depth):
        value = ([value], {"key": value, "after": 1}, (0.5, value))[level % 3]
    return value


@pytest.mark.parametrize("indent", INDENTS)
@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("name", ["1d", "2d", "3d", "4d"])
def test_a_set_is_written_as_its_dict_at_any_depth(small_sets, name, depth, indent):
    obj = nested(small_sets[name], depth)
    assert written(obj, indent) == dumped(obj, indent)


@pytest.mark.parametrize("indent", INDENTS)
def test_sets_in_containers_and_beside_other_values(documents, small_sets, indent):
    s1, s2, s3 = (small_sets[name] for name in ("1d", "2d", "3d"))
    for obj in ([s1, s2, s3], (s3, s2), {"a": s2, "b": [s1, {}, s3], 2.5: (s1,)},
                {"odd": documents["odd"], "sets": [s3, s1]}, [documents["odd"], s2, [], s1]):
        assert written(obj, indent) == dumped(obj, indent)


def test_a_default_grid_set_is_written_as_its_dict(sets, documents):
    s = sets["3d"]
    assert written(s, 2) == json.dumps(documents["3d"], indent=2) == s.to_json()
    assert written([s, sets["2d"]], 1) == json.dumps([documents["3d"], documents["2d"]], indent=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False, "1.0"], ids=repr)
def test_a_set_holds_only_finite_floats(bad):
    # the writer's premise: for a finite float, ``%r`` is json's text
    grid = SphereGrid.circle(8)
    zeros = [0.0] * 8
    for args in ((([bad] + zeros[1:],), zeros, zeros), ((zeros,), zeros[:7] + [bad], zeros)):
        with pytest.raises(ValueError):
            DirectedSet(grid, *args)
    with pytest.raises(ValueError):
        DirectedSet.leaf(0.0, bad)
    s = DirectedSet(grid, ([1] * 8,), [2**53] * 8, [0.5] * 8)
    with pytest.raises(ValueError, match="must be finite"):
        s * 1e308 + s * 1e308
    assert {type(v) for a in s._arrays for v in a} == {float}
    assert written(s, 2) == dumped(s, 2)


def test_a_float_subclass_is_stored_as_a_float():
    class Shouting(float):
        def __repr__(self):
            return "LOUD"

    s = DirectedSet.leaf(Shouting(1.5), 2.0)
    assert type(s.a_neg[0]) is float
    assert written([s], 2) == json.dumps([{"dim": 1, "a_neg": 1.5, "a_pos": 2.0}], indent=2)


def test_to_json_is_the_writer_text(documents):
    s = DirectedSet.from_json_dict(documents["2d"])
    assert s.to_json() == json.dumps(documents["2d"], indent=2)
    assert s.to_json(indent=4) == json.dumps(documents["2d"], indent=4)
    assert s.to_json(indent=None) == json.dumps(documents["2d"])
    assert DirectedSet.from_json(s.to_json()) == s


def _flat_texts(obj, indent, depth=0):
    """The text of every non-empty container of scalars as the document holds it."""
    values = obj.values() if isinstance(obj, dict) else obj
    if any(isinstance(v, (list, tuple, dict)) and v for v in values):
        for v in values:
            if isinstance(v, (list, tuple, dict)) and v:
                yield from _flat_texts(v, indent, depth + 1)
    else:
        yield json.dumps(obj, indent=indent).replace("\n", "\n" + " " * (indent * depth))


class Recorder:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


@pytest.mark.parametrize("name", ["2d", "3d", "verify"])
def test_writer_streams_one_container_at_a_time(documents, name):
    doc = documents[name]
    fp = Recorder()
    write_json(doc, fp, 2)
    assert "".join(fp.chunks) == json.dumps(doc, indent=2)
    longest = max(map(len, _flat_texts(doc, 2)))
    assert max(map(len, fp.chunks)) <= longest < len("".join(fp.chunks)) // 10


def test_cli_streams_to_stdout(monkeypatch):
    fp = Recorder()
    monkeypatch.setattr("sys.stdout", fp)
    assert main(["subdiff", "-f", KINK_3D[0], "-x", KINK_3D[1]]) == 0
    doc = json.loads("".join(fp.chunks))
    assert "".join(fp.chunks) == json.dumps(doc, indent=2) + "\n"
    assert max(map(len, fp.chunks)) <= max(map(len, _flat_texts(doc, 2)))


@pytest.mark.parametrize("name", ["2d", "3d"])
def test_a_set_streams_one_entry_at_a_time(sets, documents, name):
    fp = Recorder()
    write_json(sets[name], fp, 2)
    assert "".join(fp.chunks) == json.dumps(documents[name], indent=2)
    assert max(map(len, fp.chunks)) <= max(map(len, _flat_texts(documents[name], 2)))


@pytest.mark.parametrize("argv", [
    ("subdiff", "-f", "max(x1, x2) - abs(x1 - x2)", "-x", "0,0", "-M", "16"),
    ("subdiff", "-f", "max(x1, x2) - abs(x1 - x2)", "-x", "0,0"),
    ("verify", "--random", "2", "-M", "16"),
], ids=["subdiff-2d-M16", "subdiff-2d", "verify"])
def test_cli_streams_2d_sets_to_stdout(monkeypatch, argv):
    fp = Recorder()
    monkeypatch.setattr("sys.stdout", fp)
    assert main(list(argv)) == 0
    doc = json.loads("".join(fp.chunks))
    assert "".join(fp.chunks) == json.dumps(doc, indent=2) + "\n"
    assert max(map(len, fp.chunks)) <= max(map(len, _flat_texts(doc, 2)))


def test_subdiff_builds_no_set_dict(capsys, monkeypatch):
    calls = []
    real = DirectedSet.to_json_dict
    monkeypatch.setattr(DirectedSet, "to_json_dict", lambda self: calls.append(self) or real(self))
    assert main(["subdiff", "-f", KINK_3D[0], "-x", KINK_3D[1]]) == 0
    assert calls == []
    assert json.loads(capsys.readouterr().out)["format"] == 2


def test_verify_writes_the_report_dicts(capsys, monkeypatch):
    reports = []
    for rule, verifier in cli.VERIFIERS.items():
        monkeypatch.setitem(cli.VERIFIERS, rule,
                            lambda *a, _v=verifier, **k: reports.append(_v(*a, **k)) or reports[-1])
    assert main(["verify", "--random", "2", "-M", "16", "--seed", "5"]) == 0
    assert len(reports) == 2 * len(cli.RULES)
    assert capsys.readouterr().out == json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ("subdiff", "-f", "abs(x1)", "-x", "0"),
    ("subdiff", "-f", "max(x1, x2) - abs(x1 - x2)", "-x", "0,0", "-M", "16"),
    ("subdiff", "-f", KINK_3D[0], "-x", KINK_3D[1]),
    ("verify", "--rule", "all", "--random", "2", "-M", "16", "--seed", "3"),
], ids=["subdiff-1d", "subdiff-2d", "subdiff-3d", "verify"])
def test_stdout_and_json_file_hold_the_same_bytes(tmp_path, capsys, argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    path = tmp_path / "out.json"
    assert main([*argv, "--json", str(path)]) == rc
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode("utf-8")
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_subdiff_builds_no_tangent_basis_for_the_default_grid(capsys, monkeypatch):
    default_grid(3).tangent_rows  # the one set of bases of this process
    calls = []
    real = dirset.orthobasis
    monkeypatch.setattr(dirset, "orthobasis", lambda d: calls.append(d) or real(d))
    assert main(["subdiff", "-f", KINK_3D[0], "-x", KINK_3D[1]]) == 0
    assert calls == []
    assert cli.default_grid(3) is default_grid(3)
