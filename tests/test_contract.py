"""A seeded fuzzer of the input contract: every input ends in a correct
answer or a typed error.

The API half mutates expression text and directed set documents, the only
text the package reads, and feeds them to the public entry points at points
with extreme entries.  A call must raise a ``ValueError`` or an
``ExprError``, or return a value of its kind; a returned set must survive
``from_json(to_json(s)) == s``.  The CLI half runs ``cli.main`` in-process
on mutated argument vectors of all five subcommands: the exit code must be
0 to 3, no traceback may be printed, and exit 2 comes with exactly one
``error:`` line.

Draws come from ``random.Random`` with fixed seeds and fixed case counts,
so a run is the same every time and takes a few seconds.
"""

import copy
import json
import math
import random

import dirsubdiff as d
from dirsubdiff.cli import main
from dirsubdiff.corpus import random_directed_set

#: the expression texts the mutations start from: the README's and the
#: CLI help's examples, and a few that reach every call of the grammar
EXPRESSIONS = [
    "abs(x1)", "max(x1, x2, -x1 - x2)", "max(x1, x2) + x1*x2", "abs(x1) + abs(x2)",
    "x1", "min(x1, x2, x3) - 2.5*x3", "sqrt(x1*x1 + 1) / (1 + sqr(x2))",
    "pow(x1 - x2, 3) + log(2 + cos(x3))", "exp(-abs(x1)) * sin(x2)", "-max(x1, -x2) + 1e-3",
]

#: what an insertion or a substitution puts into expression text
TEXT_PIECES = [
    "x1", "x2", "x3", "x0", "x4", "1", "0", "1e308", "1e400", "5e-324", ".", "e", "+", "-",
    "*", "/", "(", ")", ",", " ", "max(", "min(", "abs(", "sin(", "cos(", "exp(", "log(",
    "sqr(", "sqrt(", "pow(", "x", "é", "\x00", "((((", "))))",
]

#: the point entries: zero, signs, the largest and smallest doubles, an
#: ``exp`` argument that overflows, and an int too large for a float
POINT_ENTRIES = [0, 0.0, -0.0, 1, -1, 1e308, -1e308, 5e-324, 700, 10**400]

#: small grids per dimension, so a case costs about a millisecond
GRIDS = {1: None, 2: d.SphereGrid.circle(8), 3: d.SphereGrid.sphere(2, 4, 8)}

#: what a document mutation puts in place of a value
DOCUMENT_VALUES = [
    None, "x", "", True, False, 0, -1, 2**63, 10**400, 1e308, 5e-324, math.nan, math.inf,
    -math.inf, [], [1.0], [[]], {}, {"dim": 1},
]


def _mutate_text(rng, text: str) -> str:
    """One to three edits of ``text``: an insertion, a deletion or a
    substitution of a piece, at a random place."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        j = min(len(text), i + rng.randint(1, 4))
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:i] + rng.choice(TEXT_PIECES) + text[i:]
        elif kind == 1:
            text = text[:i] + text[j:]
        else:
            text = text[:i] + rng.choice(TEXT_PIECES) + text[j:]
    return text


def _typed(call):
    """``call()``, or None when it raises a typed error; any other
    exception propagates and fails the test."""
    try:
        return call()
    except (ValueError, d.ExprError):
        return None


def _check_set(s) -> None:
    assert isinstance(s, d.DirectedSet)
    assert d.DirectedSet.from_json(s.to_json()) == s


def test_expression_mutations_end_in_an_answer_or_a_typed_error():
    rng = random.Random(2401)
    outcomes = {"parsed": 0, "answered": 0}
    for _ in range(6000):  # about one text in fourteen still parses
        text = _mutate_text(rng, rng.choice(EXPRESSIONS))
        e = _typed(lambda: d.parse(text))
        if e is None:
            continue
        outcomes["parsed"] += 1
        n = rng.randint(1, 3)
        point = tuple(rng.choice(POINT_ENTRIES) if rng.random() < 0.5 else rng.uniform(-2, 2)
                      for _ in range(n))
        value = _typed(lambda: d.evaluate(e, point))
        assert value is None or math.isfinite(value), (text, point)
        g = _typed(lambda: d.dirderiv_transform(e, point))
        assert g is None or isinstance(g, d.Expr), (text, point)
        s = _typed(lambda: d.directed_subdiff(e, point, GRIDS[n]))
        if s is not None:
            _check_set(s)
            outcomes["answered"] += 1
    # the mutations must leave many texts readable and many sets computed,
    # or the entry points behind ``parse`` are barely reached
    assert outcomes["parsed"] > 300 and outcomes["answered"] > 150, outcomes


def _document_paths(node, path=()):
    """Every key and list position of a decoded document, as paths."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _document_paths(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _document_paths(value, path + (k,))


def _mutate_document(rng, doc):
    """One to three edits of a decoded document: a key dropped, or a value
    replaced by a copy of one of :data:`DOCUMENT_VALUES`."""
    for _ in range(rng.randint(1, 3)):
        paths = [p for p in _document_paths(doc) if p]
        if not paths:
            return copy.deepcopy(rng.choice(DOCUMENT_VALUES))
        *head, last = rng.choice(paths)
        parent = doc
        for key in head:
            parent = parent[key]
        if isinstance(parent, dict) and rng.random() < 0.4:
            del parent[last]
        else:
            parent[last] = copy.deepcopy(rng.choice(DOCUMENT_VALUES))
    return doc


def test_document_mutations_end_in_a_set_or_a_typed_error():
    rng = random.Random(2402)
    sets = [random_directed_set(rng, n, GRIDS[n]) for n in (1, 2, 3)]
    # a 3-D document is large: mutate one on a smaller grid as well
    sets.append(random_directed_set(rng, 3, d.SphereGrid.sphere(1, 2, 2)))
    texts = [s.to_json() for s in sets]
    decoded = 0
    for _ in range(4000):
        doc = _mutate_document(rng, json.loads(rng.choice(texts)))
        text = json.dumps(doc)
        s = _typed(lambda: d.DirectedSet.from_json(text))
        if s is not None:
            _check_set(s)
            decoded += 1
    # some edits keep a valid document (an entry swapped for another number)
    assert decoded > 0


def _cli_bases(tmp_path) -> list:
    """Valid argument vectors of the five subcommands; outputs go to
    ``tmp_path``."""
    doc = tmp_path / "set.json"
    doc.write_text(d.embed_polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
                                   d.SphereGrid.circle(8)).to_json())
    csv, svg, out = (str(tmp_path / name) for name in ("s.csv", "s.svg", "out.json"))
    return [
        ["subdiff", "-f", "abs(x1)", "-x", "0"],
        ["subdiff", "-f", "max(x1, x2) + x1*x2", "-x", "0,0", "-M", "8", "--json", out],
        ["verify", "--rule", "sum", "-f1", "abs(x1)", "-f2", "x1", "-x", "0"],
        ["verify", "--rule", "max", "--fs", "x1", "--fs", "x2", "-x", "0,0", "-M", "8"],
        ["verify", "--rule", "chain1d", "-f1", "abs(x1)", "--phi", "x1*x1", "--t0", "0.5"],
        ["verify", "--rule", "min", "--random", "1", "--seed", "3", "-M", "8"],
        ["optcheck", "-f", "abs(x1) + abs(x2)", "-x", "0,0", "-M", "8"],
        ["mvt", "-f", "abs(x1)", "--x0", "-1", "--x1", "2", "--scan", "5"],
        ["viz", "-f", "max(x1, x2, -x1 - x2)", "-x", "0,0", "-M", "8", "--csv", csv, "--svg", svg],
        ["viz", "--in", str(doc), "--csv", csv],
    ]


#: the flags and the values an edit puts into an argument vector
CLI_FLAGS = [
    "-f", "-x", "-M", "--json", "--csv", "--svg", "--in", "--rule", "--fs", "--phi", "-f1",
    "-f2", "-a", "-b", "--t0", "--random", "--seed", "--scan", "--x0", "--x1", "--eps-active",
    "--eps-order", "-h", "--", "--bogus",
]
CLI_VALUES = [
    "0", "-0", "1", "-1", "2", "8", "700", "1e308", "-1e308", "5e-324", "1e400", "nan", "inf",
    "0,0", "1,-1", "0,1e308", "0,0,0", "", "x1", "abs(x1", "max(x1, x2)", "exp(x1)", "all",
    "sum", "taylor", "fixpoint", "quotient", "product", "subdiff",
]


def _mutate_argv(rng, argv: list) -> list:
    """One or two edits of ``argv``: a flag and a value inserted, a token
    dropped, a flag or a value replaced by another (half of the edits), or
    the text of a token mutated; the subcommand is edited in one case in
    ten."""
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(0 if rng.random() < 0.1 else 1, len(argv) + 1)
        kind = rng.choice((0, 1, 2, 2, 2, 3))
        if kind == 0 or i == len(argv):
            argv[i:i] = [rng.choice(CLI_FLAGS), rng.choice(CLI_VALUES)]
        elif kind == 1:
            del argv[i]
        elif kind == 2:
            argv[i] = rng.choice(CLI_FLAGS if argv[i] in CLI_FLAGS else CLI_VALUES)
        else:
            argv[i] = _mutate_text(rng, argv[i])
    return argv


def test_cli_mutations_end_in_a_documented_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a mutated output flag writes a relative path
    rng = random.Random(2403)
    bases = _cli_bases(tmp_path)
    codes = set()
    for _ in range(600):
        argv = _mutate_argv(rng, rng.choice(bases))
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            rc = exc.code
        out, err = capsys.readouterr()
        assert rc in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if rc == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        codes.add(rc)
    # both answers and input errors must occur, or the vectors test little
    assert {0, 2} <= codes, codes
