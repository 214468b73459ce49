"""The public API: the names ``dirsubdiff`` exports and those of
``dirsubdiff.oracle``, whose other cross-checks are test code, and no
function or class in the package that only the tests use."""

import ast
import inspect
import io
from pathlib import Path

import pytest

import dirsubdiff
import dirsubdiff.oracle as oracle
from dirsubdiff.engine import directed_subdiffs

REPO = Path(__file__).resolve().parent.parent

PUBLIC = [
    "ActiveSetInfo", "Affine", "ArityError", "Basis", "Const", "DirectedInterval",
    "DirectedSet", "DomainError", "Expr", "ExprError", "FdSchedule", "GridMismatchError",
    "KinkError", "LinComb", "Max", "Min", "MvtWitness", "ParseError", "Product", "Quotient",
    "Segment", "SmoothCompose", "SmoothUnary", "SphereGrid", "Var", "VerificationError",
    "VerificationReport", "WitnessNotFoundError", "chain_rule_1d", "check_max_condition",
    "check_min_condition", "compose", "const", "default_grid", "dini_fd", "dirderiv",
    "dirderiv_transform", "directed_subdiff", "directed_zero", "distance", "embed_gradient",
    "embed_interval", "embed_point", "embed_polygon", "evaluate", "has_kinks", "inf", "leq",
    "linear_combination", "mvt_witness", "norm", "orthobasis", "parse", "powk", "restrict",
    "scale", "segment_subdiff", "smooth_gradient", "sqr", "sup", "vabs", "var",
    "verify_chain_rule_1d", "verify_dirderiv_fixpoint", "verify_max_rule", "verify_min_rule",
    "verify_product_rule", "verify_quotient_rule", "verify_sum_rule", "verify_taylor_invariance",
    "viz_segments", "vmax", "vmin", "write_segments_csv", "write_segments_svg",
]


def test_package_exports():
    assert sorted(dirsubdiff.__all__) == PUBLIC
    assert all(hasattr(dirsubdiff, name) for name in PUBLIC)


#: a value of each kind a caller can pass by mistake
BAD_VALUES = [None, "x1", b"x", True, 10**400, float("nan"), [], object()]


def _valid_calls() -> dict:
    """One valid call ``(args, kwargs)`` of every callable of ``__all__``,
    with the optional arguments a caller can get wrong spelled out."""
    d = dirsubdiff
    x, y = d.var(0), d.var(1)
    grid = d.SphereGrid.circle(8)
    kink = d.parse("max(x1, x2) + x1*x2")
    point = (0.0, 0.0)
    s = d.directed_subdiff(kink, point, grid)
    t = d.embed_point((1.0, 2.0), grid)
    message = ("message",)
    return {
        "ActiveSetInfo": ((), {"ties": False, "borderline": False}),
        "Affine": ((x, ((1.0,),), (0.0,)), {}),
        "ArityError": (message, {}),
        "Basis": (((1.0, 0.0), ((-0.0, 1.0),), "rotation"), {}),
        "Const": ((1.5,), {}),
        "DirectedInterval": ((0.0, 1.0), {}),
        "DirectedSet": ((grid, s.levels, s.a_neg, s.a_pos), {}),
        "DomainError": (message, {}),
        "Expr": ((), {}),
        "ExprError": (message, {}),
        "FdSchedule": ((), {"t0": 0.01, "factor": 0.5, "steps": 20, "extrapolate": True}),
        "GridMismatchError": (message, {}),
        "KinkError": (message, {}),
        "LinComb": ((1.0, x, 2.0, y), {}),
        "Max": (((x, y),), {}),
        "Min": (((x, y),), {}),
        "MvtWitness": ((0.5, 0.0, d.DirectedInterval(0.0, 1.0)), {}),
        "ParseError": (("message", 0), {}),
        "Product": ((x, y), {}),
        "Quotient": ((x, y), {}),
        "Segment": (((0.0, 0.0), (1.0, 0.0), False), {}),
        "SmoothCompose": ((x, (x + y,)), {}),
        "SmoothUnary": (("pow", x, 3), {}),
        "SphereGrid": ((2, grid.resolution, grid.directions, None, grid.id), {}),
        "Var": ((0,), {}),
        "VerificationError": (message, {}),
        "VerificationReport": (("sum", True, 0.0, 1e-9, point, s, s), {"metadata": {}}),
        "WitnessNotFoundError": (message, {}),
        "chain_rule_1d": ((d.parse("abs(x1)"), [d.parse("x1*x1")], 0.5, 1e-9, True), {}),
        "check_max_condition": ((kink, point, grid, 1e-9, 1e-9), {}),
        "check_min_condition": ((kink, point, grid, 1e-9, 1e-9), {}),
        "compose": ((x, [x + y]), {}),
        "const": ((1.0,), {}),
        "default_grid": ((2,), {}),
        "dini_fd": ((kink, point, (1.0, 0.0), d.FdSchedule()), {}),
        "dirderiv": ((kink, point, (1.0, 0.0), 1e-9), {}),
        "dirderiv_transform": ((kink, point, 1e-9, d.ActiveSetInfo()), {"_shared": d.deriv._Walk()}),
        "directed_subdiff": ((kink, point, grid, 1e-9, d.ActiveSetInfo()), {}),
        "directed_zero": ((2, grid), {}),
        "distance": ((s, t), {}),
        "embed_gradient": ((d.parse("x1*x2"), (1.0, 2.0), grid), {}),
        "embed_interval": ((0.0, 1.0), {}),
        "embed_point": (((1.0, 2.0), grid), {}),
        "embed_polygon": (([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], grid), {}),
        "evaluate": ((kink, (1.0, 2.0)), {}),
        "has_kinks": ((kink,), {}),
        "inf": (([s, t], 1e-9, d.ActiveSetInfo()), {}),
        "leq": ((s, t, 1e-9), {}),
        "linear_combination": ((1.0, s, 2.0, t), {}),
        # the bisection runs: no scanned point is admissible
        "mvt_witness": ((d.parse("abs(x1)"), (-1.0,), (2.0,), 99, 1e-8, 1e-9, 1e-12), {}),
        "norm": ((s,), {}),
        "orthobasis": (((0.6, 0.8),), {}),
        "parse": (("max(x1, x2)",), {}),
        "powk": ((x, 3), {}),
        "restrict": ((kink, (1.0, 0.0), d.orthobasis((1.0, 0.0))), {}),
        "scale": ((2.0, s), {}),
        "segment_subdiff": ((d.parse("abs(x1)"), (-1.0,), (2.0,), 0.5, 1e-9), {}),
        "smooth_gradient": ((d.parse("x1*x2"), (1.0, 2.0), 1e-9), {}),
        "sqr": ((x,), {}),
        "sup": (([s, t], 1e-9, d.ActiveSetInfo()), {}),
        "vabs": ((x,), {}),
        "var": ((0,), {}),
        "verify_chain_rule_1d": ((d.parse("abs(x1)"), [d.parse("x1*x1")], 0.5, 1e-9, True), {}),
        "verify_dirderiv_fixpoint": ((kink, point, grid, 1e-9, True), {}),
        "verify_max_rule": (([x, y], point, grid, 1e-9, True), {}),
        "verify_min_rule": (([x, y], point, grid, 1e-9, True), {}),
        "verify_product_rule": ((kink, d.vabs(y), point, grid, 1e-9, True), {}),
        "verify_quotient_rule": ((kink, 2.0 + d.vabs(y), point, grid, 1e-9, True), {}),
        "verify_sum_rule": ((kink, d.vabs(y), 1.0, 2.0, point, grid, 1e-9, True), {}),
        "verify_taylor_invariance": ((d.parse("abs(x1) + x2"), [x - y, x * y], point, grid, 1e-9,
                                      True), {}),
        "viz_segments": ((s,), {}),
        "vmax": ((x, y), {}),
        "vmin": ((x, y), {}),
        # a file object's own errors stay its own: ``fp`` is not replaced
        "write_segments_csv": ((d.viz_segments(s), io.StringIO()), {}),
        "write_segments_svg": ((d.viz_segments(s), io.StringIO(), 640), {}),
    }


#: the arguments the table leaves as they are, by callable and position
KEPT_ARGUMENTS = {("write_segments_csv", 1), ("write_segments_svg", 1)}


def test_every_export_has_a_valid_call():
    calls = _valid_calls()
    assert sorted(calls) == PUBLIC
    for name, (args, kwargs) in calls.items():
        getattr(dirsubdiff, name)(*args, **kwargs)


def test_every_valid_call_spells_out_every_parameter():
    # the bad-argument test replaces only what a call spells out, so a
    # parameter left at its default would never be probed
    left_out = {}
    for name, (args, kwargs) in _valid_calls().items():
        try:
            signature = inspect.signature(getattr(dirsubdiff, name))
        except ValueError:  # the exceptions are built-in types underneath
            continue
        given = signature.bind(*args, **kwargs).arguments
        missing = [p.name for p in signature.parameters.values()
                   if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD) and p.name not in given]
        if missing:
            left_out[name] = missing
    assert left_out == {}


@pytest.mark.parametrize("name", PUBLIC)
def test_a_bad_argument_is_a_typed_error(name):
    # one argument at a time: the call returns, or it raises a ValueError or
    # an ExprError, never an AttributeError, a TypeError or an OverflowError
    args, kwargs = _valid_calls()[name]
    function = getattr(dirsubdiff, name)
    holes = []
    replacements = [(i, None) for i in range(len(args)) if (name, i) not in KEPT_ARGUMENTS]
    replacements += [(None, key) for key in kwargs]
    for i, key in replacements:
        for bad in BAD_VALUES:
            a, kw = list(args), dict(kwargs)
            if key is None:
                a[i] = bad
            else:
                kw[key] = bad
            if name.startswith("write_segments"):
                a[1] = io.StringIO()
            try:
                function(*a, **kw)
            except (ValueError, dirsubdiff.ExprError):
                pass
            except Exception as exc:  # any other kind is a hole
                holes.append(f"{key if key is not None else i}={bad!r:.20}: {exc!r}")
    assert holes == []


@pytest.mark.parametrize("call", [
    lambda d: d.directed_subdiff(d.parse("x1+x2"), (0.0, 0.0), d.SphereGrid.circle(8), info=5),
    lambda d: d.directed_subdiff(d.parse("x1"), (0.0,), info=5),
    lambda d: d.dirderiv_transform(d.parse("x1"), (0.0,), info=5),
    lambda d: d.sup([d.DirectedSet.leaf(0.0, 1.0), d.DirectedSet.leaf(1.0, 0.0)], info=5),
    lambda d: d.inf([d.DirectedSet.leaf(0.0, 1.0)], info=5),
], ids=["subdiff-2d-kinkless", "subdiff-1d-kinkless", "transform-kinkless", "sup-1d", "inf-1d"])
def test_bad_flags_are_refused_where_no_flag_is_written(call):
    # the flags door runs where a computation starts, so an input with no
    # max/min, or a 1-D family, refuses a bad ``info`` as a kinked one does
    with pytest.raises(ValueError, match="^expected active-set flags, got a int$"):
        call(dirsubdiff)


@pytest.mark.parametrize("bad", [5, [], "x"])
def test_the_shared_walk_state_is_a_keyword_only_dict(bad):
    d = dirsubdiff
    with pytest.raises(ValueError, match=f"^expected a shared walk state, got a {type(bad).__name__}$"):
        d.dirderiv_transform(d.parse("x1"), (0.0,), _shared=bad)
    with pytest.raises(TypeError, match="positional arguments"):
        d.dirderiv_transform(d.parse("x1"), (0.0,), 1e-9, None, d.deriv._Walk())


@pytest.mark.parametrize("bad", [{"walk": 5}, {}], ids=["stored-walk", "empty"])
def test_a_shared_walk_state_is_the_engines_own_type(bad):
    # a dict passes no door: the walk state is a type the engine creates
    d = dirsubdiff
    with pytest.raises(ValueError, match="^expected a shared walk state, got a dict$"):
        d.dirderiv_transform(d.parse("x1"), (0.0,), _shared=bad)


def test_several_expressions_pass_the_sequence_door():
    # a lone expression is refused with its type, and a generator is read
    # as the sequence it yields
    d = dirsubdiff
    grid, point = d.SphereGrid.sphere(2, 4, 8), (0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="^expected a sequence of expressions, got a Var$"):
        directed_subdiffs(d.parse("x1"), point, grid)
    texts = ["x1", "max(x1, x2) + abs(x3)"]
    got = directed_subdiffs((d.parse(t) for t in texts), point, grid)
    assert [s.to_json() for s in got] == [
        d.directed_subdiff(d.parse(t), point, grid).to_json() for t in texts]


def test_oracle_defines_only_the_finite_differences():
    defined = sorted(
        name for name, value in vars(oracle).items()
        if getattr(value, "__module__", None) == oracle.__name__
    )
    assert defined == ["FdSchedule", "dini_fd"]
    assert dirsubdiff.FdSchedule is oracle.FdSchedule and dirsubdiff.dini_fd is oracle.dini_fd


def test_package_defines_nothing_that_only_tests_use():
    # every function or class defined under src/ is named somewhere in src/
    # or bench/ besides its own definition; test-only code lives in tests/.
    # An attribute of a module other than the package's, bound by
    # ``import X`` (``math.sin``), names that module's attribute, not the
    # package's; ``ds.name`` after ``import dirsubdiff as ds`` still counts.
    defined, named = {}, set()
    src = REPO / "src" / "dirsubdiff"
    for path in sorted([*src.rglob("*.py"), *(REPO / "bench").rglob("*.py")]):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        modules = {
            alias.asname or alias.name.split(".")[0]
            for node in nodes if isinstance(node, ast.Import) for alias in node.names
            if alias.name.split(".")[0] != "dirsubdiff"
        }
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path.is_relative_to(src):
                    defined.setdefault(node.name, f"{path.relative_to(REPO)}:{node.lineno}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                    named.add(node.attr)
    unused = {
        name: where for name, where in defined.items()
        if name not in named and name not in dirsubdiff.__all__
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert unused == {}


def test_package_imports_nothing_it_never_uses():
    # every name a module under src/ imports is read in that module, apart
    # from ``from __future__ import annotations`` and the names the package
    # re-exports through ``__all__``; annotations, quoted ones too, count as
    # reads
    unused = []
    for path in sorted((REPO / "src" / "dirsubdiff").rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AnnAssign)):
                # a quoted annotation is an expression in a string
                note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
                if isinstance(note, ast.Constant) and isinstance(note.value, str):
                    read.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                                if isinstance(n, ast.Name))
        exported = set(dirsubdiff.__all__) if path.name == "__init__.py" else set()
        unused += [f"{path.relative_to(REPO)}:{line}: {name}" for name, line in imported.items()
                   if name not in read and name not in exported]
    assert unused == []


#: the functions that may format "got a {type(...).__name__}" themselves: the
#: type door, and the number, sequence and text doors, whose messages differ
TYPE_DOORS = {"instance", "_number", "sequence", "DirectedSet.from_json", "parse"}


def _formats_a_type_name(node) -> bool:
    """Whether ``node`` holds an f-string part ``got a {type(...).__name__}``."""
    for text in ast.walk(node):
        if isinstance(text, ast.JoinedStr):
            for before, value in zip(text.values, text.values[1:]):
                if (isinstance(before, ast.Constant) and str(before.value).endswith("got a ")
                        and isinstance(value, ast.FormattedValue)
                        and isinstance(value.value, ast.Attribute)
                        and value.value.attr == "__name__"
                        and isinstance(value.value.value, ast.Call)
                        and isinstance(value.value.value.func, ast.Name)
                        and value.value.value.func.id == "type"):
                    return True
    return False


def test_type_checks_are_not_written_out_again():
    # a wrong-type error is raised by ``expr.instance`` (or one of the other
    # doors above), never spelled out again where an argument is checked
    found = []

    def visit(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,), path)
            elif isinstance(child, ast.Raise) and _formats_a_type_name(child):
                if ".".join(scope) not in TYPE_DOORS:
                    found.append(f"{path.relative_to(REPO)}:{child.lineno}: {'.'.join(scope)}")
            else:
                visit(child, scope, path)

    for path in sorted((REPO / "src" / "dirsubdiff").rglob("*.py")):
        visit(ast.parse(path.read_text()), (), path)
    assert found == []


def _sums_a_product(node) -> bool:
    """Whether ``node`` calls the builtin ``sum`` on a comprehension or
    generator whose items hold a product."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum" and node.args):
        return False
    items = node.args[0]
    return isinstance(items, (ast.GeneratorExp, ast.ListComp)) and any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult) for n in ast.walk(items.elt))


def test_products_are_summed_only_by_dot_and_apply():
    # builtin ``sum`` adds floats in an order that changed in Python 3.12,
    # so sums of products go through ``expr.dot`` or ``dirset._apply``;
    # counts (``sum(widths)``, ``sum(1 for ...)``) and ``expr._finite``'s
    # finiteness test may still call it
    found = [
        f"{path.relative_to(REPO)}:{node.lineno}"
        for path in sorted((REPO / "src" / "dirsubdiff").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text())) if _sums_a_product(node)
    ]
    assert found == []


def test_the_engine_reads_no_expression_node():
    # the sweep runs the tape the transform writes, so the engine neither
    # walks an expression nor tells its node kinds apart; ``Expr`` stays
    # for annotations
    expr = dirsubdiff.expr
    kinds = {name for name, value in vars(expr).items()
             if isinstance(value, type) and issubclass(value, expr.Expr) and value is not expr.Expr}
    imported = set()
    for node in ast.walk(ast.parse((REPO / "src" / "dirsubdiff" / "engine.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in ("expr", "dirsubdiff.expr"):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update("expr" for alias in node.names if alias.name.endswith("expr"))
    assert {"Var", "Affine", "Max", "SmoothCompose"} <= kinds
    assert imported & (kinds | {"walk", "expr"}) == set()
