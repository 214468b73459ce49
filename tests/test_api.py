"""The public API: the names ``dirsubdiff`` exports and those of
``dirsubdiff.oracle``, whose other cross-checks are test code, and no
function or class in the package that only the tests use."""

import ast
from pathlib import Path

import dirsubdiff
import dirsubdiff.oracle as oracle

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
