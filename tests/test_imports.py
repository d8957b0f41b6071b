"""Start-up cost: importing the package and its CLI loads no introspection
machinery, and no module imports inside a function.  The public API is what
the package imports, so a deleted function cannot linger as an export."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import cokahler
from cokahler import build_report, cli
from cokahler.modelfile import CORPUS_MODELS, corpus_path, load_corpus

PACKAGE = Path(cokahler.__file__).parent
# with ast, dis and tokenize behind them, about half of a cold import
UNWANTED = {"dataclasses", "inspect"}


def test_import_loads_no_dataclasses_or_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    # site may preload modules, so compare sys.modules before and after
    script = ("import sys; before = set(sys.modules); "
              "import cokahler, cokahler.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert {"cokahler.cli", "cokahler.report"} <= added
    assert added.isdisjoint(UNWANTED), sorted(added & UNWANTED)


def test_no_import_inside_a_function():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found


def test_all_is_exactly_what_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert [name for name in cokahler.__all__
            if not hasattr(cokahler, name)] == []
    assert sorted(cokahler.__all__) == sorted(imported)


def test_only_the_report_reads_a_pass_over_the_basis():
    # identities between operators are decided on generators; the report's
    # Leibniz records are the one per-monomial pass left in the package, and
    # word_disagreements lives in the tests (operator_words)
    readers, callers = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and \
                    node.attr == "leibniz_failure":
                readers.add(path.name)
            if isinstance(node, ast.Call) and "word_disagreements" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                callers.add(f"{path.name}:{node.lineno}")
    assert readers == {"report.py"}
    assert callers == set()


def unread_public_functions(module: str) -> list[str]:
    """The public module-level functions of ``module`` that no other module
    of the package reads; a re-export in ``__init__`` is not a reader.  Such
    a function is dead code, and the benchmark's tracer, which wraps each
    one, reports it as a metric stuck at 0."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")}
    assert public
    read = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in (f"{module}.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and \
                    getattr(node.value, "id", None) == module:
                read.add(node.attr)
            if isinstance(node, ast.ImportFrom) and node.module == module:
                read.update(alias.name for alias in node.names)
    return sorted(public - read)


def test_every_public_linalg_function_has_a_reader():
    assert unread_public_functions("linalg") == []


def test_every_public_cdga_function_has_a_reader():
    assert unread_public_functions("cdga") == []


def test_every_public_minimal_function_has_a_reader():
    assert unread_public_functions("minimal") == []


def test_every_public_cohomology_function_has_a_reader():
    assert unread_public_functions("cohomology") == []


# the public functions that only their own module reads, named one by one:
# each is package API (re-exported in __init__) with a reader beside it, so
# the next public function that nothing reads fails here


def test_the_unread_public_eta_functions_are_named():
    # eta_operator builds rho and d_eta for any form, build_d_eta for the
    # model's eta; kernel_subcomplex builds ker(d_eta) for any operator
    assert unread_public_functions("eta") == [
        "eta_operator", "kernel_subcomplex"]


def test_the_unread_public_lefschetz_functions_are_named():
    # lefschetz_map is the checked map that _terms is tested against
    assert unread_public_functions("lefschetz") == ["lefschetz_map"]


def test_the_unread_public_massey_functions_are_named():
    # triple_massey is one product; the scan takes it on each basis triple
    assert unread_public_functions("massey") == ["triple_massey"]


def test_the_unread_public_geometry_functions_are_named():
    # is_killing and nijenhuis_normality are two of classify's checks
    assert unread_public_functions("geometry") == [
        "is_killing", "nijenhuis_normality"]



# modules whose classes' public methods each need a reader in src/
METHOD_MODULES = ("cdga", "cohomology", "exterior", "linalg", "geometry",
                  "eta", "lefschetz", "minimal", "massey")


def unread_public_methods() -> list[str]:
    """``module.Class.method`` for each public method of a class in
    ``METHOD_MODULES`` whose name no ``ast.Attribute`` or ``ast.Name`` of
    the package reads outside the method's own body.  Such a method is
    dead code, or API that only the tests read."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = [(node, node.attr if isinstance(node, ast.Attribute) else node.id)
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Attribute, ast.Name))]
    unread = []
    for module in METHOD_MODULES:
        for cls in trees[module].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or \
                        fn.name.startswith("_"):
                    continue
                own = {id(node) for node in ast.walk(fn)}
                if not any(name == fn.name and id(node) not in own
                           for node, name in reads):
                    unread.append(f"{module}.{cls.name}.{fn.name}")
    return unread


def test_every_public_method_has_a_reader():
    assert unread_public_methods() == []


# public functions and methods that no run of the package enters, each with
# the reader that keeps it
NOT_ENTERED = {
    "cdga.Derivation.matrix": "the benchmark tracer's COUNTERS wrap it",
    "lefschetz.lefschetz_map": "the checked map _terms is tested against",
    "geometry.once_per_model": "a decorator, applied at import",
}


def public_code() -> dict:
    """``module.qualname`` -> code object of every public module function
    and every public method of a class (dunders excluded) that a package
    module defines; a memoized function is read through its wrapper."""
    out = {}
    for path in sorted(PACKAGE.glob("[!_]*.py")):
        mod = importlib.import_module(f"cokahler.{path.stem}")
        for name, value in vars(mod).items():
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if isinstance(value, type):
                methods = [(f"{name}.{attr}", fn)
                           for attr, fn in vars(value).items()
                           if not attr.startswith("_")]
            elif callable(value) and not name.startswith("_"):
                methods = [(name, value)]
            else:
                continue
            for qualname, fn in methods:
                fn = getattr(fn, "fget", None) or getattr(fn, "__func__", fn)
                fn = getattr(fn, "__wrapped__", fn)
                if hasattr(fn, "__code__"):
                    out[f"{path.stem}.{qualname}"] = fn.__code__
    return out


def test_every_public_function_is_entered_by_a_run(capsys):
    # the traffic of every entry point on every corpus model: build_report,
    # load on the model's file and each CLI command, under a profile hook
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    commands = [[name] for name in cli._VIEWS] + [
        ["report"], ["report", "--all", "--json"], ["canonicalize"]]
    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        for name in CORPUS_MODELS:
            build_report(load_corpus(name))
            cokahler.load(str(corpus_path(name)))
            for command in commands:
                cli.main(["--informational", *command, name])
    finally:
        sys.setprofile(old)
    capsys.readouterr()
    code = public_code()
    assert len(code) > 100
    missed = sorted(name for name, c in code.items() if c not in entered)
    assert missed == sorted(NOT_ENTERED)
