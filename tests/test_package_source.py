"""Checks on the package source itself, read with ``ast``: no unused error class, no unused import, no bare
``ValueError`` outside checkpoint decoding, one function that writes files, one helper that takes row dots, no
``np.unique``, no clock, and a package root that binds and loads nothing."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import lecnce

PACKAGE = Path(lecnce.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node) -> set[str]:
    """The bare names ``node`` (an exception or an except clause's type) refers to."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} if node is not None else set()


def _raised(node: ast.Raise):
    """The exception class expression of a ``raise``: ``E`` in both ``raise E`` and ``raise E(...)``."""
    return node.exc.func if isinstance(node.exc, ast.Call) else node.exc


def _raised_or_caught() -> set[str]:
    out = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise):
                out |= _names(_raised(node))
            elif isinstance(node, ast.ExceptHandler):
                out |= _names(node.type)
    return out


def test_every_error_class_is_raised_or_caught_by_name():
    classes = [node.name for node in _tree(PACKAGE / "errors.py").body if isinstance(node, ast.ClassDef)]
    assert classes, "errors.py defines no class"
    unused = sorted(set(classes) - _raised_or_caught())
    assert not unused, f"error classes that no module raises or catches by name: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# checkpoint-decoding helpers of encoders.py: load_checkpoint turns their ValueErrors into CorruptFileError
CHECKPOINT_DECODERS = {"_exact_keys", "_params_from_payload", "_unpacked", "_state_from_payload"}


def _bare_value_errors(path: Path) -> list[str]:
    """``module:function:line`` of each ``raise ValueError`` in ``path`` outside the checkpoint decoders."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and _names(_raised(child)) == {"ValueError"}:
                if not (path.name == "encoders.py" and function in CHECKPOINT_DECODERS):
                    out.append(f"{path.name}:{function}:{child.lineno}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(_tree(path), "<module>")
    return out


def test_no_bare_value_error_outside_checkpoint_decoding():
    bare = [site for path in MODULES for site in _bare_value_errors(path)]
    assert not bare, f"raise FieldValueError (or the contract's class) instead of a bare ValueError: {bare}"


def _file_writes(path: Path) -> list[str]:
    """``module:function`` of each call in ``path`` that opens a file to write it.

    That is an ``open`` (bare or as an attribute, as in ``io.open``) whose mode
    holds ``w``, ``a``, ``x`` or ``+``, or is not a string literal, and any
    ``write_text`` or ``write_bytes``.
    """
    out = []

    def writes(call: ast.Call) -> bool:
        name = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
        if name in ("write_text", "write_bytes"):
            return True
        if name != "open":
            return False
        mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
        if mode is None:  # the default mode, "r"
            return False
        literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        return not literal or bool(set(mode.value) & set("wax+"))

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and writes(child):
                out.append(f"{path.name}:{function}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(_tree(path), "<module>")
    return out


def test_only_write_file_opens_a_file_for_writing():
    sites = [site for path in MODULES for site in _file_writes(path)]
    assert sites == ["errors.py:write_file"], f"write every file through errors.write_file: {sites}"


def _row_dot_sites(path: Path) -> list[str]:
    """``module:line`` of each row dot in ``path`` written as a sum of an elementwise product.

    That is ``np.add.reduce(a * b, ...)``, and ``np.sum(a * b, ...)`` or
    ``(a * b).sum(...)`` along an axis.
    """
    out = []
    for node in ast.walk(_tree(path)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func, owner, args = node.func, ast.unparse(node.func.value), node.args
        along = any(k.arg == "axis" for k in node.keywords)
        if (func.attr, owner) == ("reduce", "np.add") and args:
            summed, along = args[0], True  # reduce always takes an axis, 0 by default
        elif (func.attr, owner) == ("sum", "np") and args:
            summed, along = args[0], along or len(args) > 1
        elif func.attr == "sum":
            summed, along = func.value, along or bool(args)
        else:
            continue
        if along and isinstance(summed, ast.BinOp) and isinstance(summed.op, ast.Mult):
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_row_dots_go_through_the_one_helper():
    sites = [site for path in MODULES for site in _row_dot_sites(path)]
    assert not sites, f"take a row dot with numerics._row_dots, not a sum of a product: {sites}"


def _unique_sites(path: Path) -> list[str]:
    """``module:line`` of each ``np.unique`` (or ``numpy.unique``) in ``path``, and of each import of it."""
    out = []
    for node in ast.walk(_tree(path)):
        named = isinstance(node, ast.Attribute) and node.attr == "unique" and ast.unparse(node.value) in ("np", "numpy")
        imported = isinstance(node, ast.ImportFrom) and node.module == "numpy" and any(
            a.name == "unique" for a in node.names)
        if named or imported:
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_np_unique_in_the_package():
    """The first ``np.unique`` of a process imports ``numpy.ma``, 13-23 ms of every fresh ``lecnce eval``."""
    sites = [site for path in MODULES for site in _unique_sites(path)]
    assert not sites, f"take distinct ids with np.bincount or a sort, not np.unique: {sites}"


CLOCK_MODULES = {"time", "datetime"}


def _clock_imports(path: Path) -> list[str]:
    """``module:line`` of each import of ``time`` or ``datetime`` (or of a name from them) in ``path``."""
    out = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] in CLOCK_MODULES for module in modules):
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_no_module_reads_a_clock():
    """Every output byte of a run is a function of its inputs and seed; timings are taken from outside the package."""
    sites = [site for path in MODULES for site in _clock_imports(path)]
    assert not sites, f"the package reads no clock; time a call from its caller: {sites}"


def test_package_root_binds_only_its_version():
    tree = _tree(PACKAGE / "__init__.py")
    bound = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    bound |= {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    bound |= {a.asname or a.name.split(".")[0] for n in imports for a in n.names}
    assert "__version__" in bound
    extra = sorted(name for name in bound if not (name.startswith("__") and name.endswith("__")))
    assert not extra, f"lecnce/__init__.py binds names other than dunders; import them from their submodule: {extra}"


def _python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter (``conftest.py`` puts this checkout's src/ on its path)."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True)


def test_importing_the_package_loads_no_submodule():
    proc = _python("-c", "import sys, lecnce; print(sorted(m for m in sys.modules if m.startswith('lecnce.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_module_runs_without_a_runtime_warning():
    proc = _python("-W", "error::RuntimeWarning", "-m", "lecnce.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "generate-data" in proc.stdout
