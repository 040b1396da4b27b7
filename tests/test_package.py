import ast
import os
import subprocess
import sys
from pathlib import Path

import floqbog

ROOT = Path(__file__).resolve().parents[1]


def test_public_names_unique_and_resolve():
    names = floqbog.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(floqbog, name)]
    assert missing == []


def test_public_names_used_by_the_package():
    """Every exported name is referenced by some module of the package itself,
    so no name is public only for the tests' sake."""
    used = set()
    for path in sorted((ROOT / "src" / "floqbog").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [name for name in floqbog.__all__ if name not in used] == []


def test_defaults_passed_by_the_package():
    """Every defaulted parameter of a package function is passed, by keyword or
    by position, by some call in the package or in ``scripts/``, so no option
    exists for the tests' sake alone.  A starred argument covers every position
    and a double-starred one every name; ``cli.entry(argv)`` is the tests' seam."""
    sources = sorted((ROOT / "src" / "floqbog").glob("*.py"))
    defaulted = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args.posonlyargs + node.args.args
                skip = 1 if args and args[0].arg in ("self", "cls") else 0
                first = len(args) - len(node.args.defaults)
                defaulted += [(node.name, i - skip, args[i].arg) for i in range(first, len(args))]
                defaulted += [(node.name, None, a.arg) for a, d in
                              zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None]
    passed = set()
    for path in sources + sorted((ROOT / "scripts").glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
            passed |= {(name, i) for i in range(starred[0] if starred else len(call.args))}
            passed |= {(name, kw.arg) for kw in call.keywords}
            if starred:
                passed.add((name, "*"))
    unused = [f"{f}({arg})" for f, pos, arg in defaulted if f != "entry" and not (
        {(f, arg), (f, None)} | ({(f, pos), (f, "*")} if pos is not None else set())) & passed]
    assert unused == []


def test_no_unused_imports():
    """Every imported name is referenced in its module; ``__init__.py`` re-exports are exempt."""
    unused = []
    for pattern in ("src/**/*.py", "tests/*.py", "scripts/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound = [alias.asname or alias.name for alias in node.names]
                else:
                    continue
                unused += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                           for name in bound if name not in used]
    assert unused == []


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: scipy is a test dependency of the oracles."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = ("import sys, floqbog, floqbog.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
