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
