"""The library runs on the standard library alone.

Every import in src/dpcolor, lazy ones inside functions included, is either
relative (the package itself) or names a top-level module of the standard
library.  A third-party import would break the installed script and the
benchmark on a bare interpreter.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dpcolor"


def _absolute_imports():
    """(file name, top-level module) for every absolute import."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name.partition(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((path.name, node.module.partition(".")[0]))
    return found


def test_every_import_is_stdlib_or_relative():
    found = _absolute_imports()
    outside = [(name, module) for name, module in found
               if module not in sys.stdlib_module_names]
    assert outside == []
    # the walk reaches imports inside functions: cli.cmd_census's worker pool
    assert ("cli.py", "concurrent") in found
