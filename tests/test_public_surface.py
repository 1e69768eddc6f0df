"""Every public name has a user outside the tests.

A function, field or method that only tests call is code the library keeps
for nothing.  Each name in dpcolor.__all__, and each public method of
Multigraph and Cover, must be referenced, as an AST Name or Attribute, from
the library's own modules (not __init__.py, which only re-exports), the
demos or the benchmark.  In bench/ a string constant counts too: the tracer
finds the functions it wraps by name.
"""

import ast
import inspect
from pathlib import Path

import dpcolor
from dpcolor import Cover, Multigraph

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names():
    names = set()
    files = [p for p in sorted((ROOT / "src" / "dpcolor").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py"))
    bench = sorted((ROOT / "bench").glob("*.py"))
    for path in files + bench:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (path in bench and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                names.add(node.value)
    return names


def _public_surface():
    surface = [(name, name) for name in dpcolor.__all__]
    for cls in (Multigraph, Cover):
        surface += [(f"{cls.__name__}.{name}", name)
                    for name, member in vars(cls).items()
                    if not name.startswith("_")
                    and (inspect.isfunction(member)
                         or isinstance(member, (classmethod, staticmethod)))]
    return surface


def test_every_public_name_has_a_user_outside_the_tests():
    used = _referenced_names()
    unused = [shown for shown, name in _public_surface() if name not in used]
    assert unused == [], f"public but used only by tests: {unused}"
