"""Every name that ``bifree`` exports earns its place.

A name passes when library or CLI code uses it, when the benchmark tracer or
a benchmark workload names it, or when the README's API section lists it.
An export that meets none of these is a definition only the tests need: it
belongs in ``tests/oracles.py``, or nowhere.
"""

import ast
import re
import types
from pathlib import Path

import bifree

ROOT = Path(__file__).resolve().parent.parent


def library_names() -> set[str]:
    """Every name that code of ``src/bifree`` reads, as a variable or an attribute.

    ``__init__`` only re-exports, and a definition is not a use of itself.
    """
    used = set()
    for path in (ROOT / "src" / "bifree").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def bench_text() -> str:
    paths = [ROOT / "bench" / "tracing.py", *sorted((ROOT / "bench").glob("wl_*.py"))]
    return "\n".join(p.read_text() for p in paths)


def readme_api_names() -> set[str]:
    """The first identifier of each code span in the README's "## API" section."""
    section = re.search(r"^## API\n(.*?)(?=^## |\Z)", (ROOT / "README.md").read_text(), re.M | re.S)
    return set() if section is None else set(re.findall(r"`([A-Za-z_]\w*)", section.group(1)))


def test_every_export_is_used_traced_or_documented():
    exports = [n for n, v in vars(bifree).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    used, bench, documented = library_names(), bench_text(), readme_api_names()
    idle = [
        n for n in sorted(exports)
        if n not in used and n not in documented and not re.search(rf"\b{n}\b", bench)
    ]
    assert not idle, f"exported but neither used, traced nor in the README API section: {idle}"
