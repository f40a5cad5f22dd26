"""The README's quick start runs as written and gives what its comments claim.

The block runs statement by statement under the suite's warnings-as-errors
filter; the value of each bare expression is kept under its source text, so
the claims are checked on the very calls the README shows.
"""

import ast
import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def quick_start() -> dict:
    block = re.search(r"^## Quick start \(library\)\n\n```python\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README quick start", "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README quick start", "exec"), namespace)
    return values


def test_stability_claim(quick_start):
    report = quick_start["bf.check_stability(spec, a=1.0, b=2.0)"]
    assert report.is_stable
    assert report.c == pytest.approx(3.0, abs=1e-15)
    assert report.max_residual < 1e-15


def test_fullness_claim(quick_start):
    # non-full, on the line s - t = 0
    report = quick_start["bf.fullness_of_triplet(cp)"]
    assert report.is_full is False
    assert report.line == pytest.approx((1 / math.sqrt(2), -1 / math.sqrt(2), 0.0), abs=1e-15)


def test_limit_triplet_claim(quick_start):
    # ((1/3, 1/3), 0, delta_(1,1))
    trip = quick_start["bf.limit_triplet(arr)"]
    assert trip.v == pytest.approx((1 / 3, 1 / 3), abs=1e-12)
    assert trip.A.as_array().tolist() == [[0.0, 0.0], [0.0, 0.0]]
    atoms = trip.tau.atoms
    assert len(atoms) == 1 and trip.tau.radial is None
    assert atoms.mass_at((1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
