"""No BLAS or LAPACK call in the package.

OpenBLAS worker threads keep spinning after a call returns, and LAPACK maps
~1.3 MiB on first use; the package's reductions are small enough to run as
plain numpy ufunc passes (sum, einsum), so a dot product, a matrix product
or anything from numpy.linalg is a regression.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spinmodel"
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def blas_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy") and (
                node.attr == "linalg" or node.attr in BLAS_CALLS
            ):
                yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            names = {alias.name for alias in node.names}
            if "linalg" in module or any("linalg" in n for n in names) or (
                module == "numpy" and names & (BLAS_CALLS | {"linalg"})
            ):
                yield node.lineno, f"import {module or ', '.join(sorted(names))}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_makes_no_blas_call(path):
    uses = list(blas_uses(ast.parse(path.read_text(), filename=str(path))))
    assert uses == [], f"{path.name}: {uses}"


@pytest.mark.parametrize("code", [
    "import numpy as np\nnp.linalg.eigh(a)",
    "import numpy as np\nnp.vdot(a, b)",
    "import numpy as np\nnp.dot(a, b)",
    "import numpy as np\nnp.inner(a, b)",
    "import numpy as np\nnp.matmul(a, b)",
    "import numpy as np\nnp.tensordot(a, b)",
    "c = a @ b",
    "a @= b",
    "from numpy.linalg import eigh",
    "from numpy import linalg",
    "from numpy import vdot",
])
def test_detector_sees_each_form(code):
    assert list(blas_uses(ast.parse(code)))
