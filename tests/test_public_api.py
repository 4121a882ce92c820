"""No public code in src/dgae exists for the tests alone.

A public top-level function or class of a dgae module must be exported
in dgae.__all__, be referenced by name from other code in src/dgae, or
be named in the benchmark harness (dgaebench/*.py), which drives the
package from outside. Anything else only tests use, and belongs in the
tests.
"""

import ast
import re
from pathlib import Path

import dgae

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dgae"

# only tests read the sequence cache back; the cache stays until its
# removal is agreed (ROADMAP item 5)
ALLOWED = {"prior.read_sequences"}


def public_definitions():
    """{"module.name": defining statement} and, per top-level statement
    of every module, the names it references."""
    defs, refs = {}, []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                defs[f"{path.stem}.{stmt.name}"] = stmt
            nodes = list(ast.walk(stmt))
            refs.append((stmt, {n.id for n in nodes if isinstance(n, ast.Name)}
                         | {n.attr for n in nodes if isinstance(n, ast.Attribute)}))
    return defs, refs


def test_no_public_code_only_tests_use():
    defs, refs = public_definitions()
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "dgaebench").glob("*.py")))
    unused = []
    for qual, stmt in defs.items():
        name = qual.split(".", 1)[1]
        if qual in ALLOWED or name in dgae.__all__ \
                or any(name in names for other, names in refs if other is not stmt) \
                or re.search(rf"\b{name}\b", bench):
            continue
        unused.append(qual)
    assert unused == [], f"public code no package module or benchmark uses: {unused}"


def test_allowed_exceptions_still_exist():
    defs, _ = public_definitions()
    assert ALLOWED <= set(defs)
