"""The runtime is standard-library-only, as the README promises."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "modaudit"


def test_every_absolute_import_is_stdlib():
    paths = sorted(SOURCES.glob("*.py"))
    assert {"cli.py", "ingest.py", "sor.py"} <= {p.name for p in paths}
    outside = {}
    for path in paths:
        modules = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules.add(node.module)
        foreign = sorted({m.split(".")[0] for m in modules} - sys.stdlib_module_names)
        if foreign:
            outside[path.name] = foreign
    assert outside == {}
