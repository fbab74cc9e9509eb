"""Locate the program under test in the checkout that holds the benchmark.

The benchmark lives in ``<root>/perfbench`` and measures the package in
``<root>/src/noncyclic``. Nothing is installed: the source tree is put first
on ``sys.path``, and the import is refused if it resolves anywhere else.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load():
    """Import ``noncyclic`` from the checkout; exit with status 1 if absent."""
    if not (SRC / "noncyclic" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}/noncyclic")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import noncyclic
    if Path(noncyclic.__file__).resolve().parent != SRC / "noncyclic":
        raise SystemExit(f"perfbench: noncyclic imported from "
                         f"{noncyclic.__file__}, not from {SRC}")
    return noncyclic
