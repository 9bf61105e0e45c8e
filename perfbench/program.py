"""Imports the qsticker sources of the checkout this benchmark sits in.

The benchmark measures the code under ``src/`` next to it and nothing
else: without those sources it stops instead of falling back to an
installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def load():
    """Return the imported qsticker package from ``ROOT/src``."""
    if not (SRC / "qsticker" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qsticker sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsticker

    if Path(qsticker.__file__).resolve().parent != SRC / "qsticker":
        raise SystemExit(f"perfbench: imported qsticker from {qsticker.__file__}, "
                         f"not from {SRC}")
    return qsticker
