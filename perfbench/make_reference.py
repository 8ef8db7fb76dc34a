"""Regenerate ``reference_sweep_cold.json``, the sweep_cold output gate.

The reference comes from the legacy ``evaluate_point`` pipeline, which
the golden tests pin the Study facade against bit for bit.  Rerun this
only when an intended change to the routing results lands::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sweep import GRID, REFERENCE, describe, reference_cells  # noqa: E402


def main() -> int:
    document = {"config": describe(GRID), "cells": reference_cells(GRID)}
    REFERENCE.write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {REFERENCE} ({len(document['cells'])} cells)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
