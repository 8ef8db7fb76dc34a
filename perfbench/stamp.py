"""The environment a result was measured in."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _git_sha(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(root: Path) -> str:
    """SHA-256 over ``src/`` - the code identity where git is absent."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path) -> dict:
    from repro._optional import load_numpy

    numpy = load_numpy()
    resolved = "numpy" if numpy is not None else "scalar"
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
        # Where "auto" lands: construction (DynamicTopology, safety
        # classification) and route_batch both take numpy when importable.
        "backends": {"construction": resolved, "routing": resolved},
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }
