"""Locate the checkout the benchmark runs in and import its ``repro``.

Stdlib only, so the benchmark's entry points can start their set-up
clock before anything heavy is imported.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Scratch state (service roots) and run outputs (records, spans); both
# live inside the checkout and are ignored by git.
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"


class CheckoutError(RuntimeError):
    """The benchmark is not running inside a checkout of the repo."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise CheckoutError(f"imported repro from {origin}, not from {SRC}")
    return repro
