"""Where the benchmark finds hdrbench and keeps its scratch files.

The benchmark runs from a plain source checkout with no install step: the
checkout's ``src/`` goes first on this process's import path and on the
``PYTHONPATH`` that codec child processes inherit.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
RAPL_COUNTER = Path("/sys/class/powercap/intel-rapl:0/energy_uj")


def use_source_tree() -> bool:
    """Put ``src/`` on the import paths; False when the checkout has no hdrbench."""
    if not (SRC / "hdrbench" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return True


def _l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def machine_facts() -> dict:
    """The facts a result depends on, recorded beside it."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rapl_readable": os.access(RAPL_COUNTER, os.R_OK),
        "machine": platform.machine(),
    }
