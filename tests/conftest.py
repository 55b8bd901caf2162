"""The CLI tests start ``python -m stresstruss`` in a child process; give it
the source tree that pytest's ``pythonpath`` setting gives this one."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
