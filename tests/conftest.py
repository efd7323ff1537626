"""Let the CLI subprocesses the tests start import critmac from src, as pytest does.

pyproject.toml puts src on pytest's own sys.path; a child Python sees only
PYTHONPATH, so src is prepended there too.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
