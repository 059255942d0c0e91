"""Child processes the tests start (`python -m acfd.cli ...`) import acfd from
this checkout's src, as pytest's `pythonpath` setting makes the test process do."""
import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
