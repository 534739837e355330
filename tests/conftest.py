import os
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(__file__))

# the interpreters that tests start (`python -m lecnce.cli`, the demos) import this checkout's src/ too
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
