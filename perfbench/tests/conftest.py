import sys
from pathlib import Path

# The benchmark imports almprec from the checkout it sits in.
_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
