"""Put `tools/` on sys.path, so that tests import each tool as one module."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
