"""Put the benchmark's flat modules on the import path for its tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
