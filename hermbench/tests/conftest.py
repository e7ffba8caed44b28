import sys
from pathlib import Path

HERMBENCH = Path(__file__).resolve().parents[1]
ROOT = HERMBENCH.parent
for path in (HERMBENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
