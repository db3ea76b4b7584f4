import sys
from pathlib import Path

# The benchmark measures the package in this checkout's src/, never an installed one.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
