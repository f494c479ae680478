"""Run one workload of the ABAE benchmark and print its result.

    python3 perfbench/run.py --workload query --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; see perfbench/README.md.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from abaebench.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
