"""Record the golden hashes that tests/test_golden.py compares against.

Usage, from the repository root, only when output changes on purpose:

    python3 tests/golden/regenerate.py

Solves every golden case once and rewrites tests/golden/hashes.json.
"""
import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_golden import HASHES, golden_cases, record  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as workdir:
        hashes = {name: record(argv)
                  for name, argv in sorted(golden_cases(workdir).items())}
    HASHES.write_text(json.dumps(hashes, indent=1) + "\n")
    print(f"{len(hashes)} cases written to {HASHES}")


if __name__ == "__main__":
    main()
