"""Rewrite the golden estimate files under ``tests/golden/`` from this checkout.

Usage, from the root of a checkout:

    python tests/regenerate_golden.py

Each case of ``test_golden.CASES`` is simulated and replayed with the
package in ``src/``; the script prints, per file, the largest change from the
file it replaces.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from test_golden import CASES, estimate_file, golden_path, largest_difference  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            text = estimate_file(name, Path(tmp)).read_text()
            path = golden_path(name)
            if not path.exists():
                change = "new file"
            elif path.read_text() == text:
                change = "unchanged"
            else:
                change = largest_difference(path.read_text(), text)
            path.write_text(text)
            print(f"{path.name}: {change}")


if __name__ == "__main__":
    main()
