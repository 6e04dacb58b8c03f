#!/usr/bin/env python3
"""olnum benchmark: per-digit latency of on-line multiplication and division.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package under test is imported
from ``src/``, and without it the benchmark exits with status 2 and prints
no result.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``); the line before
it carries diagnostics.  README.md in this directory describes the
workloads and every metric.
"""

import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "olnum" / "__init__.py").is_file():
        print(f"perfbench: no olnum package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import olnum.cli  # noqa: F401  (the import is part of set-up time)
    import_s = perf_counter() - start
    import olnum

    if Path(olnum.__file__).resolve().parent != (SRC / "olnum").resolve():
        print(f"perfbench: imported olnum from {olnum.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import bench

    return bench.main(sys.argv[1:], import_s)


if __name__ == "__main__":
    raise SystemExit(main())
