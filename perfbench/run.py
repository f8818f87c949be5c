"""Benchmark entry point; run it from the root of a routecat checkout.

    python3 perfbench/run.py --workload docs-heavy --seed 1 --seconds 40 --trace 0

Prints a report to stderr and, as the last line of stdout, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-module ones.  The
program is run from ``src/`` of the current directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "routecat" / "cli.py").is_file():
        print(f"error: no routecat sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench
    from workloads import SMOKE, WORKLOADS

    workload = SMOKE if args.workload == SMOKE.name else WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    ctx = bench.Context(workload=workload, seed=args.seed, root=root, src=src)
    return bench.run(ctx, seconds=args.seconds, traced=bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
