"""pcedit benchmark: whole CLI commands on seeded synthetic clouds.

    python3 perfbench/run.py --workload scan_manybox --seed 1 --seconds 30 \
        --trace 0

Run it from a checkout of the repository; pcedit is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  A
fuller record of the run goes to ``.bench_work/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from launcher import Launcher


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="scan_manybox, scan_bigbox, convert_binary or "
                             "convert_ascii")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure passes for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: about 10k points, for the tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "pcedit" / "cli.py").is_file():
        print(f"perfbench: no pcedit sources under {root / 'src'}; run the "
              "benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    # started before numpy is imported, so children's peak RSS is their own
    with Launcher() as launcher:
        sys.path.insert(0, str(root / "src"))
        import bench
        result = bench.run(args, root, launcher)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
