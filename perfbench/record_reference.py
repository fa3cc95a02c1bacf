#!/usr/bin/env python3
"""Record the reference digests the benchmark checks its outputs against.

    python3 perfbench/record_reference.py --seeds 20180101 0-31

For each seed it regenerates the basket, runs each workload's digested
unit once (no timing) and stores the digests in perfbench/reference.json,
keyed by seed, workload and the unit's parameters. Run it only on code
whose outputs are known to be right: the file is what later runs must
reproduce.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def seed_list(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def dump(reference: dict) -> str:
    """JSON with one line per seed, so a re-recorded seed is a one-line diff."""
    lines = [f"{json.dumps(seed)}: {json.dumps(entry, sort_keys=True)}" for seed, entry in sorted(reference.items())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", nargs="+", default=["20180101"], help="seeds or inclusive ranges like 0-31")
    args = parser.parse_args(argv)
    generator = run.prepare()
    import workloads

    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text())
    for seed in seed_list(args.seeds):
        entry = {}
        with run.workspace(generator, "reference", seed) as work:
            for name, cls in workloads.WORKLOADS.items():
                workers = run.campaign_workers(False) if cls is workloads.Campaign else 1
                workload = cls(work / "data", work, seed, workers=workers)
                workload.setup()
                result = workload.measure(1e-9)
                if result.failed or not result.digests:
                    print(f"seed {seed} {name}: {result.problems}", file=sys.stderr)
                    return 1
                entry[name] = {"unit": workload.unit(),
                               "digests": {key: d.stored() for key, d in result.digests.items()}}
        reference[str(seed)] = entry
        path.write_text(dump(reference))
        print(f"seed {seed}: recorded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
