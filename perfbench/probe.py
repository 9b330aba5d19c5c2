"""One cold set-up in a fresh process, for the ``setup_s`` samples.

    python3 perfbench/probe.py --workload gpmetis-delaunay --seed 1

Imports the package, builds the workload's graph and runs the first pass,
then prints one JSON line: the set-up seconds and the checked outcome of
each call, which the parent compares with its own first pass.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, help="override the workload's graph scale")
    args = ap.parse_args(argv)
    try:
        workloads.prepare_process()
    except workloads.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.scale is not None:
        workload = dataclasses.replace(workload, scale=args.scale)
    setup = workloads.cold_setup(workload, args.seed)
    first = setup.first_pass
    print(json.dumps({
        "setup_s": setup.seconds,
        "outcomes": first.outcomes,
        "call_failed": first.call_failed,
        "problems": first.problems,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
