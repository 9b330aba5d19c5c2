#!/usr/bin/env python
"""Smoke test of the async-streams overlap schedule (``make overlap-smoke``).

Runs GP-metis on every Table I analogue dataset twice — once with the
default schedule, whose last coarse-level download rides a copy stream
behind that level's contraction, once with ``async_streams=False`` (the
serial differential oracle) — and asserts on each:

* the partition vectors are byte-identical (overlap changes *when* time
  passes, never *what* is computed);
* end-to-end simulated seconds strictly improve with streams on;
* the exposed PCIe seconds (transfer time not hidden behind kernels)
  shrink, and the hw phase timeline's slice invariant
  ``gpu + pcie + cpu - overlapped == seconds`` validates.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.graphs.datasets import PAPER_DATASETS  # noqa: E402
from repro.obs.gate import GATE_PAPER_SCALES  # noqa: E402
from repro.obs.hw import validate_hw_section  # noqa: E402

K = 16
SEED = 7


def run(graph, async_streams: bool):
    return repro.partition(
        graph, K, method="gp-metis", seed=SEED, gpu_threshold_min=2048,
        async_streams=async_streams,
    )


def main() -> int:
    ok = True
    for name, scale in GATE_PAPER_SCALES.items():
        graph = PAPER_DATASETS[name].build(scale=scale, seed=SEED)
        on = run(graph, True)
        off = run(graph, False)

        if not np.array_equal(on.part, off.part):
            print(f"FAIL {name}: partition vectors differ with streams on/off")
            ok = False
        win = off.modeled_seconds - on.modeled_seconds
        if win <= 0.0:
            print(
                f"FAIL {name}: streams did not improve total "
                f"({on.modeled_seconds:.8f} vs {off.modeled_seconds:.8f})"
            )
            ok = False

        hw_on = getattr(on.profiler, "hw", None)
        hw_off = getattr(off.profiler, "hw", None)
        if hw_on is None or hw_off is None:
            print(f"FAIL {name}: run did not attach an hw section")
            ok = False
            continue
        try:
            validate_hw_section(hw_on)
            validate_hw_section(hw_off)
        except ValueError as exc:
            print(f"FAIL {name}: hw section invalid: {exc}")
            ok = False
        exp_on = hw_on["pcie"]["exposed_seconds"]
        exp_off = hw_off["pcie"]["exposed_seconds"]
        if exp_on >= exp_off:
            print(
                f"FAIL {name}: exposed PCIe seconds did not shrink "
                f"({exp_on:.3e} vs {exp_off:.3e})"
            )
            ok = False
        print(
            f"{name}: cut={on.quality(graph).cut} "
            f"total {off.modeled_seconds:.6f} -> {on.modeled_seconds:.6f} s "
            f"(win {win:.2e}), exposed pcie {exp_off:.2e} -> {exp_on:.2e} s, "
            f"overlap {hw_on['pcie']['overlap_ratio']:.1%}"
        )

    print("overlap smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
