"""Extension bench — multi-GPU GP-metis (the paper's future work, Sec. V).

"The partitioning algorithm should be extended to multiple GPUs for
handling even larger graphs."  Measures how the modeled time and the
peer-transfer overhead scale with the device count when the graph does
not fit on one GPU.
"""

from __future__ import annotations

import pytest

from repro.gpmetis import MultiGpuGPMetis, MultiGpuOptions
from repro.graphs import load_dataset, validate_partition
from repro.runtime.machine import PAPER_MACHINE

DEVICE_COUNTS = [2, 4, 8]


@pytest.fixture(scope="module")
def oversized_setup():
    g = load_dataset("delaunay", scale=0.015)
    machine = PAPER_MACHINE.scaled_gpu_memory(int(g.nbytes * 1.1))
    return g, machine


@pytest.mark.parametrize("devices", DEVICE_COUNTS)
def test_multigpu_scaling(oversized_setup, devices):
    g, machine = oversized_setup
    p = MultiGpuGPMetis(MultiGpuOptions(num_devices=devices), machine=machine)
    res = p.partition(g, 64)
    validate_partition(g, res.part, 64, ubfactor=1.05)
    peer = res.clock.seconds_for(category="transfer_bytes")
    print(
        f"\ndevices={devices}: modeled {res.modeled_seconds * 1e3:.2f} ms, "
        f"peer traffic {peer * 1e3:.3f} ms, "
        f"mgpu levels {res.extras['multi_gpu_levels']}"
    )


def test_multigpu_handles_graph_too_big_for_one_device(oversized_setup):
    g, machine = oversized_setup
    from repro.exceptions import DeviceMemoryError
    from repro.gpmetis import GPMetis

    # Single-GPU falls back to CPU on this machine; multi-GPU keeps the
    # fine levels on the devices.
    single = GPMetis(machine=machine).partition(g, 64)
    multi = MultiGpuGPMetis(
        MultiGpuOptions(num_devices=4), machine=machine
    ).partition(g, 64)
    assert multi.extras["multi_gpu_levels"] >= 1
    validate_partition(g, multi.part, 64, ubfactor=1.05)
    validate_partition(g, single.part, 64, ubfactor=1.05)
