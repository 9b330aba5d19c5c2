"""PCIe transfers between host and the simulated device.

The paper counts CPU<->GPU transfer time in GP-metis's runtime (Table II
note: "this time includes the time to transfer the graph between CPU and
the GPU"), and its central design point is *avoiding* most transfers by
keeping the fine levels on the GPU.  Transfers use the interconnect's
alpha-beta model.  Every copy runs on a
:class:`~repro.gpusim.streams.Stream`: :func:`h2d`/:func:`d2h` on the
device's host stream (the host cursor), the async copies of
:mod:`repro.gpusim.streams` on a named stream's track, through the same
code.

When a :class:`~repro.faults.FaultInjector` rides the device clock, each
copy becomes a *reliable* transfer: injected failures and corruptions
(caught by an end-to-end verify of the copied buffer against its source)
raise :class:`~repro.exceptions.TransferError`, and the copy is retried
under the standard backoff policy before the error escapes to the
engine's degradation ladder.  Without an injector the fast path is
unchanged.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import TransferError
from ..faults.retry import with_retry
from ..runtime.machine import InterconnectSpec
from .device import Device
from .memory import DeviceArray

__all__ = ["CSR_ARRAYS", "h2d", "d2h", "transfer_graph_to_device"]

#: The four CSR arrays of a graph, in upload order.
CSR_ARRAYS = ("adjp", "adjncy", "adjwgt", "vwgt")


def _corrupt(buf: np.ndarray, seed_parts) -> None:
    """Flip one element of the copied buffer, deterministically."""
    flat = buf.reshape(-1)
    if flat.size == 0:
        return
    idx = int(np.random.default_rng(seed_parts).integers(flat.size))
    flat[idx] = ~flat[idx] if np.issubdtype(flat.dtype, np.integer) else -flat[idx] - 1


def _copy_once(stream, direction: str, src, net: InterconnectSpec, label: str):
    """One copy attempt on ``stream``: fire the ``transfer.<direction>``
    fault site, charge the alpha-beta cost, count it, emit its span, then
    verify the received buffer end to end against its source.

    ``src`` is the host array (``"h2d"``, returns a new device array) or
    the device array (``"d2h"``, returns a host copy).  A hard failure
    burns the wire latency first (the DMA engine started, then died); a
    corruption caught by the verify raises like a failure, so both are
    retryable.
    """
    h2d = direction == "h2d"
    if not h2d:
        src._require_live()
    dev = stream.device
    injector = getattr(dev.clock, "injector", None)
    fired = [] if injector is None else injector.fire(f"transfer.{direction}", label)
    for spec in fired:
        if spec.kind == "fail":
            stream.charge(
                "transfer_latency", net.pcie_latency_seconds, count=1.0,
                detail=f"{label} (failed)",
            )
            injector.raise_for(spec, label)
    darr = dev.adopt(src.copy(), label=label) if h2d else src
    nbytes = int(src.nbytes)
    start, _ = stream.charge(
        "transfer_latency", net.pcie_latency_seconds, count=1.0, detail=label
    )
    _, end = stream.charge(
        "transfer_bytes", net.pcie_seconds(nbytes) - net.pcie_latency_seconds,
        count=float(nbytes), detail=label,
    )
    stats = dev.stats
    if h2d:
        stats.h2d_transfers += 1
        stats.h2d_bytes += nbytes
        received, sent, salt, seq = darr.data, src, 0xC0, stats.h2d_transfers
    else:
        stats.d2h_transfers += 1
        stats.d2h_bytes += nbytes
        received, sent, salt, seq = darr.data.copy(), darr.data, 0xD2, stats.d2h_transfers
    profiler = getattr(dev.clock, "profiler", None)
    if profiler is not None:
        profiler.add_span(
            f"{direction}.{label}" if label else direction, start, end,
            category="transfer", direction=direction, bytes=nbytes,
            **stream.span_attrs,
        )
    for spec in fired:
        if spec.kind == "corrupt":
            _corrupt(received, [salt, injector.plan.seed, seq])
    if fired and not np.array_equal(received, sent):
        if h2d:
            # Release the garbage allocation before surfacing the failed
            # (retryable) copy.
            darr.free()
        injector.raise_for(next(s for s in fired if s.kind == "corrupt"), label)
    return darr if h2d else received


def reliable_copy(stream, direction: str, src, net: InterconnectSpec, label: str):
    """A copy on ``stream`` with transient injected faults retried under
    the standard backoff; the final error (or a device OOM, which
    retrying cannot fix) propagates.  The one implementation behind the
    synchronous copies here and the async ones in
    :mod:`repro.gpusim.streams`."""
    return with_retry(
        lambda: _copy_once(stream, direction, src, net, label),
        stream.device.clock, f"transfer.{direction}",
        retryable=(TransferError,), detail=label, stream=stream,
    )


def h2d(
    dev: Device, host: np.ndarray, net: InterconnectSpec, label: str = ""
) -> DeviceArray:
    """cudaMemcpy host->device on the host stream: allocates and charges
    the PCIe model."""
    return reliable_copy(dev.host_stream, "h2d", host, net, label)


def d2h(darr: DeviceArray, net: InterconnectSpec, label: str = "") -> np.ndarray:
    """cudaMemcpy device->host on the host stream; the device allocation
    stays live until freed."""
    return reliable_copy(darr.device.host_stream, "d2h", darr, net, label)


def transfer_graph_to_device(dev: Device, graph, net: InterconnectSpec) -> dict:
    """Copy the four CSR arrays of a graph to the device (paper Sec. III:
    "Initially, the graph information is copied to the GPU's global
    memory")."""
    return {
        name: h2d(dev, getattr(graph, name), net, label=f"csr.{name}")
        for name in CSR_ARRAYS
    }
