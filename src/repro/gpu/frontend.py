"""Kernel front-end: compile pixel traces into warp op streams.

This is the bridge between the functional tracer and the timing simulator.
Given an ordered pixel list (the partitioner's output), it groups pixels
into warps of 32 consecutive entries — matching Zatel's choice of 32-wide
chunks/section blocks "so it maps nicely to a warp" — and lowers each
thread's trace into the lock-step slot structure::

    slot 0:        COMPUTE  (ray-gen setup [+ filter_shader overhead])
    slot 2k+1:     TRACE    (segment k traversal; lanes without segment k
                             are masked)
    slot 2k+2:     COMPUTE  (segment k's shader continuation)
    last slot:     STORE    (framebuffer write-back at reconvergence)

Filtered-out pixels (Zatel's ``filter_shader``, paper Listing 1) execute
only :data:`~repro.tracer.ptx.FILTER_EXIT_INSTRUCTIONS` in slot 0 and are
masked everywhere else.
"""

from __future__ import annotations

from array import array

from ..scene.scene import AddressMap
from ..tracer.ptx import FILTER_EXIT_INSTRUCTIONS
from ..tracer.trace import FrameTrace
from .warp import ComputeOp, StoreOp, TraceOp, WarpTask

__all__ = ["compile_kernel"]


def compile_kernel(
    frame: FrameTrace,
    pixels: list[tuple[int, int]],
    address_map: AddressMap,
    selected: set[tuple[int, int]] | None = None,
    warp_size: int = 32,
) -> list[WarpTask]:
    """Compile a pixel list into warp tasks.

    Args:
        frame: functional traces covering at least every *selected* pixel.
        pixels: the launch's pixels, in thread order; consecutive runs of
            ``warp_size`` become one warp.
        address_map: scene address layout for framebuffer stores.
        selected: if given, pixels outside this set are *filtered*: their
            threads run the two filter/exit instructions and retire (the
            paper's PTX injection).  ``None`` disables filtering (full run).
        warp_size: threads per warp.

    Returns:
        Warp tasks in launch order.

    Raises:
        KeyError: if a selected pixel has no trace in ``frame``.
    """
    filtering = selected is not None
    warps: list[WarpTask] = []
    for warp_id, base in enumerate(range(0, len(pixels), warp_size)):
        chunk = pixels[base : base + warp_size]
        warps.append(
            _compile_warp(
                frame, chunk, address_map, selected, warp_size, warp_id, filtering
            )
        )
    return warps


def _compile_warp(
    frame: FrameTrace,
    chunk: list[tuple[int, int]],
    address_map: AddressMap,
    selected: set[tuple[int, int]] | None,
    warp_size: int,
    warp_id: int,
    filtering: bool,
) -> WarpTask:
    """Lower one warp's pixels into the lock-step op-slot structure."""
    lanes = len(chunk)
    traces = []
    for pixel in chunk:
        if selected is not None and pixel not in selected:
            traces.append(None)  # filtered lane
        else:
            traces.append(frame.pixels[pixel])

    # Slot 0: ray-gen setup.  Filtered lanes execute just the injected
    # filter/exit pair; live lanes additionally pay that overhead when
    # filtering is enabled.
    overhead = FILTER_EXIT_INSTRUCTIONS if filtering else 0
    setup = [0] * warp_size
    for lane in range(lanes):
        trace = traces[lane]
        if trace is None:
            setup[lane] = FILTER_EXIT_INSTRUCTIONS
        else:
            setup[lane] = trace.raygen_instructions + overhead
    ops: list = [ComputeOp(tuple(setup))]

    max_segments = max(
        (len(t.segments) for t in traces if t is not None), default=0
    )
    for seg_index in range(max_segments):
        nodes: list[array | None] = [None] * warp_size
        tris: list[array | None] = [None] * warp_size
        shade = [0] * warp_size
        for lane in range(lanes):
            trace = traces[lane]
            if trace is None or seg_index >= len(trace.segments):
                continue
            segment = trace.segments[seg_index]
            nodes[lane] = segment.nodes
            tris[lane] = segment.tris
            shade[lane] = segment.shade_instructions
        ops.append(TraceOp(tuple(nodes), tuple(tris)))
        ops.append(ComputeOp(tuple(shade)))

    # Reconvergence point: every live lane writes its pixel.
    stores: list[int | None] = [None] * warp_size
    for lane in range(lanes):
        if traces[lane] is not None:
            px, py = chunk[lane]
            stores[lane] = address_map.pixel_address(px, py, frame.width)
    ops.append(StoreOp(tuple(stores)))

    live = sum(1 for t in traces if t is not None)
    return WarpTask(
        warp_id=warp_id,
        pixels=tuple(chunk),
        ops=ops,
        live_pixels=live,
        filtered_pixels=lanes - live,
    )
