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
from ..tracer.trace import FrameColumns, FrameTrace
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
    records = frame.columns()
    warps: list[WarpTask] = []
    for warp_id, base in enumerate(range(0, len(pixels), warp_size)):
        chunk = pixels[base : base + warp_size]
        warps.append(
            _compile_warp(
                records, frame.width, chunk, address_map, selected,
                warp_size, warp_id, filtering,
            )
        )
    return warps


def _compile_warp(
    records: FrameColumns,
    width: int,
    chunk: list[tuple[int, int]],
    address_map: AddressMap,
    selected: set[tuple[int, int]] | None,
    warp_size: int,
    warp_id: int,
    filtering: bool,
) -> WarpTask:
    """Lower one warp's pixels into the lock-step op-slot structure.

    Lanes name segments of ``records`` by id; no record is copied.
    """
    lanes = len(chunk)
    # Each lane's (raygen instructions, segment ids), or None when filtered.
    slots = [
        None if selected is not None and pixel not in selected
        else records.slot(pixel)
        for pixel in chunk
    ]

    # Slot 0: ray-gen setup.  Filtered lanes execute just the injected
    # filter/exit pair; live lanes additionally pay that overhead when
    # filtering is enabled.
    overhead = FILTER_EXIT_INSTRUCTIONS if filtering else 0
    setup = [0] * warp_size
    spans: list[range] = []
    for lane, slot in enumerate(slots):
        if slot is None:
            setup[lane] = FILTER_EXIT_INSTRUCTIONS
            spans.append(range(0))
        else:
            raygen, span = slot
            setup[lane] = raygen + overhead
            spans.append(span)
    ops: list = [ComputeOp(tuple(setup))]

    shade_of = records.shade_of
    for seg_index in range(max(map(len, spans), default=0)):
        segments = array("q", [-1]) * warp_size
        shade = [0] * warp_size
        for lane, span in enumerate(spans):
            if seg_index < len(span):
                segment = segments[lane] = span[seg_index]
                shade[lane] = shade_of(segment)
        ops.append(TraceOp.from_records(records, segments))
        ops.append(ComputeOp(tuple(shade)))

    # Reconvergence point: every live lane writes its pixel.
    stores: list[int | None] = [None] * warp_size
    for lane in range(lanes):
        if slots[lane] is not None:
            px, py = chunk[lane]
            stores[lane] = address_map.pixel_address(px, py, width)
    ops.append(StoreOp(tuple(stores)))

    live = sum(1 for slot in slots if slot is not None)
    return WarpTask(
        warp_id=warp_id,
        pixels=tuple(chunk),
        ops=ops,
        live_pixels=live,
        filtered_pixels=lanes - live,
    )
