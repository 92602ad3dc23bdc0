"""Representative-pixel selection (Zatel step 5, Section III-E).

Two decisions per group:

1. **How many pixels** — equation (1): the traced fraction ``P`` is the
   group's mean quantized *coolness*, clamped to [0.3, 0.6] (colder groups
   under-saturate the GPU, so more of them must be traced to compensate).
2. **Which pixels** — the group is carved into *section blocks* (32x2 by
   default: 32 to map onto a warp, 2 to balance locality against
   divergence), each block is labelled with its dominant quantized color,
   and blocks are drawn until each color's quota is met.  Quotas follow one
   of three distributions:

   * ``uniform`` — match the group's own color histogram;
   * ``lintmp``  — weight colors by warmth ``c'_j`` (equation (2));
   * ``exptmp``  — weight colors by ``c'_j ** 5`` (equation (3)), stressing
     the hottest regions hardest.

   If a color runs out of blocks, the shortfall is filled with random
   leftover blocks, as the paper specifies.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .quantize import QuantizedHeatmap

__all__ = [
    "DISTRIBUTIONS",
    "SectionBlock",
    "compute_fraction",
    "make_section_blocks",
    "color_quotas",
    "select_pixels",
]

Pixel = tuple[int, int]

#: The three block-selection distributions of Section III-E.
DISTRIBUTIONS = ("uniform", "lintmp", "exptmp")

#: Equation (1)'s clamp bounds: "tracing less than 30% of pixels gives
#: intolerable error and more than 60% doesn't provide dramatic
#: improvements in accuracy".
MIN_FRACTION = 0.3
MAX_FRACTION = 0.6


@dataclass(frozen=True)
class SectionBlock:
    """A contiguous run of a group's pixels considered for selection.

    ``dominant_color`` is the quantized color covering the most of the
    block's pixels — the label quota accounting is done per block.
    """

    index: int
    pixels: tuple[Pixel, ...]
    dominant_color: int


def compute_fraction(
    quantized: QuantizedHeatmap,
    pixels: list[Pixel],
    min_fraction: float = MIN_FRACTION,
    max_fraction: float = MAX_FRACTION,
) -> float:
    """Equation (1): traced fraction = mean coolness, clamped.

    Args:
        quantized: the scene's quantized heatmap.
        pixels: the group's pixels.
        min_fraction / max_fraction: clamp bounds (0.3 / 0.6 per paper).

    Raises:
        ValueError: for an empty group.
    """
    if not pixels:
        raise ValueError("cannot compute a traced fraction for an empty group")
    coolness = quantized.coolness[quantized.labels_of(pixels)]
    # ``accumulate`` adds strictly left to right, so the fraction is
    # bit-equal to a per-pixel loop (``sum`` would add pairwise).
    fraction = float(np.add.accumulate(coolness)[-1]) / len(pixels)
    return min(max_fraction, max(min_fraction, fraction))


def make_section_blocks(
    pixels: list[Pixel],
    quantized: QuantizedHeatmap,
    block_width: int = 32,
    block_height: int = 2,
) -> list[SectionBlock]:
    """Carve a group's pixel list into section blocks (Fig. 8).

    The group's pixels arrive in chunk-row-major order (see
    :mod:`repro.core.partition`), so a block is simply the next
    ``block_width * block_height`` pixels.  For fine-grained groups with
    matching chunk geometry the blocks coincide with the chunks, exactly as
    Section III-E observes ("the fine-grained method already divides the
    scene into chunks").
    """
    if block_width <= 0 or block_height <= 0:
        raise ValueError("block dimensions must be positive")
    block_size = block_width * block_height
    labels = quantized.labels
    blocks: list[SectionBlock] = []
    for index, base in enumerate(range(0, len(pixels), block_size)):
        chunk = tuple(pixels[base : base + block_size])
        votes: dict[int, int] = defaultdict(int)
        for px, py in chunk:
            votes[int(labels[py, px])] += 1
        dominant = max(votes, key=lambda color: votes[color])
        blocks.append(SectionBlock(index=index, pixels=chunk, dominant_color=dominant))
    return blocks


def color_quotas(
    quantized: QuantizedHeatmap,
    pixels: list[Pixel],
    distribution: str,
) -> np.ndarray:
    """Per-color selection shares ``p_j`` summing to 1 (equations (2)-(3)).

    ``uniform`` matches the group's own histogram; the temperature-based
    distributions weight each color's share by its warmth ``c'_j`` (raised
    to the 5th power for ``exptmp``), which emphasizes "the pixels that
    take longer to trace, stressing the hardware components better".
    """
    if distribution not in DISTRIBUTIONS:
        raise ValueError(
            f"unknown distribution {distribution!r}; use one of {DISTRIBUTIONS}"
        )
    if not pixels:
        raise ValueError("cannot compute color quotas for an empty group")
    histogram = quantized.color_histogram(pixels).astype(np.float64)
    if distribution == "uniform":
        weights = histogram
    else:
        power = 1 if distribution == "lintmp" else 5
        warmth = quantized.warmth() ** power
        weights = histogram * warmth
    total = float(weights.sum())
    if total <= 0.0:
        # Degenerate (e.g. everything ice-cold): fall back to uniform.
        weights = histogram
        total = float(weights.sum())
    if total <= 0.0:  # unreachable for non-empty groups; guard anyway
        raise ValueError("color histogram is empty; cannot form quotas")
    return weights / total


def select_pixels(
    quantized: QuantizedHeatmap,
    pixels: list[Pixel],
    fraction: float,
    distribution: str = "uniform",
    block_width: int = 32,
    block_height: int = 2,
    seed: int = 0,
) -> set[Pixel]:
    """Choose the representative pixel subset of one group (Zatel step 5).

    Blocks of each color are drawn (in seeded-random order, since "selecting
    blocks out of viable options is random") until that color's quota is
    met; any shortfall is topped up from random leftover blocks.

    Returns the selected pixel set (a multiple of the block size, bounded
    by the group size).  Two budget invariants hold for any quota
    distribution, including degenerate ones (zero-weight sections, quota
    mass on colors that dominate no block):

    * never more than one block *over* the requested budget
      (``len(selected) < fraction * len(pixels) + block size``);
    * never *under* it while unselected blocks remain
      (``len(selected) >= min(fraction * len(pixels), len(pixels))``).

    Raises:
        ValueError: for an empty group or a fraction outside (0, 1].
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"traced fraction must be in (0, 1], got {fraction}")
    if not pixels:
        raise ValueError("cannot select pixels for an empty group")
    blocks = make_section_blocks(pixels, quantized, block_width, block_height)
    quotas = color_quotas(quantized, pixels, distribution)
    target_pixels = fraction * len(pixels)

    rng = random.Random(seed)
    by_color: dict[int, list[SectionBlock]] = defaultdict(list)
    for block in blocks:
        by_color[block.dominant_color].append(block)
    for members in by_color.values():
        rng.shuffle(members)

    selected: set[Pixel] = set()
    leftovers: list[SectionBlock] = []
    for color, members in by_color.items():
        color_target = quotas[color] * target_pixels
        taken = 0.0
        for i, block in enumerate(members):
            if taken >= color_target or len(selected) >= target_pixels:
                leftovers.extend(members[i:])
                break
            selected.update(block.pixels)
            taken += len(block.pixels)
        else:
            continue

    # Top up with random leftover blocks ("if there are not enough pixels
    # with the desired color, we randomly choose other section blocks").
    rng.shuffle(leftovers)
    for block in leftovers:
        if len(selected) >= target_pixels:
            break
        selected.update(block.pixels)
    return selected
