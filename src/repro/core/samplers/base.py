"""The pluggable sampling engine's protocol and shared types.

Zatel's K-Means-heatmap pixel selection (Section III-E) is one point in
a much larger sampler design space.  A :class:`Sampler` turns one
group's pixel budget into a :class:`SampleDesign` — the concrete pixel
subsets to simulate plus how to extrapolate each — and the design may
carry *several replicate subsets*: simulating each replicate separately
yields independent metric estimates whose spread is a principled
variance estimate (Ekman's "repeated subsampling"), which is what lets
predictions report confidence intervals instead of bare points.

Contract highlights:

* ``design`` is a **pure function** of ``(quantized, pixels, fraction,
  seed)`` — same inputs give the identical design in any process, which
  the stage-fingerprint dedup, the job processes and the
  ``GroupExecutor`` workers all rely on;
* a single-replicate design (the default
  :class:`~.heatmap_kmeans.HeatmapKMeansSampler`) reproduces the
  historical pipeline byte-for-byte: one selection, one simulation,
  one linear extrapolation, no variance estimate;
* ``fingerprint_params`` feeds the stage content hashes, so two
  predictions with different samplers (or the same sampler under
  different knobs) can never alias in the
  :class:`~repro.core.stages.store.ArtifactStore`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar

__all__ = [
    "Pixel",
    "SampleDesign",
    "Sampler",
    "replicate_mean_and_variance",
]

Pixel = tuple[int, int]


@dataclass(frozen=True)
class SampleDesign:
    """One group's sampling plan: which pixels, simulated how.

    Attributes:
        replicates: one frozen pixel subset per simulation replicate.
            Replicates are simulated independently; their extrapolated
            metric estimates are averaged and their spread estimates the
            sampling variance.  A single replicate means "no variance
            estimate" (the paper's original design).
        fractions: the traced fraction each replicate's linear
            extrapolation divides by — the *nominal* group fraction for
            the single-replicate default (preserving byte-identity), the
            replicate's actual pixel share for multi-replicate samplers.
        sampler: the producing sampler's registry name.
        params: the sampler's JSON-able knob dict (provenance).
        seed: the group-level seed the design was drawn with.
    """

    replicates: tuple[frozenset[Pixel], ...]
    fractions: tuple[float, ...]
    sampler: str
    params: dict[str, Any]
    seed: int

    def __post_init__(self) -> None:
        if not self.replicates:
            raise ValueError("a sample design needs at least one replicate")
        if len(self.replicates) != len(self.fractions):
            raise ValueError(
                f"{len(self.replicates)} replicate(s) but "
                f"{len(self.fractions)} fraction(s)"
            )
        for fraction in self.fractions:
            if not 0.0 < fraction <= 1.0:
                raise ValueError(
                    f"replicate fractions must be in (0, 1], got {fraction}"
                )
        for subset in self.replicates:
            if not subset:
                raise ValueError("replicate pixel subsets must be non-empty")

    @property
    def replicate_count(self) -> int:
        return len(self.replicates)

    @property
    def selected(self) -> frozenset[Pixel]:
        """Union of all replicate subsets (the pixels touched overall)."""
        if len(self.replicates) == 1:
            return self.replicates[0]
        return frozenset().union(*self.replicates)

    @property
    def selected_count(self) -> int:
        """Total pixels *simulated* (replicates counted separately —
        the honest cost accounting; overlapping replicates each pay)."""
        return sum(len(subset) for subset in self.replicates)


class Sampler(ABC):
    """One pixel-selection strategy with a stable identity.

    Subclasses set ``name`` (the registry / CLI / spec identifier) and
    implement :meth:`design`.  Samplers must be cheap, picklable values:
    a predictor crosses into job processes and ``GroupExecutor``
    workers, which must reproduce the server's designs exactly.
    """

    name: ClassVar[str] = "sampler"
    #: Bump when the *algorithm* behind :meth:`design` changes — the knob
    #: dict cannot see code changes, and stale cached stage artifacts
    #: would otherwise survive them.
    version: ClassVar[str] = "1"

    @abstractmethod
    def design(
        self,
        quantized,
        pixels: list[Pixel],
        fraction: float,
        seed: int,
    ) -> SampleDesign:
        """Draw the group's sampling plan.

        Args:
            quantized: the scene's
                :class:`~repro.core.quantize.QuantizedHeatmap` (strata,
                coolness, and the raw heatmap ranking proxy live here).
            pixels: the group's pixels in chunk-row-major order.
            fraction: the group's traced-fraction budget from equation
                (1) (or an override); the design's *total* simulated
                pixel count should approximate ``fraction * len(pixels)``.
            seed: group-level seed; equal seeds must reproduce the
                design bit-for-bit in any process.
        """

    @abstractmethod
    def params(self) -> dict[str, Any]:
        """JSON-able knob dict — the payload provenance block."""

    def fingerprint_params(self) -> Any:
        """Identity contribution to stage content hashes."""
        return (self.name, self.version, tuple(sorted(self.params().items())))

    def provenance(self, seed: int) -> dict[str, Any]:
        """The reproducibility block carried on results and payloads."""
        return {"name": self.name, "params": self.params(), "seed": seed}


def replicate_mean_and_variance(
    estimates: list[dict[str, float]],
) -> tuple[dict[str, float], dict[str, float]]:
    """Mean estimate and variance *of that mean* across replicates.

    Given R independent replicate estimates per metric, the point
    estimate is their mean and its variance is the unbiased sample
    variance divided by R (Ekman's repeated-subsampling estimator).

    Raises:
        ValueError: with fewer than two replicates (the sample variance
            is undefined).
    """
    if len(estimates) < 2:
        raise ValueError("variance estimation needs at least two replicates")
    r = len(estimates)
    names = [name for name in estimates[0] if all(name in e for e in estimates)]
    means: dict[str, float] = {}
    variances: dict[str, float] = {}
    for name in names:
        values = [e[name] for e in estimates]
        mean = math.fsum(values) / r
        sample_var = math.fsum((v - mean) ** 2 for v in values) / (r - 1)
        means[name] = mean
        variances[name] = sample_var / r
    return means, variances
