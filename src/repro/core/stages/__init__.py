"""Composable pipeline stages, content-addressed artifacts, sweeps.

The seven-step Zatel pipeline decomposed into typed :class:`Stage` nodes
with deterministic fingerprints, resolved from the sink by
:meth:`StageGraph.resolve` against a content-addressed
:class:`ArtifactStore`.  Every prediction runs through that one
executor; the :class:`SweepPlanner` resolves each sweep point's sink as
one task of the fault-tolerant group executor over a shared store, so
points that share stages share their artifacts.
"""

from .base import (
    Artifact,
    Stage,
    StageContext,
    StageCounters,
    StageGraph,
    StageNode,
    source,
)
from .concrete import (
    CombineStage,
    DownscaleStage,
    PartitionStage,
    ProfileStage,
    QuantizeStage,
    SamplingSimulateStage,
    SelectStage,
    SimulateGroupStage,
)
from .campaign import (
    Campaign,
    CampaignOutcome,
    CampaignPlanner,
    CampaignPoint,
    CampaignResult,
    QCGates,
    campaign_fingerprint,
    load_samplesheet,
    parse_samplesheet,
)
from .fingerprint import (
    frame_fingerprint,
    gpu_fingerprint,
    scene_fingerprint,
    stable_hash,
)
from .store import ArtifactStore, StoreStats
from .sweep import SweepOutcome, SweepPlanner, SweepPoint, SweepResult

__all__ = [
    "Artifact",
    "ArtifactStore",
    "Campaign",
    "CampaignOutcome",
    "CampaignPlanner",
    "CampaignPoint",
    "CampaignResult",
    "CombineStage",
    "DownscaleStage",
    "PartitionStage",
    "ProfileStage",
    "QCGates",
    "QuantizeStage",
    "SamplingSimulateStage",
    "SelectStage",
    "SimulateGroupStage",
    "Stage",
    "StageContext",
    "StageCounters",
    "StageGraph",
    "StageNode",
    "StoreStats",
    "SweepOutcome",
    "SweepPlanner",
    "SweepPoint",
    "SweepResult",
    "campaign_fingerprint",
    "frame_fingerprint",
    "gpu_fingerprint",
    "load_samplesheet",
    "parse_samplesheet",
    "scene_fingerprint",
    "source",
    "stable_hash",
]
