"""The functional ray tracer (Vulkan-Sim "functional mode" stand-in).

This tracer renders pixels *and* records, for every ray, the BVH nodes
visited and triangles tested (a segment of the frame's
:class:`~repro.tracer.trace.FrameColumns`).
Those traces serve two Zatel roles:

1. **Profiling** — per-pixel cost drives the execution-time heatmap
   (the paper profiles on a hardware GPU; functional-mode profiling "yields
   comparable results" per Section III-B).
2. **Workload definition** — the GPU timing simulator replays the traces;
   it never re-runs light transport.

The tracer is a Whitted-style renderer with optional diffuse path bounces:
primary ray, per-light shadow rays at each hit, mirror reflections, and
russian-roulette-limited cosine-weighted bounces up to the scene's
``max_bounces``.  All sampling is deterministic per (seed, pixel, sample).

It runs as a *wavefront*: every live path of a batch advances one bounce
per iteration.  Primary rays are generated as one vectorized batch, each
depth's closest-hit queries run as one
:meth:`~repro.scene.bvh_packet.PackedBVH.intersect_arrays` call, and each
light's shadow rays as one ``occluded_arrays`` call.  Only the decisions
that are inherently sequential — per-path RNG draws and segment
bookkeeping — stay scalar.

Its output is pinned, byte for byte, to a one-ray-at-a-time reference
tracer kept with the tests (``tests/reference_tracer.py``):

* every vectorized expression maps onto the per-ray expression with the
  same operand order and grouping (camera ray setup, hit-point and
  normal finalization, shadow-ray construction, sky/shading radiance),
  so each lane computes the exact IEEE doubles a per-ray loop would;
* each path owns its own Mersenne Twister stream, seeded from (seed,
  pixel, sample), and consumes draws in a fixed order (jitter, then per
  depth the reflectivity / roulette / bounce draws).  Paths never share
  RNG state, so interleaving them across a wavefront cannot perturb any
  draw.  A stream is *pre-drawn* (:func:`_path_stream`) when its path
  first needs one — at once for a jittered sample, at its first
  continuation otherwise, so a path that never draws (the common case at
  one sample per pixel) never pays Mersenne seeding: the most values the
  path can consume (``2 + 4 * max_bounces`` when jittered, else 4 per
  remaining depth) are drawn from ``_random.Random(key)`` into a short
  list and the generator is dropped.  ``_random.Random`` is the C
  generator ``random.Random`` wraps, seeded through the same
  ``init_by_array`` without the pure-Python ``seed`` wrapper, so the
  values are the reference's, while a wave holds a few hundred bytes
  per path instead of a 2.5 KB generator state;
* diffuse bounce directions are computed on Python floats with
  ``vecmath.spherical_direction``'s operations in its order, so they
  carry its bits;
* each pixel's segments are laid out in path order (samples in order;
  per sample: primary/continuation segment, then one shadow segment per
  light).  A wave records its segments batch by batch as columns — one
  batch per closest-hit or shadow query, its records one flat uint32
  buffer with offsets — and :func:`_wave_columns` re-lays them pixel by
  pixel in bounded chunks, freeing each batch once re-laid, so no
  per-segment or per-ray object and no int64 array the size of the
  records is built.
"""

from __future__ import annotations

import _random
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat, starmap

import numpy as np

from ..scene.lights import DirectionalLight, PointLight
from ..scene.scene import Scene
from ..scene.vecmath import EPSILON, reflect
from .trace import KIND_CODES, RAYGEN_INSTRUCTIONS, FrameColumns, FrameTrace, SegmentKind

__all__ = ["RenderSettings", "FunctionalTracer", "trace_frame"]

#: Shader instructions for a miss (environment lookup + blend).
_MISS_SHADE_COST = 6
#: Shader instructions to fold one shadow-ray result into the pixel colour.
_SHADOW_SHADE_COST = 5
#: Extra instructions to set up a continuation (reflection/bounce) ray.
_CONTINUATION_COST = 8

#: Paths advanced per wavefront; bounds the packet kernels' working set.
_DEFAULT_WAVE_SIZE = 16384

#: Record entries scattered per step when a wave is re-laid pixel by
#: pixel; bounds that scatter's int64 temporaries at a few MB.
_RELAYOUT_CHUNK = 1 << 17

#: The two ends of the environment's vertical sky gradient.
_SKY_LOW = np.array([0.9, 0.9, 0.95], dtype=np.float64)
_SKY_HIGH = np.array([0.4, 0.6, 0.9], dtype=np.float64)

#: Ray defaults (see :class:`~repro.scene.geometry.Ray`).
_RAY_T_MIN = 1e-6
_INF = float("inf")

_SHADOW = KIND_CODES[SegmentKind.SHADOW]
_REFLECTION = KIND_CODES[SegmentKind.REFLECTION]
_BOUNCE = KIND_CODES[SegmentKind.BOUNCE]


def _ordered_records(records: list, order: np.ndarray):
    """Batches' per-ray records, re-laid in segment order ``order``.

    ``records`` are the batches' :class:`~repro.scene.bvh_packet.RayRecords`
    in emission order (one segment per ray); ``order`` lists emission
    indices in frame order.  Returns the per-segment counts in frame order
    and one uint32 buffer: each batch's flat buffer is scattered to its
    segments' destinations, so no per-ray array is ever built.  The
    scatter runs in chunks of about :data:`_RELAYOUT_CHUNK` entries, and
    ``records`` is emptied as it goes, so a batch's buffer is freed once
    scattered.
    """
    counts = np.concatenate([r.counts() for r in records])
    ordered = counts[order]
    starts = np.empty_like(counts)
    starts[order] = np.cumsum(ordered) - ordered
    out = np.empty(int(ordered.sum()), dtype=np.uint32)
    base = 0
    records.reverse()
    while records:
        r = records.pop()
        rays = len(r)
        offsets = r.offsets
        # Entry j of ray i lands at starts[i] + (j - offsets[i]).
        shift = starts[base:base + rays] - offsets[:-1]
        if r.flat.size > _RELAYOUT_CHUNK:
            cuts = np.searchsorted(
                offsets, range(_RELAYOUT_CHUNK, r.flat.size, _RELAYOUT_CHUNK)
            ).tolist()
            spans = zip([0, *cuts], [*cuts, rays])
        else:
            spans = ((0, rays),)
        for first, last in spans:
            lo, hi = offsets[first], offsets[last]
            if lo < hi:
                dest = np.repeat(
                    shift[first:last], counts[base + first:base + last]
                )
                dest += np.arange(lo, hi)
                out[dest] = r.flat[lo:hi]
        base += rays
    return ordered, out


def _wave_columns(batches: list, paths: int, spp: int) -> tuple:
    """A wave's segment batches as frame columns, pixel by pixel.

    Each batch is ``(path ids, kind codes, hit, shade, node records,
    triangle records)`` with one segment per path id.  Batches were
    emitted in path order (per depth: the primary or continuation
    segment, then one shadow segment per light), so a stable sort by path
    id lists each path's segments in order, and a pixel's ``spp`` paths
    are consecutive.  Returns segments per pixel, then the per-segment
    kind, hit and shade columns, node counts, nodes, triangle counts and
    triangles.  ``batches`` is emptied, so each record buffer is freed
    as soon as it is re-laid.
    """
    path_ids = np.concatenate([b[0] for b in batches])
    order = np.argsort(path_ids, kind="stable")
    per_pixel = np.bincount(path_ids, minlength=paths)
    if spp > 1:
        per_pixel = per_pixel.reshape(-1, spp).sum(axis=1)
    kind = np.concatenate(
        [np.broadcast_to(np.uint8(b[1]), b[0].shape) for b in batches]
    )[order]
    hit = np.concatenate([b[2] for b in batches])[order]
    shade = np.concatenate([b[3] for b in batches])[order]
    node_records = [b[4] for b in batches]
    tri_records = [b[5] for b in batches]
    batches.clear()
    node_counts, nodes = _ordered_records(node_records, order)
    tri_counts, tris = _ordered_records(tri_records, order)
    return (
        per_pixel, kind, hit, shade, node_counts, nodes, tri_counts, tris,
    )


def _concat(parts: list):
    """One array of ``parts``, without a copy when there is one part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _path_stream(key: int, draws: int) -> list[float]:
    """One path's uniform draws: the first ``draws`` of its Mersenne Twister.

    The values are drawn from ``_random.Random(key)`` up front and the
    generator is dropped.  They are stored last-first, so ``pop()`` hands
    them out in the generator's order; popping past the pre-drawn bound
    raises :class:`IndexError`, so an undercounted bound cannot yield a
    value that is not the generator's.
    """
    stream = list(starmap(_random.Random(key).random, repeat((), draws)))
    stream.reverse()
    return stream


def _cosine_direction(
    u: float, v: float, nx: float, ny: float, nz: float
) -> tuple[float, float, float]:
    """``vecmath.spherical_direction(u, v, normal)`` on Python floats.

    The same operations in the same order (the Duff et al. basis, then
    ``normalize``), so the result carries the same bits without building
    five small NumPy arrays per diffuse bounce.
    """
    r = math.sqrt(u)
    theta = 2.0 * math.pi * v
    x = r * math.cos(theta)
    y = r * math.sin(theta)
    z = math.sqrt(max(0.0, 1.0 - u))
    sign = math.copysign(1.0, nz)
    a = -1.0 / (sign + nz)
    b = nx * ny * a
    dx = x * (1.0 + sign * nx * nx * a) + y * b + z * nx
    dy = x * (sign * b) + y * (sign + ny * ny * a) + z * ny
    dz = x * (-sign * nx) + y * -ny + z * nz
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if norm < EPSILON:
        raise ValueError("cannot normalize a zero-length vector")
    return (dx / norm, dy / norm, dz / norm)


@dataclass(frozen=True)
class RenderSettings:
    """Immutable render parameters.

    The paper simulates LumiBench at 512x512 with 2 samples per pixel; our
    experiments default to smaller planes (the methodology is
    resolution-independent — see DESIGN.md) but the settings accept any size.
    """

    width: int = 64
    height: int = 64
    samples_per_pixel: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.samples_per_pixel <= 0:
            raise ValueError("samples_per_pixel must be positive")

    def pixel_count(self) -> int:
        return self.width * self.height

    @cached_property
    def _pixel_tuple(self) -> tuple[tuple[int, int], ...]:
        # cached_property stores into the instance __dict__, which is legal
        # on a frozen dataclass and keeps eq/hash (field-based) unaffected.
        return tuple(
            (x, y) for y in range(self.height) for x in range(self.width)
        )

    def all_pixels(self) -> tuple[tuple[int, int], ...]:
        """All plane coordinates in row-major order (cached, immutable)."""
        return self._pixel_tuple


class _ShadingTables:
    """Per-scene material properties unpacked into parallel arrays."""

    __slots__ = (
        "shade_cost",
        "reflectivity",
        "survive",
        "emissive",
        "albedo",
        "emission",
    )

    def __init__(self, scene: Scene) -> None:
        mats = [scene.materials[i] for i in range(len(scene.materials))]
        self.shade_cost = np.array([m.shade_cost for m in mats], dtype=np.int64)
        self.reflectivity = [m.reflectivity for m in mats]
        # The roulette's survival probability, ``float(np.max(albedo))``.
        self.survive = [float(np.max(m.albedo)) for m in mats]
        self.emissive = [m.is_emissive() for m in mats]
        self.albedo = np.array([m.albedo for m in mats], dtype=np.float64)
        self.emission = np.array([m.emission for m in mats], dtype=np.float64)


class FunctionalTracer:
    """Traces pixels of one scene under fixed render settings, in waves."""

    def __init__(
        self,
        scene: Scene,
        settings: RenderSettings,
        wave_size: int = _DEFAULT_WAVE_SIZE,
    ) -> None:
        self.scene = scene
        self.settings = settings
        self.wave_size = wave_size
        self._tables = _ShadingTables(scene)

    # ------------------------------------------------------------------
    # batched primary-ray generation
    # ------------------------------------------------------------------

    def _primary_batch(self, pxs, pys, jx, jy):
        """Vectorized ``Camera.primary_ray``: same ops, same grouping.

        ``jx``/``jy`` are per-path jitter arrays (or scalars).  Returns
        ``(origins, dirs)`` whose rows are bit-identical to the per-ray
        camera's rays.
        """
        settings = self.settings
        camera = self.scene.camera
        width = settings.width
        height = settings.height
        if pxs.size and (
            pxs.min() < 0 or pxs.max() >= width
            or pys.min() < 0 or pys.max() >= height
        ):
            raise ValueError(f"pixel outside {width}x{height} plane")
        aspect = width / height
        ndc_x = (2.0 * (pxs + jx) / width - 1.0) * aspect
        ndc_y = 1.0 - 2.0 * (pys + jy) / height
        thf = camera._tan_half_fov
        v = (
            camera._forward[None, :]
            + camera._right[None, :] * (ndc_x * thf)[:, None]
        ) + camera._up[None, :] * (ndc_y * thf)[:, None]
        norm = np.sqrt(
            v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]
        )
        dirs = v / norm[:, None]
        origins = np.broadcast_to(camera.position, dirs.shape)
        return origins, dirs

    # ------------------------------------------------------------------
    # batched shadow-ray construction
    # ------------------------------------------------------------------

    @staticmethod
    def _shadow_batch(light, shadow_org):
        """Vectorized ``light.shadow_ray`` for a batch of offset origins.

        Returns ``(dirs, t_min, t_max, dist)`` with rows bit-identical to
        the per-ray construction.  Unknown light types fall back to
        ``light.shadow_ray`` per ray.
        """
        n = shadow_org.shape[0]
        if isinstance(light, PointLight):
            to_light = light.position[None, :] - shadow_org
            dist = np.sqrt(
                to_light[:, 0] * to_light[:, 0]
                + to_light[:, 1] * to_light[:, 1]
                + to_light[:, 2] * to_light[:, 2]
            )
            dirs = to_light / dist[:, None]
            t_min = np.full(n, 1e-4)
            t_max = dist - 1e-4
        elif isinstance(light, DirectionalLight):
            dirs = np.broadcast_to(-light.direction, (n, 3))
            dist = np.full(n, _INF)
            t_min = np.full(n, 1e-4)
            t_max = np.full(n, _INF)
        else:
            dirs = np.empty((n, 3))
            dist = np.empty(n)
            t_min = np.empty(n)
            t_max = np.empty(n)
            for k in range(n):
                ray, d = light.shadow_ray(shadow_org[k])
                dirs[k] = ray.direction
                dist[k] = d
                t_min[k] = ray.t_min
                t_max[k] = ray.t_max
        return dirs, t_min, t_max, dist

    # ------------------------------------------------------------------
    # the wave loop
    # ------------------------------------------------------------------

    def _trace_wave(
        self,
        px_list: list[int],
        py_list: list[int],
        sample_list: list[int],
        collect_records: bool,
        compute_radiance: bool,
    ):
        """Advance one wave of (pixel, sample) paths to termination.

        Returns ``(records, colors)``: the wave's frame columns from
        :func:`_wave_columns` (``None`` unless ``collect_records``) and
        per-path radiance rows (``None`` unless ``compute_radiance``).
        """
        scene = self.scene
        packed = scene.packed_bvh
        tables = self._tables
        lights = scene.lights
        max_bounces = scene.max_bounces
        seed = self.settings.seed
        n = len(px_list)

        # Segment batches (see _wave_columns) and each path's kind code;
        # every path starts PRIMARY (code 0).
        batches: list = []
        path_kinds = np.zeros(n, dtype=np.uint8)
        streams: list[list[float] | None] = [None] * n
        colors = np.zeros((n, 3)) if compute_radiance else None
        throughput = np.ones((n, 3)) if compute_radiance else None

        # Jittered samples draw their jitter first from their stream; sample
        # 0 stays at (0.5, 0.5) and leaves its stream uncreated until a
        # continuation needs it.  A path draws at most 4 values per
        # continuation (reflect test, roulette, two direction draws).
        pxs = np.array(px_list, dtype=np.float64)
        pys = np.array(py_list, dtype=np.float64)
        if self.settings.samples_per_pixel > 1:
            jx = np.full(n, 0.5)
            jy = np.full(n, 0.5)
            for i, sample in enumerate(sample_list):
                if sample != 0:
                    stream = _path_stream(
                        (seed << 48)
                        ^ (py_list[i] << 28)
                        ^ (px_list[i] << 8)
                        ^ sample,
                        2 + 4 * max_bounces,
                    )
                    streams[i] = stream
                    jx[i] = stream.pop()
                    jy[i] = stream.pop()
        else:
            jx = 0.5
            jy = 0.5
        origins, dirs = self._primary_batch(pxs, pys, jx, jy)

        pids = np.arange(n)
        pid_list = list(range(n))
        t_min = np.full(n, _RAY_T_MIN)
        t_max = np.full(n, _INF)

        for depth in range(max_bounces + 1):
            if not pid_list:
                break
            res = packed.intersect_arrays(
                origins, dirs, t_min, t_max, want_records=collect_records
            )
            hit_mask = res.tri >= 0
            hit_rows = np.nonzero(hit_mask)[0]
            hit_rows_l = hit_rows.tolist()

            if collect_records:
                # One segment per ray; hit rows get their material's shade
                # cost below.
                shade = np.full(hit_mask.shape[0], _MISS_SHADE_COST)
                batches.append(
                    (pids, path_kinds[pids], hit_mask, shade, res.nodes, res.tris)
                )
            if compute_radiance:
                miss_rows = np.nonzero(~hit_mask)[0]
                if miss_rows.size:
                    d = dirs[miss_rows]
                    tsky = 0.5 * (d[:, 1] + 1.0)
                    sky = ((1.0 - tsky)[:, None] * _SKY_LOW) + (
                        tsky[:, None] * _SKY_HIGH
                    )
                    prows = pids[miss_rows]
                    colors[prows] = colors[prows] + throughput[prows] * sky

            if not hit_rows_l:
                break

            # Hit finalization: the per-ray tail of ``BVH.intersect``.
            th = res.t[hit_rows]
            hd = dirs[hit_rows]
            pts = origins[hit_rows] + hd * th[:, None]
            tri = res.tri[hit_rows]
            materials = packed.tri_material[tri]
            nrm = packed.tri_normal[tri]
            flip = (
                nrm[:, 0] * hd[:, 0]
                + nrm[:, 1] * hd[:, 1]
                + nrm[:, 2] * hd[:, 2]
            ) > 0.0
            nrm = np.where(flip[:, None], -nrm, nrm)
            mids = materials.tolist()
            # Offset origin shared by shadow and continuation rays
            # (``hit.point + hit.normal * 1e-4`` per ray).
            offset_org = pts + nrm * 1e-4
            hpids = pids[hit_rows]

            if collect_records:
                shade[hit_rows] = tables.shade_cost[materials]
            if compute_radiance:
                em = [k for k, m in enumerate(mids) if tables.emissive[m]]
                if em:
                    prows = hpids[em]
                    colors[prows] = colors[prows] + (
                        throughput[prows]
                        * tables.emission[[mids[k] for k in em]]
                    )

            # Next-event estimation: one batched shadow wave per light.
            for light in lights:
                sdir, stmin, stmax, dist = self._shadow_batch(
                    light, offset_org
                )
                occ = packed.occluded_arrays(
                    offset_org, sdir, stmin, stmax,
                    want_records=collect_records,
                )
                occluded = occ.occluded
                if collect_records:
                    # The last segment each hit path has recorded so far.
                    last_shade = np.full(hit_rows.shape[0], _SHADOW_SHADE_COST)
                    batches.append(
                        (hpids, _SHADOW, occluded, last_shade, occ.nodes, occ.tris)
                    )
                if compute_radiance:
                    lit = np.nonzero(~occluded)[0]
                    if lit.size:
                        cosv = (
                            nrm[lit, 0] * sdir[lit, 0]
                            + nrm[lit, 1] * sdir[lit, 1]
                            + nrm[lit, 2] * sdir[lit, 2]
                        )
                        cos_theta = np.where(cosv > 0.0, cosv, 0.0)
                        if isinstance(light, PointLight):
                            dd = dist[lit] * dist[lit]
                            irr = light.intensity[None, :] / np.where(
                                dd > 1e-6, dd, 1e-6
                            )[:, None]
                        else:
                            irr = light.intensity[None, :]
                        lmids = [mids[k] for k in lit.tolist()]
                        prows = hpids[lit]
                        colors[prows] = colors[prows] + (
                            throughput[prows]
                            * tables.albedo[lmids]
                            * irr
                            * cos_theta[:, None]
                        )

            if depth == max_bounces:
                break

            # Continuations: scalar decisions on each path's stream, same draw
            # order per path; at most 4 draws per remaining depth.
            reflectivity = tables.reflectivity
            survive_tab = tables.survive
            albedo_tab = tables.albedo
            next_rows: list[int] = []
            next_dirs: list = []
            next_pids: list[int] = []
            nrm_l = nrm.tolist()
            draws = 4 * (max_bounces - depth)
            for k, r in enumerate(hit_rows_l):
                pid = pid_list[r]
                m = mids[k]
                refl = reflectivity[m]
                stream = streams[pid]
                if refl > 0.0 or max_bounces >= 2:
                    if stream is None:
                        stream = _path_stream(
                            (seed << 48)
                            ^ (py_list[pid] << 28)
                            ^ (px_list[pid] << 8)
                            ^ sample_list[pid],
                            draws,
                        )
                        streams[pid] = stream
                if refl > 0.0 and stream.pop() < refl:
                    direction = reflect(dirs[r], nrm[k])
                    path_kinds[pid] = _REFLECTION
                    if compute_radiance:
                        throughput[pid] = throughput[pid] * albedo_tab[m]
                elif max_bounces >= 2:
                    survive = survive_tab[m]
                    if stream.pop() >= survive:
                        continue
                    direction = _cosine_direction(
                        stream.pop(), stream.pop(), *nrm_l[k]
                    )
                    path_kinds[pid] = _BOUNCE
                    if compute_radiance:
                        throughput[pid] = (
                            throughput[pid] * albedo_tab[m] / max(survive, 1e-6)
                        )
                else:
                    continue
                next_rows.append(k)
                next_dirs.append(direction)
                next_pids.append(pid)

            if not next_rows:
                break
            if collect_records:
                # The continuation ray's setup cost attaches to the
                # segment just recorded (the last shadow segment when
                # lights exist, the hit segment otherwise).
                if lights:
                    last_shade[next_rows] += _CONTINUATION_COST
                else:
                    shade[hit_rows[next_rows]] += _CONTINUATION_COST
            origins = offset_org[next_rows]
            dirs = np.array(next_dirs, dtype=np.float64)
            pids = np.array(next_pids)
            pid_list = next_pids
            m2 = len(next_rows)
            t_min = np.full(m2, _RAY_T_MIN)
            t_max = np.full(m2, _INF)

        # The streams are spent; free them before the re-layout's peak.
        del streams
        if not collect_records:
            return None, colors
        return (
            _wave_columns(batches, n, self.settings.samples_per_pixel),
            colors,
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def _iter_waves(self, pixels):
        """Yield ``(px_list, py_list, sample_list)`` wave batches.

        Pixels are never split across waves so each pixel's samples stay
        contiguous and in order.
        """
        spp = self.settings.samples_per_pixel
        pixels_per_wave = max(1, self.wave_size // spp)
        pixels = list(pixels)
        samples = list(range(spp))
        for start in range(0, len(pixels), pixels_per_wave):
            chunk = pixels[start:start + pixels_per_wave]
            if spp == 1:
                px_l = [p[0] for p in chunk]
                py_l = [p[1] for p in chunk]
                s_l = [0] * len(chunk)
            else:
                px_l = [p[0] for p in chunk for _ in samples]
                py_l = [p[1] for p in chunk for _ in samples]
                s_l = samples * len(chunk)
            yield px_l, py_l, s_l

    def trace_frame(
        self, pixels: list[tuple[int, int]] | None = None
    ) -> FrameTrace:
        """Trace a set of pixels (default: the whole plane).

        Returns a sealed :class:`FrameTrace` whose pixels keep the order
        of ``pixels`` (a repeated pixel is traced once, at its first
        place); radiance values are not computed — use
        :meth:`render_image` when colours are wanted.
        """
        settings = self.settings
        spp = settings.samples_per_pixel
        if pixels is None:
            pixels = settings.all_pixels()
        else:
            pixels = dict.fromkeys(pixels)
        xs, ys, waves = [], [], []
        for px_l, py_l, s_l in self._iter_waves(pixels):
            records, _ = self._trace_wave(
                px_l, py_l, s_l,
                collect_records=True, compute_radiance=False,
            )
            xs += px_l[::spp]
            ys += py_l[::spp]
            waves.append(records)
        if not waves:
            waves = [([],) * 8]
        columns = FrameColumns(
            settings.width, settings.height, xs, ys,
            np.full(len(xs), RAYGEN_INSTRUCTIONS),
            *(_concat([wave[k] for wave in waves]) for k in range(8)),
        )
        return FrameTrace.from_columns(columns, spp, self.scene.name)

    def render_image(self) -> np.ndarray:
        """Render the full plane to an ``(H, W, 3)`` float RGB image.

        No traversal records are collected.
        """
        settings = self.settings
        spp = settings.samples_per_pixel
        image = np.zeros((settings.height, settings.width, 3), dtype=np.float64)
        for px_l, py_l, s_l in self._iter_waves(settings.all_pixels()):
            _, colors = self._trace_wave(
                px_l, py_l, s_l,
                collect_records=False, compute_radiance=True,
            )
            # Sum each pixel's samples sequentially (per-pixel accumulation
            # order), then average.
            per_pixel = colors.reshape(-1, spp, 3)
            total = per_pixel[:, 0, :]
            for s in range(1, spp):
                total = total + per_pixel[:, s, :]
            total = total / spp
            xs = px_l[::spp]
            ys = py_l[::spp]
            image[ys, xs] = np.clip(total, 0.0, 1.0)
        return image


def trace_frame(
    scene: Scene,
    settings: RenderSettings,
    pixels: list[tuple[int, int]] | None = None,
) -> FrameTrace:
    """Convenience wrapper: trace ``pixels`` of ``scene`` under ``settings``."""
    return FunctionalTracer(scene, settings).trace_frame(pixels)
