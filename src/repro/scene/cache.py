"""Per-scenario invariant geometry, precomputed once per scene.

The scalar planner re-derives segment lengths, projection denominators,
and cumulative arc-lengths from raw centerline tuples on every rollout
step of every candidate of every tick.  All of that is invariant for the
life of a scene, so the batched stepper hoists it into a
:class:`SceneCache`: per-segment structure-of-arrays constants
(:class:`~repro.runtime.kernels.LaneSoA`), the planner's candidate-lane
lists, and a gather table that assembles a per-candidate
:class:`~repro.runtime.kernels.LaneBatch` with two fancy-indexing reads.

Caches are keyed by a **scene fingerprint** — a value-equality digest of
every segment's identity, centerline, width, and the lane-change edge
list, in insertion order (the scalar planner's ``locate`` tie-break and
adjacency enumeration both depend on that order, so it is part of the
scene's semantics).  Two maps with equal fingerprints are
interchangeable bit-for-bit; a mutated or regenerated map simply misses
and rebuilds.  Entries live in a small LRU so fleet campaigns that
cycle through hundreds of procgen scenes don't accumulate geometry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..runtime.kernels import LaneBatch, LaneSoA, lane_soa
from .lanes import LaneMap

#: Maximum number of distinct scenes kept alive at once.
_LRU_CAPACITY = 64

SceneFingerprint = Tuple


def scene_fingerprint(lane_map: LaneMap) -> SceneFingerprint:
    """Value-equality digest of a lane map's planning-relevant state.

    Captures, in insertion order: each segment's id, centerline, and
    width (the inputs to ``locate`` / ``point_at`` / lane progress), and
    each graph edge with its ``lane_change`` flag (the input to the
    planner's adjacency enumeration).  Insertion order is significant:
    ``locate`` breaks lateral-offset ties by dict order and
    ``_adjacent_lanes`` enumerates ``out_edges`` order, so reordering
    *is* a semantic change and must miss the cache.
    """
    segments = tuple(
        (sid, seg.centerline, seg.width_m)
        for sid, seg in lane_map._segments.items()
    )
    edges = tuple(
        (u, v, bool(data.get("lane_change")))
        for u, v, data in lane_map._graph.edges(data=True)
    )
    return (segments, edges)


@dataclass(frozen=True)
class SceneCache:
    """Precomputed invariant geometry for one lane map."""

    fingerprint: SceneFingerprint
    #: Segment ids in map insertion order.
    segment_ids: Tuple[str, ...]
    #: sid -> row index into the stacked arrays below.
    row_of: Dict[str, int]
    #: Stacked per-segment geometry, shape ``[n_segments, S_max]`` each.
    ax: np.ndarray
    ay: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    length: np.ndarray
    length_sq: np.ndarray
    cum: np.ndarray
    start_x: np.ndarray
    start_y: np.ndarray
    end_x: np.ndarray
    end_y: np.ndarray
    #: The source LaneSegment per row (scalar guard-band fallback).
    segments: Tuple[object, ...]
    #: sid -> the planner's candidate list ``[sid] + adjacent`` in
    #: ``out_edges`` order.
    candidates_of: Dict[str, Tuple[str, ...]]
    #: Memo of :meth:`candidate_lanes`, keyed ``(sid, n_accels)``.
    _candidate_lanes: Dict[Tuple[str, int], LaneBatch] = field(
        default_factory=dict, compare=False, repr=False
    )

    def lanes_for(self, sids: List[str]) -> LaneBatch:
        """Assemble a per-candidate :class:`LaneBatch` by gathering rows."""
        idx = np.fromiter(
            (self.row_of[s] for s in sids), dtype=np.intp, count=len(sids)
        )
        return LaneBatch(
            ax=self.ax[idx],
            ay=self.ay[idx],
            dx=self.dx[idx],
            dy=self.dy[idx],
            length=self.length[idx],
            length_sq=self.length_sq[idx],
            cum=self.cum[idx],
            start_x=self.start_x[idx],
            start_y=self.start_y[idx],
            end_x=self.end_x[idx],
            end_y=self.end_y[idx],
            segments=tuple(self.segments[i] for i in idx),
        )

    def candidate_lanes(self, sid: str, n_accels: int) -> LaneBatch:
        """The candidate rows of a plan from lane *sid*: each candidate
        lane repeated once per accel, lane-major (the planner's candidate
        order).  Built once per scene and reused, with the per-batch
        invariants it has derived."""
        key = (sid, n_accels)
        lanes = self._candidate_lanes.get(key)
        if lanes is None:
            lanes = self.lanes_for(
                [c for c in self.candidates_of[sid] for _ in range(n_accels)]
            )
            self._candidate_lanes[key] = lanes
        return lanes


def _build(lane_map: LaneMap, fingerprint: SceneFingerprint) -> SceneCache:
    sids = tuple(lane_map._segments)
    soas: List[LaneSoA] = []
    pad = 1
    for sid in sids:
        seg = lane_map._segments[sid]
        pad = max(pad, len(seg.centerline) - 1)
    for sid in sids:
        soas.append(lane_soa(lane_map._segments[sid], pad_to=pad))

    def stack(attr: str) -> np.ndarray:
        return np.stack([getattr(s, attr) for s in soas])

    graph = lane_map._graph
    candidates_of = {}
    for sid in sids:
        adjacent = tuple(
            v
            for _u, v, data in graph.out_edges(sid, data=True)
            if data.get("lane_change")
        )
        candidates_of[sid] = (sid,) + adjacent
    return SceneCache(
        fingerprint=fingerprint,
        segment_ids=sids,
        row_of={sid: i for i, sid in enumerate(sids)},
        ax=stack("ax"),
        ay=stack("ay"),
        dx=stack("dx"),
        dy=stack("dy"),
        length=stack("length"),
        length_sq=stack("length_sq"),
        cum=stack("cum"),
        start_x=np.array([s.start[0] for s in soas]),
        start_y=np.array([s.start[1] for s in soas]),
        end_x=np.array([s.end[0] for s in soas]),
        end_y=np.array([s.end[1] for s in soas]),
        segments=tuple(s.segment for s in soas),
        candidates_of=candidates_of,
    )


_lru: "OrderedDict[SceneFingerprint, SceneCache]" = OrderedDict()


def cache_for(lane_map: LaneMap) -> SceneCache:
    """The :class:`SceneCache` for *lane_map*, building on first sight.

    The fingerprint is recomputed on every call (cheap: a few tuple
    constructions over data the map already holds), so a mutated map —
    e.g. a regenerated procgen scene re-using a ``LaneMap`` instance —
    can never be served stale geometry.
    """
    fingerprint = scene_fingerprint(lane_map)
    cached = _lru.get(fingerprint)
    if cached is not None:
        _lru.move_to_end(fingerprint)
        return cached
    built = _build(lane_map, fingerprint)
    _lru[fingerprint] = built
    while len(_lru) > _LRU_CAPACITY:
        _lru.popitem(last=False)
    return built


def cache_stats() -> Dict[str, int]:
    """Introspection for tests: current LRU occupancy."""
    return {"entries": len(_lru), "capacity": _LRU_CAPACITY}


def clear_cache() -> None:
    """Drop all cached scenes (tests)."""
    _lru.clear()
