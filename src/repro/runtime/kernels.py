"""Exact-arithmetic vectorized kernels for the batched multi-drive stepper.

The batched stepper (:mod:`repro.runtime.batched`) advances N concurrent
drives per tick by evaluating every drive's MPC candidate rollout in one
structure-of-arrays pass.  The speed comes from eliminating Python
bytecode, dataclass construction, and method dispatch across the
``drives x lanes x accels x horizon`` loop nest — **not** from changing
arithmetic: every kernel in this module replicates the scalar planner's
floating-point operations bit for bit, in the same order, so a batched
drive produces the identical :func:`~repro.testing.invariants.drive_fingerprint`.

Three exactness rules, established empirically on this platform and
enforced by ``tests/runtime/test_kernels.py``:

* ``np.sin`` / ``np.cos`` / ``np.sqrt`` / ``np.fmod`` match their
  ``math`` counterparts bit for bit — safe to vectorize directly.
* ``np.hypot`` / ``np.arctan2`` / ``np.tan`` do **not** (they round
  differently from CPython's ``math`` in a fraction of cases).  Where
  the result feeds *values* into the trajectory (pure-pursuit geometry,
  the bicycle-model heading update), we evaluate ``math.hypot`` /
  ``math.atan2`` / ``math.tan`` element-wise via :func:`exact_hypot` /
  :func:`exact_atan2` / :func:`exact_tan`.
* Where a ``hypot`` feeds only a *comparison* (nearest-segment selection
  in lane progress, clearance-vs-margin in collision checking), we use
  fast ``np.hypot`` and re-evaluate exactly only the elements that land
  inside a guard band around the decision boundary (``np.hypot`` is
  within 1 ulp of ``math.hypot``, so a decision can only flip inside
  that band).  The band is ~1e3 ulps wide — conservatively larger than
  the rounding difference, still hit essentially never.

Order-sensitive reductions (the 15-term speed-error sum, sequential
segment walks) loop the small axis sequentially and vectorize across the
batch axis, so summation order per drive is identical to the scalar
path's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Relative half-width of the exactness guard band around comparison
#: boundaries.  ``np.hypot`` differs from ``math.hypot`` by at most
#: 1 ulp (~2.2e-16 relative); 1e-12 is ~4500x wider.
_BAND_REL = 1e-12

# Constants of the per-step kernels as 0-d arrays: numpy applies a 0-d
# float64 operand with less per-call overhead than a Python float, and
# the IEEE result is the same.
_ZERO = np.array(0.0)
_HALF = np.array(0.5)
_ONE = np.array(1.0)
_PI = np.array(math.pi)
_TWO_PI = np.array(2.0 * math.pi)
_MIN_LOOKAHEAD = np.array(1e-6)


# -- exact element-wise transcendentals ----------------------------------------


def _exact2(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-argument *fn* (a ``math`` function) element-wise over
    broadcast float64 *a*, *b*.  Same-shape 1-D arrays, the rollout's
    case, go straight from ``tolist()`` into ``np.fromiter``."""
    if (
        type(a) is np.ndarray
        and type(b) is np.ndarray
        and a.ndim == 1
        and a.shape == b.shape
    ):
        return np.fromiter(
            map(fn, a.tolist(), b.tolist()),
            dtype=np.float64,
            count=a.shape[0],
        )
    a, b = np.broadcast_arrays(
        np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    )
    out = np.fromiter(
        map(fn, a.ravel().tolist(), b.ravel().tolist()),
        dtype=np.float64,
        count=a.size,
    )
    return out.reshape(a.shape)


def exact_hypot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``math.hypot`` element-wise: bit-identical to the scalar path.

    ``np.hypot`` rounds differently from CPython's ``math.hypot`` in
    ~0.6% of cases, which would silently fork a batched trajectory from
    its scalar reference.
    """
    return _exact2(math.hypot, a, b)


def exact_atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``math.atan2`` element-wise (``np.arctan2`` is not bit-equal)."""
    return _exact2(math.atan2, y, x)


def exact_tan(a: np.ndarray) -> np.ndarray:
    """``math.tan`` element-wise (``np.tan`` is not bit-equal)."""
    if type(a) is np.ndarray and a.ndim == 1:
        return np.fromiter(
            map(math.tan, a.tolist()), dtype=np.float64, count=a.shape[0]
        )
    a = np.asarray(a, dtype=np.float64)
    out = np.fromiter(
        map(math.tan, a.ravel().tolist()), dtype=np.float64, count=a.size
    )
    return out.reshape(a.shape)


# -- lane geometry in structure-of-arrays form ---------------------------------


@dataclass(frozen=True)
class LaneSoA:
    """One lane's centerline as padded per-segment constant arrays.

    All values are computed once with scalar ``math`` arithmetic (see
    :mod:`repro.scene.cache`), so they are bit-identical to what the
    scalar planner recomputes every tick.  Zero-length padding rows are
    exact no-ops for both the progress walk (skipped, ``cum + 0.0``)
    and the point walk (``seg_len > 0`` guard fails, ``remaining - 0.0``).
    """

    #: Segment start points, deltas, lengths; shape ``[S]`` each.
    ax: np.ndarray
    ay: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    length: np.ndarray
    #: ``seg_len ** 2`` per segment (the scalar's projection denominator).
    length_sq: np.ndarray
    #: Left-fold prefix sums of ``length`` (the scalar's ``cumulative``).
    cum: np.ndarray
    start: Tuple[float, float]
    end: Tuple[float, float]
    #: The source segment (scalar fallback for guard-band near-ties).
    segment: "object"


def lane_soa(segment, pad_to: Optional[int] = None) -> LaneSoA:
    """Build a :class:`LaneSoA` from a :class:`~repro.scene.lanes.LaneSegment`.

    Per-segment constants use the exact arithmetic of the scalar walks:
    ``math.hypot`` lengths, ``** 2`` squares, sequential ``+=`` prefix
    sums.
    """
    pts = segment.centerline
    n = len(pts) - 1
    size = n if pad_to is None else pad_to
    if size < n:
        raise ValueError("pad_to smaller than segment count")
    ax = np.zeros(size)
    ay = np.zeros(size)
    dx = np.zeros(size)
    dy = np.zeros(size)
    length = np.zeros(size)
    length_sq = np.ones(size)  # padded denominator: masked, never 0-div
    cum = np.zeros(size)
    cumulative = 0.0
    for j in range(n):
        (x0, y0), (x1, y1) = pts[j], pts[j + 1]
        ax[j], ay[j] = x0, y0
        dx[j], dy[j] = x1 - x0, y1 - y0
        seg_len = math.hypot(x1 - x0, y1 - y0)
        length[j] = seg_len
        length_sq[j] = seg_len ** 2 if seg_len > 0 else 1.0
        cum[j] = cumulative
        cumulative += seg_len
    return LaneSoA(
        ax=ax,
        ay=ay,
        dx=dx,
        dy=dy,
        length=length,
        length_sq=length_sq,
        cum=cum,
        start=pts[0],
        end=pts[-1],
        segment=segment,
    )


@dataclass(frozen=True)
class LaneBatch:
    """Per-candidate lane geometry: row ``i`` is candidate ``i``'s lane.

    Shapes are ``[B, S]`` (``B`` candidates, ``S`` padded segments) for
    the per-segment arrays and ``[B]`` for the endpoints.
    """

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
    segments: Tuple["object", ...]

    @property
    def width(self) -> int:
        return self.ax.shape[0]

    # Per-batch invariants of the walks, derived once per rollout rather
    # than once per step (``cached_property`` writes the instance dict,
    # which a frozen dataclass allows).

    @cached_property
    def positive(self) -> np.ndarray:
        """``length > 0`` per segment: the walks' real-segment test."""
        return self.length > 0

    @cached_property
    def all_positive(self) -> bool:
        """No zero-length segment (real or padding) in the batch."""
        return bool(self.positive.all())

    @cached_property
    def length_or_one(self) -> np.ndarray:
        """``length`` with zero lengths replaced by 1.0: a division-safe
        denominator for rows the ``positive`` mask discards."""
        return np.where(self.positive, self.length, 1.0)

    @cached_property
    def first(self) -> "_Column":
        """Segment 0 of every row as contiguous ``[B]`` arrays (the whole
        lane when ``S == 1``)."""
        return _Column(
            *(
                np.ascontiguousarray(getattr(self, attr)[:, 0])
                for attr in _Column._fields
            )
        )


class _Column(NamedTuple):
    """One segment column of a :class:`LaneBatch`, shape ``[B]`` each."""

    ax: np.ndarray
    ay: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    length: np.ndarray
    length_sq: np.ndarray
    cum: np.ndarray
    positive: np.ndarray
    length_or_one: np.ndarray


def stack_lanes(lanes: Sequence[LaneSoA]) -> LaneBatch:
    """Stack per-candidate :class:`LaneSoA` rows into one ``[B, S]`` batch."""
    if not lanes:
        raise ValueError("need at least one lane")
    pad = max(l.ax.shape[0] for l in lanes)

    def grab(attr: str, fill: float = 0.0) -> np.ndarray:
        out = np.full((len(lanes), pad), fill)
        for i, lane in enumerate(lanes):
            row = getattr(lane, attr)
            out[i, : row.shape[0]] = row
        return out

    return LaneBatch(
        ax=grab("ax"),
        ay=grab("ay"),
        dx=grab("dx"),
        dy=grab("dy"),
        length=grab("length"),
        length_sq=grab("length_sq", fill=1.0),
        cum=grab("cum"),
        start_x=np.array([l.start[0] for l in lanes]),
        start_y=np.array([l.start[1] for l in lanes]),
        end_x=np.array([l.end[0] for l in lanes]),
        end_y=np.array([l.end[1] for l in lanes]),
        segments=tuple(l.segment for l in lanes),
    )


# -- batched pure pursuit ------------------------------------------------------


def _scalar_lane_progress(segment, x: float, y: float) -> float:
    """The scalar planner's ``_lane_progress``, verbatim (guard-band
    fallback for near-tie nearest-segment selections)."""
    best_s, best_d = 0.0, float("inf")
    cumulative = 0.0
    for a, b in zip(segment.centerline, segment.centerline[1:]):
        seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
        if seg_len == 0:
            continue
        t = max(
            0.0,
            min(
                1.0,
                ((x - a[0]) * (b[0] - a[0]) + (y - a[1]) * (b[1] - a[1]))
                / seg_len ** 2,
            ),
        )
        cx, cy = a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])
        d = math.hypot(x - cx, y - cy)
        if d < best_d:
            best_d, best_s = d, cumulative + t * seg_len
        cumulative += seg_len
    return best_s


def lane_progress_batch(
    lanes: LaneBatch, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Vectorized ``MpcPlanner._lane_progress`` across ``B`` candidates.

    The projection parameter ``t`` and the winning arc-length
    ``cum + t * seg_len`` are exact element-wise arithmetic.  Only the
    nearest-segment *selection* distance uses fast ``np.hypot``;
    candidates whose best-vs-runner-up gap falls inside the guard band
    are re-evaluated with the scalar walk, so the selection can never
    diverge from the reference.
    """
    n_seg = lanes.ax.shape[1]
    if n_seg == 1:
        # Single-segment lanes: the one real segment always wins the
        # selection (any finite d beats inf), so no distance is needed.
        seg = lanes.first
        proj = (x - seg.ax) * seg.dx + (y - seg.ay) * seg.dy
        t = np.maximum(_ZERO, np.minimum(_ONE, proj / seg.length_sq))
        s = seg.cum + t * seg.length
        if lanes.all_positive:
            return s
        return np.where(seg.positive, s, 0.0)
    proj = (x[:, None] - lanes.ax) * lanes.dx + (
        y[:, None] - lanes.ay
    ) * lanes.dy
    t = np.maximum(0.0, np.minimum(1.0, proj / lanes.length_sq))
    s_candidates = lanes.cum + t * lanes.length
    mask = lanes.positive
    cx = lanes.ax + t * lanes.dx
    cy = lanes.ay + t * lanes.dy
    d = np.hypot(x[:, None] - cx, y[:, None] - cy)
    d = np.where(mask, d, np.inf)
    best_s = np.zeros_like(x)
    best_d = np.full_like(x, np.inf)
    gap = np.full_like(x, np.inf)
    for j in range(n_seg):
        better = d[:, j] < best_d
        gap = np.where(better, best_d - d[:, j], np.minimum(gap, d[:, j] - best_d))
        best_d = np.where(better, d[:, j], best_d)
        best_s = np.where(better, s_candidates[:, j], best_s)
    # Guard band: a 1-ulp hypot difference can only flip a selection
    # whose winning margin is ~1 ulp; re-run those with scalar math.
    scale = np.maximum(1.0, best_d)
    near = np.isfinite(gap) & (gap <= _BAND_REL * scale)
    if np.any(near):
        for i in np.nonzero(near)[0]:
            best_s[i] = _scalar_lane_progress(
                lanes.segments[i], float(x[i]), float(y[i])
            )
    return best_s


def point_at_batch(lanes: LaneBatch, s: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``LaneSegment.point_at`` (the sequential clamped walk).

    Replicates the scalar early-return structure: the first segment with
    ``remaining <= seg_len and seg_len > 0`` wins; otherwise ``remaining``
    decreases by the segment length (a bitwise no-op for padding rows).
    """
    n_seg = lanes.ax.shape[1]
    if n_seg == 1:
        # One segment: a single hit test, else the clamp to an endpoint.
        seg = lanes.first
        t = s / seg.length_or_one
        hit = (s <= seg.length) & seg.positive
        inside = hit & (s > _ZERO)
        px = seg.ax + t * seg.dx
        py = seg.ay + t * seg.dy
        if np.count_nonzero(inside) == inside.shape[0]:
            return px, py
        at_start = s <= 0
        px = np.where(hit, px, lanes.end_x)
        py = np.where(hit, py, lanes.end_y)
        return (
            np.where(at_start, lanes.start_x, px),
            np.where(at_start, lanes.start_y, py),
        )
    at_start = s <= 0
    px = np.where(at_start, lanes.start_x, lanes.end_x)
    py = np.where(at_start, lanes.start_y, lanes.end_y)
    done = at_start.copy()
    remaining = s.copy()
    for j in range(n_seg):
        seg_len = lanes.length[:, j]
        hit = (~done) & (remaining <= seg_len) & lanes.positive[:, j]
        if hit.any():
            t = remaining / lanes.length_or_one[:, j]
            px = np.where(hit, lanes.ax[:, j] + t * lanes.dx[:, j], px)
            py = np.where(hit, lanes.ay[:, j] + t * lanes.dy[:, j], py)
            done |= hit
        remaining = np.where(done, remaining, remaining - seg_len)
    return px, py


def pure_pursuit_steer_batch(
    lanes: LaneBatch,
    x: np.ndarray,
    y: np.ndarray,
    heading: np.ndarray,
    wheelbase_m: float,
    lookahead_m: float,
) -> np.ndarray:
    """Vectorized ``MpcPlanner._pure_pursuit_steer`` — exact trig.

    Every transcendental that feeds the steer *value* goes through the
    exact element-wise ``math`` calls; ``np.sin`` / ``np.cos`` are
    bit-equal to ``math.sin`` / ``math.cos`` and stay vectorized.
    """
    s = lane_progress_batch(lanes, x, y)
    tx, ty = point_at_batch(lanes, s + lookahead_m)
    dx = tx - x
    dy = ty - y
    alpha = exact_atan2(dy, dx) - heading
    alpha = exact_atan2(np.sin(alpha), np.cos(alpha))
    lookahead = np.maximum(exact_hypot(dx, dy), _MIN_LOOKAHEAD)
    return exact_atan2((2.0 * wheelbase_m) * np.sin(alpha), lookahead)


# -- batched bicycle model -----------------------------------------------------


def bicycle_step_batch(
    x: np.ndarray,
    y: np.ndarray,
    heading: np.ndarray,
    speed: np.ndarray,
    steer: np.ndarray,
    accel_clamped: np.ndarray,
    dt_s: float,
    wheelbase_m: float,
    max_speed_mps: float,
    max_steer_rad: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``BicycleModel.step`` (accel pre-clamped, steer raw).

    Operation order matches the scalar update exactly: speed integrate,
    clamp to ``[0, max_speed]``, trapezoidal average, heading update via
    ``(avg / wb * tan(steer)) * dt``, position via ``(avg * cos(h)) * dt``,
    angle wrap through ``fmod``.
    """
    return _bicycle_step(
        x,
        y,
        heading,
        speed,
        steer,
        accel_clamped * dt_s,
        dt_s,
        wheelbase_m,
        max_speed_mps,
        max_steer_rad,
    )


def _bicycle_step(
    x: np.ndarray,
    y: np.ndarray,
    heading: np.ndarray,
    speed: np.ndarray,
    steer: np.ndarray,
    accel_dt: np.ndarray,
    dt_s: float,
    wheelbase_m: float,
    max_speed_mps: float,
    max_steer_rad: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bicycle_step_batch` with the speed increment ``accel * dt``
    precomputed: a rollout's accel is constant, so it is hoisted out of
    the step loop."""
    steer_c = np.maximum(-max_steer_rad, np.minimum(max_steer_rad, steer))
    new_speed = np.maximum(_ZERO, np.minimum(max_speed_mps, speed + accel_dt))
    avg_speed = _HALF * (speed + new_speed)
    new_heading = heading + avg_speed / wheelbase_m * exact_tan(steer_c) * dt_s
    new_x = x + avg_speed * np.cos(heading) * dt_s
    new_y = y + avg_speed * np.sin(heading) * dt_s
    wrapped = np.fmod(new_heading + _PI, _TWO_PI)
    np.add(wrapped, _TWO_PI, out=wrapped, where=wrapped <= _ZERO)
    return new_x, new_y, wrapped - _PI, new_speed


def rollout_batch(
    lanes: LaneBatch,
    x0: np.ndarray,
    y0: np.ndarray,
    heading0: np.ndarray,
    speed0: np.ndarray,
    accel: np.ndarray,
    steps: int,
    dt_s: float,
    lookahead_m: float,
    wheelbase_m: float,
    max_speed_mps: float,
    max_steer_rad: float,
    max_accel_mps2: float,
    max_decel_mps2: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``MpcPlanner._rollout`` across ``B`` candidates.

    Returns ``(tx, ty, tspeed, steer0)``: the per-candidate trajectory
    arrays, shape ``[B, steps]``, plus the first-step pure-pursuit steer
    (bit-equal to the scalar planner's command steer for the winning
    candidate's lane, since both are evaluated at the pre-rollout state).
    """
    accel_c = np.maximum(
        -max_decel_mps2, np.minimum(max_accel_mps2, accel)
    )
    accel_dt = accel_c * dt_s
    # The step loop's parameters as 0-d arrays (see _ZERO).
    dt_s, lookahead_m, wheelbase_m, max_speed_mps = map(
        np.array, (dt_s, lookahead_m, wheelbase_m, max_speed_mps)
    )
    max_steer_rad = np.array(max_steer_rad)
    x, y, heading, speed = x0, y0, heading0, speed0
    xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    speeds: List[np.ndarray] = []
    steer0: Optional[np.ndarray] = None
    for _k in range(steps):
        steer = pure_pursuit_steer_batch(
            lanes, x, y, heading, wheelbase_m, lookahead_m=lookahead_m
        )
        if steer0 is None:
            steer0 = steer
        x, y, heading, speed = _bicycle_step(
            x,
            y,
            heading,
            speed,
            steer,
            accel_dt,
            dt_s,
            wheelbase_m,
            max_speed_mps,
            max_steer_rad,
        )
        xs.append(x)
        ys.append(y)
        speeds.append(speed)
    assert steer0 is not None
    # Built step-major and returned as ``[B, steps]`` transposed views.
    return np.array(xs).T, np.array(ys).T, np.array(speeds).T, steer0


# -- batched collision check ---------------------------------------------------


def collision_batch(
    tx: np.ndarray,
    ty: np.ndarray,
    times: Sequence[float],
    obs_x: np.ndarray,
    obs_y: np.ndarray,
    obs_r: np.ndarray,
    pred_x: np.ndarray,
    pred_y: np.ndarray,
    pred_r: np.ndarray,
    ego_radius_m: float = 0.8,
    safety_margin_m: float = 0.3,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized ``check_trajectory`` verdicts across ``B`` candidates.

    Inputs: trajectories ``tx/ty [B, T]`` with point times ``times``
    (the exact ``(k+1)*dt`` floats); static obstacles ``obs_* [B, O]``;
    horizon-aligned predictions ``pred_* [B, T, P]`` (entry ``[_, k, :]``
    holds the predictions whose timestamps match point ``k`` — the
    caller asserts the alignment).  Pad with far-away dummies
    (:data:`PAD_XY`), which can never violate the margin.

    Returns ``(collides, first_collision_time)`` with the time 0.0 for
    non-colliding candidates (the scalar cost's ``ttc or 0.0``).  The
    verdict is the *first* violating (point, obstacle-then-prediction)
    pair in scalar visit order; clearances near the margin are
    re-evaluated with ``math.hypot`` so the verdict cannot flip on a
    1-ulp ``np.hypot`` difference.
    """
    b, t = tx.shape
    n_obs = obs_x.shape[1]
    n_pred = pred_x.shape[2]
    per_point = n_obs + n_pred
    if per_point == 0:
        zeros = np.zeros(b)
        return np.zeros(b, dtype=bool), zeros
    clear_obs = (
        np.hypot(tx[:, :, None] - obs_x[:, None, :], ty[:, :, None] - obs_y[:, None, :])
        - obs_r[:, None, :]
        - ego_radius_m
    )
    clear_pred = (
        np.hypot(tx[:, :, None] - pred_x, ty[:, :, None] - pred_y)
        - pred_r
        - ego_radius_m
    )
    clearance = np.concatenate([clear_obs, clear_pred], axis=2)
    # Guard band: re-evaluate near-margin pairs with the scalar hypot.
    near = np.abs(clearance - safety_margin_m) <= _BAND_REL * np.maximum(
        1.0, np.abs(clearance)
    )
    if np.any(near):
        for bi, ki, pi in zip(*np.nonzero(near)):
            if pi < n_obs:
                ex = float(obs_x[bi, pi])
                ey = float(obs_y[bi, pi])
                er = float(obs_r[bi, pi])
            else:
                ex = float(pred_x[bi, ki, pi - n_obs])
                ey = float(pred_y[bi, ki, pi - n_obs])
                er = float(pred_r[bi, ki, pi - n_obs])
            clearance[bi, ki, pi] = (
                math.hypot(float(tx[bi, ki]) - ex, float(ty[bi, ki]) - ey)
                - er
                - ego_radius_m
            )
    flat = clearance.reshape(b, t * per_point)
    violates = flat < safety_margin_m
    collides = violates.any(axis=1)
    first = np.argmax(violates, axis=1)
    point_idx = first // per_point
    times_arr = np.asarray(times, dtype=np.float64)
    ttc = np.where(collides, times_arr[point_idx], 0.0)
    return collides, ttc


#: Far-away padding coordinates for ragged obstacle / prediction batches.
PAD_XY = 1e9


# -- batched candidate cost ----------------------------------------------------


def cost_batch(
    tx: np.ndarray,
    tspeed: np.ndarray,
    accel: np.ndarray,
    is_lane_change: np.ndarray,
    collides: np.ndarray,
    ttc: np.ndarray,
    target_speed_mps: float,
    progress_weight: float,
    comfort_weight: float,
    speed_error_weight: float,
    lane_change_penalty: float,
    collision_cost: float,
    max_decel_mps2: float,
) -> np.ndarray:
    """Vectorized ``MpcPlanner._cost`` across ``B`` candidates.

    The speed-error reduction loops the horizon axis sequentially
    (Python ``sum`` order); everything else is element-wise in the
    scalar expression order.
    """
    steps = tspeed.shape[1]
    progress = tx[:, -1] - tx[:, 0]
    speed_error = np.zeros(tx.shape[0])
    for k in range(steps):
        speed_error = speed_error + (tspeed[:, k] - target_speed_mps) ** 2
    speed_error = speed_error / steps
    colliding_cost = (
        collision_cost - 100.0 * ttc + 10.0 * (accel + max_decel_mps2)
    )
    nominal_cost = (
        -progress_weight * progress
        + comfort_weight * np.abs(accel)
        + speed_error_weight * speed_error
        + np.where(is_lane_change, lane_change_penalty, 0.0)
    )
    return np.where(collides, colliding_cost, nominal_cost)


# -- batched obstacle / world helpers ------------------------------------------


def obstacle_clearances_batch(
    x: np.ndarray,
    y: np.ndarray,
    obs_x: np.ndarray,
    obs_y: np.ndarray,
    obs_r: np.ndarray,
) -> np.ndarray:
    """Vectorized ``Obstacle.distance_to`` minus nothing: surface distance
    from each query point to each obstacle, shape ``[B, O]``.

    Uses :func:`exact_hypot`, so each entry is bit-equal to the scalar
    ``math.hypot(...) - radius`` — suitable for golden comparisons and
    offline analytics over drive logs.
    """
    return (
        exact_hypot(x[:, None] - obs_x[None, :], y[:, None] - obs_y[None, :])
        - obs_r[None, :]
    )
