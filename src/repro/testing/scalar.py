"""The scalar planning oracle: a drive planned by ``MpcPlanner.plan``.

Every drive the program runs plans through the vectorized engine
(:mod:`repro.runtime.batched`): ``sov.drive`` is a batch of one.  The
scalar planner is kept as the reference that engine must reproduce bit
for bit, and :func:`scalar_drive` is the drive loop built on it: the same
:class:`~repro.runtime.sov.DriveLoop` steps, with each plan request
answered by ``planner.plan(...).command``.
"""

from __future__ import annotations


def scalar_drive(sov, duration_s: float):
    """Drive *sov* for *duration_s*, planning every tick with the scalar
    ``MpcPlanner.plan``; returns its :class:`~repro.runtime.sov.DriveResult`."""
    from ..runtime.sov import DriveLoop

    loop = DriveLoop(sov, duration_s)
    while not loop.done:
        request = loop.begin_step()
        if request is not None:
            plan = sov.planner.plan(
                request.state,
                predictions=request.predictions,
                static_obstacles=request.obstacles,
                now_s=request.now_s,
            )
            sov._proactive_post(request, plan.command)
        loop.finish_step()
    return loop.finalize()
