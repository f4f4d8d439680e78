"""One stats schema for the whole runtime stack.

Before the jobs layer, every call site shaped its counters ad hoc —
``EvaluationService.stats()`` returned one flat dict, DSE campaign stats
another, and ``repro info`` a third.  This module pins the shared shape:

.. code-block:: json

    {
      "schema": "repro-runtime-stats/v1.1",
      "engine":   { "requested_workers": ..., "workers": ..., ... },
      "jobs":     { "submitted": ..., "depth": ..., "rejected": ..., ... },
      "cache":    { "entries": ..., "hits": ..., "misses": ..., "evictions": ..., ... },
      "sessions": { "<session id>": { ... }, ... }
    }

``engine`` is always present; the jobs-layer sections appear exactly when
the emitting object has that layer (a bare
:class:`~repro.runtime.service.EvaluationService` reports only
``engine``).  ``requested_workers`` vs ``workers`` is the one contract
every emitter follows: the former is what the caller asked for (``None``
for auto-sizing), the latter the effective pool size actually running.

v1.1 extends ``engine`` *additively* with the fused multi-plan
observability counters (``fused_launches``, ``fused_plans_total``,
``plans_per_launch_avg``) and the cross-plan reuse cache counters
(``prefix_cache_hits``/``misses``, ``act_cache_hits``/``misses``); every
v1 key keeps its meaning, so v1 consumers keep working.  ``executor_builds``
and ``cells_evaluated``, once reported by serial services only, are summed
over the pool workers too.
"""

from __future__ import annotations

#: Version tag embedded in every stats payload.
STATS_SCHEMA = "repro-runtime-stats/v1.1"


def runtime_stats(
    engine: dict,
    jobs: dict | None = None,
    cache: dict | None = None,
    sessions: dict | None = None,
) -> dict:
    """Assemble one schema-tagged stats payload from per-layer sections."""
    stats: dict = {"schema": STATS_SCHEMA, "engine": dict(engine)}
    if jobs is not None:
        stats["jobs"] = dict(jobs)
    if cache is not None:
        stats["cache"] = dict(cache)
    if sessions is not None:
        stats["sessions"] = dict(sessions)
    return stats


__all__ = ["STATS_SCHEMA", "runtime_stats"]
