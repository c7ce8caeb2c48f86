"""The traffic-serving planning layer (``PlannerService``).

Serves the uniform :class:`~repro.planning.envelope.PlanRequest` /
:class:`~repro.planning.envelope.PlanResult` envelopes over *any*
:class:`~repro.planning.protocol.Planner` backend:

- :class:`~repro.service.cache.ServicePlanCache` — a cross-query LRU plan
  cache keyed by ``(query fingerprint, planner version, k)``, so repeated
  queries skip planning entirely until the backend changes
  (:mod:`repro.service.shared_tier` is the cross-process tier that
  :class:`~repro.service.cache.TieredPlanCache` layers it over);
- pluggable scoring backends (:mod:`repro.scoring`) — ``"inproc"``
  (forward passes on the planning thread, the default) and ``"process"``
  (scorer processes loading published model snapshots), selected per
  service with automatic in-process fallback;
- :class:`~repro.service.service.PlannerService` — the front door: admission
  control (deadlines, ``max_pending`` capacity, typed
  :class:`~repro.planning.envelope.AdmissionError` rejections) ahead of
  planning on the caller's thread, with per-request stats aggregated into a
  :class:`~repro.service.metrics.ServiceMetrics` report.
"""

from repro.planning.envelope import AdmissionError
from repro.scoring.protocol import ScoringBridgeStats
from repro.service.cache import CacheStats, ServicePlanCache
from repro.service.metrics import RequestStats, ServiceMetrics
from repro.service.service import PlannerService, ServiceResponse

__all__ = [
    "AdmissionError",
    "CacheStats",
    "PlannerService",
    "RequestStats",
    "ScoringBridgeStats",
    "ServiceMetrics",
    "ServicePlanCache",
    "ServiceResponse",
]
