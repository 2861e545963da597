"""Prediction-as-a-service on top of the resilient sweep runtime.

``repro.serve`` turns the batch reproduction into a long-lived service:
:class:`PredictionService` admits (workload, geometry, predictor
config) request cells, batches them through the fault-tolerant executor
into the vectorized engines, and answers every request with a typed
response — served bit-exact, failed with a named error, or shed with a
retry-after hint.  :mod:`repro.serve.traffic` and
:mod:`repro.serve.chaos` drive it with seeded production-shaped
traffic and deterministic fault campaigns.

Names load lazily: ``from repro.serve import ServeRequest`` loads the
request model only, not the service, chaos or traffic layers.

Run ``python -m repro.serve --help`` for the drivers.
"""

from ..lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "breaker": ("CircuitBreaker",),
    "chaos": ("ChaosPlan", "ChaosResult", "plan_chaos", "run_chaos"),
    "requests": ("RequestError", "ServeRequest", "ServeResponse",
                 "ServiceOverload", "execute_request_cell",
                 "payload_digest", "stats_payload"),
    "service": ("PredictionService", "ServiceMetrics"),
    "store": ("ResultStore",),
    "traffic": ("TrafficModel", "TrafficSummary", "build_universe",
                "request_stream", "run_traffic"),
})
