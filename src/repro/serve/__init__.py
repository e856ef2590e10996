"""Serving-scale resilience: open-loop traffic at the cluster boundary.

The training-centric harnesses (:mod:`repro.harness.runner`,
:mod:`repro.harness.cluster`) run a *closed* set of workloads to
completion.  This package adds the serving regime on top of the same
machine and engine: jobs arrive on their own open-loop schedule, pass an
SLO-aware admission policy with a bounded queue, retry with jittered
backoff when shed, survive (or don't) machine-failure episodes via
checkpoint/restart, and land in a latency/goodput/SLO report that is
byte-identical for a fixed seed.

Quickstart::

    from repro.serve import JobTemplate, PoissonArrivals, ServeConfig, serve

    mix = [
        JobTemplate(name="train", model="resnet32", steps=3, slo=2.0),
        JobTemplate(name="infer", model="mobilenet", steps=1, slo=0.5, weight=4.0),
    ]
    report = serve(
        PoissonArrivals(rate=20.0, horizon=1.0, templates=mix, seed=7),
        ServeConfig(seed=7, slots=2, admission="edf", queue_limit=8),
        fast_fraction=0.5,
    )
    print(report.p99, report.slo_attainment)
"""

from repro.serve.admission import (
    ADMISSION_POLICIES,
    AdmissionPolicy,
    EdfAdmission,
    FifoAdmission,
    WatermarkShedding,
    make_admission,
)
from repro.serve.arrivals import (
    SERVE_MIX,
    Arrival,
    JobTemplate,
    PoissonArrivals,
    TraceArrivals,
)
from repro.serve.server import (
    Job,
    JobTimeout,
    MachineOffline,
    ServeConfig,
    ServeReport,
    Server,
    serve,
)

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionPolicy",
    "Arrival",
    "EdfAdmission",
    "FifoAdmission",
    "Job",
    "JobTemplate",
    "JobTimeout",
    "MachineOffline",
    "PoissonArrivals",
    "SERVE_MIX",
    "ServeConfig",
    "ServeReport",
    "Server",
    "TraceArrivals",
    "WatermarkShedding",
    "make_admission",
    "serve",
]
