"""Which program entry points the traced run wraps, and under what name.

Each span name is one layer of the stack the paper's cost flows
through: optimizer -> estimator (reconstruction, energy) -> engine
(fingerprint, prepare, plan, noise finisher, sample) -> backend, plus
the serve front end and the journal.  The per-layer metrics in
``BENCHMARK.json`` are computed from these spans (see
``run.per_layer``).
"""

from __future__ import annotations

import time

#: Spans that enclose a whole phase of a workload (the optimizer loop,
#: an engine batch, a coalescer batch).  Their self time is work no
#: finer layer claims, so ``trace.unattributed_frac`` counts it as
#: unattributed.
CATCH_ALL = frozenset({"optimizers", "engine.batch", "serve.batch"})


def _batch_kind(args) -> str:
    """Backend kind of the engine a ``Batch.run`` call executes on."""
    return getattr(args[0]._engine.backend, "backend_kind", "dense")


def _rows(args) -> int:
    """Rows advanced by one ``CircuitPlan.run_batch`` call."""
    return len(args[1])


def _queue_waits(args) -> list[tuple[float, float]]:
    """Admission-to-batch interval of each request of a coalescer batch."""
    now = time.perf_counter()
    return [(request.submitted_at, now) for request in args[1]]


def install(tracer) -> None:
    """Wrap every layer entry point; ``tracer.restore()`` undoes it."""
    from repro.api.session import Session
    from repro.backends.clifford import CliffordBackend
    from repro.backends.density import DensityBackend
    from repro.core.varsaw import VarSawEstimator
    from repro.engine.engine import Batch, ExecutionEngine
    from repro.engine.spec import CircuitSpec, StateSpec
    from repro.io.journal import Journal
    from repro.mitigation.jigsaw import JigSawEstimator
    from repro.noise.backend import SimulatorBackend
    from repro.optimizers.spsa import SPSA
    from repro.serve.coalescer import Coalescer
    from repro.serve.service import Service
    from repro.sim.counts import Counts
    from repro.sim.plan import CircuitPlan
    from repro.vqe.estimator import BaselineEstimator

    method = tracer.patch_method
    function = tracer.patch_function

    method(SPSA, "minimize", "optimizers")
    for cls in (JigSawEstimator, VarSawEstimator, BaselineEstimator):
        method(cls, "evaluate", "estimator.evaluate")
    function("repro.mitigation.reconstruction", "bayesian_reconstruct",
             "reconstruction")
    function("repro.vqe.expectation", "energy_from_group_pmfs", "energy")

    method(Batch, "run", "engine.batch", extra=_batch_kind)
    method(ExecutionEngine, "prepare_state", "engine.prepare")
    method(ExecutionEngine, "prepare_states", "engine.prepare")
    for name in ("circuit_fingerprint", "device_fingerprint",
                 "state_digest"):
        function("repro.engine.spec", name, "engine.fingerprint")
    function("repro.sim.plan", "structure_fingerprint",
             "engine.fingerprint")
    method(CircuitSpec, "fingerprint", "engine.fingerprint")
    method(StateSpec, "fingerprint", "engine.fingerprint")

    function("repro.sim.plan", "compile_plan", "plan.compile")
    method(CircuitPlan, "run", "plan.run")
    method(CircuitPlan, "run_batch", "plan.run_batch", extra=_rows)

    method(Counts, "from_pmf_samples", "counts.convert")
    method(Counts, "from_pmf_exact", "counts.convert")
    method(Counts, "to_pmf", "counts.convert")

    method(SimulatorBackend, "exact_pmfs_from_probs_batch", "noise.finish")
    method(SimulatorBackend, "_pmf_from_probs", "noise.finish")
    method(SimulatorBackend, "sample", "noise.sample")
    method(DensityBackend, "sample", "noise.sample")
    method(SimulatorBackend, "circuit_probabilities", "backend.simulate")
    method(CliffordBackend, "circuit_probabilities", "backend.simulate")
    method(DensityBackend, "circuit_probabilities", "backend.simulate")

    method(Session, "__init__", "api.session")
    method(Session, "estimator", "api.estimator")

    method(Service, "__init__", "serve.open")
    method(Service, "submit", "serve.submit")
    method(Coalescer, "execute_batch", "serve.batch", extra=_queue_waits)
    function("repro.serve.jobs", "execute_job", "serve.execute")
    method(Journal, "append_record", "io.journal.append")
    method(Journal, "append_many", "io.journal.append")
    method(Journal, "load", "io.journal.load")
