"""The three benchmark workloads, each generated from a seed.

A workload is built once (the set-up that ``setup_s`` times) and then
executes *rounds*.  Round ``r``'s inputs are a pure function of
``(seed, r)`` and every round builds fresh sessions, so replaying a
round reproduces its results bit for bit; that is how the traced run
is checked against the untraced one.  Each round returns a
:class:`Round` with its timed intervals, per-operation latencies,
charged circuits, a digest of its results, the failed output checks,
and the program counters the per-layer metrics read.

* ``vqe_budget``: one Fig. 15 cell.  SPSA tunes LiH-6 under JigSaw and
  then under adaptive VarSaw, each spending the same circuit budget
  from the same warm start.  An operation is one SPSA iteration (state
  preparation of the perturbation pair and its two evaluations).
* ``circuit_batch``: seeded random layered Clifford circuits submitted
  as one engine batch per backend (``dense``, ``clifford``,
  ``density``).  An operation is one round of the three batches.
* ``serve_mixed``: a closed loop of at most ``nproc`` clients for two
  tenants against an in-process ``repro.serve.Service`` opened over a
  results journal that already holds records.  45% of submissions
  repeat a completed job (read path), the rest are fresh (write path).
  An operation is one job, timed from submit to result.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis import optimal_parameters
from repro.api import Session
from repro.circuits import Circuit
from repro.noise import ibmq_mumbai_like
from repro.obs import REGISTRY
from repro.optimizers import SPSA
from repro.serve import JobSpec, Service
from repro.vqe import run_vqe
from repro.workloads import make_workload

_JOBS = "repro_engine_jobs_total"
_SHOTS = "repro_engine_shots_total"
_SIMULATIONS = "repro_engine_simulations_total"


def round_seed(seed: int, r: int, *salt: int) -> int:
    """A 32-bit seed derived from the run seed and the round index."""
    entropy = [seed % 2**64, r, *salt]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def digest(payload) -> str:
    """Stable hash of a JSON-able result payload."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Round:
    """What one round did, measured from outside the program."""

    regions: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    circuits: int = 0
    digest: str = ""
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def engine_counters(sessions, registry_before: dict) -> dict:
    """Engine counters summed over ``sessions``, cross-checked.

    ``counter_mismatch`` compares the sessions' ledgers (backend
    counters) and engine statistics with the deltas of the process-wide
    ``repro.obs`` registry over the same interval.
    """
    totals = dict.fromkeys(
        ("circuits", "shots", "jobs", "simulations", "pmf_hits",
         "pmf_requests", "plan_hits", "plan_requests"), 0,
    )
    for session in sessions:
        ledger = session.ledger()
        stats = session.stats()
        totals["circuits"] += ledger.circuits
        totals["shots"] += ledger.shots
        totals["jobs"] += stats.jobs_submitted
        totals["simulations"] += stats.simulations
        totals["pmf_hits"] += stats.pmf_cache.hits
        totals["pmf_requests"] += stats.pmf_cache.requests
        totals["plan_hits"] += stats.plan_cache.hits
        totals["plan_requests"] += stats.plan_cache.requests
    after = REGISTRY.snapshot()

    def delta(name):
        return after.get(name, 0.0) - registry_before.get(name, 0.0)

    totals["counter_mismatch"] = int(
        abs(totals["circuits"] - delta(_JOBS))
        + abs(totals["shots"] - delta(_SHOTS))
        + abs(totals["simulations"] - delta(_SIMULATIONS))
    )
    return totals


# ================================================================ vqe_budget


class VqeBudget:
    """JigSaw vs adaptive VarSaw SPSA tuning at one circuit budget.

    The cell is the LiH-6 cell of the ``fig15`` catalog entry at its
    default (small) scale: a budget of 80 x 85 measurement groups x
    (6 - 1) qubits = 34,000 circuits per scheme, sized as the catalog
    sizes it, spent from the parameters of a 300-iteration noise-free
    warm start.  Smaller
    budgets or a cold start shift VarSaw's evaluation mix towards the
    early, Global-heavy evaluations (Global fraction 0.08-0.11 at 4000
    circuits against 0.014-0.024 here).
    """

    name = "vqe_budget"
    FULL = {"budget_factor": 80, "warm_start": 300, "trace_rounds": 1}
    TINY = {"budget_factor": 3, "warm_start": 10, "trace_rounds": 1}
    SCHEMES = ("jigsaw", "varsaw")
    SHOTS = 256
    SPSA_GAIN = 0.3

    def __init__(self, seed: int, config: dict, workdir: Path):
        self.seed = seed
        self.trace_rounds = config["trace_rounds"]
        self.device = ibmq_mumbai_like(scale=2.0)
        self.workload = make_workload("LiH-6", device=self.device)
        hamiltonian = self.workload.hamiltonian
        self.budget = (
            config["budget_factor"]
            * len(hamiltonian.measurement_groups())
            * (hamiltonian.n_qubits - 1)
        )
        # The warm start, subset plans and estimator construction are
        # set-up work.
        self.initial = optimal_parameters(
            self.workload, iterations=config["warm_start"]
        )
        for scheme in self.SCHEMES:
            with Session(self.device, seed=seed) as session:
                session.estimator(scheme, self.workload, shots=self.SHOTS)

    def round(self, r: int, meter) -> Round:
        out = Round()
        seed = round_seed(self.seed, r)
        before = REGISTRY.snapshot()
        sessions = []
        legs = {}
        for scheme in self.SCHEMES:
            session = Session(self.device, seed=seed)
            sessions.append(session)
            estimator = session.estimator(
                scheme, self.workload, shots=self.SHOTS
            )
            evaluate = estimator.evaluate
            prepare = estimator.prepare_states
            ops = []
            begun = []
            evals = []

            # One operation is one SPSA iteration: the batched state
            # preparation of the +-ck*delta pair, then both evaluations.
            def timed_prepare(points, prepare=prepare, begun=begun):
                meter.maybe_sample()
                begun.append(time.perf_counter())
                return prepare(points)

            def timed_evaluate(params, evaluate=evaluate, ops=ops,
                               begun=begun, evals=evals):
                value = evaluate(params)
                evals.append(value)
                if len(evals) % 2 == 0:
                    ops.append((begun[-1], time.perf_counter()))
                return value

            estimator.prepare_states = timed_prepare
            estimator.evaluate = timed_evaluate
            start = time.perf_counter()
            result = run_vqe(
                estimator,
                optimizer=SPSA(a=self.SPSA_GAIN, seed=seed),
                max_iterations=100_000,
                circuit_budget=self.budget,
                initial_params=self.initial,
                seed=seed,
            )
            out.regions.append((start, time.perf_counter()))
            out.ops.extend(ops)
            out.check(
                len(begun) == len(ops) == len(evals) // 2
                and len(evals) % 2 == 0,
                f"{scheme}: {len(evals)} evaluations do not pair up with "
                f"{len(begun)} state preparations",
            )
            legs[scheme] = (result, estimator, len(evals), session)
        counters = engine_counters(sessions, before)
        out.counters = counters
        out.circuits = counters["circuits"]
        self._check(out, legs)

        ideal = self.workload.ideal_energy
        jig, var = legs["jigsaw"], legs["varsaw"]
        out.quality = {
            "jigsaw_error": abs(jig[0].energy - ideal),
            "varsaw_error": abs(var[0].energy - ideal),
            "jigsaw_circuits": jig[0].circuits_executed,
            "jigsaw_evals": jig[2],
            "varsaw_circuits": var[0].circuits_executed,
            "varsaw_evals": var[2],
            "global_fraction": var[1].global_fraction,
            "subset_circuits_per_eval": var[1].circuits_per_subset_pass,
        }
        out.digest = digest({
            scheme: {
                "energy": result.energy.hex(),
                "history": [e.hex() for e in result.energy_history],
                "circuits": result.circuit_history,
                "params": result.parameters.tobytes().hex(),
                "ledger": list(session.ledger().__dict__.values()),
            }
            for scheme, (result, _, _, session) in legs.items()
        })
        for session in sessions:
            session.close()
        return out

    def _check(self, out: Round, legs: dict) -> None:
        budget = self.budget
        for scheme, (result, _, evals, session) in legs.items():
            spent = result.circuits_executed
            history = result.circuit_history
            # run_vqe checks the budget before each optimizer iteration
            # (two SPSA evaluations), so a run may overshoot by less
            # than its last iteration, never by more.
            before_last = history[-2] if len(history) > 1 else 0
            out.check(
                result.stop_reason == "budget_exhausted"
                and spent >= budget > before_last,
                f"{scheme}: spent {spent} (before last iteration "
                f"{before_last}) on a budget of {budget}",
            )
            out.check(
                session.ledger().circuits == spent,
                f"{scheme}: ledger disagrees with run_vqe's count",
            )
        out.check(
            legs["varsaw"][2] > 2 * legs["jigsaw"][2],
            f"varsaw ran {legs['varsaw'][2]} evaluations, not more than "
            f"twice jigsaw's {legs['jigsaw'][2]}",
        )


# ============================================================= circuit_batch


def layered_clifford(n_qubits: int, layers: int, rng) -> Circuit:
    """A GHZ prefix plus random one-qubit Clifford and CX/CZ layers."""
    circuit = Circuit(n_qubits)
    circuit.h(0)
    for q in range(n_qubits - 1):
        circuit.cx(q, q + 1)
    one_qubit = ("h", "s", "sdg", "x", "z", "sx")
    for _ in range(layers):
        for q in range(n_qubits):
            circuit.append(str(rng.choice(one_qubit)), q)
        for q in range(0, n_qubits - 1, 2):
            circuit.cx(q, q + 1)
        for q in range(1, n_qubits - 1, 2):
            circuit.cz(q, q + 1)
    circuit.measure_all()
    return circuit


class CircuitBatch:
    """The same seeded batch shape on the three execution backends."""

    name = "circuit_batch"
    # Dense and clifford run the same wide circuits.  The density
    # backend costs O(4^n) per gate, so its leg runs as many narrow
    # circuits (identical ledger) to keep it from dominating the round.
    FULL = {"circuits": 4, "wide": (6, 40), "narrow": (3, 4),
            "trace_rounds": 41}
    TINY = {"circuits": 1, "wide": (4, 4), "narrow": (2, 2),
            "trace_rounds": 2}
    KINDS = ("dense", "clifford", "density")
    SHOTS = 256

    def __init__(self, seed: int, config: dict, workdir: Path):
        self.seed = seed
        self.config = config
        self.trace_rounds = config["trace_rounds"]
        self.device = ibmq_mumbai_like(scale=2.0)
        for kind in self.KINDS:
            Session(self.device, seed=seed, backend=kind).close()
        self._inputs(0)

    def _inputs(self, r: int) -> dict:
        rng = np.random.default_rng(round_seed(self.seed, r))
        count = self.config["circuits"]
        wide = [layered_clifford(*self.config["wide"], rng)
                for _ in range(count)]
        narrow = [layered_clifford(*self.config["narrow"], rng)
                  for _ in range(count)]
        return {"dense": wide, "clifford": wide, "density": narrow}

    def round(self, r: int, meter) -> Round:
        out = Round()
        inputs = self._inputs(r)
        seed = round_seed(self.seed, r, 1)
        before = REGISTRY.snapshot()
        sessions = {
            kind: Session(self.device, seed=seed, backend=kind)
            for kind in self.KINDS
        }
        counts = {}
        for kind, session in sessions.items():
            start = time.perf_counter()
            batch = session.engine.new_batch()
            for circuit in inputs[kind]:
                batch.submit_circuit(circuit, self.SHOTS)
            counts[kind] = batch.run()
            out.regions.append((start, time.perf_counter()))
            meter.maybe_sample()
        # One operation is the round's three back-to-back batches (the
        # meter's samples between them are excluded when scaling).
        out.ops.append((out.regions[0][0], out.regions[-1][1]))
        counters = engine_counters(sessions.values(), before)
        counters["clifford_fallbacks"] = (
            sessions["clifford"].backend.dense_fallbacks
        )
        out.counters = counters
        out.circuits = counters["circuits"]
        self._check(out, inputs, sessions, counts)
        out.digest = digest({
            kind: {
                "counts": [
                    sorted((k, float(v).hex()) for k, v in c.items())
                    for c in counts[kind]
                ],
                "ledger": list(sessions[kind].ledger().__dict__.values()),
            }
            for kind in self.KINDS
        })
        for session in sessions.values():
            session.close()
        return out

    def _check(self, out: Round, inputs, sessions, counts) -> None:
        expected = len(inputs["dense"])
        ledgers = {
            (s.ledger().circuits, s.ledger().shots)
            for s in sessions.values()
        }
        out.check(
            ledgers == {(expected, expected * self.SHOTS)},
            f"backends charged different ledgers: {ledgers}",
        )
        clifford = sessions["clifford"].backend
        out.check(
            clifford.stabilizer_runs == expected
            and clifford.dense_fallbacks == 0,
            "clifford backend left the stabilizer path",
        )
        zeros = "0" * self.config["wide"][0]
        for dense, stab in zip(counts["dense"], counts["clifford"]):
            p_dense = dense[zeros] / dense.shots
            p_stab = stab[zeros] / stab.shots
            sigma = math.sqrt(max(p_dense * (1 - p_dense), 0.0) / self.SHOTS)
            out.check(
                abs(p_dense - p_stab) <= 4 * sigma + 2 / self.SHOTS,
                f"dense P(0..0)={p_dense} vs clifford {p_stab}",
            )
        narrow_zeros = "0" * self.config["narrow"][0]
        for analytic in counts["density"]:
            weight = analytic[narrow_zeros] / analytic.shots
            out.check(
                0.0 <= weight <= 1.0
                and abs(analytic.shots - self.SHOTS) < 1e-6,
                f"density analytic weight {weight} of {analytic.shots}",
            )


# =============================================================== serve_mixed


@functools.lru_cache(maxsize=None)
def _h2_params() -> int:
    """Ansatz parameter count of the served H2-4 workload."""
    return make_workload("H2-4").ansatz.num_parameters


class ServeMixed:
    """Closed-loop clients mixing journal reads and executed writes."""

    name = "serve_mixed"
    FULL = {"jobs_per_client": 20, "preload_fresh": 60,
            "preload_repeats": 440, "trace_rounds": 15}
    TINY = {"jobs_per_client": 5, "preload_fresh": 4,
            "preload_repeats": 6, "trace_rounds": 1}
    WORKLOAD = {"key": "H2-4"}
    SHOTS = 256
    TENANTS = ("tenant0", "tenant1")
    # 9 of every 20 submissions repeat a completed job, so p50 and p95
    # both fall among the executed jobs instead of on the boundary
    # between the two latency populations.
    REPEATS_PER_BLOCK = (9, 20)
    # Round index reserved for the preloaded jobs' seeds.
    PRELOAD_ROUND = 2**31

    def __init__(self, seed: int, config: dict, workdir: Path):
        self.seed = seed
        self.config = config
        self.trace_rounds = config["trace_rounds"]
        self.workdir = Path(workdir)
        self.preload_dir = self.workdir / "preload"
        self.clients = max(1, min(2, os.cpu_count() or 1))
        # Recovery over the preloaded journal is set-up work.
        with Service(self.preload_dir) as service:
            self.preloaded = {
                record["fingerprint"]: record
                for record in service.results.records()
            }
        self.preload_jobs = [
            JobSpec.from_dict(record["job"])
            for record in self.preloaded.values()
        ]

    @classmethod
    def _job(cls, rng, seed: int) -> JobSpec:
        """A fresh estimate job; its own seed gives it its own session,
        so its result does not depend on the order jobs execute in."""
        return JobSpec(
            workload=dict(cls.WORKLOAD),
            scheme="varsaw",
            params=[float(v) for v in rng.normal(0.0, 0.1, _h2_params())],
            shots=cls.SHOTS,
            seed=seed,
        )

    @classmethod
    def preload(cls, seed: int, config: dict, workdir: Path) -> None:
        """Fill the results journal that every service opens over."""
        rng = np.random.default_rng(round_seed(seed, cls.PRELOAD_ROUND))
        jobs = [
            cls._job(rng, round_seed(seed, cls.PRELOAD_ROUND, i))
            for i in range(config["preload_fresh"])
        ]
        with Service(Path(workdir) / "preload", coalesce_window=0.0) as svc:
            for i, job in enumerate(jobs):
                svc.submit(cls.TENANTS[i % 2], job)
            svc.drain()
            for i in range(config["preload_repeats"]):
                job = jobs[int(rng.integers(len(jobs)))]
                svc.submit(cls.TENANTS[i % 2], job).future.result()

    def _plan(self, r: int, client: int) -> list:
        """``(tenant, job, is_repeat)`` submissions of one client."""
        rng = np.random.default_rng(round_seed(self.seed, r, 2, client))
        repeats, block = self.REPEATS_PER_BLOCK
        count = self.config["jobs_per_client"]
        pattern = []
        while len(pattern) < count:
            flags = np.zeros(block, dtype=bool)
            flags[rng.permutation(block)[:repeats]] = True
            pattern.extend(bool(f) for f in flags)
        fresh: list[JobSpec] = []
        plan = []
        for i, repeat in enumerate(pattern[:count]):
            tenant = self.TENANTS[(client + i) % len(self.TENANTS)]
            if repeat:
                pool = fresh if fresh and rng.random() < 0.5 else (
                    self.preload_jobs
                )
                job = pool[int(rng.integers(len(pool)))]
            else:
                job = self._job(rng, round_seed(self.seed, r, 3, client, i))
                fresh.append(job)
            plan.append((tenant, job, repeat))
        return plan

    def round(self, r: int, meter) -> Round:
        out = Round()
        plans = [self._plan(r, c) for c in range(self.clients)]
        root = self.workdir / f"round{r}"
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(self.preload_dir, root)
        journals = [root / "queue.jsonl", root / "results.jsonl"]
        before = REGISTRY.snapshot()
        service = Service(root, coalesce_window=0.0).start()
        try:
            charged_before = service.budget.totals()
            bytes_before = sum(p.stat().st_size for p in journals)
            answers: list[list] = [[] for _ in plans]
            errors: list[str] = []
            lock = threading.Lock()

            def client(c: int) -> None:
                for tenant, job, _ in plans[c]:
                    start = time.perf_counter()
                    try:
                        record = service.submit(tenant, job).future.result(
                            timeout=120
                        )
                    except Exception as exc:  # noqa: BLE001 - a failed op
                        with lock:
                            errors.append(f"{job.label()}: {exc!r}")
                        record = None
                    with lock:
                        out.ops.append((start, time.perf_counter()))
                    answers[c].append(record)

            threads = [
                threading.Thread(target=client, args=(c,), daemon=True)
                for c in range(len(plans))
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=170)
            out.regions.append((start, time.perf_counter()))
            out.check(
                not any(t.is_alive() for t in threads), "client hung"
            )
            out.failures.extend(errors)
            stats = service.coalescer.stats
            totals = service.budget.totals()
            sessions = service.coalescer.sessions()
            counters = engine_counters(sessions, before)
            counters.update(
                executed=stats.executed,
                served_from_db=stats.served_from_db,
                coalesced=stats.coalesced,
                journal_bytes=sum(p.stat().st_size for p in journals)
                - bytes_before,
            )
            out.counters = counters
            out.circuits = counters["circuits"]
            out.check(
                totals.circuits - charged_before.circuits
                == counters["circuits"]
                and totals.shots - charged_before.shots
                == counters["shots"],
                "tenant charges do not sum to the engine totals",
            )
            out.digest = self._check(out, plans, answers)
        finally:
            service.close()
            shutil.rmtree(root, ignore_errors=True)
        return out

    def _check(self, out: Round, plans, answers) -> str:
        first = {
            fp: json.dumps(record, sort_keys=True)
            for fp, record in self.preloaded.items()
        }
        executed = {}
        for plan, records in zip(plans, answers):
            for (tenant, job, repeat), record in zip(plan, records):
                if record is None:
                    continue
                fp = job.fingerprint()
                text = json.dumps(record, sort_keys=True)
                if repeat:
                    out.check(
                        first.get(fp) == text,
                        f"repeat of {fp[:8]} differs from its first run",
                    )
                    continue
                first[fp] = text
                out.check(
                    math.isfinite(record["result"]["energy"])
                    and record["tenant"] == tenant,
                    f"bad record for {fp[:8]}",
                )
                executed[fp] = {
                    key: record[key]
                    for key in ("job", "tenant", "result", "ledger")
                }
        return digest(executed)


WORKLOADS = {cls.name: cls for cls in (VqeBudget, CircuitBatch, ServeMixed)}
