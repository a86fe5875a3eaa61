"""Regenerate every paper table and figure from the sweep catalog.

One test per :mod:`repro.sweeps.catalog` entry.  Each runs the entry's
grid into a fresh store (quick scale by default, paper scale under
``REPRO_SCALE=full``), prints its tables to stdout and to
``benchmark_results.txt``, asserts that a resume executes nothing, and
checks the paper's qualitative claims through ``EntryOutcome.check``.
Every entry leaves a ``BENCH_<entry>.json`` cost record (in the repo
root, or ``$REPRO_BENCH_DIR``): wall clock, engine metric deltas, and
the figures its check returned::

    python -m pytest benchmarks -q
    python -m pytest "benchmarks/bench_catalog.py::test_entry[fig8]" -q -s

Under ``REPRO_GOLDEN_DIR`` each entry's rendered tables also replace
``$REPRO_GOLDEN_DIR/<entry>.txt`` — the recording mode that produced
``tests/golden/``::

    REPRO_GOLDEN_DIR=tests/golden python -m pytest benchmarks
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time

import pytest

from repro.obs import REGISTRY, snapshot_delta
from repro.sweeps import ResultStore, entry_names, run_entry

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_FILE = ROOT / "benchmark_results.txt"
BENCH_DIR = pathlib.Path(os.environ.get("REPRO_BENCH_DIR") or ROOT)
GOLDEN_DIR = os.environ.get("REPRO_GOLDEN_DIR")

#: BENCH_<entry>.json field -> the engine counter whose delta it holds.
COUNTERS = {
    "circuits": "repro_engine_jobs_total",
    "shots": "repro_engine_shots_total",
    "simulations": "repro_engine_simulations_total",
    "cache_hits": "repro_engine_cache_hits_total",
    "batches": "repro_engine_batches_total",
    "plan_cache_hits": "repro_engine_plan_cache_hits_total",
    "plan_cache_misses": "repro_engine_plan_cache_misses_total",
}


@pytest.fixture(scope="module", autouse=True)
def fresh_results_file():
    """Start every benchmark run with an empty results file."""
    RESULTS_FILE.write_text("")


def emit(text: str) -> None:
    """Print ``text`` and append it to the results file."""
    print(text, end="")
    with RESULTS_FILE.open("a") as handle:
        handle.write(text)


@pytest.mark.parametrize("name", entry_names())
def test_entry(name, tmp_path):
    store = ResultStore(tmp_path / "store.jsonl")
    # Start from a collected heap: otherwise a full collection owed to
    # earlier garbage lands in whichever timed row happens to trigger
    # it (~40 ms, enough to swing ext_engine_throughput's speedup).
    gc.collect()
    before = REGISTRY.snapshot()
    started = time.perf_counter()
    outcome = run_entry(name, store)
    wall = time.perf_counter() - started
    delta = snapshot_delta(REGISTRY.snapshot(), before)

    text = "".join(table.render() + "\n" for table in outcome.tables())
    emit(text)
    if GOLDEN_DIR:
        golden = pathlib.Path(GOLDEN_DIR)
        golden.mkdir(parents=True, exist_ok=True)
        (golden / f"{name}.txt").write_text(text)

    # The grid is fully checkpointed: a re-run executes nothing.
    assert run_entry(name, store).executed == []
    figures = outcome.check()
    emit("".join(f"{name} {key}: {value:.3g}\n"
                 for key, value in figures.items()))

    payload = {"entry": name, "tests": 1, "wall_s": wall, **figures}
    for field, metric in COUNTERS.items():
        payload[field] = int(delta.get(metric, 0))
    payload["cache_requests"] = (
        payload["cache_hits"] + payload["simulations"]
    )
    BENCH_DIR.mkdir(parents=True, exist_ok=True)
    (BENCH_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
