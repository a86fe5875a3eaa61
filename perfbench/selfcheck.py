"""Tiny-size self-check of the benchmark harness.

Run from the repository root::

    python3 perfbench/selfcheck.py

It checks that

* every workload, untraced and traced, prints a result line with
  exactly the contract's keys, every metric named in
  ``BENCHMARK.json`` with its unit, and ``correct`` true;
* installing the layer wrappers and restoring them leaves every
  ``repro`` module and class attribute identical to the original
  object, and no wrapper reachable;
* without the program's sources next to it the benchmark exits
  non-zero and prints no result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_outputs(spec: dict) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                raise SystemExit(f"{where}: exit {proc.returncode}\n"
                                 f"{proc.stderr[-3000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != KEYS:
                raise SystemExit(f"{where}: keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{where}: incorrect\n{proc.stderr}")
            got = {
                name: metric["unit"]
                for name, metric in result["metrics"].items()
            }
            if got != expected[trace]:
                missing = set(expected[trace]) - set(got)
                extra = set(got) - set(expected[trace])
                raise SystemExit(
                    f"{where}: metric names/units differ; missing "
                    f"{sorted(missing)}, unexpected {sorted(extra)}"
                )
            for name, metric in result["metrics"].items():
                value = metric["value"]
                if isinstance(value, bool) or not (
                    isinstance(value, (int, float)) and math.isfinite(value)
                ):
                    raise SystemExit(f"{where}: {name} = {value!r}")
            print(f"ok  {where}: {len(got)} metrics, "
                  f"{result['attempted']} operations")


def _attribute_snapshot() -> dict:
    """Identity of every attribute of every ``repro`` module and class."""
    snapshot = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for key, value in list(vars(mod).items()):
            snapshot[(mod_name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, raw in list(vars(value).items()):
                    snapshot[(mod_name, key, attr)] = id(raw)
    return snapshot


def check_restore() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads  # noqa: F401 - imports every layer module
    from tracer import Tracer, leftover_wrappers

    before = _attribute_snapshot()
    tracer = Tracer()
    layers.install(tracer)
    installed = leftover_wrappers()
    tracer.restore()
    after = _attribute_snapshot()
    if not installed:
        raise SystemExit("layers.install wrapped nothing")
    if leftover_wrappers():
        raise SystemExit(f"wrappers outlived restore: {leftover_wrappers()}")
    changed = [key for key in before if after.get(key) != before[key]]
    if changed:
        raise SystemExit(f"attributes changed by install/restore: {changed}")
    print(f"ok  {len(installed)} wrappers installed and fully restored")


def check_without_program() -> None:
    bare = ROOT / ".perfbench-work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "vqe_budget", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit("benchmark did not fail without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print(f"ok  without the program: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_restore()
    check_without_program()
    check_outputs(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
