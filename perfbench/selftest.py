"""The benchmark's own checks.

    python3 perfbench/selftest.py

1. Every wrapper the tracer installs is bound under every name the
   program calls it by: each `qcspend` module that imported a wrapped
   function by name now holds the wrapper.
2. The generators are deterministic: one seed gives one input, and two
   seeds give inputs of the same shape.
3. A traced run of each workload passes its traffic and bypass checks
   (see `TRAFFIC_CHECKS` and `BYPASS_CHECKS` in run.py) and counts the
   same traffic as an untraced build of the same seed.
4. The host-speed correction (run.py `correct`) leaves a time taken at
   nominal speed as it is, and scales each part of a time by its own
   part of the reference only.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def check_bindings() -> list[str]:
    """A function wrapped in its defining module must be wrapped under
    every other name a `qcspend` module holds it by."""
    import child
    import tracer

    child.import_program()
    modules = {name: m for name, m in sys.modules.items() if name == "qcspend" or name.startswith("qcspend.")}
    holders: dict[int, list[tuple[str, str]]] = {}
    functions = {}
    for name, module in modules.items():
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) in modules and callable(value):
                holders.setdefault(id(value), []).append((name, attr))
                functions[id(value)] = value
    tracer.install(tracer.Tracer())
    problems = []
    for key, places in holders.items():
        value = functions[key]
        defining = getattr(modules[value.__module__], value.__name__, None)
        if getattr(defining, "__wrapped__", None) is not value:
            continue  # not a wrapped function
        for name, attr in places:
            if getattr(getattr(modules[name], attr), "__wrapped__", None) is not value:
                problems.append(f"{name}.{attr} is not wrapped although {value.__module__}.{value.__name__} is")
    return problems


def check_generators() -> list[str]:
    problems = []
    for name, make in workloads.SCENARIOS.items():
        a, b, other = make(1), make(1), make(2)
        if a != b:
            problems.append(f"{name}: one seed gave two configs")
        if a == other:
            problems.append(f"{name}: two seeds gave one config")
        shape = lambda c: (c["blocks"], len(c["grants"]), sorted(len(x.get("script", ())) for x in c["agents"]))
        if name == "pq-load" and shape(a) != shape(other):
            problems.append(f"{name}: two seeds gave configs of different shapes")
    a, b, other = workloads.fuzz_trials(1), workloads.fuzz_trials(1), workloads.fuzz_trials(2)
    if a != b:
        problems.append("fuzz-trials: one seed gave two trial lists")
    if a == other:
        problems.append("fuzz-trials: two seeds gave one trial list")
    if sorted(t["wait"] for t in a) != sorted(t["wait"] for t in other):
        problems.append("fuzz-trials: two seeds gave trial lists of different shapes")
    return problems


def check_correction() -> list[str]:
    import run

    interpreter, arithmetic = run.REFERENCE_NOMINAL_S
    cases = [  # seconds, group seconds, reference, expected
        (3.0, 1.0, (interpreter, arithmetic), 3.0),
        (3.0, 1.0, (2 * interpreter, arithmetic), 2.0),
        (3.0, 1.0, (interpreter, 2 * arithmetic), 2.5),
        (3.0, 0.0, (interpreter, 5 * arithmetic), 3.0),
    ]
    problems = [f"correct{case[:3]} is {run.correct(*case[:3])}, expected {case[3]}"
                for case in cases if abs(run.correct(*case[:3]) - case[3]) > 1e-9]
    if run.local_medians([[1.0, 9.0], [9.0, 1.0], [1.0, 9.0]]) != [(1.0, 9.0)] * 3:
        problems.append("local_medians does not take part-by-part medians")
    return problems


def check_traced_runs() -> list[str]:
    problems = []
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", "1"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            problems.append(f"{workload}: traced run exited with {proc.returncode}: {proc.stderr.strip()}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            problems += [line.strip() for line in proc.stdout.splitlines() if "FAILED" in line]
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args()
    problems = check_generators() + check_correction() + check_traced_runs() + check_bindings()
    for problem in problems:
        print("FAILED:", problem)
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
