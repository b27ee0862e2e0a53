"""The qcspend benchmark.

    python3 perfbench/run.py --workload pq-load|lfc-history|fuzz-trials|all
                             [--seed 1] [--seconds 30] [--trace 0|1]

Run from the root of a checkout; the program is imported from its src/.
The workloads are generated from --seed (workloads.py).  A run starts
build and verify processes in turn, one at a time (child.py): every
build process does identical work on the workload, and every verify
process replays the first build's snapshots in a fresh interpreter.
Pairs of them are started until --seconds have passed.  The run checks the
outputs and prints a report; the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

End-to-end metrics (--trace 0):
  setup_s              one set-up: scenario config plus Simulation(...), or
                       a trial's wallets and genesis chain (median)
  build_blocks_per_s   blocks per second of build (agent ticks plus block build)
  build_tx_per_s       accepted transactions per second of build
  block_p50_ms         median latency of one block (tick plus block build)
  block_p99_ms         99th percentile of it (>= 1,000 blocks, so >= 10 beyond)
  verify_blocks_per_s  blocks per second of verify_snapshot in a fresh process
  reorg_p50_ms         median latency of reorg(), branch prepared untimed
  peak_rss_mib         peak resident memory of a build process through its build
                       (median)
Every time is taken to nominal host speed before it is used.  Other
tenants of a shared host slow a process down by up to 1.7x, for a second
or for minutes, and slow the interpreter more than 2048-bit arithmetic;
uncorrected, the figures of two runs of the same code differ by as much.
So each process times a fixed reference (child.Reference) between its
timed operations and clocks the time each operation spends in 2048-bit
group operations, and `correct` scales the two parts of each time by the
slowdown of the matching part of the reference.  The reference is the
benchmark's own code, so a change to the program does not move it.  The
report prints the figures as timed beside the corrected ones.
Every build process builds the same blocks and makes the same reorgs, and
every verify process replays the same snapshots, so each block, reorg and
snapshot is timed once per process; its time is the median of its
corrected times over the processes, and the throughputs, the median and
the percentile are computed from those per-item medians.
Failed operations (a block build, a reorg, a verify or a trial that raised
or failed a check) over attempted ones are printed as ops_failed_ratio.

With --trace 1 the metrics are the per-layer metrics of one traced build
and one traced verify process (tracer.py), and the traffic and bypass
checks below decide `correct` as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEFAULT_SEED = 1
DEADLINE_S = 170
# The interpreter and arithmetic parts of the host-speed reference
# (child.Reference) on an otherwise idle 2-vCPU Intel Xeon at 2.1 GHz
# with Python 3.11: reported times are taken to this speed.
REFERENCE_NOMINAL_S = (20e-6, 25e-6)
# A block is corrected by the reference samples taken after it and after
# the BLOCK_WINDOW blocks on either side.
BLOCK_WINDOW = 25
DEADLINE_MARGIN_S = 10
# An untraced run starts pairs of one build and one verify process until
# --seconds have passed, and at least MIN_PAIRS of them.
MIN_PAIRS = 3
# Every child starts with the same hash seed, so identical processes lay
# out their dicts and sets alike.
CHILD_ENV = {"PYTHONHASHSEED": "0"}
TX_KINDS = ("TRANSFER", "FC_COMMIT", "FC_REVEAL", "LFC_COMMIT", "LFC_REVEAL", "LFC_CLAIM",
            "REGISTRY_DECLARE", "CANARY_KILL", "ESCROW_COVER")

END_TO_END = {
    "setup_s": "s",
    "build_blocks_per_s": "1/s",
    "build_tx_per_s": "1/s",
    "block_p50_ms": "ms",
    "block_p99_ms": "ms",
    "verify_blocks_per_s": "1/s",
    "reorg_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics that must be non-zero on a workload that exercises
# the wrapped function: a zero means a wrapper bound under the wrong name.
COMMON_TRAFFIC = (
    "pk_ec.secure.calls", "kdf.calls", "Wallet.calls", "Transaction.txid.calls", "Transaction.sighash.calls",
    "Block.serialize.calls", "Block.deserialize.calls", "end_block.calls", "apply_block.calls",
    "reorg.blocks_applied", "state_digest.calls", "export_snapshot.s", "verify_snapshot.s",
    "prequantum_verify.toy.calls", "prequantum_sign.toy.calls", "quantum_invert.calls",
    "LeakTracker.snapshot.calls", "Address.matches_pk.calls",
)
SCENARIO_TRAFFIC = ("Simulation.init.s", "holdings.calls", "run.self_s", "on_tick.calls", "build_block.self_s",
                    "add_tx.CANARY_KILL.calls")
TRAFFIC_CHECKS = {
    "pq-load": COMMON_TRAFFIC + SCENARIO_TRAFFIC + (
        "decode_point.secure.calls", "prequantum_verify.secure.calls", "prequantum_sign.secure.calls",
        "add_tx.FC_COMMIT.calls", "add_tx.FC_REVEAL.calls", "add_tx.FC_REVEAL.rejected",
        "pq_fee_outpoint.calls", "utxo_scan_items", "Mempool.view.calls", "derive.calls",
        "fawkescoin.challenges_defeated",
    ),
    "lfc-history": COMMON_TRAFFIC + SCENARIO_TRAFFIC + (
        "derive.calls", "keylift_sign.calls", "keylift_verify.calls", "seedlift_sign.calls",
        "seedlift_verify.calls", "validate_lfc_mempool_msg.calls", "validate_lfc_mempool_msg.rejected",
        "add_tx.LFC_COMMIT.calls", "add_tx.LFC_REVEAL.calls", "add_tx.LFC_CLAIM.calls",
        "add_tx.REGISTRY_DECLARE.calls", "leak_scan_items", "lifted_fawkescoin.extensions",
        "lifted_fawkescoin.expired_fined", "lifted_fawkescoin.claimed",
    ),
    "fuzz-trials": COMMON_TRAFFIC + (
        "decode_point.secure.calls", "prequantum_verify.secure.calls", "prequantum_sign.secure.calls",
        "add_tx.FC_COMMIT.calls", "add_tx.FC_REVEAL.calls", "add_tx.FC_REVEAL.rejected",
    ),
}
# Metrics that must be exactly zero: work a workload must bypass.
BYPASS_CHECKS = {
    "pq-load": ("lifted_fawkescoin.records",),
    "lfc-history": ("secure.calls_after_setup",),
    "fuzz-trials": ("lifted_fawkescoin.records",),
}


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> float:
    """Run one child process to its end; returns its wall seconds."""
    start = time.monotonic()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("no time left for " + " ".join(args[:1]))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                              env={**os.environ, **CHILD_ENV}, timeout=remaining, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child {args[0]} timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[0]} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return time.monotonic() - start


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def verify_failures(build: dict, verify: dict) -> list[str]:
    """Every snapshot the fresh process could not replay to the live
    chain's digest."""
    failures = []
    live = {s["path"]: s["digest"] for s in build["snapshots"]}
    for entry in verify["snapshots"]:
        if "error" in entry:
            failures.append(f"verify {entry['path']}: {entry['error']}")
        elif entry["digest"] != live[entry["path"]]:
            failures.append(f"verify {entry['path']}: replayed digest differs from the live chain")
    return failures


def typical(runs: list[list[float]]) -> list[float]:
    """Item by item, the median time over processes that timed the same
    items in the same order."""
    return [statistics.median(times) for times in zip(*runs, strict=True)]


def local_medians(samples: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """For each reference sample, part by part, the median of the samples
    within BLOCK_WINDOW places of it."""
    out = []
    for i in range(len(samples)):
        window = samples[max(0, i - BLOCK_WINDOW): i + BLOCK_WINDOW + 1]
        out.append((statistics.median(r[0] for r in window), statistics.median(r[1] for r in window)))
    return out


def correct(seconds: float, group_s: float, reference: tuple[float, float]) -> float:
    """The seconds an operation would have taken at nominal host speed:
    its time in 2048-bit group operations divided by the arithmetic
    reference's slowdown, and the rest by the interpreter reference's."""
    interpreter, arithmetic = reference
    return (seconds - group_s) * REFERENCE_NOMINAL_S[0] / interpreter + group_s * REFERENCE_NOMINAL_S[1] / arithmetic


def end_to_end(builds: list[dict], verifies: list[dict], corrected: bool = True) -> dict:
    """The end-to-end metrics; `corrected` takes each time to nominal host
    speed (`correct`) by the reference samples taken around it: for a
    block, the medians over the samples after it and after the blocks
    around it (`local_medians`); for a set-up, a reorg or a verify, the
    medians over the samples before, during and after it
    (child.Reference.bracket)."""

    def calls(times: list[float], group_s: list[float], references: list) -> list[float]:
        if not corrected:
            return times
        return [correct(*item) for item in zip(times, group_s, references, strict=True)]

    def blocks_of(build: dict) -> list[float]:
        return calls(build["block_s"], build["block_group_s"], local_medians(build["block_reference_s"]))

    def long_calls(build: dict, what: str) -> list[float]:
        return calls(*(build[f"{what}_{key}"] for key in ("s", "group_s", "reference_s")))

    blocks = typical([blocks_of(b) for b in builds])
    build_s = sum(blocks)
    verified = [s for v in verifies for s in v["snapshots"]]
    if any("s" not in s for s in verified):
        raise ArithmeticError("a snapshot failed to verify")
    verify_s = typical([calls(*([s[key] for s in v["snapshots"]] for key in ("s", "group_s", "reference_s")))
                        for v in verifies])
    setups = [t for b in builds for t in long_calls(b, "setup")]
    reorgs = typical([long_calls(b, "reorg") for b in builds])
    return {
        "setup_s": statistics.median(setups),
        "build_blocks_per_s": len(blocks) / build_s,
        "build_tx_per_s": builds[0]["txs"] / build_s,
        "block_p50_ms": 1e3 * statistics.median(blocks),
        "block_p99_ms": 1e3 * percentile(blocks, 0.99),
        "verify_blocks_per_s": sum(s["blocks"] for s in verifies[0]["snapshots"]) / sum(verify_s),
        "reorg_p50_ms": 1e3 * statistics.median(reorgs),
        "peak_rss_mib": statistics.median(b["peak_rss_kib"] for b in builds) / 1024,
    }


def per_layer(build: dict, verify: dict, reference: dict) -> dict:
    """The per-layer metrics from the traced build and verify processes;
    `reference` is an untraced build of the same seed."""
    bt, vt = build["trace"], verify["trace"]
    spans: dict[str, dict] = {}
    for summary in (bt, vt):
        for name, entry in summary["spans"].items():
            merged = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in merged:
                merged[key] += entry[key]
    counts = {k: bt["counts"].get(k, 0) + vt["counts"].get(k, 0) for k in set(bt["counts"]) | set(vt["counts"])}
    distinct = {k: bt["distinct"].get(k, 0) + vt["distinct"].get(k, 0) for k in set(bt["distinct"]) | set(vt["distinct"])}

    def span(name: str, field: str = "calls"):
        return spans.get(name, {}).get(field, 0)

    m: dict[str, tuple] = {}

    def calls_s(name: str, *fields: str) -> None:
        for field in fields or ("calls", "s"):
            m[f"{name}.{field}"] = (span(name, field), "count" if field == "calls" else "s")

    # groups
    calls_s("decode_point.secure")
    n = span("decode_point.secure")
    m["decode_point.secure.distinct_ratio"] = (distinct.get("decode_point.secure", 0) / n if n else 0.0, "ratio")
    calls_s("prequantum_verify.secure")
    n = span("prequantum_verify.secure")
    m["prequantum_verify.secure.repeat_ratio"] = (
        1 - distinct.get("prequantum_verify.secure", 0) / n if n else 0.0, "ratio")
    for name in ("prequantum_sign.secure", "pk_ec.secure", "prequantum_verify.toy", "prequantum_sign.toy",
                 "quantum_invert"):
        calls_s(name)
    m["secure.share"] = (bt["secure_build_s"] / bt["build_s"] if bt["build_s"] else 0.0, "ratio")
    m["secure.calls_after_setup"] = (bt["secure_calls_after_setup"] + vt["secure_calls_after_setup"], "count")
    # hdwallet, lifting
    for name in ("kdf", "derive", "keylift_sign", "keylift_verify", "seedlift_sign", "seedlift_verify"):
        calls_s(name)
    # ledger
    for name in ("Transaction.txid", "Transaction.sighash", "Block.serialize", "Block.deserialize"):
        calls_s(name)
    for name in ("LeakTracker.snapshot.calls", "leak_scan_items", "Address.matches_pk.calls"):
        m[name] = (counts.get(name, 0), "count")
    # traffic at the end of the build
    for name, value in build["end_of_build"].items():
        m[name] = (value, "count")
    # consensus
    for kind in TX_KINDS:
        calls_s(f"add_tx.{kind}")
        m[f"add_tx.{kind}.rejected"] = (counts.get(f"add_tx.{kind}.rejected", 0), "count")
    calls_s("validate_lfc_mempool_msg")
    m["validate_lfc_mempool_msg.rejected"] = (counts.get("validate_lfc_mempool_msg.rejected", 0), "count")
    calls_s("end_block")
    m["end_block.late_over_early"] = (bt["end_block_late_over_early"] or 0.0, "ratio")
    calls_s("apply_block")
    reorgs = span("reorg")
    m["reorg.blocks_applied"] = (bt["reorg_blocks_applied"] / reorgs if reorgs else 0.0, "count")
    calls_s("state_digest")
    calls_s("export_snapshot", "s")
    calls_s("verify_snapshot", "s")
    # agents, simulation
    calls_s("Wallet")
    calls_s("on_tick", "calls", "self_s")
    calls_s("build_block", "self_s")
    for name in ("pq_fee_outpoint.calls", "utxo_scan_items", "Mempool.view.calls"):
        m[name] = (counts.get(name, 0), "count")
    calls_s("Simulation.init", "s")
    calls_s("holdings")
    calls_s("run", "self_s")
    traced_wall = sum(build["setup_s"]) + build["build_s"]
    untraced_wall = sum(reference["setup_s"]) + reference["build_s"]
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return m


def traffic_problems(workload: str, metrics: dict) -> list[str]:
    problems = [f"{name} is 0 on {workload}" for name in TRAFFIC_CHECKS[workload] if not metrics[name][0]]
    problems += [f"{name} is {metrics[name][0]} on {workload}, expected 0"
                 for name in BYPASS_CHECKS[workload] if metrics[name][0]]
    return problems


def determinism_problems(a: dict, b: dict) -> list[str]:
    """Two builds of one seed must count the same traffic and end in the
    same state."""
    problems = [f"{key} differs between two builds of one seed"
                for key in ("txs", "accepted_by_kind", "rejected_by_kind", "rejected_by_rule", "end_of_build",
                            "build_digests")
                if a[key] != b[key]]
    problems += [f"{key} count differs between two builds of one seed"
                 for key in ("block_s", "reorg_s") if len(a[key]) != len(b[key])]
    return problems


def describe(build: dict) -> list[str]:
    def combined(digests: list[str]) -> str:
        return hashlib.sha256("".join(digests).encode()).hexdigest()

    return [f"  accepted by kind:  {json.dumps(build['accepted_by_kind'])}",
            f"  rejected by kind:  {json.dumps(build['rejected_by_kind'])}",
            f"  rejected by rule:  {json.dumps(build['rejected_by_rule'])}",
            f"  state digest after build ({len(build['build_digests'])} chains): {combined(build['build_digests'])}",
            f"  final state digest ({len(build['snapshots'])} chains): "
            f"{combined([s['digest'] for s in build['snapshots']])}"]


def run_workload(workload: str, seed: int, seconds: int, trace: bool, out_root: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out = out_root / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed)]

    wall: dict[str, list[float]] = {"build": [], "verify": []}

    def build(name: str, *flags: str) -> dict:
        (out / name).mkdir(parents=True)
        wall["build"].append(run_child(["build", *common, "--out", str(out / name), *flags], deadline))
        return json.loads((out / name / "build.json").read_text())

    def verify(name: str, *flags: str) -> dict:
        result = out / "check" / f"{name}.json"
        wall["verify"].append(run_child(["verify", "--out", str(out / "check"), "--result", str(result), *flags],
                                        deadline))
        return json.loads(result.read_text())

    # The first build gates its reorgs and writes the snapshots.  No two
    # processes run at once: each starts after the one before it exited.
    if trace:
        reference = build("reference")
        builds = [build("check", "--check", "--trace")]
        verifies = [verify("verify", "--trace")]
        others = [reference]
    else:
        start = time.monotonic()
        builds = [build("check", "--check")]
        verifies = [verify("verify0")]
        while len(builds) < MIN_PAIRS or time.monotonic() - start < seconds:
            longest = max(wall["build"]) + max(wall["verify"])
            if time.monotonic() + longest > deadline - DEADLINE_MARGIN_S:
                break
            builds.append(build(f"repeat{len(builds)}"))
            verifies.append(verify(f"verify{len(verifies)}"))
        others = builds[1:]
    first = builds[0]
    for snap in first["snapshots"]:
        (out / "check" / snap["path"]).unlink()

    failures = [f for b in builds for f in b["failures"]]
    for v in verifies:
        failures += verify_failures(first, v)
    problems = [p for other in others for p in determinism_problems(first, other)]
    attempted = sum(b["attempted"] for b in builds) + sum(len(v["snapshots"]) for v in verifies)
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
    print(f"  chains {first['chains']}, blocks built {len(first['block_s'])}, transactions accepted {first['txs']}, "
          f"set-ups {len(first['setup_s'])}, reorgs {len(first['reorg_s'])}, snapshots verified "
          f"{len(first['snapshots'])}; {len(builds)} build and {len(verifies)} verify processes of median "
          f"{statistics.median(wall['build']):.2f} s and {statistics.median(wall['verify']):.2f} s")
    print("\n".join(describe(first)))
    if trace:
        metrics = per_layer(first, verifies[0], reference)
        problems += traffic_problems(workload, metrics)
        for name, (value, unit) in metrics.items():
            print(f"  {name:42s} {value:>16.6g} {unit}")
    else:
        try:
            values = end_to_end(builds, verifies)
            timed = end_to_end(builds, verifies, corrected=False)
        except (ArithmeticError, ValueError):  # a process timed too little: the run failed
            values = timed = dict.fromkeys(END_TO_END, 0.0)
            problems.append("too few operations completed to compute the metrics")
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        samples = {"setup_s": len(builds) * len(first["setup_s"]), "block_p50_ms": len(first["block_s"]),
                   "block_p99_ms": len(first["block_s"]), "reorg_p50_ms": len(first["reorg_s"])}
        slowdowns = [[statistics.median(r[part] for r in b["block_reference_s"]) / REFERENCE_NOMINAL_S[part]
                      for b in builds] for part in (0, 1)]
        print(f"  {len(builds)} build and {len(verifies)} verify processes; each block, reorg and snapshot"
              f" timed as the median over them; n = samples")
        for part, factors in zip(("interpreter", "arithmetic"), slowdowns):
            print(f"  host slowdown of the {part} reference over the build processes: {min(factors):.3f} to "
                  f"{max(factors):.3f}, median {statistics.median(factors):.3f}")
        print(f"  {'':22s} {'corrected':>14s} {'as timed':>14s}")
        for name, (value, unit) in metrics.items():
            n = f"  (n={samples[name]})" if name in samples else ""
            print(f"  {name:22s} {value:>14.6g} {timed[name]:>14.6g} {unit}{n}")
    print(f"  {'ops_failed_ratio':22s} {len(failures) / attempted:>14.6g} ratio  ({len(failures)} of {attempted})")
    for problem in failures + problems:
        print(f"  FAILED: {problem}")
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qcspend" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'qcspend'} is missing", file=sys.stderr)
        return 2
    out_root = ROOT / ".perfbench_out"
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), out_root)
        except ChildFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
