"""The two processes a benchmark run starts.

    child.py build  --workload W --seed S --out DIR [--check] [--trace]
    child.py verify --out DIR --result FILE [--trace]

`build` sets up, builds and reorgs the workload's chains and writes
DIR/build.json; with --check it also replays each reorged chain against
a clean replay and writes each final chain's snapshot into DIR.
`verify` is started only after `build` has exited; in a fresh
interpreter it replays every snapshot in DIR through `verify_snapshot`,
as `qcspend verify` does, and writes FILE.  With --trace a process also
records spans and writes them next to its result as spans-*.tsv.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path

import workloads
from tracer import Tracer, install, perf

ROOT = Path(__file__).resolve().parent.parent

# Reorgs measured on the final chain of each scenario run.
SCENARIO_REORGS = {"pq-load": 1, "lfc-history": 2}
# A build process builds one scenario or runs the fuzz trials once.  Its
# work does not depend on --seconds: a longer run starts more processes
# (run.py).


def import_program():
    """Import qcspend from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qcspend

    if not Path(qcspend.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"qcspend imported from {qcspend.__file__}, not from {src}")
    return qcspend


def warm_caches() -> None:
    """Build the process-wide group parameters before anything is timed.

    The 2048-bit group's construction (a primality check on q, ~0.4 s) and
    the small groups' are cached for the life of a process, so only the
    first set-up or verify in a process would pay for them; timing that
    once-per-process cost would make one sample of each process an
    outlier."""
    from qcspend.groups import secure_group, toy_group

    secure_group()
    for q in (8191, workloads.SCENARIO_GROUP_Q):
        toy_group(q)


# The reference's 2048-bit arithmetic: a modulus the size of the secure
# group's and a base as large.
REFERENCE_MODULUS = (1 << 2048) - 159
REFERENCE_BASE = REFERENCE_MODULUS // 3
# Reference samples taken before and after each long timed call.
BRACKET_SAMPLES = 24


class Reference:
    """Host-speed reference of a process, so that run.py can tell how fast
    the host ran each timed operation.

    Other tenants of a shared host slow a process down, and they slow the
    interpreter more than they slow 2048-bit arithmetic.  So the reference
    is two fixed pieces of work, timed apart: hashing and dictionary
    updates in the interpreter, and a 2048-bit modular exponentiation.
    Samples of both are taken between the timed operations, and the time
    each operation spends in 2048-bit group operations is clocked
    (`clock_group`), so that run.py can correct the two parts of its time
    each by its own part of the reference.

    The reference creates no objects the garbage collector tracks and runs
    with the collector off, so the program's garbage never lands in its
    time.  An inactive reference (in a traced process, whose times are not
    corrected) takes no samples and clocks nothing."""

    def __init__(self, active: bool = True):
        self.active = active
        self.samples: list[tuple[float, float]] = []  # (interpreter s, arithmetic s)
        self.table: dict[int, int] = {}
        self.sampling_s = 0.0  # wall time spent taking samples, overhead included
        self.group_s = 0.0  # wall time spent in 2048-bit group operations
        self.depth = 0

    def interpreter_work(self) -> None:
        h = b"qcspend-reference"
        table = self.table
        for i in range(32):
            h = hashlib.sha256(h).digest()
            table[h[0]] = table.get(h[1], 0) + i

    @staticmethod
    def arithmetic_work() -> None:
        pow(REFERENCE_BASE, 3, REFERENCE_MODULUS)

    def sample(self, n: int = 1) -> list[tuple[float, float]]:
        if not self.active:
            return []
        begin = perf()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                start = perf()
                self.interpreter_work()
                middle = perf()
                self.arithmetic_work()
                self.samples.append((middle - start, perf() - middle))
        finally:
            if enabled:
                gc.enable()
        self.sampling_s += perf() - begin
        return self.samples[-n:]

    def timed(self, fn) -> tuple:
        """Run fn; returns its result, its seconds and the seconds of them
        it spent in 2048-bit group operations."""
        group_s = self.group_s
        start = perf()
        result = fn()
        return result, perf() - start, self.group_s - group_s

    def bracket(self, fn) -> tuple:
        """Time one long call.  Returns its result, its seconds, its group
        seconds, and the median reference sample over the samples before,
        during (`sample_between_blocks`) and after it.  The seconds exclude
        the samples taken during the call."""
        before = self.sample(BRACKET_SAMPLES)
        first, sampling_s = len(self.samples), self.sampling_s
        result, elapsed, group_s = self.timed(fn)
        elapsed -= self.sampling_s - sampling_s
        around = before + self.samples[first:] + self.sample(BRACKET_SAMPLES)
        return result, elapsed, group_s, median_sample(around)

    def sample_between_blocks(self) -> None:
        """Take a sample after each block a chain replays, so that a long
        replay (a reorg or a verify) has samples from its whole length."""
        from qcspend.consensus import Chain

        original = Chain.apply_block
        reference = self

        def apply_block(self, block):
            original(self, block)
            reference.sample()

        Chain.apply_block = apply_block

    def clock_group(self) -> None:
        """Clock the outermost calls of the secure group's operations."""
        from qcspend import groups
        from tracer import _rebind_function, _rebind_method

        reference = self

        def clocked(fn, group_of):
            def wrapper(*args, **kwargs):
                if reference.depth or group_of(args).mode is not groups.GroupMode.SECURE:
                    return fn(*args, **kwargs)
                reference.depth += 1
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    reference.group_s += perf() - start
                    reference.depth -= 1

            wrapper.__wrapped__ = fn
            return wrapper

        for attr in ("decode_point", "pk_ec", "prequantum_sign", "prequantum_verify"):
            _rebind_function("qcspend.groups", attr, lambda f: clocked(f, lambda args: args[0]))
        _rebind_method(groups.GroupPoint, "mul", lambda f: clocked(f, lambda args: args[0].group))

    def install(self) -> None:
        if self.active:
            self.sample_between_blocks()
            self.clock_group()


def median_sample(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """Part by part, the median of reference samples; zeros for none."""
    if not samples:
        return (0.0, 0.0)
    return (statistics.median(i for i, _ in samples), statistics.median(a for _, a in samples))


class Recorder:
    """What one build process measured, counted and checked."""

    def __init__(self, tracer: Tracer | None, checked: bool):
        self.tracer = tracer or Tracer()
        self.checked = checked
        self.reference = Reference(active=tracer is None)
        self.setup_s: list[float] = []
        self.setup_group_s: list[float] = []
        self.setup_reference_s: list[tuple[float, float]] = []
        self.build_digests: list[str] = []
        self.block_s: list[float] = []
        self.block_group_s: list[float] = []
        self.block_reference_s: list[tuple[float, float]] = []
        self.reorg_s: list[float] = []
        self.reorg_group_s: list[float] = []
        self.reorg_reference_s: list[tuple[float, float]] = []
        self.txs = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.accepted_by_kind: Counter = Counter()
        self.rejected_by_kind: Counter = Counter()
        self.rejected_by_rule: Counter = Counter()
        self.end_of_build: Counter = Counter()
        self.snapshots: list[dict] = []
        self.peak_rss_kib = 0

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def record(self, what: str, elapsed: float, group_s: float, reference: tuple[float, float]) -> None:
        """One timed block, set-up or reorg: its seconds, the seconds of them
        spent in 2048-bit group operations, and the reference sample that
        goes with it (see Reference)."""
        getattr(self, f"{what}_s").append(elapsed)
        getattr(self, f"{what}_group_s").append(group_s)
        getattr(self, f"{what}_reference_s").append(reference)

    def timed_block(self, fn) -> None:
        _, elapsed, group_s = self.reference.timed(fn)
        self.record("block", elapsed, group_s, median_sample(self.reference.sample()))

    def timed_call(self, what: str, fn):
        result, elapsed, group_s, reference = self.reference.bracket(fn)
        self.record(what, elapsed, group_s, reference)
        return result

    def sample_rss(self) -> None:
        self.peak_rss_kib = max(self.peak_rss_kib, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def count_txs(self, txs) -> None:
        for tx in txs:
            self.txs += 1
            self.accepted_by_kind[tx.kind.name] += 1

    def count_violations(self, chain) -> None:
        for _height, rule, detail in chain.violations:
            self.rejected_by_rule[rule] += 1
            if detail.startswith("mempool:"):
                self.rejected_by_kind["mempool"] += 1

    def digest_after_build(self, chain) -> None:
        with self.tracer.paused():
            self.build_digests.append(chain.state_digest().hex())

    def finish_chain(self, chain) -> None:
        """End-of-build traffic counts and sizes, and the balance audit."""
        from qcspend.fawkescoin import ChallengeStatus
        from qcspend.lifted_fawkescoin import LfcState
        from qcspend.rules import RuleViolation

        states = Counter(r.state for r in chain.lfc_by_hash.values())
        self.end_of_build.update({
            "fawkescoin.commitments": sum(len(v) for v in chain.fc_commitments.values()),
            "fawkescoin.challenges": len(chain.challenges),
            "fawkescoin.challenges_defeated": sum(
                r.status is ChallengeStatus.DEFEATED for r in chain.challenges.values()
            ),
            "lifted_fawkescoin.records": len(chain.lfc_by_hash),
            "lifted_fawkescoin.revealed": states[LfcState.REVEALED],
            "lifted_fawkescoin.claimed": states[LfcState.CLAIMED_BY_MINER],
            "lifted_fawkescoin.expired_fined": states[LfcState.EXPIRED_FINED],
            "lifted_fawkescoin.extensions": sum(e.extension for e in chain.epochs),
            "utxos": len(chain.utxos),
            "leaks": len(chain.leaks.snapshot()),
            "blocks": len(chain.blocks),
        })
        with self.tracer.paused():
            try:
                chain.recompute_balance()
            except RuleViolation as exc:
                self.failures.append(f"balance audit: {exc}")

    def gate(self, config, chain) -> bool:
        """The chain after a reorg must equal a clean replay of its blocks."""
        from qcspend import consensus

        if not self.checked:
            return True
        with self.tracer.paused():
            clean = consensus.replay_chain(config, chain.blocks)
            return clean.state_digest() == chain.state_digest()

    def save_snapshot(self, out: Path, index: int, chain, export) -> None:
        if not self.checked:
            return
        with self.tracer.phase("snapshot"):
            text = export()
        path = out / f"snapshot-{index:04d}.txt"
        path.write_text(text)
        with self.tracer.paused():
            digest = chain.state_digest().hex()
        self.snapshots.append({"path": path.name, "blocks": len(chain.blocks) - 1, "digest": digest})


def count_try_add_tx(recorder: Recorder) -> None:
    """Count builder-side rejections by transaction kind (a counter only;
    it times nothing and runs with tracing off too)."""
    from qcspend.consensus import Chain

    original = Chain.try_add_tx

    def try_add_tx(self, tx):
        violation = original(self, tx)
        if violation is not None:
            recorder.rejected_by_kind[tx.kind.name] += 1
        return violation

    Chain.try_add_tx = try_add_tx


def build_branch(chain, length: int, miner_id: str, address) -> list:
    """Blocks of an alternative branch grown from the chain as it stands.

    A forked copy of this process grows them, so the live chain is left
    as it is and none of the copy's memory counts against this process."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            blocks = []
            for _ in range(length):
                chain.begin_block(miner_id, address)
                blocks.append(chain.end_block())
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(pickle.dumps(blocks))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"branch builder exited with status {status}")
    return pickle.loads(data)


# -- scenario workloads ------------------------------------------------------------


def run_scenario(rec: Recorder, workload: str, seed: int, out: Path):
    from qcspend import consensus
    from qcspend.groups import address_hash
    from qcspend.ledger import Address, AddrKind
    from qcspend.simulation import ScenarioConfig, Simulation

    data = workloads.SCENARIOS[workload](seed)
    blocks = data["blocks"]
    rng = random.Random(f"{workload}:{seed}:plan")
    tracer = rec.tracer
    sim_seed = rng.randrange(1 << 31)
    forks = workloads.fork_heights(rng, blocks, SCENARIO_REORGS[workload])
    with tracer.phase("setup"):
        sim = rec.timed_call("setup", lambda: Simulation(ScenarioConfig.from_dict(data), seed=sim_seed))

    branches = {}
    try:
        with tracer.phase("build"):
            for _ in range(blocks):
                rec.attempted += 1
                rec.timed_block(lambda: sim.run(1))
                k = forks.index(sim.chain.height) if sim.chain.height in forks else None
                if k is not None:
                    with tracer.paused():
                        depth = blocks + k - forks[k]
                        miner = Address(AddrKind.POST_QUANTUM, address_hash(b"reorg-miner-%d" % k))
                        branches[k] = build_branch(sim.chain, depth + 1, f"reorg{k}", miner)
    except Exception:
        rec.failures.append(f"block {sim.chain.height + 1}: {traceback.format_exc()}")
        return
    rec.sample_rss()
    rec.count_txs(tx for block in sim.chain.blocks[1:] for tx in block.transactions)
    rec.count_violations(sim.chain)
    rec.digest_after_build(sim.chain)
    rec.finish_chain(sim.chain)

    config = sim.chain_config
    live = sim.chain
    for k in range(len(forks)):
        last = k == len(forks) - 1
        try:
            with tracer.phase("reorg"):  # the tail is quiet
                rebuilt, _abandoned = rec.timed_call("reorg", lambda: consensus.reorg(live, config, branches[k]))
            # The cold verify replays the last reorg's chain itself.
            ok = last or rec.gate(config, rebuilt)
            rec.op(ok, f"reorg {k}: digest differs from a clean replay")
            live = rebuilt
        except Exception:
            rec.op(False, f"reorg {k}: {traceback.format_exc()}")
            break
    sim.chain = live
    rec.save_snapshot(out, len(rec.snapshots), live, sim.snapshot)


# -- fuzz-trials ------------------------------------------------------------------

TRIAL_KDF_ITERATIONS = 8


class Trial:
    """One short chain in the shape of the tier-1 front-running and
    bounded-reorg fuzz loops: in-era from genesis, one hashed output of
    alice's with its own wait, and a post-quantum fee output each for
    alice and eve."""

    def __init__(self, spec: dict):
        from qcspend.agents import Wallet
        from qcspend.consensus import ChainConfig, GenesisGrant
        from qcspend.groups import pk_ec, toy_group
        from qcspend.hdwallet import DerivationPath
        from qcspend.ledger import pk_hash_address
        from qcspend.params import Params

        self.group = toy_group(8191)
        params = Params().with_overrides(era_countdown=0, wait_blocks=spec["wait"], max_reorg_depth=spec["wait"])
        self.wallets = {
            name: Wallet(self.group, name, spec["wallet_seed"], TRIAL_KDF_ITERATIONS)
            for name in ("alice", "eve", "m0", "m1")
        }
        self.path = DerivationPath.parse("m/0h/0/0")
        alice_pk = self.wallets["alice"].derived_pk(self.path)
        grants = (
            GenesisGrant(pk_hash_address(alice_pk), spec["value"], spec["wait"]),
            GenesisGrant(self.wallets["alice"].pq_address(), 1_000),
            GenesisGrant(self.wallets["eve"].pq_address(), 1_000),
        )
        self.config = ChainConfig(
            params=params,
            group_q=8191,
            canary_q=8191,
            canary_pk=pk_ec(self.group, 4242).encode(),
            canary_nonce=b"nonce" * 4,
            canary_killed_at=0,
            grants=grants,
        )
        self.chain = self.config.build()
        genesis = self.chain.blocks[0].coinbase.txid()
        self.u1, self.fee_alice, self.fee_eve = ((genesis, i) for i in range(3))

    def block(self, txs, miner: str = "m0") -> list:
        self.chain.begin_block(miner, self.wallets[miner].pq_address())
        outcomes = [self.chain.try_add_tx(tx) for tx in txs]
        self.chain.end_block()
        return outcomes

    def signed(self, kind, inputs, outputs, payload=b""):
        """inputs: (outpoint, wallet, sk) with sk None for the wallet's
        post-quantum key."""
        from qcspend.ledger import Transaction, TxInput

        skeleton = Transaction(kind, tuple(TxInput(op) for op, _, _ in inputs), tuple(outputs), payload)
        sighash = skeleton.sighash()
        signed_inputs = tuple(
            TxInput(op, wallet.witness_pq(sighash) if sk is None else wallet.witness_pre(sk, sighash))
            for op, wallet, sk in inputs
        )
        return Transaction(kind, signed_inputs, tuple(outputs), payload)

    def hashed_reveal(self, wallet, sk, value: int):
        from qcspend.fawkescoin import RevealMode, RevealPayload
        from qcspend.ledger import TxKind, TxOutput

        payload = RevealPayload(RevealMode.HASHED).serialize(self.group)
        return self.signed(TxKind.FC_REVEAL, [(self.u1, wallet, sk)], [TxOutput(wallet.pq_address(), value)], payload)

    def commit(self, owner: str, fee_outpoint, committed: bytes):
        from qcspend.fawkescoin import commit_payload
        from qcspend.ledger import TxKind, TxOutput

        wallet = self.wallets[owner]
        value = self.chain.utxos[fee_outpoint].value
        return self.signed(TxKind.FC_COMMIT, [(fee_outpoint, wallet, None)],
                           [TxOutput(wallet.pq_address(), value)], commit_payload(committed))


def run_trial(rec: Recorder, spec: dict, index: int, out: Path) -> None:
    from qcspend import consensus
    from qcspend.groups import decode_point, quantum_invert

    tracer = rec.tracer
    with tracer.phase("setup"):
        t = rec.timed_call("setup", lambda: Trial(spec))
    wait, depth = spec["wait"], spec["depth"]
    alice, eve = t.wallets["alice"], t.wallets["eve"]
    problems: list[str] = []

    def expect(outcomes, rules, what):
        got = [None if v is None else v.rule for v in outcomes]
        if got != rules:
            problems.append(f"{what}: expected {rules}, got {got}")

    def run_block(txs_of, expected=None, what=""):
        def body():
            txs = txs_of()
            outcomes = t.block(txs)
            rec.count_txs(tx for tx, v in zip(txs, outcomes) if v is None)
            if expected is not None:
                expect(outcomes, expected, what)

        rec.attempted += 1
        rec.timed_block(body)

    state = {}

    def commit_block():
        state["reveal"] = t.hashed_reveal(alice, alice.derived_sk(t.path), spec["value"] - spec["fee"])
        return [t.commit("alice", t.fee_alice, state["reveal"].txid())]

    def reveal_block():
        # The adversary reads the key out of the broadcast reveal and starts
        # its own cycle in the same block.
        sk = quantum_invert(decode_point(t.group, state["reveal"].inputs[0].witness.pk))
        state["steal"] = t.hashed_reveal(eve, sk, spec["value"])
        return [state["reveal"], t.commit("eve", t.fee_eve, state["steal"].txid())]

    fork = None
    with tracer.phase("build"):
        for _ in range(spec["premine"]):
            run_block(list)
        run_block(commit_block, [None], "commit")
        fork_height = t.chain.height + wait - depth  # the reveal lands at commit height + wait
        for _ in range(wait - 1):
            run_block(list)
            if t.chain.height == fork_height:
                with tracer.paused():
                    fork = build_branch(t.chain, depth + 1, "m1", t.wallets["m1"].pq_address())
        run_block(reveal_block, [None, None], "reveal")
    rec.sample_rss()
    rec.count_violations(t.chain)

    with tracer.phase("reorg"):
        rebuilt, abandoned = rec.timed_call("reorg", lambda: consensus.reorg(t.chain, t.config, fork))
    rec.op(rec.gate(t.config, rebuilt), f"trial {index}: reorg digest differs from a clean replay")
    if rebuilt.utxo(t.u1) is None:
        problems.append("the reorg displaced the honest commitment")
    t.chain = rebuilt
    with tracer.phase("build"):
        run_block(lambda: abandoned, [None, None], "rebroadcast")
        for _ in range(wait):
            run_block(list)
        # The adversary's commitment is ripe, but the output is gone.
        run_block(lambda: [state["steal"]], ["utxo-missing"], "steal")
    if t.chain.utxo(t.u1) is not None:
        problems.append("the honest spend did not land")
    rec.count_violations(t.chain)
    rec.digest_after_build(t.chain)
    rec.finish_chain(t.chain)
    rec.save_snapshot(out, index, t.chain, lambda: consensus.export_snapshot(t.chain, t.config))
    rec.op(not problems, f"trial {index}: " + "; ".join(problems))


# -- entry points -------------------------------------------------------------------


def build_main(args) -> None:
    out = Path(args.out)
    tracer = Tracer() if args.trace else None
    rec = Recorder(tracer, args.check)
    if tracer is not None:
        install(tracer)
        tracer.enabled = True
    count_try_add_tx(rec)
    rec.reference.install()
    warm_caches()
    if args.workload in workloads.SCENARIOS:
        chains = 1
        run_scenario(rec, args.workload, args.seed, out)
    else:
        trials = workloads.fuzz_trials(args.seed)
        chains = len(trials)
        for index, spec in enumerate(trials):
            try:
                run_trial(rec, spec, index, out)
            except Exception:
                rec.op(False, f"trial {index}: {traceback.format_exc()}")
    rec.tracer.enabled = False
    result = {
        "chains": chains,
        "setup_s": rec.setup_s,
        "build_digests": rec.build_digests,
        "block_s": rec.block_s,
        "build_s": sum(rec.block_s),
        "txs": rec.txs,
        "reorg_s": rec.reorg_s,
        "setup_group_s": rec.setup_group_s,
        "setup_reference_s": rec.setup_reference_s,
        "block_group_s": rec.block_group_s,
        "block_reference_s": rec.block_reference_s,
        "reorg_group_s": rec.reorg_group_s,
        "reorg_reference_s": rec.reorg_reference_s,
        "peak_rss_kib": rec.peak_rss_kib,
        "attempted": rec.attempted,
        "failures": rec.failures,
        "accepted_by_kind": dict(sorted(rec.accepted_by_kind.items())),
        "rejected_by_kind": dict(sorted(rec.rejected_by_kind.items())),
        "rejected_by_rule": dict(sorted(rec.rejected_by_rule.items())),
        "end_of_build": dict(rec.end_of_build),
        "snapshots": rec.snapshots,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(out / "spans-build.tsv")
    (out / "build.json").write_text(json.dumps(result))


def verify_main(args) -> None:
    from qcspend import consensus
    from qcspend.rules import RuleViolation

    out = Path(args.out)
    result_path = Path(args.result)
    snapshots = json.loads((out / "build.json").read_text())["snapshots"]
    tracer = Tracer()
    if args.trace:
        install(tracer)
        tracer.enabled = True
    warm_caches()
    reference = Reference(active=not args.trace)
    reference.install()
    results = []
    for snap in snapshots:
        text = (out / snap["path"]).read_text()
        entry = {"path": snap["path"], "blocks": snap["blocks"]}
        try:
            start = perf()
            chain, entry["s"], entry["group_s"], entry["reference_s"] = reference.bracket(
                lambda: consensus.verify_snapshot(text))
            tracer.phases.append(("verify", start, perf()))
            with tracer.paused():
                entry["digest"] = chain.state_digest().hex()
        except RuleViolation as exc:
            entry["error"] = f"{exc.rule}: {exc.detail}"
        results.append(entry)
    result = {"snapshots": results}
    if args.trace:
        tracer.enabled = False
        result["trace"] = tracer.summary()
        tracer.dump(result_path.with_name("spans-" + result_path.stem + ".tsv"))
    result_path.write_text(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("process", choices=("build", "verify"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", help="verify: where to write the result")
    parser.add_argument("--check", action="store_true", help="build: gate each reorg and write snapshots")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    import_program()
    if args.process == "build":
        build_main(args)
    else:
        verify_main(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
