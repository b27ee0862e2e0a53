"""Spans and counters recorded from outside the program.

`install` wraps the functions and methods each layer exposes.  A module
function is rebound in its defining module and in every `qcspend` module
that imported it by name (`from .groups import decode_point`), so calls
through either name are seen; a method is replaced on its class.

A span is (name, start, end, parent) and lives in compact arrays until
the process writes it out.  Self time is a span's duration minus the
time its direct child spans cover.  Functions called in hot loops only
for their count (`Address.matches_pk`, `LeakTracker.snapshot`, ...) get a
counter, not a span.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.phases: list[tuple[str, float, float]] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.ends)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        start = perf()
        try:
            yield
        finally:
            self.phases.append((name, start, perf()))

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for nid, start, end, parent in zip(self.name_ids, self.starts, self.ends, self.parents):
                fh.write(f"{names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def summary(self) -> dict:
        """Per-name calls, busy and self seconds, plus the derived figures
        the per-layer metrics need.  Counts and seconds add across
        processes; the build-only figures come from the build process."""
        n = len(self.ends)
        names, nids, parents = self.names, self.name_ids, self.parents
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child_time[parents[i]] += durations[i]

        def has_ancestor(i: int, test) -> bool:
            p = parents[i]
            while p >= 0:
                if test(names[nids[p]]):
                    return True
                p = parents[p]
            return False

        def in_phase(t: float, wanted: str) -> bool:
            return any(name == wanted and a <= t <= b for name, a, b in self.phases)

        spans: dict[str, dict] = {}
        secure_build_s = 0.0
        secure_after_setup = 0
        applied_in_reorg = 0
        build_end_blocks: list[float] = []
        for i in range(n):
            name = names[nids[i]]
            entry = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += durations[i]
            entry["self_s"] += durations[i] - child_time[i]
            if ".secure" in name:
                if not in_phase(self.starts[i], "setup"):
                    secure_after_setup += 1
                if in_phase(self.starts[i], "build") and not has_ancestor(i, lambda a: ".secure" in a):
                    secure_build_s += durations[i]
            elif name == "apply_block" and has_ancestor(i, lambda a: a == "reorg"):
                applied_in_reorg += 1
            elif name == "end_block" and in_phase(self.starts[i], "build") and not has_ancestor(
                i, lambda a: a == "apply_block"
            ):
                build_end_blocks.append(durations[i])

        late_over_early = None
        if len(build_end_blocks) >= 10:
            tenth = len(build_end_blocks) // 10
            late_over_early = statistics.median(build_end_blocks[-tenth:]) / statistics.median(
                build_end_blocks[:tenth]
            )
        build_s = sum(b - a for name, a, b in self.phases if name == "build")
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "secure_build_s": secure_build_s,
            "secure_calls_after_setup": secure_after_setup,
            "reorg_blocks_applied": applied_in_reorg,
            "end_block_late_over_early": late_over_early,
            "build_s": build_s,
        }


# -- wrappers --------------------------------------------------------------------


def _spanned(tracer: Tracer, fn, name_of, on_call=None, rejection=None):
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        name = name_of(args)
        if name is None:
            return fn(*args, **kwargs)
        if on_call is not None:
            on_call(name, args)
        i = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            if rejection is not None and isinstance(exc, rejection):
                tracer.counts[name + ".rejected"] += 1
            raise
        finally:
            tracer.close(i)

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(tracer: Tracer, fn, name: str, items=None):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.enabled:
            tracer.counts[name + ".calls"] += 1
            if items is not None:
                tracer.counts[items[0]] += items[1](args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _rebind_function(module_name: str, attr: str, make) -> None:
    original = getattr(sys.modules[module_name], attr)
    wrapped = make(original)
    for name, module in list(sys.modules.items()):
        if (name == "qcspend" or name.startswith("qcspend.")) and getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def _rebind_method(cls, attr: str, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install(tracer: Tracer) -> None:
    """Wrap every function the per-layer metrics name.  Call after the
    `qcspend` modules are imported and before any work is done."""
    from qcspend import agents, consensus, groups, hdwallet, ledger, lifting, simulation
    from qcspend.rules import RuleViolation

    def by_group(base: str, toy: bool):
        def name_of(args):
            if args[0].mode is groups.GroupMode.SECURE:
                return base + ".secure"
            return base + ".toy" if toy else None

        return name_of

    def fixed(name: str):
        return lambda args: name

    def remember(key_of):
        def on_call(name, args):
            if name.endswith(".secure"):
                tracer.keys[name].add(key_of(args))

        return on_call

    def fn(module, attr, name_of, **kw):
        _rebind_function(module.__name__, attr, lambda f: _spanned(tracer, f, name_of, **kw))

    def method(cls, attr, name_of, **kw):
        _rebind_method(cls, attr, lambda f: _spanned(tracer, f, name_of, **kw))

    def count(cls, attr, name, items=None):
        _rebind_method(cls, attr, lambda f: _counted(tracer, f, name, items))

    # groups: the secure/toy tag is read off the group argument.
    fn(groups, "decode_point", by_group("decode_point", toy=False), on_call=remember(lambda a: a[1]))
    fn(groups, "prequantum_verify", by_group("prequantum_verify", toy=True),
       on_call=remember(lambda a: (a[1].value, a[2], a[3].nonce_point, a[3].s)))
    fn(groups, "prequantum_sign", by_group("prequantum_sign", toy=True))
    fn(groups, "pk_ec", by_group("pk_ec", toy=False))
    fn(groups, "quantum_invert", fixed("quantum_invert"))
    # hdwallet, lifting
    fn(hdwallet, "kdf", fixed("kdf"))
    fn(hdwallet, "derive", fixed("derive"))
    for attr in ("keylift_sign", "keylift_verify", "seedlift_sign", "seedlift_verify"):
        fn(lifting, attr, fixed(attr))
    # ledger
    method(ledger.Transaction, "txid", fixed("Transaction.txid"))
    method(ledger.Transaction, "sighash", fixed("Transaction.sighash"))
    method(ledger.Block, "serialize", fixed("Block.serialize"))
    method(ledger.Block, "deserialize", fixed("Block.deserialize"))
    count(ledger.LeakTracker, "snapshot", "LeakTracker.snapshot", ("leak_scan_items", lambda a, r: len(r)))
    count(ledger.Address, "matches_pk", "Address.matches_pk")
    # consensus
    method(consensus.Chain, "add_tx", lambda a: "add_tx." + a[1].kind.name, rejection=RuleViolation)
    method(consensus.Chain, "validate_lfc_mempool_msg", fixed("validate_lfc_mempool_msg"), rejection=RuleViolation)
    method(consensus.Chain, "end_block", fixed("end_block"))
    method(consensus.Chain, "apply_block", fixed("apply_block"))
    method(consensus.Chain, "state_digest", fixed("state_digest"))
    for attr in ("reorg", "export_snapshot", "verify_snapshot"):
        fn(consensus, attr, fixed(attr))
    # agents, simulation
    method(agents.Wallet, "__init__", fixed("Wallet"))
    method(agents.Agent, "on_tick", fixed("on_tick"))
    method(agents.MinerAgent, "build_block", fixed("build_block"))
    count(agents.Agent, "pq_fee_outpoint", "pq_fee_outpoint",
          ("utxo_scan_items", lambda a, r: len(a[0].sim.chain.utxos)))
    count(agents.Mempool, "view", "Mempool.view")
    method(simulation.Simulation, "__init__", fixed("Simulation.init"))
    method(simulation.Simulation, "holdings", fixed("holdings"))
    method(simulation.Simulation, "run", fixed("run"))
