"""Deterministic simulation layer: wallets, the mempool, miner and user
agents (honest and adversarial), and the tick loop that produces one block
per tick.

Timing model. At tick h every agent with work due runs once, in
configuration order, observing the chain as of height h-1 and the pending
submission pool; then the scheduled miner builds block h from the pool.
Work is due when a deferral or a scripted action falls on h.  Each deadline
an agent acts on is one deferral, made when the deadline becomes known at
an age `Params` computes: a FawkesCoin reveal when its commitment is
submitted, and a miner's claim of the unrevealed lifted commitments of a
block when it builds the block.  The simulation holds one schedule, from
tick height to the agents due then and the deferrals each one runs, which
an agent enters as it scripts or defers work.  Only a fraud-proof watcher
and a quantum front-runner have a standing duty, which reads the chain or
the pool every tick (`Agent.duty`, set when the agent is built and read
once at set-up); an agent with nothing due is skipped, which changes
nothing, and a height with no agent due runs no agent code.
Submissions made during tick h are eligible for block h itself, so an
adversary placed after its victim in the agent order sees the victim's
submission before it is mined -- that is the whole mempool-listening
threat model -- and can outbid it with a higher priority.  Entry order
inside a block is (priority desc, submission sequence), so identical
runs are byte-identical.

Users and front-runners read the chain and submit to the pool; only the
scheduled miner writes to it, building its block through `begin_block`,
`try_add_tx` and `end_block` and logging its mempool-policy drops in
`chain.violations`.  All randomness comes from the scenario seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

from .consensus import Chain, EraPhase, proof_message
from .encoding import enc_bytes, enc_u32
from .fawkescoin import RevealMode, RevealPayload, commit_payload
from .groups import (
    GroupParams,
    address_hash,
    decode_point,
    pk_ec,
    prequantum_sign,
    quantum_invert,
    secure_group,
)
from .hdwallet import DerivationPath, DerivationStep, ExtendedSecretKey, Seed, child, kdf
from .ledger import (
    NO_WITNESS,
    AddrKind,
    Address,
    Outpoint,
    Transaction,
    TxInput,
    TxKind,
    TxOutput,
    Witness,
    WitnessKind,
    post_quantum_address,
)
from .lifted_fawkescoin import LfcMempoolMsg, LfcState, claim_payload, record_payload
from .lifting import keylift_sign, seedlift_sign, serialize_lifted
from .rules import RuleViolation


class Wallet:
    """One agent's key material: an HD wallet on the pre-quantum group
    (seed derived from the scenario seed and agent id) plus one
    post-quantum key on the secure group, whose encoding and address hash
    are computed once.

    Each parent key of a derived path is derived once, with its public-key
    encoding, which every non-hardened child hashes: a wallet holding
    m/2h/0 .. m/2h/n derives m/2h and its public key once, not n + 1 times.
    The memo holds one entry per distinct parent path asked for."""

    def __init__(self, group: GroupParams, agent_id: str, scenario_seed: int, kdf_iterations: int = 64):
        self.group = group
        self.pq_group = secure_group()
        self.kdf_iterations = kdf_iterations
        tag = hashlib.sha512(b"wallet:%d:" % scenario_seed + agent_id.encode()).digest()
        self.seed = Seed(tag[:24], b"")
        self.msk = kdf(group, self.seed, kdf_iterations)
        self.pq_sk = int.from_bytes(hashlib.sha512(b"pq:" + tag).digest(), "big") % self.pq_group.q
        self.pq_pk = pk_ec(self.pq_group, self.pq_sk).encode()
        self._pq_hash = post_quantum_address(self.pq_pk).data
        # a parent path's steps -> its key and the encoding of its public key
        self._parents: dict[tuple[DerivationStep, ...], tuple[ExtendedSecretKey, bytes]] = {}

    # -- addresses ---------------------------------------------------------

    def pq_address(self) -> Address:
        return Address(AddrKind.POST_QUANTUM, self._pq_hash)

    def derived_sk(self, path: DerivationPath) -> int:
        """`derive(group, msk, path).sk`, through the memo of parent keys."""
        return self._derived(path.steps).sk

    def _derived(self, steps: tuple[DerivationStep, ...]) -> ExtendedSecretKey:
        if not steps:
            return self.msk
        parent, parent_pk = self._parent(steps[:-1])
        return child(self.group, parent, steps[-1], parent_pk)

    def _parent(self, steps: tuple[DerivationStep, ...]) -> tuple[ExtendedSecretKey, bytes]:
        entry = self._parents.get(steps)
        if entry is None:
            key = self._derived(steps)
            entry = self._parents[steps] = (key, pk_ec(self.group, key.sk).encode())
        return entry

    def derived_pk(self, path: DerivationPath) -> bytes:
        return pk_ec(self.group, self.derived_sk(path)).encode()

    def grant_sk(self, grant: dict) -> int:
        """The key of a scenario grant: derived along its path, or else a
        raw key labelled by its name."""
        return self.derived_sk(grant["path"]) if grant["path"] else self.raw_sk(grant["name"])

    def raw_sk(self, label: str) -> int:
        """A standalone (non-derived) key: what a pre-HD-wallet output or
        an imported key looks like."""
        digest = hashlib.sha512(b"raw:" + label.encode() + self.seed.entropy).digest()
        return int.from_bytes(digest, "big") % self.group.q

    # -- witnesses ----------------------------------------------------------

    def witness_pre(self, sk: int, sighash: bytes) -> Witness:
        pk = pk_ec(self.group, sk).encode()
        return Witness(WitnessKind.PRE_QUANTUM, pk, prequantum_sign(self.group, sk, sighash, pk).encode())

    def witness_pq(self, sighash: bytes) -> Witness:
        sig = prequantum_sign(self.pq_group, self.pq_sk, sighash, self.pq_pk)
        return Witness(WitnessKind.POST_QUANTUM, self.pq_pk, sig.encode())

    # -- lifted proofs --------------------------------------------------------

    def keylift_proof(self, chain: Chain, sk: int, message: bytes) -> bytes:
        return serialize_lifted(self.group, keylift_sign(self.group, chain.key_backend, sk, message))

    def seedlift_proof(self, chain: Chain, path: DerivationPath, message: bytes) -> bytes:
        sig = seedlift_sign(self.group, chain.seed_backend, self.seed, path, message, self.kdf_iterations)
        return serialize_lifted(self.group, sig)


# -- mempool -----------------------------------------------------------------


@dataclass
class Submission:
    kind: str  # "tx" | "lfc" | "report"
    data: object
    agent_id: str
    priority: int
    seq: int


class Mempool:
    def __init__(self):
        self.pending: list[Submission] = []
        self._seq = 0

    def submit(self, kind: str, data, agent_id: str, priority: int = 0) -> None:
        self.pending.append(Submission(kind, data, agent_id, priority, self._seq))
        self._seq += 1

    def drain_ordered(self) -> list[Submission]:
        entries = sorted(self.pending, key=lambda s: (-s.priority, s.seq))
        self.pending = []
        return entries

    def view(self) -> list[Submission]:
        return list(self.pending)


# -- agents ---------------------------------------------------------------------


class Agent:
    """At a tick an agent runs its deferrals due then, in the order they
    were made, then its scripted actions at that height, then its standing
    duty.  The simulation's schedule enters the agent at each scripted
    height and each deferral's, with the deferrals it runs.  A kind with a
    standing duty sets `duty` in `__init__` to the step it runs every tick;
    the simulation reads it once, to find the agents due every tick."""

    duty: Optional[Callable[[], None]] = None

    def __init__(self, agent_id: str, sim: "Simulation", options: dict, wallet: Wallet):
        self.id = agent_id
        self.sim = sim
        self.wallet = wallet
        self.quantum = options["quantum"]
        self.script: dict[int, list[dict]] = {}
        for entry in options["script"]:
            self.script.setdefault(entry["height"], []).append(entry)
            sim.schedule.setdefault(entry["height"], {}).setdefault(self, [])
        self.actions: list[str] = []

    def log(self, text: str) -> None:
        self.actions.append(f"h{self.sim.tick_height} {text}")

    def defer(self, height: int, fn: Callable[[], None]) -> None:
        """Run `fn` at the tick of `height`, or at the next tick if that one
        has already begun."""
        due = max(height, self.sim.tick_height + 1)
        self.sim.schedule.setdefault(due, {}).setdefault(self, []).append(fn)

    def on_tick(self, deferred: Iterable[Callable[[], None]]) -> None:
        for fn in deferred:
            fn()
        for action in self.script.get(self.sim.tick_height, ()):
            self.run_action(action)
        if self.duty:
            self.duty()

    def run_action(self, action: dict) -> None:
        pass  # miner scripts are read at block-building time

    # -- shared transaction builders -------------------------------------------

    def reserved_outpoints(self) -> set[Outpoint]:
        """Outpoints this agent must not burn as fees (scripted deposits)."""
        reserved = set()
        for actions in self.script.values():
            for action in actions:
                name = action["deposit"]
                if name:
                    reserved.add(self.sim.grant_outpoint(name))
        return reserved

    def pq_fee_outpoint(self) -> Outpoint:
        """The agent's current fee source: its lowest, matured post-quantum
        output (change returns to the same address, so this survives use)."""
        chain = self.sim.chain
        mine = chain.params.coinbase_cooldown
        pq_hash = self.wallet.pq_address().data
        reserved = self.reserved_outpoints()
        candidates = [
            u
            for u in chain.utxos.values()
            if u.address.data == pq_hash
            and u.address.kind is AddrKind.POST_QUANTUM
            and u.outpoint not in reserved
            and u.outpoint not in chain.lfc_locks
            and (not u.coinbase or self.sim.tick_height - u.created_height >= mine)
        ]
        if not candidates:
            raise RuleViolation("agent-missing-utxo", f"{self.id} has no spendable post-quantum output")
        return min(candidates, key=lambda u: (u.created_height, u.outpoint)).outpoint

    def fc_commit(self, reveal_tx: Transaction, fee: int, wait: int, reveal: Callable[[], None], priority: int = 0) -> int:
        """Submit a FawkesCoin commitment to `reveal_tx`, funded by the fee
        source and paying `fee`, and defer `reveal` until it is `wait`
        blocks old: the height returned.  Change returns to the agent's
        post-quantum address."""
        utxo = self.sim.chain.utxo(self.pq_fee_outpoint())
        change = utxo.value - fee
        if change < 0:
            raise RuleViolation("agent-underfunded", f"{self.id} cannot pay {fee}")
        outputs = (TxOutput(self.wallet.pq_address(), change),) if change > 0 else ()
        commit = Transaction(TxKind.FC_COMMIT, (TxInput(utxo.outpoint),), outputs, commit_payload(reveal_tx.txid()))
        self.sim.mempool.submit("tx", commit.signed(self.wallet.witness_pq), self.id, priority)
        due = self.sim.tick_height + wait
        self.defer(due, reveal)
        return due

    def pre_spend(self, kind: TxKind, outpoint: Outpoint, sk: int, to: Address, value: int, payload: bytes = b"") -> Transaction:
        """Spend one pre-quantum output as a single output, signed with `sk`."""
        if value < 0:
            raise RuleViolation("agent-underfunded", f"{self.id} cannot pay a fee past the output's value")
        tx = Transaction(kind, (TxInput(outpoint),), (TxOutput(to, value),), payload)
        return tx.signed(partial(self.wallet.witness_pre, sk))


class MinerAgent(Agent):
    """Builds blocks when scheduled.  Honest policy: validate lifted
    commitment messages before inclusion, include everything else that
    passes consensus, and post the proof of ownership of each commitment
    it included that is still unrevealed once the reveal deadline passes.

    A scripted `fake_lfc` entry turns the miner into a delay attacker for
    that block: it injects a commitment record nobody can reveal or claim,
    locking the victim's output until the fine hits."""

    def build_block(self) -> None:
        chain = self.sim.chain
        height = self.sim.tick_height
        chain.begin_block(self.id, self.wallet.pq_address())
        reports: list[bytes] = []
        proofs: dict[bytes, bytes] = {}  # committed hash -> sigma, of the lifted commitments included
        for entry in self.script.get(height, ()):
            if entry["fake_lfc"]:
                self._inject_fake_commitment(entry["fake_lfc"])
        for sub in self.sim.mempool.drain_ordered():
            if sub.kind == "report":
                reports.append(sub.data)
            elif sub.kind == "tx":
                chain.try_add_tx(sub.data)
            elif self._include_lfc(sub.data):  # an "lfc" message
                proofs[sub.data.committed_hash] = sub.data.sigma
        # Reports lingering into the era are dropped.  This is decided after
        # the transactions, as a canary kill in this block may open the era.
        if chain.era_phase(height) is EraPhase.QUANTUM_ERA:
            chain.violations.extend((height, "samaritan-era", "mempool: report dropped") for _ in reports)
            reports = []
        chain.end_block(reports)
        if proofs:
            # A record older than the reveal deadline can only be claimed.
            self.defer(height + chain.params.reveal_deadline() + 1, partial(self._claim, proofs))

    def _claim(self, proofs: dict[bytes, bytes]) -> None:
        """Post sigma for each of `proofs` whose record is still LOCKED."""
        for committed, sigma in sorted(proofs.items()):
            if self.sim.chain.lfc_by_hash[committed].state is LfcState.LOCKED:
                tx = Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, sigma))
                self.sim.mempool.submit("tx", tx, self.id)
                self.log(f"posted proof of ownership for {committed.hex()[:12]}")

    def _include_lfc(self, msg: LfcMempoolMsg) -> bool:
        """Include the record of a lifted commitment if policy and consensus
        accept it; was it included?"""
        chain = self.sim.chain
        try:
            chain.validate_lfc_mempool_msg(msg)
        except RuleViolation as violation:
            chain.violations.append((self.sim.tick_height, violation.rule, f"mempool: {violation.detail}"))
            return False
        utxo = chain.utxo(msg.outpoint)
        if chain.params.fine_policy.fine(utxo.value) > chain.building_fine_headroom():
            chain.violations.append((self.sim.tick_height, "lfc-fine-coverage", "mempool: miner cannot cover the fine"))
            return False
        record_tx = Transaction(
            TxKind.LFC_COMMIT, payload=record_payload(msg.committed_hash, utxo.utxo_hash(), msg.alpha)
        )
        if chain.try_add_tx(record_tx) is not None:
            return False
        self.log(f"included lifted commitment {msg.committed_hash.hex()[:12]}")
        return True

    def _inject_fake_commitment(self, fake: dict) -> None:
        chain = self.sim.chain
        outpoint = self.sim.grant_outpoint(fake["utxo"])
        utxo = chain.utxo(outpoint)
        if utxo is None or chain.params.fine_policy.fine(utxo.value) > chain.building_fine_headroom():
            return
        committed = address_hash(b"fake-commitment:" + self.id.encode() + enc_bytes(utxo.utxo_hash()))
        record_tx = Transaction(TxKind.LFC_COMMIT, payload=record_payload(committed, utxo.utxo_hash(), fake["alpha"]))
        if chain.try_add_tx(record_tx) is None:
            self.log(f"delay attack: fake commitment locks {fake['utxo']}")


class UserAgent(Agent):
    """Scripted honest-or-otherwise participant.  Supports direct spends,
    FawkesCoin spends in every mode (with automatic reveal scheduling),
    lifted FawkesCoin spends, theft attempts, samaritan reports, registry
    declarations, canary kills, and automatic fraud proofs for watched
    outputs."""

    def __init__(self, agent_id, sim, options, wallet):
        super().__init__(agent_id, sim, options, wallet)
        self.watched: set[str] = set(options["watch"])
        if self.watched:
            self.duty = self._watch_for_theft

    # -- scripted actions ------------------------------------------------------

    def run_action(self, action: dict) -> None:
        getattr(self, "do_" + action["do"])(action)

    # Canary ---------------------------------------------------------------------

    def do_kill_canary(self, action: dict) -> None:
        chain = self.sim.chain
        if not self.quantum:
            self.log("cannot kill the canary: no inversion capability")
            return
        pk = decode_point(chain.canary_group, chain.canary.challenge_pk)
        sk = quantum_invert(pk)
        sig = prequantum_sign(chain.canary_group, sk, chain.canary.nonce)
        tx = Transaction(
            TxKind.CANARY_KILL,
            payload=self.wallet.pq_address().serialize() + enc_bytes(sig.encode()),
        )
        self.sim.mempool.submit("tx", tx, self.id)
        self.log("forged the canary solution and claimed the bounty")

    # Plain spending -----------------------------------------------------------------

    def _grant_sk(self, name: str) -> Optional[int]:
        info = self.sim.grants[name]
        return None if info["lost"] else self.wallet.grant_sk(info)

    def _destination(self, action: dict) -> Address:
        to = action["to"]
        if to:
            return self.sim.agents[to].wallet.pq_address()
        return self.wallet.pq_address()

    def _gone(self, action: dict, what: str) -> bool:
        """Has an output `action` spends left the chain?  Logs `what` failed."""
        for name in (action["utxo"], action["deposit"]):
            if name is not None and self.sim.chain.utxo(self.sim.grant_outpoint(name)) is None:
                self.log(f"{what} failed: {name} already gone")
                return True
        return False

    def do_direct_spend(self, action: dict) -> None:
        if self._gone(action, "direct spend"):
            return
        outpoint = self.sim.grant_outpoint(action["utxo"])
        utxo = self.sim.chain.utxo(outpoint)
        sk = self._grant_sk(action["utxo"])
        tx = self.pre_spend(TxKind.TRANSFER, outpoint, sk, self._destination(action), utxo.value - action["fee"])
        self.sim.mempool.submit("tx", tx, self.id)
        self.log(f"direct spend of {action['utxo']}")

    # FawkesCoin ------------------------------------------------------------------------

    def _fc_commit_and_schedule(self, reveal_tx: Transaction, commit_fee: int, wait: int, describe: str) -> None:
        due = self.fc_commit(reveal_tx, commit_fee, wait, lambda: self._submit_reveal(reveal_tx, describe))
        self.log(f"committed {describe} (reveal at {due})")

    def _submit_reveal(self, reveal_tx: Transaction, describe: str) -> None:
        self.sim.mempool.submit("tx", reveal_tx, self.id)
        self.log(f"revealed {describe}")

    def _build_fc_reveal(self, action: dict, mode: RevealMode, sk: Optional[int]) -> Transaction:
        chain = self.sim.chain
        group = chain.group
        outpoint = self.sim.grant_outpoint(action["utxo"])
        utxo = chain.utxo(outpoint)
        fee = action["fee"]
        info = self.sim.grants[action["utxo"]]
        if mode is RevealMode.DERIVED:
            payload = RevealPayload(mode, self.wallet.msk, info["path"]).serialize(group)
        else:
            payload = RevealPayload(mode).serialize(group)

        if mode in (RevealMode.NAKED, RevealMode.LOST):
            deposit_outpoint = self.sim.grant_outpoint(action["deposit"])
            deposit = chain.utxo(deposit_outpoint)
            if utxo.value + deposit.value < fee:
                raise RuleViolation("agent-underfunded", f"{self.id} cannot pay {fee}")
            outputs = (TxOutput(self._destination(action), utxo.value + deposit.value - fee),)
            u_signer = partial(self.wallet.witness_pre, sk) if mode is RevealMode.NAKED else lambda _: NO_WITNESS
            tx = Transaction(TxKind.FC_REVEAL, (TxInput(outpoint), TxInput(deposit_outpoint)), outputs, payload)
            return tx.signed(u_signer, self.wallet.witness_pq)

        return self.pre_spend(TxKind.FC_REVEAL, outpoint, sk, self._destination(action), utxo.value - fee, payload)

    def do_fc_spend(self, action: dict) -> None:
        if self._gone(action, "fc spend"):
            return
        mode = action["mode"]
        sk = self._grant_sk(action["utxo"]) if mode is not RevealMode.LOST else None
        if mode is RevealMode.NAKED and sk is None:
            self.log(f"cannot spend {action['utxo']} as naked: the key is gone")
            return
        reveal_tx = self._build_fc_reveal(action, mode, sk)
        wait = self.sim.chain.params.output_wait(self.sim.chain.utxo(self.sim.grant_outpoint(action["utxo"])))
        self._fc_commit_and_schedule(reveal_tx, action["commit_fee"], wait, f"{mode.name.lower()}:{action['utxo']}")

    # Lifted FawkesCoin ---------------------------------------------------------------------

    def do_lfc_spend(self, action: dict) -> None:
        if self._gone(action, "lifted spend"):
            return
        chain = self.sim.chain
        outpoint = self.sim.grant_outpoint(action["utxo"])
        utxo = chain.utxo(outpoint)
        alpha = action["alpha"]
        info = self.sim.grants[action["utxo"]]
        use_seed = action["sig"] == "seed"
        if use_seed:
            path = info["path"]
            payload = RevealPayload(RevealMode.DERIVED, self.wallet.msk, path).serialize(chain.group)
        else:
            payload = RevealPayload(RevealMode.HASHED).serialize(chain.group)
        sk = self._grant_sk(action["utxo"])
        reveal_tx = self.pre_spend(TxKind.LFC_REVEAL, outpoint, sk, self._destination(action), utxo.value - alpha, payload)
        committed = reveal_tx.txid()
        message = proof_message(committed, alpha)
        if use_seed:
            sigma = self.wallet.seedlift_proof(chain, path, message)
        else:
            sigma = self.wallet.keylift_proof(chain, sk, message)
        msg = LfcMempoolMsg(committed, sigma, outpoint, alpha)
        self.sim.mempool.submit("lfc", msg, self.id)
        self.log(f"lifted commitment for {action['utxo']} (alpha={alpha})")
        if action["abandon"]:
            self.log("spam: this commitment will never be revealed")
            return
        self._await_lfc_inclusion(committed, reveal_tx, action["utxo"])

    def _await_lfc_inclusion(self, committed: bytes, reveal_tx: Transaction, name: str) -> None:
        """Schedule the reveal once the commitment is on chain.  The miner of
        this tick drains the whole mempool into its block, so a commitment
        that is not on chain at the next tick was dropped for good."""
        chain = self.sim.chain

        def check():
            record = chain.lfc_by_hash.get(committed)
            if record is not None:
                self.defer(record.height_included + chain.params.wait_blocks, lambda: self._submit_reveal(reveal_tx, f"lifted:{name}"))

        self.defer(self.sim.tick_height + 1, check)

    # Theft ------------------------------------------------------------------------------

    def do_steal(self, action: dict) -> None:
        if self._gone(action, "steal"):
            return
        chain = self.sim.chain
        mode = action["mode"]
        utxo = chain.utxo(self.sim.grant_outpoint(action["utxo"]))
        sk = None
        if mode is RevealMode.NAKED:
            pk = chain.leaks.leaked_pk(utxo.address)
            if pk is None or not self.quantum:
                self.log(f"steal aborted: cannot sign for {action['utxo']}")
                return
            sk = quantum_invert(decode_point(chain.group, pk))
        reveal_tx = self._build_fc_reveal(action, mode, sk)
        self._fc_commit_and_schedule(reveal_tx, action["commit_fee"], chain.params.output_wait(utxo), f"steal:{action['utxo']}")

    # Reports / registry ---------------------------------------------------------------------

    def do_samaritan(self, action: dict) -> None:
        pk = pk_ec(self.sim.chain.group, self.wallet.grant_sk(self.sim.grants[action["utxo"]])).encode()
        self.sim.chain.submit_samaritan_report(pk, self.sim.tick_height)
        self.sim.mempool.submit("report", pk, self.id)
        self.log(f"samaritan report for {action['utxo']}")

    def do_registry_declare(self, action: dict) -> None:
        digest = self.sim.chain.registry.key_digest(self.sim.chain.group, self.wallet.msk)
        paths = action["paths"]
        payload = enc_bytes(digest) + enc_u32(len(paths)) + b"".join(p.serialize() for p in paths)
        tx = Transaction(TxKind.REGISTRY_DECLARE, payload=payload)
        self.sim.mempool.submit("tx", tx, self.id)
        self.log(f"registry declaration with {len(paths)} paths")

    # Fraud-proof watch ------------------------------------------------------------------------

    def _watch_for_theft(self) -> None:
        """Answer each challenge the last block opened on a watched output.
        The watch runs every tick, so this meets each challenge once."""
        chain = self.sim.chain
        opened_end = chain.height + chain.params.challenge_blocks
        for name in sorted(self.watched):
            outpoint = self.sim.grant_outpoint(name)
            for record in chain.open_challenges.values():
                if record.spent_outpoint == outpoint and record.challenge_end_height == opened_end:
                    self._respond_with_fraud_proof(name, record)

    def _respond_with_fraud_proof(self, name: str, record) -> None:
        chain = self.sim.chain
        info = self.sim.grants[name]
        path = info["path"]
        payload = RevealPayload(RevealMode.FRAUD_PROOF, self.wallet.msk, path, record.txid).serialize(chain.group)
        sk = self.wallet.derived_sk(path)
        # Fee 0: full recovery.  Consensus ages the proof by the challenged
        # output's wait, which the record keeps now that the output is gone.
        reveal_tx = self.pre_spend(TxKind.FC_REVEAL, record.spent_outpoint, sk, self.wallet.pq_address(), record.spent_value, payload)
        self._fc_commit_and_schedule(reveal_tx, 0, record.spent_wait, f"fraud-proof:{name}")
        self.log(f"theft of {name} detected; fraud proof committed")


class FrontRunnerAgent(Agent):
    """Quantum mempool listener.  Reads pre-quantum public keys out of
    pending transactions, inverts them, and races the victim with a
    higher-priority competing spend.  Against commit-wait-reveal flows the
    same observation only yields a commitment that is 100 blocks too late."""

    def __init__(self, agent_id, sim, options, wallet):
        super().__init__(agent_id, sim, options, wallet)
        if self.quantum:
            self.duty = self._race_pending

    def _race_pending(self) -> None:
        # Every block drains the pool, so it holds only this tick's submissions.
        for sub in self.sim.mempool.view():
            tx = sub.data
            if sub.kind != "tx" or sub.agent_id == self.id or tx.kind not in (TxKind.TRANSFER, TxKind.FC_REVEAL):
                continue
            if tx.kind is TxKind.TRANSFER:
                self._race_direct(tx)
            else:
                self._race_fawkescoin(tx)

    def _race_direct(self, tx: Transaction) -> None:
        chain = self.sim.chain
        txin = next((i for i in tx.inputs if i.witness.kind is WitnessKind.PRE_QUANTUM), None)
        utxo = txin and chain.utxo(txin.outpoint)
        if utxo is None:
            return
        sk = quantum_invert(decode_point(chain.group, txin.witness.pk))
        steal = self.pre_spend(TxKind.TRANSFER, txin.outpoint, sk, self.wallet.pq_address(), utxo.value)
        self.sim.mempool.submit("tx", steal, self.id, priority=10)
        self.log(f"front-ran a direct spend of {utxo.value}")

    def _race_fawkescoin(self, tx: Transaction) -> None:
        chain = self.sim.chain
        txin = tx.inputs[0]
        if txin.witness.kind is not WitnessKind.PRE_QUANTUM:
            return
        utxo = chain.utxo(txin.outpoint)
        if utxo is None:
            return
        # The key is now known, but spending through FawkesCoin still takes
        # a full commit-wait-reveal cycle; by then the honest reveal has
        # long spent the output.  The attempt is mounted anyway to show it.
        sk = quantum_invert(decode_point(chain.group, txin.witness.pk))
        payload = RevealPayload(RevealMode.HASHED).serialize(chain.group)
        steal_reveal = self.pre_spend(TxKind.FC_REVEAL, txin.outpoint, sk, self.wallet.pq_address(), utxo.value, payload)
        reveal = partial(self.sim.mempool.submit, "tx", steal_reveal, self.id, priority=10)
        try:
            self.fc_commit(steal_reveal, 0, chain.params.output_wait(utxo), reveal, priority=10)
        except RuleViolation:
            self.log("front-run against FawkesCoin aborted: no fee source")
            return
        self.log("front-run against FawkesCoin: committed, must now wait")


AGENT_KINDS = {
    "miner": MinerAgent,
    "user": UserAgent,
    "front_runner": FrontRunnerAgent,
}
