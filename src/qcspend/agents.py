"""Deterministic simulation layer: wallets, the mempool, miner and user
agents (honest and adversarial), and the tick loop that produces one block
per tick.

Timing model. At tick h every agent with work due runs once, in
configuration order, observing the chain as of height h-1 and the pending
submission pool; then the scheduled miner builds block h from the pool.
Work is due when a deferral or a scripted action falls on h, or when the
agent has a standing duty that reads the chain or the pool every tick
(each kind's `on_duty`); an agent with none is skipped, which changes nothing.
Submissions made during tick h are eligible for block h itself, so an
adversary placed after its victim in the agent order sees the victim's
submission before it is mined -- that is the whole mempool-listening
threat model -- and can outbid it with a higher priority.  Entry order
inside a block is (priority desc, submission sequence), so identical
runs are byte-identical.

Agents never mutate the chain; they only read it and submit.  All
randomness any agent needs is derived from the scenario seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

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
    signer_pk,
)
from .hdwallet import DerivationPath, Seed, derive, kdf
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
from .lifted_fawkescoin import LfcMempoolMsg, LfcState, claim_payload, record_payload, reveal_deadline_age
from .lifting import keylift_sign, seedlift_sign, serialize_lifted
from .rules import RuleViolation


class Wallet:
    """One agent's key material: an HD wallet on the pre-quantum group
    (seed derived from the scenario seed and agent id) plus one
    SECRET_KEY_BITS-bit post-quantum key on the secure group, whose
    encoding and address hash are computed once: the encoding from the
    memo `prequantum_sign` reads."""

    def __init__(self, group: GroupParams, agent_id: str, scenario_seed: int, kdf_iterations: int = 64):
        self.group = group
        self.pq_group = secure_group()
        self.kdf_iterations = kdf_iterations
        tag = hashlib.sha512(b"wallet:%d:" % scenario_seed + agent_id.encode()).digest()
        self.seed = Seed(tag[:24], b"")
        self.msk = kdf(group, self.seed, kdf_iterations)
        self.pq_sk = int.from_bytes(hashlib.sha512(b"pq:" + tag).digest(), "big") % self.pq_group.secret_key_bound
        self.pq_pk = signer_pk(self.pq_group, self.pq_sk)
        self._pq_hash = post_quantum_address(self.pq_pk).data
        self._raw_sks: dict[str, int] = {}

    # -- addresses ---------------------------------------------------------

    def pq_address(self) -> Address:
        return Address(AddrKind.POST_QUANTUM, self._pq_hash)

    def derived_sk(self, path: DerivationPath) -> int:
        return derive(self.group, self.msk, path).sk

    def derived_pk(self, path: DerivationPath) -> bytes:
        return pk_ec(self.group, self.derived_sk(path)).encode()

    def grant_sk(self, grant: dict) -> int:
        """The key of a scenario grant: derived along its path, or else a
        raw key labelled by its name."""
        return self.derived_sk(grant["path"]) if grant["path"] else self.raw_sk(grant["name"])

    def raw_sk(self, label: str) -> int:
        """A standalone (non-derived) key: what a pre-HD-wallet output or
        an imported key looks like."""
        if label not in self._raw_sks:
            digest = hashlib.sha512(b"raw:" + label.encode() + self.seed.entropy).digest()
            self._raw_sks[label] = int.from_bytes(digest, "big") % self.group.q
        return self._raw_sks[label]

    # -- witnesses ----------------------------------------------------------

    def witness_pre(self, sk: int, sighash: bytes) -> Witness:
        sig = prequantum_sign(self.group, sk, sighash)
        return Witness(WitnessKind.PRE_QUANTUM, pk_ec(self.group, sk).encode(), sig.encode())

    def witness_pq(self, sighash: bytes) -> Witness:
        sig = prequantum_sign(self.pq_group, self.pq_sk, sighash)
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
    """Each kind defines `on_duty`: does its `autonomous` step run this tick?"""

    def __init__(self, agent_id: str, sim: "Simulation", options: dict, wallet: Wallet):
        self.id = agent_id
        self.sim = sim
        self.wallet = wallet
        self.quantum = options["quantum"]
        self.script: dict[int, list[dict]] = {}
        for entry in options["script"]:
            self.script.setdefault(entry["height"], []).append(entry)
        # tick height -> the deferrals due then, in the order they were made.
        # Ticks come at consecutive heights, so each one looks up only its own.
        self.deferred: dict[int, list[Callable[[], None]]] = {}
        self.actions: list[str] = []

    def log(self, text: str) -> None:
        self.actions.append(f"h{self.sim.tick_height} {text}")

    def defer(self, height: int, fn: Callable[[], None]) -> None:
        """Run `fn` at the tick of `height`, or at the next tick if that one
        has already begun."""
        due = max(height, self.sim.tick_height + 1)
        self.deferred.setdefault(due, []).append(fn)

    def has_work(self, height: int) -> bool:
        """Is anything due at tick `height`: a deferral, a scripted action or
        a standing duty?  An agent with none is not ticked."""
        return height in self.deferred or height in self.script or self.on_duty()

    def on_tick(self) -> None:
        height = self.sim.tick_height
        for fn in self.deferred.pop(height, ()):
            fn()
        for action in self.script.get(height, ()):
            self.run_action(action)
        if self.on_duty():
            self.autonomous()

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
        address = self.wallet.pq_address().serialize()
        reserved = self.reserved_outpoints()
        candidates = [
            u
            for u in chain.utxos.values()
            if u.address.serialize() == address
            and u.outpoint not in reserved
            and u.outpoint not in chain.lfc_locks
            and (not u.coinbase or self.sim.tick_height - u.created_height >= mine)
        ]
        if not candidates:
            raise RuleViolation("agent-missing-utxo", f"{self.id} has no spendable post-quantum output")
        return min(candidates, key=lambda u: (u.created_height, u.outpoint)).outpoint

    def build_pq_spend(self, kind: TxKind, fee_outpoint: Outpoint, fee: int, payload: bytes) -> Transaction:
        """A post-quantum-funded transaction (a commitment) that pays `fee`:
        its change returns to the agent's post-quantum address."""
        utxo = self.sim.chain.utxo(fee_outpoint)
        if utxo is None:
            raise RuleViolation("agent-missing-utxo", f"{self.id} lost track of a fee source")
        change = utxo.value - fee
        if change < 0:
            raise RuleViolation("agent-underfunded", f"{self.id} cannot pay {fee}")
        outputs = (TxOutput(self.wallet.pq_address(), change),) if change > 0 else ()
        return Transaction(kind, (TxInput(utxo.outpoint),), outputs, payload).signed(self.wallet.witness_pq)

    def pre_spend(self, kind: TxKind, outpoint: Outpoint, sk: int, to: Address, value: int, payload: bytes = b"") -> Transaction:
        """Spend one pre-quantum output as a single output, signed with `sk`."""
        if value < 0:
            raise RuleViolation("agent-underfunded", f"{self.id} cannot pay a fee past the output's value")
        tx = Transaction(kind, (TxInput(outpoint),), (TxOutput(to, value),), payload)
        return tx.signed(partial(self.wallet.witness_pre, sk))


class MinerAgent(Agent):
    """Builds blocks when scheduled.  Honest policy: validate lifted
    commitment messages before inclusion, include everything else that
    passes consensus, and always post the proof of ownership when a
    commitment it included goes unrevealed.

    A scripted `fake_lfc` entry turns the miner into a delay attacker for
    that block: it injects a commitment record nobody can reveal or claim,
    locking the victim's output until the fine hits."""

    def __init__(self, agent_id, sim, options, wallet):
        super().__init__(agent_id, sim, options, wallet)
        # committed hash -> sigma, for claim duty: the commitments this miner
        # included whose records are LOCKED or not on chain yet
        self.included_proofs: dict[bytes, bytes] = {}

    def on_duty(self) -> bool:
        return bool(self.included_proofs)

    def autonomous(self) -> None:
        # Claim duty: post sigma for own included commitments whose reveal
        # window has passed.
        chain = self.sim.chain
        deadline = reveal_deadline_age(chain.params.wait_blocks, chain.params.reveal_window)
        for committed, sigma in sorted(self.included_proofs.items()):
            record = chain.lfc_by_hash.get(committed)
            if record is None:
                continue  # not on chain yet: keep it
            if record.state is not LfcState.LOCKED or record.committer_id != self.id:
                del self.included_proofs[committed]  # settled, or not ours to claim
            elif record.age(self.sim.tick_height) > deadline:
                tx = Transaction(TxKind.LFC_CLAIM, payload=claim_payload(committed, sigma))
                self.sim.mempool.submit("tx", tx, self.id)
                self.log(f"posted proof of ownership for {committed.hex()[:12]}")
                del self.included_proofs[committed]

    def build_block(self) -> None:
        chain = self.sim.chain
        height = self.sim.tick_height
        chain.begin_block(self.id, self.wallet.pq_address())
        reports: list[bytes] = []
        for entry in self.script.get(height, ()):
            if entry["fake_lfc"]:
                self._inject_fake_commitment(entry["fake_lfc"])
        for sub in self.sim.mempool.drain_ordered():
            if sub.kind == "report":
                reports.append(sub.data)
            elif sub.kind == "tx":
                chain.try_add_tx(sub.data)
            elif sub.kind == "lfc":
                self._include_lfc(sub.data)
        # Reports lingering into the era are dropped.  This is decided after
        # the transactions, as a canary kill in this block may open the era.
        if chain.era_phase(height) is EraPhase.QUANTUM_ERA:
            chain.violations.extend((height, "samaritan-era", "mempool: report dropped") for _ in reports)
            reports = []
        chain.end_block(reports)

    def _include_lfc(self, msg: LfcMempoolMsg) -> None:
        chain = self.sim.chain
        try:
            chain.validate_lfc_mempool_msg(msg)
        except RuleViolation as violation:
            chain.violations.append((self.sim.tick_height, violation.rule, f"mempool: {violation.detail}"))
            return
        utxo = chain.utxo(msg.outpoint)
        if chain.params.fine_policy.fine(utxo.value) > chain.building_fine_headroom():
            chain.violations.append((self.sim.tick_height, "lfc-fine-coverage", "mempool: miner cannot cover the fine"))
            return
        record_tx = Transaction(
            TxKind.LFC_COMMIT, payload=record_payload(msg.committed_hash, utxo.utxo_hash(), msg.alpha)
        )
        if chain.try_add_tx(record_tx) is None:
            self.included_proofs[msg.committed_hash] = msg.sigma
            self.log(f"included lifted commitment {msg.committed_hash.hex()[:12]}")

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
        self._fraud_responses: set[bytes] = set()

    # -- scripted actions ------------------------------------------------------

    def run_action(self, action: dict) -> None:
        getattr(self, "do_" + action["do"])(action)

    def on_duty(self) -> bool:
        return bool(self.watched)

    def autonomous(self) -> None:
        self._watch_for_theft()

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

    def _fc_commit_and_schedule(self, reveal_tx: Transaction, commit_fee: int, describe: str) -> None:
        chain = self.sim.chain
        ctx = self.build_pq_spend(TxKind.FC_COMMIT, self.pq_fee_outpoint(), commit_fee, commit_payload(reveal_tx.txid()))
        self.sim.mempool.submit("tx", ctx, self.id)
        wait = chain.params.wait_blocks
        utxo = chain.utxo(reveal_tx.inputs[0].outpoint)
        if utxo is not None:
            wait = utxo.wait_blocks(chain.params.wait_blocks, chain.params.wait_floor)
        commit_height = self.sim.tick_height
        self.defer(commit_height + wait, lambda: self._submit_reveal(reveal_tx, describe))
        self.log(f"committed {describe} (reveal at {commit_height + wait})")

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
        mode = RevealMode[action["mode"].upper()]
        sk = self._grant_sk(action["utxo"]) if mode is not RevealMode.LOST else None
        if mode is RevealMode.NAKED and sk is None:
            self.log(f"cannot spend {action['utxo']} as naked: the key is gone")
            return
        reveal_tx = self._build_fc_reveal(action, mode, sk)
        self._fc_commit_and_schedule(reveal_tx, action["commit_fee"], f"{mode.name.lower()}:{action['utxo']}")

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
        mode = RevealMode[action["mode"].upper()]
        utxo = chain.utxo(self.sim.grant_outpoint(action["utxo"]))
        sk = None
        if mode is RevealMode.NAKED:
            pk = chain.leaks.leaked_pk(utxo.address)
            if pk is None or not self.quantum:
                self.log(f"steal aborted: cannot sign for {action['utxo']}")
                return
            sk = quantum_invert(decode_point(chain.group, pk))
        reveal_tx = self._build_fc_reveal(action, mode, sk)
        self._fc_commit_and_schedule(reveal_tx, action["commit_fee"], f"steal:{action['utxo']}")

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
        chain = self.sim.chain
        for name in sorted(self.watched):
            outpoint = self.sim.grants[name]["outpoint"]
            for record in chain.open_challenges.values():
                if record.spent_outpoint != outpoint or record.txid in self._fraud_responses:
                    continue
                self._fraud_responses.add(record.txid)
                self._respond_with_fraud_proof(name, record)

    def _respond_with_fraud_proof(self, name: str, record) -> None:
        chain = self.sim.chain
        info = self.sim.grants[name]
        path = info["path"]
        payload = RevealPayload(RevealMode.FRAUD_PROOF, self.wallet.msk, path, record.txid).serialize(chain.group)
        sk = self.wallet.derived_sk(path)
        # Fee 0: full recovery.
        reveal_tx = self.pre_spend(TxKind.FC_REVEAL, record.spent_outpoint, sk, self.wallet.pq_address(), record.spent_value, payload)
        self._fc_commit_and_schedule(reveal_tx, 0, f"fraud-proof:{name}")
        self.log(f"theft of {name} detected; fraud proof committed")


class FrontRunnerAgent(Agent):
    """Quantum mempool listener.  Reads pre-quantum public keys out of
    pending transactions, inverts them, and races the victim with a
    higher-priority competing spend.  Against commit-wait-reveal flows the
    same observation only yields a commitment that is 100 blocks too late."""

    def __init__(self, agent_id, sim, options, wallet):
        super().__init__(agent_id, sim, options, wallet)
        self._seen: set[bytes] = set()
        self._fc_attempted: set[bytes] = set()

    def on_duty(self) -> bool:
        return self.quantum

    def autonomous(self) -> None:
        for sub in self.sim.mempool.view():
            if sub.kind != "tx" or sub.agent_id == self.id:
                continue
            tx = sub.data
            if tx.kind is TxKind.TRANSFER:
                self._race_direct(tx)
            elif tx.kind is TxKind.FC_REVEAL:
                self._race_fawkescoin(tx)

    def _race_direct(self, tx: Transaction) -> None:
        chain = self.sim.chain
        for txin in tx.inputs:
            if txin.witness.kind is not WitnessKind.PRE_QUANTUM:
                continue
            if tx.txid() in self._seen:
                continue
            self._seen.add(tx.txid())
            utxo = chain.utxo(txin.outpoint)
            if utxo is None:
                continue
            sk = quantum_invert(decode_point(chain.group, txin.witness.pk))
            steal = self.pre_spend(TxKind.TRANSFER, txin.outpoint, sk, self.wallet.pq_address(), utxo.value)
            self.sim.mempool.submit("tx", steal, self.id, priority=10)
            self.log(f"front-ran a direct spend of {utxo.value}")

    def _race_fawkescoin(self, tx: Transaction) -> None:
        chain = self.sim.chain
        txid = tx.txid()
        if txid in self._fc_attempted:
            return
        self._fc_attempted.add(txid)
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
        try:
            ctx = self.build_pq_spend(TxKind.FC_COMMIT, self.pq_fee_outpoint(), 0, commit_payload(steal_reveal.txid()))
        except RuleViolation:
            self.log("front-run against FawkesCoin aborted: no fee source")
            return
        self.sim.mempool.submit("tx", ctx, self.id, priority=10)
        wait = utxo.wait_blocks(chain.params.wait_blocks, chain.params.wait_floor)
        self.defer(self.sim.tick_height + wait, lambda: self.sim.mempool.submit("tx", steal_reveal, self.id, priority=10))
        self.log("front-run against FawkesCoin: committed, must now wait")


AGENT_KINDS = {
    "miner": MinerAgent,
    "user": UserAgent,
    "front_runner": FrontRunnerAgent,
}
