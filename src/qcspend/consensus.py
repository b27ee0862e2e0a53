"""The chain state machine: deterministic block application, era activation
from the canary, FawkesCoin/Lifted-FawkesCoin epoch rotation with
extensions, per-block deadline sweeps, reorg handling, and the exact
value-conservation ledger.

Blocks are applied through one path: begin_block / add_tx / end_block.
Block construction uses the same path (invalid candidate entries are
skipped and logged), and replay (verify, reorg) re-applies stored blocks
strictly, requiring the recomputed block bytes to match.  Whatever is not
in block bytes (sweep payouts, locks, escrows) is a deterministic function
of them, so replaying the blocks reproduces the state digest.

Per-block order: transactions in block order, samaritan reports, coinbase,
then the sweeps (lifted-commitment expiries, challenge-period
finalizations, epoch-end rotation/extension), then the balance assertion:

    sum(utxo values) + open challenge escrows + pending lifted fees
      + fine escrow of locked commitments  ==  total minted

Only the challenge escrow is a running counter (challenge records are
never removed, so a sum over them would walk all history).  The pending
lifted fees are the sum of `fee_shares_by_block`, and the fine escrow the
sum over the records `lfc_locks` names; both are derived on read.

Eras: the chain starts PRE_QUANTUM; a verified canary kill starts the
COUNTDOWN; QUANTUM_ERA begins a fixed number of blocks later, which also
starts the epoch rotation (FawkesCoin epochs, then lifted epochs, with
extensions inserted when the closing 100 blocks of a lifted epoch carry
more than k*p proofs of ownership).

A Chain is single-writer: block application is serialized through the
begin/add/end path.  Readers may query concurrently between blocks.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional

from .encoding import DecodeError, Reader, enc_bytes, enc_u64
from .fawkescoin import (
    DEPOSIT_MODES,
    ChallengeRecord,
    ChallengeStatus,
    FcCommitment,
    RevealMode,
    RevealPayload,
    parse_commit_payload,
    parse_reveal_payload,
)
from .groups import (
    GroupParams,
    GroupPoint,
    PreQuantumSignature,
    address_hash,
    decode_point,
    pk_ec,
    prequantum_verify,
    secure_group,
    toy_group,
)
from .hdwallet import DerivationPath, ExtendedSecretKey, derive, read_path
from .ledger import (
    Address,
    AddrKind,
    Block,
    GENESIS_PARENT,
    KeyRegistry,
    LeakTracker,
    Outpoint,
    Transaction,
    TxKind,
    TxOutput,
    Utxo,
    Witness,
    WitnessKind,
    select_samaritan_reports,
)
from .lifted_fawkescoin import (
    EpochDecision,
    LfcCommitment,
    LfcState,
    claim_deadline_age,
    extension_decision,
    parse_claim_payload,
    parse_record_payload,
    reveal_deadline_age,
    split_fee,
)
from .lifting import (
    KeyLiftedSig,
    LiftedSignature,
    deserialize_lifted,
    keylift_verify,
    seedlift_owf,
    seedlift_verify,
    transparent_backend,
)
from .params import FinePolicy, Params
from .rules import RuleViolation

# A lifted reveal's fee shares are paid to the miners of the blocks that
# earned them, this many blocks later.
FEE_SHARE_DELAY = 300
# The closing blocks of a lifted epoch whose claims decide an extension:
# the window `Params.proofs_per_100_blocks` counts proofs over.
CLAIM_WINDOW = 100


@contextmanager
def _decoding(rule: str):
    """The decode boundary of a handler: a parse failure (DecodeError,
    GroupError, or a byte naming no enum member) becomes a RuleViolation."""
    try:
        yield
    except ValueError as exc:
        raise RuleViolation(rule, str(exc))


class EraPhase(Enum):
    PRE_QUANTUM = "pre-quantum"
    COUNTDOWN = "countdown"
    QUANTUM_ERA = "quantum-era"


class EpochKind(Enum):
    FC = "fc"
    LFC = "lfc"


@dataclass(frozen=True)
class Epoch:
    kind: EpochKind
    start: int
    length: int
    index: int
    extension: bool = False

    @property
    def end(self) -> int:
        return self.start + self.length

    def offset(self, height: int) -> int:
        return height - self.start


PRE_ACTIVATION = None  # epoch_of result before the quantum era


@dataclass
class CanaryRecord:
    challenge_pk: bytes  # point encoding on the canary group
    nonce: bytes
    bounty: int
    killed_at: Optional[int] = None


@dataclass(frozen=True)
class GenesisGrant:
    address: Address
    value: int
    wait_override: int = 0


@dataclass
class _Draft:
    """The block under construction, between begin_block and end_block."""

    height: int
    miner_id: str
    miner_address: Address
    parent: bytes
    txs: list[Transaction] = field(default_factory=list)
    fees: int = 0        # immediately-payable fees and escrow-cover contributions
    obligation: int = 0  # fine escrow owed for this block's lifted commits


def proof_message(committed_hash: bytes, alpha: int) -> bytes:
    """What a lifted proof of ownership signs: the commitment hash and fee."""
    return enc_bytes(committed_hash) + enc_u64(alpha)


class Chain:
    def __init__(
        self,
        params: Params,
        group: GroupParams,
        pq_group: GroupParams,
        canary_group: GroupParams,
        canary: CanaryRecord,
        genesis_grants: Iterable[GenesisGrant] = (),
    ):
        self.params = params
        self.group = group
        self.pq_group = pq_group
        self.canary_group = canary_group
        self.canary = canary
        self.key_backend = transparent_backend()
        self.seed_backend = transparent_backend(seedlift_owf(group))

        self.blocks: list[Block] = []
        self.utxos: dict[Outpoint, Utxo] = {}
        self.utxo_hash_index: dict[bytes, Outpoint] = {}
        self.leaks = LeakTracker()
        self.address_first_seen: dict[bytes, int] = {}
        self.registry = KeyRegistry(params.regular_paths, params.registry_max_declared_paths)

        self.fc_commitments: dict[bytes, list[FcCommitment]] = {}
        self.challenges: dict[bytes, ChallengeRecord] = {}
        self.lfc_by_hash: dict[bytes, LfcCommitment] = {}  # committed hash -> record
        self.lfc_locks: dict[Outpoint, bytes] = {}  # outpoint -> hash of its LOCKED record, and only those
        self.lfc_claim_heights: list[int] = []
        self.fee_shares_by_block: Counter[int] = Counter()

        self.epochs: list[Epoch] = []
        self.total_minted = 0
        self.utxo_value_sum = 0
        self.challenge_escrow = 0
        self.violations: list[tuple[int, str, str]] = []

        self._building: Optional[_Draft] = None
        if canary.killed_at is not None:
            self._open_first_epoch()
        self._apply_genesis(list(genesis_grants))

    def _open_first_epoch(self) -> None:
        """Schedule the first FawkesCoin epoch, at the start of the quantum era."""
        self.epochs = [Epoch(EpochKind.FC, self.era_start(), self.params.fc_epoch_len, 0)]

    # -- genesis -----------------------------------------------------------

    def _apply_genesis(self, grants: list[GenesisGrant]) -> None:
        outputs = tuple(TxOutput(g.address, g.value, g.wait_override) for g in grants)
        coinbase = Transaction(TxKind.COINBASE, outputs=outputs, payload=enc_u64(0))
        block = Block(0, GENESIS_PARENT, "genesis", Address(AddrKind.POST_QUANTUM, bytes(32)), (), (), coinbase)
        txid = coinbase.txid()
        for i, out in enumerate(outputs):
            # Genesis grants skip coinbase maturity so scenarios can move
            # immediately.
            self._add_utxo(Utxo((txid, i), out.value, out.address, 0, coinbase=False, wait_override=out.wait_override), 0)
            self.total_minted += out.value
        self.blocks.append(block)
        self._assert_balance()

    # -- views --------------------------------------------------------------

    @property
    def height(self) -> int:
        return self.blocks[-1].height

    @property
    def tip_hash(self) -> bytes:
        return self.blocks[-1].block_hash()

    def era_phase(self, height: Optional[int] = None) -> EraPhase:
        h = self.height if height is None else height
        if self.canary.killed_at is None or h < self.canary.killed_at:
            return EraPhase.PRE_QUANTUM
        if h < self.era_start():
            return EraPhase.COUNTDOWN
        return EraPhase.QUANTUM_ERA

    def era_start(self) -> Optional[int]:
        if self.canary.killed_at is None:
            return None
        return self.canary.killed_at + self.params.era_countdown

    def epoch_of(self, height: int) -> Optional[Epoch]:
        start = self.era_start()
        if start is None or height < start:
            return PRE_ACTIVATION
        for epoch in self.epochs:
            if epoch.start <= height < epoch.end:
                return epoch
        raise RuleViolation("epoch-unscheduled", f"height {height} beyond the built schedule")

    def utxo(self, outpoint: Outpoint) -> Optional[Utxo]:
        return self.utxos.get(outpoint)

    @property
    def pending_fee_pool(self) -> int:
        """Lifted reveal fees not yet paid out to the blocks that earned them."""
        return sum(self.fee_shares_by_block.values())

    @property
    def fine_escrow_pool(self) -> int:
        """Delay fines escrowed against the locked lifted commitments."""
        return sum(self.lfc_by_hash[committed].fine_escrow for committed in self.lfc_locks.values())

    # -- utxo bookkeeping ------------------------------------------------------

    def _add_utxo(self, utxo: Utxo, height: int) -> None:
        if utxo.outpoint in self.utxos:
            raise RuleViolation("utxo-exists", f"output {utxo.outpoint[0].hex()}:{utxo.outpoint[1]} already exists")
        self.utxos[utxo.outpoint] = utxo
        self.utxo_hash_index[utxo.utxo_hash()] = utxo.outpoint
        self.utxo_value_sum += utxo.value
        addr = utxo.address.serialize()
        self.address_first_seen.setdefault(addr, height)
        if utxo.address.kind is AddrKind.PLAIN_PK:
            self.leaks.mark(utxo.address.data, height)

    def _remove_utxo(self, outpoint: Outpoint) -> Utxo:
        utxo = self.utxos.pop(outpoint)
        self.utxo_hash_index.pop(utxo.utxo_hash(), None)
        self.utxo_value_sum -= utxo.value
        return utxo

    def _credit(self, reason: bytes, key: bytes, address: Address, value: int, height: int) -> None:
        """Protocol payout: a deterministic synthetic output (fine, refund,
        claim, deposit redistribution...)."""
        if value <= 0:
            return
        txid = address_hash(b"sweep:" + reason + b":" + enc_u64(height) + enc_bytes(key))
        self._add_utxo(Utxo((txid, 0), value, address, height, coinbase=False), height)

    # -- block building / application -----------------------------------------------

    def begin_block(self, miner_id: str, miner_address: Address) -> None:
        if self._building is not None:
            raise RuntimeError("block already in progress")
        self._building = _Draft(self.height + 1, miner_id, miner_address, self.tip_hash)

    def add_tx(self, tx: Transaction) -> None:
        """Validate against live state and apply; raises RuleViolation and
        leaves no partial effects on failure."""
        if self._building is None:
            raise RuntimeError("no block in progress")
        handler = self._HANDLERS.get(tx.kind)
        if handler is None:
            raise RuleViolation("tx-kind", f"{tx.kind} cannot appear in the transaction list")
        handler(self, tx, self._building.height)
        self._building.txs.append(tx)

    def try_add_tx(self, tx: Transaction) -> Optional[RuleViolation]:
        """Builder-side add: skip-and-log instead of raising."""
        try:
            self.add_tx(tx)
            return None
        except RuleViolation as violation:
            self.violations.append((self._building.height, violation.rule, violation.detail))
            return violation

    def building_fine_headroom(self) -> int:
        """How much more fine obligation the block under construction can
        absorb before it would fail coverage."""
        b = self._building
        if b is None:
            raise RuntimeError("no block in progress")
        return self.params.block_reward + b.fees - b.obligation

    def end_block(self, reports: Iterable[bytes] = ()) -> Block:
        # The draft is released first, so a rejected block never leaves the
        # builder stuck.
        b, self._building = self._building, None
        if b is None:
            raise RuntimeError("no block in progress")
        height = b.height

        accepted_reports = self._include_reports(list(reports), height)

        income = self.params.block_reward + b.fees
        if income < b.obligation:
            raise RuleViolation("lfc-fine-coverage", f"reward plus fees {income} < obligation {b.obligation}")
        outputs = [TxOutput(b.miner_address, income - b.obligation)]
        addendum = self._lfc_fee_addendum(height)
        if addendum is not None:
            outputs.append(addendum)
        coinbase = Transaction(TxKind.COINBASE, outputs=tuple(outputs), payload=enc_u64(height))
        txid = coinbase.txid()
        self.total_minted += self.params.block_reward
        for i, out in enumerate(coinbase.outputs):
            if out.value > 0:
                self._add_utxo(Utxo((txid, i), out.value, out.address, height, coinbase=True), height)

        block = Block(
            height,
            b.parent,
            b.miner_id,
            b.miner_address,
            tuple(b.txs),
            tuple(accepted_reports),
            coinbase,
        )
        self.blocks.append(block)

        self._sweep_lfc_expiries(height)
        self._sweep_challenges(height)
        self._epoch_end_check(height)
        self._assert_balance()
        return block

    def apply_block(self, block: Block) -> None:
        """Strict replay: every entry must validate, and the recomputed
        block must byte-match the given one."""
        if block.height != self.height + 1:
            raise RuleViolation("block-height", f"expected {self.height + 1}, got {block.height}")
        if block.parent != self.tip_hash:
            raise RuleViolation("block-parent", "parent hash does not match the tip")
        self.begin_block(block.miner_id, block.miner_address)
        for tx in block.transactions:
            self.add_tx(tx)
        rebuilt = self.end_block(block.samaritan_reports)
        if rebuilt.serialize() != block.serialize():
            raise RuleViolation("block-mismatch", "recomputed block differs (coinbase or reports)")

    # -- report inclusion ---------------------------------------------------------

    def _include_reports(self, pending: list[bytes], height: int) -> list[bytes]:
        if not pending:
            return []
        if self.era_phase(height) is EraPhase.QUANTUM_ERA:
            raise RuleViolation("samaritan-era", "good-Samaritan reports end with the pre-quantum era")
        selected = select_samaritan_reports(
            pending, self.leaks, self.params.samaritan_budget_bytes, self.group.point_len
        )
        for pk in selected:
            self.leaks.mark(pk, height)
        return selected

    def submit_samaritan_report(self, pk_bytes: bytes, height: Optional[int] = None) -> None:
        """Mempool-side gate for a report submission."""
        h = self.height + 1 if height is None else height
        if self.era_phase(h) is EraPhase.QUANTUM_ERA:
            raise RuleViolation("samaritan-era", "good-Samaritan reports end with the pre-quantum era")
        if len(pk_bytes) != self.group.point_len:
            raise RuleViolation("samaritan-format", "report must be one public-key encoding")

    # -- witness / input validation --------------------------------------------------

    def _spendable_utxo(self, outpoint: Outpoint, height: int) -> Utxo:
        utxo = self.utxos.get(outpoint)
        if utxo is None:
            raise RuleViolation("utxo-missing", f"{outpoint[0].hex()[:16]}:{outpoint[1]}")
        if outpoint in self.lfc_locks:
            raise RuleViolation("utxo-locked", "an unexpired lifted commitment locks this output")
        if utxo.coinbase and height - utxo.created_height < self.params.coinbase_cooldown:
            raise RuleViolation("coinbase-cooldown", f"matures at {utxo.created_height + self.params.coinbase_cooldown}")
        return utxo

    def _verify_witness(self, utxo_address: Address, witness: Witness, sighash: bytes) -> None:
        if utxo_address.kind is AddrKind.POST_QUANTUM:
            if witness.kind is not WitnessKind.POST_QUANTUM:
                raise RuleViolation("witness-kind", "post-quantum output needs a post-quantum witness")
            if address_hash(witness.pk) != utxo_address.data:
                raise RuleViolation("witness-address", "post-quantum key does not hash to the address")
            with _decoding("witness-malformed"):
                pk = decode_point(self.pq_group, witness.pk)
                sig = PreQuantumSignature.decode(witness.signature)
            if not prequantum_verify(self.pq_group, pk, sighash, sig):
                raise RuleViolation("witness-signature", "post-quantum signature invalid")
            return
        if witness.kind is not WitnessKind.PRE_QUANTUM:
            raise RuleViolation("witness-kind", "pre-quantum output needs a pre-quantum witness")
        if not utxo_address.matches_pk(witness.pk):
            raise RuleViolation("witness-address", "revealed key does not match the address")
        with _decoding("witness-malformed"):
            pk = decode_point(self.group, witness.pk)
            sig = PreQuantumSignature.decode(witness.signature)
        if not prequantum_verify(self.group, pk, sighash, sig):
            raise RuleViolation("witness-signature", "pre-quantum signature invalid")

    def _is_pre_quantum(self, address: Address) -> bool:
        return address.kind in (AddrKind.PK_HASH, AddrKind.PLAIN_PK)

    def _is_post_quantum(self, address: Address) -> bool:
        return address.kind is AddrKind.POST_QUANTUM

    def _derived_leaf_pk(self, address: Address, parent_key: ExtendedSecretKey, path: DerivationPath) -> Optional[GroupPoint]:
        """The public key `path` derives from `parent_key`, or None when it
        is not the key behind `address`."""
        pk = pk_ec(self.group, derive(self.group, parent_key, path).sk)
        return pk if address.matches_pk(pk.encode()) else None

    def _mark_witness_leak(self, witness: Witness, height: int) -> None:
        if witness.kind is WitnessKind.PRE_QUANTUM:
            self.leaks.mark(witness.pk, height)

    def _create_outputs(self, tx: Transaction, height: int) -> None:
        txid = tx.txid()
        for i, out in enumerate(tx.outputs):
            self._add_utxo(Utxo((txid, i), out.value, out.address, height, wait_override=out.wait_override), height)

    # -- plain spends -------------------------------------------------------------------
    # Direct transfers, escrow cover, FawkesCoin commitments and hashed/derived
    # reveals differ only in which outputs they may spend.

    def _validate_inputs(self, tx: Transaction, height: int, admits: Callable[[Address], bool], rule: str, detail: str) -> int:
        """Check every input of a plain spend and return their total value,
        mutating nothing.  An input whose address `admits` refuses fails
        with `rule`."""
        sighash = tx.sighash()
        seen: set[Outpoint] = set()
        total = 0
        for txin in tx.inputs:
            utxo = self._spendable_utxo(txin.outpoint, height)
            if txin.outpoint in seen:
                raise RuleViolation("tx-duplicate-input", f"{txin.outpoint[0].hex()[:16]}:{txin.outpoint[1]} is spent twice")
            seen.add(txin.outpoint)
            if not admits(utxo.address):
                raise RuleViolation(rule, detail)
            self._verify_witness(utxo.address, txin.witness, sighash)
            total += utxo.value
        return total

    def _spend_inputs(self, tx: Transaction, height: int, total_in: int) -> int:
        """Apply a plain spend whose inputs passed `_validate_inputs`: remove
        them, record the keys their witnesses revealed, create the outputs.
        Returns the fee."""
        fee = total_in - tx.output_sum()
        if fee < 0:
            raise RuleViolation("tx-overspend", f"outputs {tx.output_sum()} exceed inputs {total_in}")
        for txin in tx.inputs:
            self._remove_utxo(txin.outpoint)
            self._mark_witness_leak(txin.witness, height)
        self._create_outputs(tx, height)
        return fee

    # -- transaction handlers ----------------------------------------------------------

    def _apply_transfer(self, tx: Transaction, height: int) -> None:
        if not tx.inputs:
            raise RuleViolation("tx-empty", "a transfer needs inputs")
        in_era = self.era_phase(height) is EraPhase.QUANTUM_ERA
        total_in = self._validate_inputs(
            tx,
            height,
            lambda address: not (in_era and self._is_pre_quantum(address)),
            "era-direct-spend",
            "direct pre-quantum spending is prohibited in the quantum era",
        )
        self._building.fees += self._spend_inputs(tx, height, total_in)

    def _apply_escrow_cover(self, tx: Transaction, height: int) -> None:
        if tx.outputs:
            raise RuleViolation("cover-outputs", "an escrow cover consumes its inputs entirely")
        total = self._validate_inputs(
            tx, height, self._is_post_quantum, "cover-pq-only", "fine coverage must come from post-quantum outputs"
        )
        self._building.fees += self._spend_inputs(tx, height, total)

    # FawkesCoin ------------------------------------------------------------------

    def _fc_epoch(self, height: int, committing: bool) -> Epoch:
        epoch = self.epoch_of(height)
        if epoch is None:
            raise RuleViolation("epoch-preactivation", "FawkesCoin activates with the quantum era")
        if epoch.kind is not EpochKind.FC:
            raise RuleViolation("epoch-kind", "not a FawkesCoin epoch")
        if committing and epoch.offset(height) >= self.params.fc_commit_window():
            raise RuleViolation("fc-commit-cutoff", "no commitments in the last blocks of the epoch")
        return epoch

    def _apply_fc_commit(self, tx: Transaction, height: int) -> None:
        self._fc_epoch(height, committing=True)
        with _decoding("fc-commit-malformed"):
            committed = parse_commit_payload(tx.payload)
        if not tx.inputs:
            raise RuleViolation("fc-commit-needs-pq-fee", "the committing transaction pays its own fee")
        total_in = self._validate_inputs(
            tx, height, self._is_post_quantum, "fc-commit-needs-pq-fee", "a post-quantum output must fund the commitment"
        )
        self._building.fees += self._spend_inputs(tx, height, total_in)
        # No locking in non-lifted mode: duplicate hashes are all recorded.
        self.fc_commitments.setdefault(committed, []).append(FcCommitment(committed, height))

    def _matching_commitment(self, committed: bytes, height: int, wait: int, *, max_leak_height: Optional[int], ban_height: Optional[int]) -> FcCommitment:
        candidates = self.fc_commitments.get(committed, [])
        if not candidates:
            raise RuleViolation("fc-no-commitment", "reveal does not match any commitment")
        best: Optional[FcCommitment] = None
        for c in candidates:
            if height - c.height_included < wait:
                continue
            # A hashed spend requires the key to have stayed unleaked until
            # the commitment landed.
            if max_leak_height is not None and max_leak_height < c.height_included:
                continue
            if ban_height is not None and c.height_included >= ban_height:
                continue
            best = c if best is None or c.height_included < best.height_included else best
        if best is None:
            raise RuleViolation("fc-commitment-unusable", "no commitment is old enough and unencumbered")
        return best

    def _apply_fc_reveal(self, tx: Transaction, height: int) -> None:
        self._fc_epoch(height, committing=False)
        with _decoding("fc-reveal-malformed"):
            payload = parse_reveal_payload(self.group, tx.payload)
        mode = payload.mode
        if mode is RevealMode.FRAUD_PROOF:
            self._apply_fraud_proof(tx, payload, height)
            return
        if mode in DEPOSIT_MODES:
            self._apply_deposit_reveal(tx, payload, height)
            return

        if len(tx.inputs) != 1:
            raise RuleViolation("fc-reveal-shape", "hashed/derived reveals spend exactly one output")
        total_in = self._validate_inputs(
            tx, height, self._is_pre_quantum, "fc-reveal-prequantum", "FawkesCoin spends pre-quantum outputs"
        )
        txin = tx.inputs[0]
        utxo = self.utxos[txin.outpoint]
        wait = utxo.wait_blocks(self.params.wait_blocks, self.params.wait_floor)

        if mode is RevealMode.HASHED:
            leak_height = self.leaks.leak_height(txin.witness.pk)
            self._matching_commitment(tx.txid(), height, wait, max_leak_height=leak_height, ban_height=None)
        elif mode is RevealMode.DERIVED:
            if self._derived_leaf_pk(utxo.address, payload.parent_key, payload.path) is None:
                raise RuleViolation("fc-derivation", "payload does not derive the spent key")
            ban = self.registry.ban_height(self.group, payload.parent_key)
            self._matching_commitment(tx.txid(), height, wait, max_leak_height=None, ban_height=ban)
        else:
            raise RuleViolation("fc-reveal-mode", f"unsupported reveal mode {mode}")

        self._building.fees += self._spend_inputs(tx, height, total_in)
        if mode is RevealMode.DERIVED:
            self._materialize(payload, height)

    def _mode_allowed(self, mode: RevealMode) -> None:
        order = {"restrictive": 0, "unrestrictive": 1, "permissive": 2}[self.params.fc_mode]
        if mode is RevealMode.NAKED and order < 1:
            raise RuleViolation("fc-mode", "naked spends need unrestrictive mode")
        if mode is RevealMode.LOST and order < 2:
            raise RuleViolation("fc-mode", "lost spends need permissive mode")

    def _apply_deposit_reveal(self, tx: Transaction, payload: RevealPayload, height: int) -> None:
        self._mode_allowed(payload.mode)
        if len(tx.inputs) != 2:
            raise RuleViolation("fc-deposit-shape", "deposit-mode reveals spend (utxo, deposit)")
        u_in, d_in = tx.inputs
        utxo = self._spendable_utxo(u_in.outpoint, height)
        deposit = self._spendable_utxo(d_in.outpoint, height)
        if not self._is_pre_quantum(utxo.address):
            raise RuleViolation("fc-reveal-prequantum", "FawkesCoin spends pre-quantum outputs")
        if deposit.address.kind is not AddrKind.POST_QUANTUM:
            raise RuleViolation("fc-deposit-pq", "the deposit must be a post-quantum output")
        first_seen = self.address_first_seen.get(utxo.address.serialize(), height)
        if first_seen < self.params.legacy_address_height:
            raise RuleViolation(
                "era-legacy-restrictive", "addresses posted before the legacy threshold stay restrictive-only"
            )
        sighash = tx.sighash()
        if payload.mode is RevealMode.NAKED:
            self._verify_witness(utxo.address, u_in.witness, sighash)
        elif u_in.witness.kind is not WitnessKind.NONE:
            raise RuleViolation("fc-lost-witness", "a lost-mode spend must not carry a signature")
        self._verify_witness(deposit.address, d_in.witness, sighash)

        wait = utxo.wait_blocks(self.params.wait_blocks, self.params.wait_floor)
        self._matching_commitment(tx.txid(), height, wait, max_leak_height=None, ban_height=None)

        total_in = utxo.value + deposit.value
        fee = total_in - tx.output_sum()
        if fee < 0:
            raise RuleViolation("tx-overspend", "outputs exceed inputs")
        minimum = self.params.deposit_minimum(utxo.value, fee)
        if deposit.value < minimum:
            raise RuleViolation("fc-deposit-low", f"deposit {deposit.value} below the minimum {minimum}")

        self._remove_utxo(u_in.outpoint)
        self._remove_utxo(d_in.outpoint)
        self._mark_witness_leak(u_in.witness, height)
        record = ChallengeRecord(
            txid=tx.txid(),
            revealed_tx=tx,
            spent_outpoint=u_in.outpoint,
            spent_value=utxo.value,
            spent_address=utxo.address,
            deposit_value=deposit.value,
            fee=fee,
            challenge_end_height=height + self.params.challenge_blocks,
            reveal_miner=self._building.miner_address,
            spent_wait=wait,
        )
        self.challenges[record.txid] = record
        self.challenge_escrow += record.escrow
        # The fee and the outputs stay escrowed until the challenge resolves.

    def _apply_fraud_proof(self, tx: Transaction, payload: RevealPayload, height: int) -> None:
        record = self.challenges.get(payload.challenged_txid)
        if record is None:
            raise RuleViolation("fp-no-target", "fraud proof names no open challenge")
        if record.status is not ChallengeStatus.OPEN:
            raise RuleViolation("fp-closed", f"challenge already {record.status.value}")
        if height > record.challenge_end_height:
            raise RuleViolation("fp-late", "the challenge period is over")
        if len(tx.inputs) != 1 or tx.inputs[0].outpoint != record.spent_outpoint:
            raise RuleViolation("fp-shape", "a fraud proof re-spends the challenged output")
        if not tx.outputs:
            raise RuleViolation("fp-shape", "a fraud proof needs a destination for the deposit")
        spent_address = record.spent_address
        sighash = tx.sighash()
        self._verify_witness(spent_address, tx.inputs[0].witness, sighash)
        if self._derived_leaf_pk(spent_address, payload.parent_key, payload.path) is None:
            raise RuleViolation("fp-derivation", "payload does not derive the challenged key")
        ban = self.registry.ban_height(self.group, payload.parent_key)
        # The proof is itself a derived-mode spend of u, so u's waiting
        # time governs its commitment age.
        self._matching_commitment(tx.txid(), height, record.spent_wait, max_leak_height=None, ban_height=ban)

        fee = record.spent_value - tx.output_sum()
        if fee < 0:
            raise RuleViolation("tx-overspend", "outputs exceed the recovered value")
        # Defeat: the challenged transaction is invalidated.  The original
        # including miner is made whole from the deposit; the rest of the
        # deposit follows the fraud proof's destination.
        record.status = ChallengeStatus.DEFEATED
        self.challenge_escrow -= record.spent_value + record.deposit_value
        self._mark_witness_leak(tx.inputs[0].witness, height)
        self._materialize(payload, height)
        self._create_outputs(tx, height)
        self._building.fees += fee
        owed_fee = min(record.fee, record.deposit_value)
        self._credit(b"challenge-fee", record.txid, record.reveal_miner, owed_fee, height)
        self._credit(b"deposit-payout", record.txid, tx.outputs[0].address, record.deposit_value - owed_fee, height)

    def _materialize(self, payload: RevealPayload, height: int) -> None:
        entry = self.registry.materialize(self.group, payload.parent_key, height)
        if entry:
            for pk in sorted(entry.materialized_pks):
                self.leaks.mark(pk, height)

    # Lifted FawkesCoin ----------------------------------------------------------------

    def _lfc_epoch(self, height: int, committing: bool) -> Epoch:
        epoch = self.epoch_of(height)
        if epoch is None:
            raise RuleViolation("epoch-preactivation", "Lifted FawkesCoin activates with the quantum era")
        if epoch.kind is not EpochKind.LFC:
            raise RuleViolation("epoch-kind", "not a Lifted FawkesCoin epoch")
        if committing and epoch.offset(height) >= self.params.lfc_commit_window():
            raise RuleViolation("lfc-commit-cutoff", "no commitments in the last blocks of the epoch")
        return epoch

    def _apply_lfc_commit(self, tx: Transaction, height: int) -> None:
        self._lfc_epoch(height, committing=True)
        if tx.inputs or tx.outputs:
            raise RuleViolation("lfc-commit-shape", "the on-chain record carries no inputs or outputs")
        with _decoding("lfc-commit-malformed"):
            committed, utxo_hash, alpha = parse_record_payload(tx.payload)
        if committed in self.lfc_by_hash:
            raise RuleViolation("lfc-duplicate", "commitment hash already recorded")
        outpoint = self.utxo_hash_index.get(utxo_hash)
        if outpoint is None:
            raise RuleViolation("lfc-unknown-utxo", "H(u) matches no unspent output")
        if outpoint in self.lfc_locks:
            raise RuleViolation("lfc-locked", "an unexpired commitment already locks this output")
        utxo = self.utxos[outpoint]
        if not self._is_pre_quantum(utxo.address):
            raise RuleViolation("lfc-commit-pq-utxo", "lifted commitments spend pre-quantum outputs")
        fine = self.params.fine_policy.fine(utxo.value)
        record = LfcCommitment(
            committed_hash=committed,
            alpha=alpha,
            height_included=height,
            committer_id=self._building.miner_id,
            committer_address=self._building.miner_address,
            outpoint=outpoint,
            utxo_address=utxo.address,
            fine_escrow=fine,
        )
        self.lfc_by_hash[committed] = record
        self.lfc_locks[outpoint] = committed
        self._building.obligation += fine

    def validate_lfc_mempool_msg(self, msg) -> None:
        """Honest-miner policy for a lifted commitment message: the proof
        must verify as ownership of u over (H(tx), alpha), and a key-lifted
        proof is unusable once u is leaked."""
        utxo = self.utxos.get(msg.outpoint)
        if utxo is None:
            raise RuleViolation("lfc-unknown-utxo", "message names no unspent output")
        if msg.outpoint in self.lfc_locks:
            raise RuleViolation("lfc-locked", "output already locked")
        with _decoding("lfc-proof-malformed"):
            sig = deserialize_lifted(self.group, msg.sigma)
        if isinstance(sig, KeyLiftedSig) and self.leaks.leaked_pk(utxo.address) is not None:
            raise RuleViolation("lfc-keylift-leaked", "key-lifted proofs are void once the key is public")
        if not self.verify_ownership(utxo.address, proof_message(msg.committed_hash, msg.alpha), sig):
            raise RuleViolation("lfc-proof-invalid", "proof of ownership does not verify")

    def _key_public_before(self, address: Address, height: int) -> bool:
        """Was the pre-quantum key behind this address on chain strictly
        before `height`?"""
        if address.kind is AddrKind.PLAIN_PK:
            first = self.address_first_seen.get(address.serialize())
            return first is not None and first < height
        pk = self.leaks.leaked_pk(address)
        return pk is not None and self.leaks.leak_height(pk) < height

    def verify_ownership(self, address: Address, message: bytes, sig: LiftedSignature) -> bool:
        if isinstance(sig, KeyLiftedSig):
            if address.kind is AddrKind.PK_HASH:
                return keylift_verify(self.key_backend, address.data, message, sig)
            if address.kind is AddrKind.PLAIN_PK:
                return keylift_verify(self.key_backend, address_hash(address.data), message, sig)
            return False
        pk = self._derived_leaf_pk(address, sig.msk, sig.path)
        return pk is not None and seedlift_verify(self.group, self.seed_backend, pk, message, sig)

    def _apply_lfc_reveal(self, tx: Transaction, height: int) -> None:
        self._lfc_epoch(height, committing=False)
        committed = tx.txid()
        record = self.lfc_by_hash.get(committed)
        if record is None or record.state is not LfcState.LOCKED:
            raise RuleViolation("lfc-no-commitment", "reveal matches no locked commitment")
        age = record.age(height)
        wait = self.params.wait_blocks
        if age < wait:
            raise RuleViolation("lfc-reveal-early", f"age {age} below the waiting time")
        if age > reveal_deadline_age(wait, self.params.reveal_window):
            raise RuleViolation("lfc-reveal-late", "the reveal window is over; the proof window is open")
        if len(tx.inputs) != 1 or tx.inputs[0].outpoint != record.outpoint:
            raise RuleViolation("lfc-reveal-shape", "the reveal spends exactly the committed output")
        with _decoding("lfc-reveal-malformed"):
            payload = parse_reveal_payload(self.group, tx.payload)
        utxo = self.utxos[record.outpoint]
        sighash = tx.sighash()
        self._verify_witness(utxo.address, tx.inputs[0].witness, sighash)
        if payload.mode is RevealMode.DERIVED:
            if self._derived_leaf_pk(utxo.address, payload.parent_key, payload.path) is None:
                raise RuleViolation("lfc-derivation", "payload does not derive the spent key")
        elif payload.mode is not RevealMode.HASHED:
            raise RuleViolation("lfc-reveal-mode", "lifted reveals are hashed or derived spends")
        fee = utxo.value - tx.output_sum()
        if fee != record.alpha:
            raise RuleViolation("lfc-fee-exact", f"fee {fee} must equal the committed {record.alpha}")

        self._remove_utxo(record.outpoint)
        self._mark_witness_leak(tx.inputs[0].witness, height)
        if payload.mode is RevealMode.DERIVED:
            self._materialize(payload, height)
        self._create_outputs(tx, height)

        committer_share, revealer_share = split_fee(record.alpha)
        self.fee_shares_by_block[record.height_included] += committer_share
        self.fee_shares_by_block[height] += revealer_share
        self._resolve_lfc(record, LfcState.REVEALED, height)

    def _apply_lfc_claim(self, tx: Transaction, height: int) -> None:
        self._lfc_epoch(height, committing=False)
        if tx.inputs or tx.outputs:
            raise RuleViolation("lfc-claim-shape", "a claim carries only the proof payload")
        with _decoding("lfc-claim-malformed"):
            committed, sigma = parse_claim_payload(tx.payload)
        record = self.lfc_by_hash.get(committed)
        if record is None or record.state is not LfcState.LOCKED:
            raise RuleViolation("lfc-no-commitment", "claim matches no locked commitment")
        age = record.age(height)
        wait = self.params.wait_blocks
        epoch = self.epoch_of(height)
        if age <= reveal_deadline_age(wait, self.params.reveal_window):
            raise RuleViolation("lfc-claim-early", "the spender's reveal window is still open")
        deadline = claim_deadline_age(wait, self.params.reveal_window, self.params.proof_window)
        if age > deadline and not epoch.extension:
            raise RuleViolation("lfc-claim-late", "the proof window is over")
        with _decoding("lfc-claim-proof"):
            sig = deserialize_lifted(self.group, sigma)
        if not self.verify_ownership(record.utxo_address, proof_message(committed, record.alpha), sig):
            raise RuleViolation("lfc-claim-proof", "the posted proof of ownership does not verify")
        # A key-lifted proof on an output whose key had already leaked when
        # the commitment landed proves nothing: anyone holding the public
        # key can produce one.  Miners reject such commitments up front,
        # but only here, with the proof finally on chain, can consensus
        # enforce it -- closing the route from a policy-skipping fake
        # commitment to an outright claim of a leaked output.
        if isinstance(sig, KeyLiftedSig) and self._key_public_before(record.utxo_address, record.height_included):
            raise RuleViolation("lfc-claim-keylift-leaked", "key-lifted proof on an output leaked before the commitment")

        utxo = self._remove_utxo(record.outpoint)
        self._credit(b"lfc-claim", committed, record.committer_address, utxo.value, height)
        self.lfc_claim_heights.append(height)
        self._resolve_lfc(record, LfcState.CLAIMED_BY_MINER, height)

    def _resolve_lfc(self, record: LfcCommitment, state: LfcState, height: int) -> None:
        """Settle a LOCKED record as `state`: unlock its output and release
        its fine escrow, to the output's address on expiry and back to the
        committer otherwise."""
        del self.lfc_locks[record.outpoint]
        record.state = state
        record.resolved_height = height
        if state is LfcState.EXPIRED_FINED:
            self._credit(b"lfc-fine", record.committed_hash, record.utxo_address, record.fine_escrow, height)
        else:
            self._credit(b"lfc-escrow-refund", record.committed_hash, record.committer_address, record.fine_escrow, height)

    # registry / canary ------------------------------------------------------------------

    def _apply_registry_declare(self, tx: Transaction, height: int) -> None:
        if tx.inputs or tx.outputs:
            raise RuleViolation("registry-shape", "a declaration is payload only")
        with _decoding("registry-malformed"):
            r = Reader(tx.payload)
            digest = r.bytes_()
            count = r.u32()
            if count > self.params.registry_max_declared_paths:
                raise RuleViolation("registry-bound", f"{count} paths exceed the declared-path bound")
            paths = [read_path(r) for _ in range(count)]
            r.done()
        if len(digest) != 32:
            raise RuleViolation("registry-shape", "the key digest is 32 bytes")
        self.registry.declare(digest, paths)

    def _apply_canary_kill(self, tx: Transaction, height: int) -> None:
        if self.canary.killed_at is not None:
            raise RuleViolation("canary-dead", "the canary is already dead")
        with _decoding("canary-malformed"):
            r = Reader(tx.payload)
            claimant = Address.read(r)
            sig_bytes = r.bytes_()
            r.done()
            pk = decode_point(self.canary_group, self.canary.challenge_pk)
            sig = PreQuantumSignature.decode(sig_bytes)
        if not prequantum_verify(self.canary_group, pk, self.canary.nonce, sig):
            raise RuleViolation("canary-solution", "the posted solution does not verify")
        if self.params.bounty_source == "burned" and self.canary.bounty > 0:
            # The discouraged funding variant: pay the bounty out of burned
            # funds.  Nothing in the model burns value, so this is its
            # documented failure mode: there is no bounty to claim.
            raise RuleViolation("canary-bounty-unfunded", "burned funds do not cover the bounty")
        self.canary.killed_at = height
        self.total_minted += self.canary.bounty
        self._credit(b"canary-bounty", tx.txid(), claimant, self.canary.bounty, height)
        self._open_first_epoch()

    _HANDLERS = {
        TxKind.TRANSFER: _apply_transfer,
        TxKind.FC_COMMIT: _apply_fc_commit,
        TxKind.FC_REVEAL: _apply_fc_reveal,
        TxKind.LFC_COMMIT: _apply_lfc_commit,
        TxKind.LFC_REVEAL: _apply_lfc_reveal,
        TxKind.LFC_CLAIM: _apply_lfc_claim,
        TxKind.REGISTRY_DECLARE: _apply_registry_declare,
        TxKind.CANARY_KILL: _apply_canary_kill,
        TxKind.ESCROW_COVER: _apply_escrow_cover,
    }

    # -- sweeps -------------------------------------------------------------------------

    def _sweep_lfc_expiries(self, height: int) -> None:
        epoch = self.epoch_of(height)
        if epoch is not None and epoch.extension:
            return  # fines are withheld while an extension is running
        deadline = claim_deadline_age(self.params.wait_blocks, self.params.reveal_window, self.params.proof_window)
        for committed in list(self.lfc_locks.values()):
            record = self.lfc_by_hash[committed]
            if record.age(height) > deadline:
                self._resolve_lfc(record, LfcState.EXPIRED_FINED, height)

    def _sweep_challenges(self, height: int) -> None:
        for record in self.challenges.values():
            if record.status is ChallengeStatus.OPEN and height > record.challenge_end_height:
                record.status = ChallengeStatus.FINALIZED
                self.challenge_escrow -= record.spent_value + record.deposit_value
                self._create_outputs(record.revealed_tx, height)
                self._credit(b"challenge-fee", record.txid, record.reveal_miner, record.fee, height)

    def _lfc_fee_addendum(self, height: int) -> Optional[TxOutput]:
        if height < FEE_SHARE_DELAY:
            return None
        shares = self.fee_shares_by_block.pop(height - FEE_SHARE_DELAY, 0)
        if shares <= 0:
            return None
        earner = self.blocks[height - FEE_SHARE_DELAY]
        return TxOutput(earner.miner_address, shares)

    def _epoch_end_check(self, height: int) -> None:
        current = self.epoch_of(height)
        if current is None or height != current.end - 1:
            return
        nxt_index = current.index + 1
        if current.kind is EpochKind.FC:
            self.epochs.append(Epoch(EpochKind.LFC, current.end, self.params.lfc_epoch_len, nxt_index))
            return
        claims = sum(1 for h in self.lfc_claim_heights if current.end - CLAIM_WINDOW <= h < current.end)
        decision = extension_decision(
            claims,
            self.params.proofs_per_100_blocks,
            self.params.extension_threshold_num,
            self.params.extension_threshold_den,
        )
        if decision is EpochDecision.EXTEND:
            self.epochs.append(Epoch(EpochKind.LFC, current.end, self.params.lfc_epoch_len, nxt_index, extension=True))
            return
        # Rotation: fine whatever is still locked, then hand over to a
        # FawkesCoin epoch.
        for committed in list(self.lfc_locks.values()):
            self._resolve_lfc(self.lfc_by_hash[committed], LfcState.EXPIRED_FINED, height)
        self.epochs.append(Epoch(EpochKind.FC, current.end, self.params.fc_epoch_len, nxt_index))

    def _assert_balance(self) -> None:
        lhs = self.utxo_value_sum + self.challenge_escrow + self.pending_fee_pool + self.fine_escrow_pool
        if lhs != self.total_minted:
            raise RuleViolation("ledger-balance", f"value {lhs} != minted {self.total_minted}")

    def recompute_balance(self) -> None:
        """Full (non-incremental) audit of the conservation identity."""
        total = sum(u.value for u in self.utxos.values())
        if total != self.utxo_value_sum:
            raise RuleViolation("ledger-balance", "incremental utxo sum drifted")
        escrow = sum(r.escrow for r in self.challenges.values())
        if escrow != self.challenge_escrow:
            raise RuleViolation("ledger-balance", "incremental challenge escrow drifted")
        self._assert_balance()

    # -- snapshot / digest ------------------------------------------------------------------

    def state_digest(self) -> bytes:
        parts: list[bytes] = [enc_u64(self.height)]
        for outpoint in sorted(self.utxos):
            parts.append(self.utxos[outpoint].serialize())
        for pk, h in sorted(self.leaks.snapshot().items()):
            parts.append(enc_bytes(pk) + enc_u64(h))
        for committed in sorted(self.lfc_by_hash):
            r = self.lfc_by_hash[committed]
            parts.append(
                enc_bytes(committed)
                + r.state.value.encode()
                + enc_u64(r.height_included)
                + enc_u64(r.resolved_height if r.resolved_height is not None else 0)
            )
        for txid in sorted(self.challenges):
            record = self.challenges[txid]
            parts.append(enc_bytes(txid) + record.status.value.encode() + enc_u64(record.challenge_end_height))
        for entry in self.registry.entries:
            parts.append(enc_bytes(entry.key_digest) + enc_u64(entry.included_height))
        for digest in sorted(self.registry.declared):
            for p in self.registry.declared[digest]:
                parts.append(enc_bytes(digest) + p.serialize())
        for epoch in self.epochs:
            parts.append(epoch.kind.value.encode() + enc_u64(epoch.start) + enc_u64(epoch.length) + bytes([epoch.extension]))
        for block_height in sorted(self.fee_shares_by_block):
            parts.append(enc_u64(block_height) + enc_u64(self.fee_shares_by_block[block_height]))
        for h in self.lfc_claim_heights:
            parts.append(b"claim" + enc_u64(h))
        for addr in sorted(self.address_first_seen):
            parts.append(addr + enc_u64(self.address_first_seen[addr]))
        parts.append(enc_u64(self.total_minted) + enc_u64(0))  # burned value: the model burns none
        parts.append(enc_u64(self.challenge_escrow) + enc_u64(self.pending_fee_pool) + enc_u64(self.fine_escrow_pool))
        if self.canary.killed_at is not None:
            parts.append(b"killed" + enc_u64(self.canary.killed_at))
        return address_hash(b"".join(enc_bytes(p) for p in parts))


@dataclass(frozen=True)
class ChainConfig:
    """Everything needed to rebuild an identical chain from block bytes:
    the parameter record, group orders, the canary challenge, and the
    genesis grants."""

    params: Params
    group_q: int
    canary_q: int
    canary_pk: bytes
    canary_nonce: bytes
    canary_killed_at: Optional[int] = None
    grants: tuple[GenesisGrant, ...] = ()

    def build(self) -> Chain:
        group = toy_group(self.group_q)
        canary_group = toy_group(self.canary_q)
        canary = CanaryRecord(self.canary_pk, self.canary_nonce, self.params.canary_bounty, self.canary_killed_at)
        return Chain(self.params, group, secure_group(), canary_group, canary, self.grants)

    def to_json(self) -> dict:
        p = asdict(self.params)
        p["regular_paths"] = list(self.params.regular_paths)
        p["fine_policy"] = asdict(self.params.fine_policy)
        return {
            "params": p,
            "group_q": self.group_q,
            "canary_q": self.canary_q,
            "canary_pk": self.canary_pk.hex(),
            "canary_nonce": self.canary_nonce.hex(),
            "canary_killed_at": self.canary_killed_at,
            "grants": [
                {
                    "address_kind": g.address.kind.name,
                    "address_data": g.address.data.hex(),
                    "value": g.value,
                    "wait_override": g.wait_override,
                }
                for g in self.grants
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "ChainConfig":
        pdata = dict(data["params"])
        pdata["regular_paths"] = tuple(pdata["regular_paths"])
        pdata["fine_policy"] = FinePolicy(**pdata["fine_policy"])
        grants = tuple(
            GenesisGrant(
                Address(AddrKind[g["address_kind"]], bytes.fromhex(g["address_data"])),
                g["value"],
                g["wait_override"],
            )
            for g in data["grants"]
        )
        return ChainConfig(
            params=Params(**pdata),
            group_q=data["group_q"],
            canary_q=data["canary_q"],
            canary_pk=bytes.fromhex(data["canary_pk"]),
            canary_nonce=bytes.fromhex(data["canary_nonce"]),
            canary_killed_at=data.get("canary_killed_at"),
            grants=grants,
        )


def replay_chain(config: ChainConfig, blocks: Iterable[Block]) -> Chain:
    """Rebuild a chain by strictly re-validating every stored block."""
    chain = config.build()
    for block in blocks:
        if block.height == 0:
            if block.serialize() != chain.blocks[0].serialize():
                raise RuleViolation("genesis-mismatch", "stored genesis differs from the config")
            continue
        chain.apply_block(block)
    return chain


def reorg(chain: Chain, config: ChainConfig, branch: list[Block]) -> tuple[Chain, list[Transaction]]:
    """Switch to an alternative branch sharing an ancestor within the
    configured depth.  Returns the rebuilt chain and the transactions from
    abandoned blocks (minus coinbases), which go back to the mempool.
    Deadlines, locks, and commitments are re-derived by the replay."""
    if not branch:
        raise RuleViolation("reorg-empty", "no branch supplied")
    fork_height = branch[0].height - 1
    depth = chain.height - fork_height
    if depth < 0:
        raise RuleViolation("reorg-ahead", "branch does not attach below the tip")
    if depth > chain.params.max_reorg_depth:
        raise RuleViolation("reorg-depth", f"depth {depth} exceeds the modeled bound")
    if branch[0].parent != chain.blocks[fork_height].block_hash():
        raise RuleViolation("reorg-parent", "branch does not attach to the named ancestor")
    abandoned: list[Transaction] = []
    kept_txids = {tx.txid() for block in branch for tx in block.transactions}
    for block in chain.blocks[fork_height + 1 :]:
        for tx in block.transactions:
            if tx.txid() not in kept_txids:
                abandoned.append(tx)
    rebuilt = replay_chain(config, chain.blocks[: fork_height + 1] + branch)
    return rebuilt, abandoned


# -- snapshots -----------------------------------------------------------------------

SNAPSHOT_HEADER = "qcspend-snapshot v1"


def export_snapshot(chain: Chain, config: ChainConfig) -> str:
    lines = [SNAPSHOT_HEADER]
    lines.append("config " + json.dumps(config.to_json(), sort_keys=True, separators=(",", ":")))
    for block in chain.blocks:
        lines.append("block " + block.serialize().hex())
    lines.append("digest " + chain.state_digest().hex())
    return "\n".join(lines) + "\n"


def verify_snapshot(text: str) -> Chain:
    """Replay a snapshot through full validation; raises RuleViolation on
    any divergence, including a wrong final state digest."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise RuleViolation("snapshot-header", "not a snapshot file")
    if len(lines) < 3 or not lines[1].startswith("config ") or not lines[-1].startswith("digest "):
        raise RuleViolation("snapshot-shape", "expected config, blocks, digest")
    try:
        config = ChainConfig.from_json(json.loads(lines[1][len("config ") :]))
        blocks = [Block.deserialize(bytes.fromhex(line[len("block ") :])) for line in lines[2:-1]]
        digest = bytes.fromhex(lines[-1][len("digest ") :])
    except (ValueError, KeyError, DecodeError, TypeError) as exc:
        raise RuleViolation("snapshot-parse", str(exc))
    chain = replay_chain(config, blocks)
    if chain.state_digest() != digest:
        raise RuleViolation("snapshot-digest", "replayed state does not match the recorded digest")
    return chain
