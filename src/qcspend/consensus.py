"""The chain state machine: deterministic block application, era activation
from the canary, FawkesCoin/Lifted-FawkesCoin epoch rotation with
extensions, per-block deadline sweeps, reorg handling, and the exact
value-conservation ledger.

Blocks are applied through one path: begin_block / add_tx / end_block.
Block construction uses the same path (invalid candidate entries are
skipped and logged), and replay (verify) and reorg re-apply stored blocks
strictly.  Of a stored block's fields only two are recomputed, the
coinbase and the accepted samaritan reports, and both must equal the
stored ones; the others are the replay's inputs.  Whatever is not in
block bytes (sweep payouts, locks, escrows) is a deterministic function
of them, so replaying the blocks reproduces the state digest.

Every state change is recorded, as it is made, in an undo journal: the
call that reverses it.  A transaction or block that raises is rolled
back whole, and the journals of the last `max_reorg_depth` blocks are
kept as their undo data, so a reorg rewinds to the fork in place and
applies only the branch (Bitcoin Core's per-block undo data and
DisconnectBlock play the same part).

Per-block order: transactions in block order, samaritan reports, coinbase,
then the sweeps (lifted-commitment expiries, challenge-period
finalizations, epoch-end rotation/extension), then the balance assertion:

    sum(utxo values) + open challenge escrows + pending lifted fees
      + fine escrow of locked commitments  ==  total minted

Only `utxo_value_sum` and `total_minted` are running counters.  The three
holders outside the UTXO set are derived on read: the challenge escrow
sums the records `open_challenges` names, the pending lifted fees sum
`fee_shares_by_block`, and the fine escrow sums the records `lfc_locks`
names.

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
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional

from .encoding import U32, U64, DecodeError, Reader, enc_bytes, enc_u64
from .fawkescoin import (
    DEPOSIT_MODES,
    ChallengeRecord,
    ChallengeStatus,
    RevealMode,
    RevealPayload,
    parse_commit_payload,
    parse_reveal_payload,
)
from .groups import (
    GroupParams,
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
    _block_bytes,
    select_samaritan_reports,
)
from .lifted_fawkescoin import (
    LfcCommitment,
    LfcState,
    extension_decision,
    parse_claim_payload,
    parse_record_payload,
    split_fee,
)
from .lifting import (
    KeyLiftedSig,
    LiftedSignature,
    deserialize_lifted,
    keylift_verify,
    lifted_backends,
    seedlift_verify,
)
from .params import FC_MODES, FEE_SHARE_DELAY, Params, Table, check_fields, toy_order, u32_count
from .rules import RuleViolation

# The closing blocks of a lifted epoch whose claims decide an extension:
# the window `Params.proofs_per_100_blocks` counts proofs over.
CLAIM_WINDOW = 100

# The pre-quantum address kinds: a tuple, because a set lookup would hash
# an enum member, which runs Python code.
_PRE_QUANTUM_KINDS = (AddrKind.PK_HASH, AddrKind.PLAIN_PK)

_MISSING = object()


def _restore(table: dict, key, old) -> None:
    """Undo an assignment to `table[key]`: put back `old`, or no entry."""
    if old is _MISSING:
        del table[key]
    else:
        table[key] = old


@contextmanager
def _decoding(rule: str):
    """The decode boundary of a handler: a parse failure (DecodeError,
    GroupError, or a byte naming no enum member) becomes a RuleViolation."""
    try:
        yield
    except ValueError as exc:
        raise RuleViolation(rule, str(exc))


def _hash_of(block: Block, coinbase: bytes) -> bytes:
    """`block.block_hash()`, from the encoding of its coinbase; a block that
    does not encode (a miner id with no UTF-8 encoding) is refused.  Not
    `_decoding`, whose context manager read +13% on a median block."""
    try:
        return address_hash(_block_bytes(block, coinbase))
    except ValueError as exc:
        raise RuleViolation("block-unencodable", str(exc)) from None


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
    extension: bool = False

    @property
    def end(self) -> int:
        return self.start + self.length

    def offset(self, height: int) -> int:
        return height - self.start


@dataclass
class CanaryRecord:
    challenge_pk: bytes  # point encoding on the canary group
    nonce: bytes
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
        canary_group: GroupParams,
        canary: CanaryRecord,
        genesis_grants: Iterable[GenesisGrant] = (),
    ):
        self.params = params
        self.group = group
        self.pq_group = secure_group()
        self.canary_group = canary_group
        self.canary = canary
        self.key_backend, self.seed_backend = lifted_backends(group)

        self.blocks: list[Block] = []
        self.tip_hash = GENESIS_PARENT  # the hash of blocks[-1], once genesis is in
        self.utxos: dict[Outpoint, Utxo] = {}
        # H(u) -> outpoint, for the pre-quantum outputs only: the ones a
        # lifted commitment can lock.
        self.utxo_hash_index: dict[bytes, Outpoint] = {}
        self.leaks = LeakTracker()
        self.address_first_seen: dict[bytes, int] = {}
        self.registry = KeyRegistry(params)

        # committed hash -> [its first inclusion height]; a one-element list
        # for the benchmark's count of commitments (ROADMAP item 10)
        self.fc_commitments: dict[bytes, list[int]] = {}
        self.challenges: dict[bytes, ChallengeRecord] = {}
        self.open_challenges: dict[bytes, ChallengeRecord] = {}  # txid -> its OPEN record, and only those
        self.lfc_by_hash: dict[bytes, LfcCommitment] = {}  # committed hash -> record
        self.lfc_locks: dict[Outpoint, bytes] = {}  # outpoint -> hash of its LOCKED record, and only those
        self.fee_shares_by_block: Counter[int] = Counter()

        self.epochs: list[Epoch] = []
        self.total_minted = 0
        self.utxo_value_sum = 0
        self.violations: list[tuple[int, str, str]] = []

        self._building: Optional[_Draft] = None
        # The undo journal: the entries of the block being built, and the
        # journals of the last `max_reorg_depth` blocks, newest last (the
        # deque's bound drops older ones).  A branch switch keeps those of
        # all the blocks it applies until done.
        self._journal: list[tuple] = []
        self._undo: deque[list[tuple]] = deque(maxlen=params.max_reorg_depth)
        if canary.killed_at is not None:
            self._open_first_epoch()
        self._apply_genesis(list(genesis_grants))
        self._journal = []  # genesis is never undone

    def _open_first_epoch(self) -> None:
        """Schedule the first FawkesCoin epoch, at the start of the quantum era."""
        self._append(self.epochs, Epoch(EpochKind.FC, self.era_start(), self.params.fc_epoch_len))

    # -- genesis -----------------------------------------------------------

    def _apply_genesis(self, grants: list[GenesisGrant]) -> None:
        outputs = tuple(TxOutput(g.address, g.value, g.wait_override) for g in grants)
        coinbase = Transaction(TxKind.COINBASE, outputs=outputs, payload=enc_u64(0))
        block = Block(0, GENESIS_PARENT, "genesis", Address(AddrKind.POST_QUANTUM, bytes(32)), (), (), coinbase)
        self._mint(coinbase.output_sum())
        encoded = coinbase.serialize()
        # Genesis grants are plain outputs, not coinbase ones, so they skip
        # coinbase maturity and scenarios can move immediately.
        self._create_outputs(coinbase, 0, address_hash(encoded))
        self.blocks.append(block)
        self.tip_hash = address_hash(_block_bytes(block, encoded))  # block.block_hash(), from the one encoding
        self._assert_balance()

    # -- undo journal -----------------------------------------------------------
    # Each primitive mutates and appends the call that reverses it: a
    # function and its arguments, or the name of one of the chain's own
    # methods, so that the journal holds no reference to the chain (a
    # reference cycle would keep a discarded chain alive until the cyclic
    # garbage collector runs).  Rolling back makes those calls newest first.

    def _put(self, table: dict, key, value) -> None:
        self._journal.append((_restore, table, key, table.get(key, _MISSING)))
        table[key] = value

    def _pop(self, table: dict, key):
        value = table.pop(key)
        self._journal.append((table.__setitem__, key, value))
        return value

    def _set(self, obj, attr: str, value) -> None:
        old = getattr(obj, attr)
        self._journal.append(("__setattr__", attr, old) if obj is self else (setattr, obj, attr, old))
        setattr(obj, attr, value)

    def _append(self, items: list, value) -> None:
        items.append(value)
        self._journal.append((items.pop,))

    def _rollback(self, journal: list[tuple], mark: int = 0) -> None:
        """Undo the entries of `journal` past `mark`, newest first."""
        while len(journal) > mark:
            undo, *args = journal.pop()
            (getattr(self, undo) if isinstance(undo, str) else undo)(*args)

    def _rewind(self, height: int) -> list[Block]:
        """Undo the blocks above `height`, newest first, and return them in
        chain order."""
        depth = self.height - height
        if self._building is not None or not 0 <= depth <= len(self._undo):
            raise RuntimeError(f"cannot rewind {depth} blocks")
        undone = self.blocks[height + 1 :]
        for _ in range(depth):
            self._rollback(self._undo.pop())
        del self.blocks[height + 1 :]
        self.tip_hash = self.blocks[-1].block_hash()
        self.violations[:] = [v for v in self.violations if v[0] <= height]
        return undone

    def _switch_to(self, branch: list[Block]) -> list[Block]:
        """Replace the blocks above the branch's parent with the branch.  If
        a branch block fails, the branch is undone and the replaced blocks
        applied again before the failure propagates.  Returns the replaced
        blocks."""
        fork_height = branch[0].height - 1
        replaced = self._rewind(fork_height)
        # Every branch block stays undoable until the switch is done.
        self._undo = deque(self._undo, maxlen=self.params.max_reorg_depth + len(branch))
        try:
            for block in branch:
                self.apply_block(block)
        except BaseException:
            self._rewind(fork_height)
            for block in replaced:
                self.apply_block(block)
            raise
        finally:
            # Only the newest `max_reorg_depth` journals stay, as after a
            # block: a longer branch made the blocks below them final.
            self._undo = deque(self._undo, maxlen=self.params.max_reorg_depth)
        return replaced

    # -- views --------------------------------------------------------------

    @property
    def height(self) -> int:
        return self.blocks[-1].height

    @property
    def final_height(self) -> int:
        """No reorg replaces the blocks up to this height: once the tip has
        buried a block `max_reorg_depth` deep it is final, and only the
        blocks above the final one keep undo data."""
        return self.height - len(self._undo)

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
            return None
        for epoch in reversed(self.epochs):  # most queries are for the newest epoch
            if epoch.start <= height:
                if height < epoch.end:
                    return epoch
                break
        raise RuleViolation("epoch-unscheduled", f"height {height} beyond the built schedule")

    def utxo(self, outpoint: Outpoint) -> Optional[Utxo]:
        return self.utxos.get(outpoint)

    @property
    def challenge_escrow(self) -> int:
        """Spent outputs and deposits escrowed by the open challenges."""
        return sum(r.spent_value + r.deposit_value for r in self.open_challenges.values())

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
        self._insert_utxo(utxo)
        self._journal.append(("_delete_utxo", utxo.outpoint))
        addr = utxo.address.serialize()
        if addr not in self.address_first_seen:
            self._put(self.address_first_seen, addr, height)
        if utxo.address.kind is AddrKind.PLAIN_PK:
            self._mark_leak(utxo.address.data, height)

    def _remove_utxo(self, outpoint: Outpoint) -> Utxo:
        utxo = self._delete_utxo(outpoint)
        self._journal.append(("_insert_utxo", utxo))
        return utxo

    # The unjournaled halves: the set, its hash index and the value sum.

    def _insert_utxo(self, utxo: Utxo) -> None:
        self.utxos[utxo.outpoint] = utxo
        if utxo.address.kind in _PRE_QUANTUM_KINDS:
            self.utxo_hash_index[utxo.utxo_hash()] = utxo.outpoint
        self.utxo_value_sum += utxo.value

    def _delete_utxo(self, outpoint: Outpoint) -> Utxo:
        utxo = self.utxos.pop(outpoint)
        if utxo.address.kind in _PRE_QUANTUM_KINDS:
            del self.utxo_hash_index[utxo.utxo_hash()]
        self.utxo_value_sum -= utxo.value
        return utxo

    def _mark_leak(self, pk_bytes: bytes, height: int) -> None:
        if self.leaks.mark(pk_bytes, height):
            self._journal.append((self.leaks.unmark, pk_bytes))

    def _mint(self, value: int) -> None:
        """Add `value` to the supply, which the state digest encodes as a u64."""
        if self.total_minted + value >= 1 << 64:
            raise RuleViolation("supply-bound", f"minting {value} would take the supply past 2^64 - 1")
        self._set(self, "total_minted", self.total_minted + value)

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
        leaves no partial effects on failure (nor on any other exception).
        A handler's DecodeError means `tx` does not encode: a field past its
        wire width."""
        b = self._building
        if b is None:
            raise RuntimeError("no block in progress")
        handler = self._HANDLERS.get(tx.kind)
        if handler is None:
            raise RuleViolation("tx-kind", f"{tx.kind} cannot appear in the transaction list")
        mark, fees, obligation = len(self._journal), b.fees, b.obligation
        try:
            handler(self, tx, b.height)
        except BaseException as exc:
            self._rollback(self._journal, mark)
            b.fees, b.obligation = fees, obligation
            if isinstance(exc, DecodeError):
                raise RuleViolation("tx-unencodable", str(exc)) from None
            raise
        b.txs.append(tx)

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
        """Close the block; if that raises, the whole block, its
        transactions included, is rolled back."""
        # The draft is released first, so a rejected block never leaves the
        # builder stuck.
        b, self._building = self._building, None
        if b is None:
            raise RuntimeError("no block in progress")
        try:
            coinbase, encoded, accepted = self._close_block(b, reports)
            block = Block(b.height, b.parent, b.miner_id, b.miner_address, tuple(b.txs), accepted, coinbase)
            block_hash = _hash_of(block, encoded)
        except BaseException:
            self._rollback(self._journal)
            raise
        self._link_block(block, block_hash)
        return block

    def _link_block(self, block: Block, block_hash: bytes) -> None:
        """Append `block`, which has closed and hashes to `block_hash`, as
        the tip."""
        self.blocks.append(block)
        self.tip_hash = block_hash
        # The block's journal becomes its undo data (`_rewind` drops the
        # block itself), and the oldest journal past the bound is dropped.
        self._undo.append(self._journal)
        self._journal = []

    def _close_block(self, b: _Draft, reports: Iterable[bytes]) -> tuple[Transaction, bytes, tuple[bytes, ...]]:
        """Apply the end of block `b`: the reports, the coinbase, the sweeps
        and the balance check.  Returns the coinbase, its encoding and the
        accepted reports, the fields of the block that the chain computes."""
        height = b.height

        accepted_reports = tuple(self._include_reports(list(reports), height))

        income = self.params.block_reward + b.fees
        if income < b.obligation:
            raise RuleViolation("lfc-fine-coverage", f"reward plus fees {income} < obligation {b.obligation}")
        # Minted before the coinbase is encoded, whose outputs the supply bounds.
        self._mint(self.params.block_reward)
        outputs = [TxOutput(b.miner_address, income - b.obligation)]
        addendum = self._lfc_fee_addendum(height)
        if addendum is not None:
            outputs.append(addendum)
        coinbase = Transaction(TxKind.COINBASE, outputs=tuple(outputs), payload=enc_u64(height))
        encoded = coinbase.serialize()
        txid = address_hash(encoded)  # coinbase.txid(), from the one encoding
        for i, out in enumerate(coinbase.outputs):
            if out.value > 0:
                self._add_utxo(Utxo((txid, i), out.value, out.address, height, coinbase=True), height)

        epoch = self.epoch_of(height)
        self._sweep_lfc_expiries(height, epoch)
        self._sweep_challenges(height)
        self._epoch_end_check(height, epoch)
        self._assert_balance()
        return coinbase, encoded, accepted_reports

    def apply_block(self, block: Block) -> None:
        """Strict replay: every entry must validate, and the recomputed
        coinbase and reports must equal the block's (its height, parent,
        miner and transactions are the replay's inputs).  A block that
        fails leaves no effects, its undo data included; one that applies
        joins the chain as given."""
        if block.height != self.height + 1:
            raise RuleViolation("block-height", f"expected {self.height + 1}, got {block.height}")
        if block.parent != self.tip_hash:
            raise RuleViolation("block-parent", "parent hash does not match the tip")
        self.begin_block(block.miner_id, block.miner_address)
        try:
            for tx in block.transactions:
                self.add_tx(tx)
            b, self._building = self._building, None
            coinbase, encoded, accepted = self._close_block(b, block.samaritan_reports)
            if coinbase != block.coinbase or accepted != block.samaritan_reports:
                raise RuleViolation("block-mismatch", "recomputed block differs (coinbase or reports)")
            block_hash = _hash_of(block, encoded)
        except BaseException:
            self._building = None
            self._rollback(self._journal)
            raise
        self._link_block(block, block_hash)

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
            self._mark_leak(pk, height)
        return selected

    def submit_samaritan_report(self, pk_bytes: bytes, height: Optional[int] = None) -> None:
        """Mempool-side gate for a report submission."""
        h = self.height + 1 if height is None else height
        if self.era_phase(h) is EraPhase.QUANTUM_ERA:
            raise RuleViolation("samaritan-era", "good-Samaritan reports end with the pre-quantum era")
        if len(pk_bytes) != self.group.point_len:
            raise RuleViolation("samaritan-format", "report must be one public-key encoding")

    # -- witness / input validation --------------------------------------------------

    def _spendable_utxo(self, outpoint: Outpoint, height: int, lock: Optional[bytes] = None) -> Utxo:
        """The output `outpoint` names, if a spend at `height` may consume
        it: unspent, mature, and locked by no lifted commitment other than
        `lock`."""
        utxo = self.utxos.get(outpoint)
        if utxo is None:
            raise RuleViolation("utxo-missing", f"{outpoint[0].hex()[:16]}:{outpoint[1]}")
        if self.lfc_locks.get(outpoint, lock) != lock:
            raise RuleViolation("utxo-locked", "an unexpired lifted commitment locks this output")
        if utxo.coinbase and height - utxo.created_height < self.params.coinbase_cooldown:
            raise RuleViolation("coinbase-cooldown", f"matures at {utxo.created_height + self.params.coinbase_cooldown}")
        return utxo

    def _verify_witness(self, utxo_address: Address, witness: Witness, sighash: bytes) -> None:
        """The address era picks the group, the witness kind and how the
        revealed key must match the address."""
        if utxo_address.kind is AddrKind.POST_QUANTUM:
            era, group, kind = "post-quantum", self.pq_group, WitnessKind.POST_QUANTUM
            owns = lambda pk: address_hash(pk) == utxo_address.data
            mismatch = "post-quantum key does not hash to the address"
        else:
            era, group, kind = "pre-quantum", self.group, WitnessKind.PRE_QUANTUM
            owns = utxo_address.matches_pk
            mismatch = "revealed key does not match the address"
        if witness.kind is not kind:
            raise RuleViolation("witness-kind", f"{era} output needs a {era} witness")
        if not owns(witness.pk):
            raise RuleViolation("witness-address", mismatch)
        with _decoding("witness-malformed"):
            pk = decode_point(group, witness.pk)
            sig = PreQuantumSignature.decode(witness.signature)
        if not prequantum_verify(group, pk, sighash, sig):
            raise RuleViolation("witness-signature", f"{era} signature invalid")

    def _is_pre_quantum(self, address: Address) -> bool:
        return address.kind in _PRE_QUANTUM_KINDS

    def _is_post_quantum(self, address: Address) -> bool:
        return address.kind is AddrKind.POST_QUANTUM

    def _derives(self, address: Address, parent_key: ExtendedSecretKey, path: DerivationPath) -> bool:
        """Does `path` derive, from `parent_key`, the key behind `address`?"""
        return address.matches_pk(pk_ec(self.group, derive(self.group, parent_key, path).sk).encode())

    def _mark_witness_leak(self, witness: Witness, height: int) -> None:
        if witness.kind is WitnessKind.PRE_QUANTUM:
            self._mark_leak(witness.pk, height)

    def _create_outputs(self, tx: Transaction, height: int, txid: Optional[bytes] = None) -> None:
        """Add the outputs of `tx`, whose txid a caller that has just
        encoded `tx` passes as `txid`."""
        txid = tx.txid() if txid is None else txid
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

    @staticmethod
    def _fee(tx: Transaction, total_in: int) -> int:
        """The fee of `tx` out of inputs worth `total_in`, which its outputs may not exceed."""
        fee = total_in - tx.output_sum()
        if fee < 0:
            raise RuleViolation("tx-overspend", f"outputs {tx.output_sum()} exceed inputs {total_in}")
        return fee

    def _spend_inputs(self, tx: Transaction, height: int, total_in: int, txid: Optional[bytes] = None) -> int:
        """Apply a plain spend whose inputs passed `_validate_inputs`: remove
        them, record the keys their witnesses revealed, create the outputs
        (under `txid`, if the caller has it).  Returns the fee."""
        fee = self._fee(tx, total_in)
        for txin in tx.inputs:
            self._remove_utxo(txin.outpoint)
            self._mark_witness_leak(txin.witness, height)
        self._create_outputs(tx, height, txid)
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

    def _epoch_gate(self, height: int, kind: EpochKind, committing: bool) -> Epoch:
        """The epoch at `height`, if `kind` may act there (and commit, when `committing`)."""
        fc = kind is EpochKind.FC
        protocol = "FawkesCoin" if fc else "Lifted FawkesCoin"
        epoch = self.epoch_of(height)
        if epoch is None:
            raise RuleViolation("epoch-preactivation", f"{protocol} activates with the quantum era")
        if epoch.kind is not kind:
            raise RuleViolation("epoch-kind", f"not a {protocol} epoch")
        window = self.params.fc_commit_window() if fc else self.params.lfc_commit_window()
        if committing and epoch.offset(height) >= window:
            raise RuleViolation("fc-commit-cutoff" if fc else "lfc-commit-cutoff", "no commitments in the last blocks of the epoch")
        return epoch

    # FawkesCoin ------------------------------------------------------------------

    def _apply_fc_commit(self, tx: Transaction, height: int) -> None:
        self._epoch_gate(height, EpochKind.FC, committing=True)
        with _decoding("fc-commit-malformed"):
            committed = parse_commit_payload(tx.payload)
        if not tx.inputs:
            raise RuleViolation("fc-commit-needs-pq-fee", "the committing transaction pays its own fee")
        total_in = self._validate_inputs(
            tx, height, self._is_post_quantum, "fc-commit-needs-pq-fee", "a post-quantum output must fund the commitment"
        )
        self._building.fees += self._spend_inputs(tx, height, total_in)
        # No locking in non-lifted mode, and a repeated commitment keeps the
        # first height: every bound `_check_commitment` applies favours it.
        if committed not in self.fc_commitments:
            self._put(self.fc_commitments, committed, [height])

    def _check_commitment(self, committed: bytes, height: int, wait: int, *, max_leak_height: Optional[int], ban_height: Optional[int]) -> None:
        """Require a commitment to `committed` that is at least `wait`
        blocks old, landed no later than `max_leak_height` and strictly
        before `ban_height` (either bound None when it does not apply)."""
        if committed not in self.fc_commitments:
            raise RuleViolation("fc-no-commitment", "reveal does not match any commitment")
        (committed_at,) = self.fc_commitments[committed]
        # A hashed spend requires the key to have stayed unleaked until the
        # commitment landed.
        if (
            height - committed_at < wait
            or (max_leak_height is not None and max_leak_height < committed_at)
            or (ban_height is not None and committed_at >= ban_height)
        ):
            raise RuleViolation("fc-commitment-unusable", "the commitment is not old enough or is encumbered")

    def _apply_fc_reveal(self, tx: Transaction, height: int) -> None:
        self._epoch_gate(height, EpochKind.FC, committing=False)
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
        wait = self.params.output_wait(utxo)
        txid = tx.txid()

        if mode is RevealMode.HASHED:
            leak_height = self.leaks.leak_height(txin.witness.pk)
            self._check_commitment(txid, height, wait, max_leak_height=leak_height, ban_height=None)
        elif mode is RevealMode.DERIVED:
            if not self._derives(utxo.address, payload.parent_key, payload.path):
                raise RuleViolation("fc-derivation", "payload does not derive the spent key")
            ban = self.registry.ban_height(self.group, payload.parent_key)
            self._check_commitment(txid, height, wait, max_leak_height=None, ban_height=ban)

        self._building.fees += self._spend_inputs(tx, height, total_in, txid)
        if mode is RevealMode.DERIVED:
            self._materialize(payload, height)

    def _mode_allowed(self, mode: RevealMode) -> None:
        order = FC_MODES.index(self.params.fc_mode)
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

        wait = self.params.output_wait(utxo)
        txid = tx.txid()
        self._check_commitment(txid, height, wait, max_leak_height=None, ban_height=None)

        fee = self._fee(tx, utxo.value + deposit.value)
        minimum = self.params.deposit_minimum(utxo.value, fee)
        if deposit.value < minimum:
            raise RuleViolation("fc-deposit-low", f"deposit {deposit.value} below the minimum {minimum}")

        self._remove_utxo(u_in.outpoint)
        self._remove_utxo(d_in.outpoint)
        self._mark_witness_leak(u_in.witness, height)
        record = ChallengeRecord(
            txid=txid,
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
        self._put(self.challenges, record.txid, record)
        self._put(self.open_challenges, record.txid, record)
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
        if not self._derives(spent_address, payload.parent_key, payload.path):
            raise RuleViolation("fp-derivation", "payload does not derive the challenged key")
        ban = self.registry.ban_height(self.group, payload.parent_key)
        # The proof is itself a derived-mode spend of u, so u's waiting
        # time governs its commitment age.
        txid = tx.txid()
        self._check_commitment(txid, height, record.spent_wait, max_leak_height=None, ban_height=ban)

        fee = self._fee(tx, record.spent_value)
        # Defeat: the challenged transaction is invalidated.  The original
        # including miner is made whole from the deposit; the rest of the
        # deposit follows the fraud proof's destination.
        self._mark_witness_leak(tx.inputs[0].witness, height)
        self._materialize(payload, height)
        self._create_outputs(tx, height, txid)
        self._building.fees += fee
        owed_fee = min(record.fee, record.deposit_value)
        self._resolve_challenge(record, ChallengeStatus.DEFEATED, owed_fee, height)
        self._credit(b"deposit-payout", record.txid, tx.outputs[0].address, record.deposit_value - owed_fee, height)

    def _resolve_challenge(self, record: ChallengeRecord, status: ChallengeStatus, miner_fee: int, height: int) -> None:
        """Settle an OPEN challenge as `status`: release its escrow and pay
        the including miner `miner_fee`."""
        self._pop(self.open_challenges, record.txid)
        self._set(record, "status", status)
        self._credit(b"challenge-fee", record.txid, record.reveal_miner, miner_fee, height)

    def _materialize(self, payload: RevealPayload, height: int) -> None:
        entry = self.registry.materialize(self.group, payload.parent_key, height)
        if entry:
            self._journal.append((self.registry.forget, entry))
            for pk in sorted(entry.materialized_pks):
                self._mark_leak(pk, height)

    # Lifted FawkesCoin ----------------------------------------------------------------

    def _apply_lfc_commit(self, tx: Transaction, height: int) -> None:
        self._epoch_gate(height, EpochKind.LFC, committing=True)
        if tx.inputs or tx.outputs:
            raise RuleViolation("lfc-commit-shape", "the on-chain record carries no inputs or outputs")
        with _decoding("lfc-commit-malformed"):
            committed, utxo_hash, alpha = parse_record_payload(tx.payload)
        if committed in self.lfc_by_hash:
            raise RuleViolation("lfc-duplicate", "commitment hash already recorded")
        outpoint = self.utxo_hash_index.get(utxo_hash)
        if outpoint is None:
            raise RuleViolation("lfc-unknown-utxo", "H(u) names no unspent pre-quantum output")
        if outpoint in self.lfc_locks:
            raise RuleViolation("lfc-locked", "an unexpired commitment already locks this output")
        utxo = self.utxos[outpoint]
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
        self._put(self.lfc_by_hash, committed, record)
        self._put(self.lfc_locks, outpoint, committed)
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

    def verify_ownership(self, address: Address, message: bytes, sig: LiftedSignature) -> bool:
        if isinstance(sig, KeyLiftedSig):
            if address.kind is AddrKind.PK_HASH:
                return keylift_verify(self.key_backend, address.data, message, sig)
            if address.kind is AddrKind.PLAIN_PK:
                return keylift_verify(self.key_backend, address_hash(address.data), message, sig)
            return False
        return seedlift_verify(self.group, self.seed_backend, address.matches_pk, message, sig)

    def _locked_record(self, committed: bytes, height: int, revealing: bool) -> LfcCommitment:
        """The LOCKED record of `committed`, if its age at `height` lets the
        spender reveal (`revealing`) or the committer claim: the reveal
        window belongs to the spender, the ages past it to the claim."""
        record = self.lfc_by_hash.get(committed)
        if record is None or record.state is not LfcState.LOCKED:
            raise RuleViolation("lfc-no-commitment", f"{'reveal' if revealing else 'claim'} matches no locked commitment")
        age = record.age(height)
        in_window = age <= self.params.reveal_deadline()
        if revealing and age < self.params.wait_blocks:
            raise RuleViolation("lfc-reveal-early", f"age {age} below the waiting time")
        if revealing and not in_window:
            raise RuleViolation("lfc-reveal-late", "the reveal window is over; the proof window is open")
        if in_window and not revealing:
            raise RuleViolation("lfc-claim-early", "the spender's reveal window is still open")
        return record

    def _apply_lfc_reveal(self, tx: Transaction, height: int) -> None:
        self._epoch_gate(height, EpochKind.LFC, committing=False)
        committed = tx.txid()
        record = self._locked_record(committed, height, revealing=True)
        if len(tx.inputs) != 1 or tx.inputs[0].outpoint != record.outpoint:
            raise RuleViolation("lfc-reveal-shape", "the reveal spends exactly the committed output")
        with _decoding("lfc-reveal-malformed"):
            payload = parse_reveal_payload(self.group, tx.payload)
        utxo = self._spendable_utxo(record.outpoint, height, lock=committed)
        self._verify_witness(utxo.address, tx.inputs[0].witness, tx.sighash())
        if payload.mode is RevealMode.DERIVED:
            if not self._derives(utxo.address, payload.parent_key, payload.path):
                raise RuleViolation("lfc-derivation", "payload does not derive the spent key")
        elif payload.mode is not RevealMode.HASHED:
            raise RuleViolation("lfc-reveal-mode", "lifted reveals are hashed or derived spends")
        fee = utxo.value - tx.output_sum()
        if fee != record.alpha:
            raise RuleViolation("lfc-fee-exact", f"fee {fee} must equal the committed {record.alpha}")

        self._spend_inputs(tx, height, utxo.value, committed)
        if payload.mode is RevealMode.DERIVED:
            self._materialize(payload, height)

        shares = self.fee_shares_by_block
        committer_share, revealer_share = split_fee(record.alpha)
        self._put(shares, record.height_included, shares[record.height_included] + committer_share)
        self._put(shares, height, shares[height] + revealer_share)
        self._resolve_lfc(record, LfcState.REVEALED, height)

    def _apply_lfc_claim(self, tx: Transaction, height: int) -> None:
        epoch = self._epoch_gate(height, EpochKind.LFC, committing=False)
        if tx.inputs or tx.outputs:
            raise RuleViolation("lfc-claim-shape", "a claim carries only the proof payload")
        with _decoding("lfc-claim-malformed"):
            committed, sigma = parse_claim_payload(tx.payload)
        record = self._locked_record(committed, height, revealing=False)
        if record.age(height) > self.params.claim_deadline() and not epoch.extension:
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
        # commitment to an outright claim of a leaked output.  The key's
        # leak height decides, not its output's: a key public long before
        # may be paid an output in the commitment's own block.
        if isinstance(sig, KeyLiftedSig):
            pk = self.leaks.leaked_pk(record.utxo_address)
            if pk is not None and self.leaks.leak_height(pk) < record.height_included:
                raise RuleViolation("lfc-claim-keylift-leaked", "key-lifted proof on an output leaked before the commitment")

        utxo = self._remove_utxo(record.outpoint)
        self._credit(b"lfc-claim", committed, record.committer_address, utxo.value, height)
        self._resolve_lfc(record, LfcState.CLAIMED_BY_MINER, height)

    def _resolve_lfc(self, record: LfcCommitment, state: LfcState, height: int) -> None:
        """Settle a LOCKED record as `state`: unlock its output and release
        its fine escrow, to the output's address on expiry and back to the
        committer otherwise."""
        self._pop(self.lfc_locks, record.outpoint)
        self._set(record, "state", state)
        self._set(record, "resolved_height", height)
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
        self._put(self.registry.declared, digest, self.registry.declared.get(digest, []) + paths)

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
        bounty = self.params.canary_bounty
        if self.params.bounty_source == "burned" and bounty > 0:
            # The discouraged funding variant: pay the bounty out of burned
            # funds.  Nothing in the model burns value, so this is its
            # documented failure mode: there is no bounty to claim.
            raise RuleViolation("canary-bounty-unfunded", "burned funds do not cover the bounty")
        self._set(self.canary, "killed_at", height)
        self._mint(bounty)
        self._credit(b"canary-bounty", tx.txid(), claimant, bounty, height)
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

    def _sweep_lfc_expiries(self, height: int, epoch: Optional[Epoch]) -> None:
        if not self.lfc_locks:
            return
        if epoch is not None and epoch.extension:
            return  # fines are withheld while an extension is running
        deadline = self.params.claim_deadline()
        for committed in list(self.lfc_locks.values()):
            record = self.lfc_by_hash[committed]
            if record.age(height) > deadline:
                self._resolve_lfc(record, LfcState.EXPIRED_FINED, height)

    def _sweep_challenges(self, height: int) -> None:
        if not self.open_challenges:
            return
        for record in list(self.open_challenges.values()):
            if height > record.challenge_end_height:
                self._create_outputs(record.revealed_tx, height, record.txid)
                self._resolve_challenge(record, ChallengeStatus.FINALIZED, record.fee, height)

    def _lfc_fee_addendum(self, height: int) -> Optional[TxOutput]:
        earned = height - FEE_SHARE_DELAY
        if earned not in self.fee_shares_by_block:
            return None
        shares = self._pop(self.fee_shares_by_block, earned)
        if shares <= 0:
            return None
        return TxOutput(self.blocks[earned].miner_address, shares)

    def _epoch_end_check(self, height: int, current: Optional[Epoch]) -> None:
        if current is None or height != current.end - 1:
            return
        if current.kind is EpochKind.FC:
            self._append(self.epochs, Epoch(EpochKind.LFC, current.end, self.params.lfc_epoch_len))
            return
        # The claims are the CLAIMED records, which never change state again.
        # This runs at `current.end - 1`, so every record resolved so far is
        # below `current.end`: the window needs no upper bound.
        claims = sum(
            1
            for r in self.lfc_by_hash.values()
            if r.state is LfcState.CLAIMED_BY_MINER and current.end - CLAIM_WINDOW <= r.resolved_height
        )
        if extension_decision(
            claims,
            self.params.proofs_per_100_blocks,
            self.params.extension_threshold_num,
            self.params.extension_threshold_den,
        ):
            self._append(self.epochs, Epoch(EpochKind.LFC, current.end, self.params.lfc_epoch_len, extension=True))
            return
        # Rotation: fine whatever is still locked, then hand over to a
        # FawkesCoin epoch.
        for committed in list(self.lfc_locks.values()):
            self._resolve_lfc(self.lfc_by_hash[committed], LfcState.EXPIRED_FINED, height)
        self._append(self.epochs, Epoch(EpochKind.FC, current.end, self.params.fc_epoch_len))

    def _assert_balance(self) -> None:
        # The three pools are nearly always empty, so each is summed only
        # when its index holds something.
        lhs = self.utxo_value_sum
        if self.open_challenges:
            lhs += self.challenge_escrow
        if self.fee_shares_by_block:
            lhs += self.pending_fee_pool
        if self.lfc_locks:
            lhs += self.fine_escrow_pool
        if lhs != self.total_minted:
            raise RuleViolation("ledger-balance", f"value {lhs} != minted {self.total_minted}")

    def recompute_balance(self) -> None:
        """Full (non-incremental) audit of the conservation identity."""
        total = sum(u.value for u in self.utxos.values())
        if total != self.utxo_value_sum:
            raise RuleViolation("ledger-balance", "incremental utxo sum drifted")
        open_records = [r for r in self.challenges.values() if r.status is ChallengeStatus.OPEN]
        escrow = sum(r.spent_value + r.deposit_value for r in open_records)
        if escrow != self.challenge_escrow:
            raise RuleViolation("ledger-balance", "open-challenge index drifted from the OPEN records")
        self._assert_balance()

    # -- snapshot / digest ------------------------------------------------------------------

    def state_digest(self) -> bytes:
        """The hash of every stored fact, each once: no index, sum or list
        that other parts determine (`tests/test_undo.py` names those), and
        nothing that the config or the tip's parent links fix.  The minted
        total is hashed although the outputs and escrows sum to it: it is a
        running counter, kept to catch a fault in them."""
        # Heights are packed unchecked: each is the chain's length plus at
        # most a few u32 `Params` counts, so none can outgrow u64.
        pack_u32, pack_u64 = U32.pack, U64.pack
        utxos, lfc, fc, challenges = self.utxos, self.lfc_by_hash, self.fc_commitments, self.challenges
        declared = self.registry.declared
        parts: list[bytes] = [pack_u64(self.height), self.tip_hash]
        parts += [utxos[outpoint].serialize() for outpoint in sorted(utxos)]
        parts += [b"".join((pack_u32(len(pk)), pk, pack_u64(h))) for pk, h in sorted(self.leaks.snapshot().items())]
        parts += [lfc[committed].serialize() for committed in sorted(lfc)]
        parts += [b"fc" + enc_bytes(committed) + pack_u64(fc[committed][0]) for committed in sorted(fc)]
        parts += [challenges[txid].serialize() for txid in sorted(challenges)]
        # A materialized key set depends on the paths declared before it, so
        # it is hashed beside the declarations.
        for entry in self.registry.entries:
            keys = b"".join(map(enc_bytes, sorted(entry.materialized_keys)))
            parts.append(enc_bytes(entry.key_digest) + pack_u64(entry.included_height) + keys)
        for digest in sorted(declared):
            parts += [enc_bytes(digest) + p.serialize() for p in declared[digest]]
        for epoch in self.epochs:
            parts.append(epoch.kind.value.encode() + pack_u64(epoch.start) + pack_u64(epoch.length) + bytes([epoch.extension]))
        for block_height in sorted(self.fee_shares_by_block):
            parts.append(pack_u64(block_height) + enc_u64(self.fee_shares_by_block[block_height]))
        first_seen = self.address_first_seen
        parts += [addr + pack_u64(first_seen[addr]) for addr in sorted(first_seen)]
        parts.append(enc_u64(self.total_minted))
        if self.canary.killed_at is not None:
            parts.append(b"killed" + pack_u64(self.canary.killed_at))
        return address_hash(b"".join([pack_u32(len(p)) + p for p in parts]))


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
        canary = CanaryRecord(self.canary_pk, self.canary_nonce, self.canary_killed_at)
        return Chain(self.params, group, canary_group, canary, self.grants)

    def to_json(self) -> dict:
        return {
            "params": asdict(self.params),
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
        """The config that `to_json` wrote, checked against SNAPSHOT_CONFIG."""
        config = check_fields(data, SNAPSHOT_CONFIG, "snapshot config")
        grants = [check_fields(g, SNAPSHOT_GRANT, "snapshot grant") for g in config.pop("grants")]
        return ChainConfig(**config, grants=tuple(
            GenesisGrant(Address(AddrKind[g["address_kind"]], g["address_data"]), g["value"], g["wait_override"]) for g in grants
        ))


# A snapshot's config line and its grants, as tables for `check_fields`.
SNAPSHOT_CONFIG = Table({
    "params": (Params, ...), "group_q": (toy_order, ...), "canary_q": (toy_order, ...),
    "canary_pk": (bytes.fromhex, ...), "canary_nonce": (bytes.fromhex, ...), "canary_killed_at": (int, None),
    "grants": ([dict], ...),
})
SNAPSHOT_GRANT = Table({
    "address_kind": (set(AddrKind.__members__), ...), "address_data": (bytes.fromhex, ...),
    "value": (int, ...), "wait_override": (u32_count, ...),
})


def replay_chain(config: ChainConfig, blocks: Iterable[Block]) -> Chain:
    """Rebuild a chain by strictly re-validating every stored block."""
    chain = config.build()
    for block in blocks:
        if block.height == 0:
            if block != chain.blocks[0]:  # by value, as `apply_block` compares coinbases
                raise RuleViolation("genesis-mismatch", "stored genesis differs from the config")
            continue
        chain.apply_block(block)
    return chain


def reorg(chain: Chain, config: ChainConfig, branch: list[Block]) -> tuple[Chain, list[Transaction]]:
    """Switch `chain`, in place, to an alternative branch sharing an
    ancestor within the configured depth: the blocks above the fork are
    undone from their journals and only the branch is applied, so the work
    grows with the depth, not the chain.  If a branch block is invalid,
    the original blocks are restored and its RuleViolation raised.
    Returns the same chain and the transactions from abandoned blocks
    (minus coinbases), which go back to the mempool.  `config` is unused;
    callers still pass it."""
    if not branch:
        raise RuleViolation("reorg-empty", "no branch supplied")
    fork_height = branch[0].height - 1
    depth = chain.height - fork_height
    if depth < 0:
        raise RuleViolation("reorg-ahead", "branch does not attach below the tip")
    if depth > chain.params.max_reorg_depth:
        raise RuleViolation("reorg-depth", f"depth {depth} exceeds the modeled bound")
    if fork_height < chain.final_height:
        # Reachable only after a reorg to a shorter branch lowered the tip.
        raise RuleViolation("reorg-depth", f"block {chain.final_height} is final: an earlier tip buried it that deep")
    if branch[0].parent != chain.blocks[fork_height].block_hash():
        raise RuleViolation("reorg-parent", "branch does not attach to the named ancestor")
    replaced = chain._switch_to(branch)
    kept_txids = {tx.txid() for block in branch for tx in block.transactions}
    abandoned = [tx for block in replaced for tx in block.transactions if tx.txid() not in kept_txids]
    return chain, abandoned


# -- snapshots -----------------------------------------------------------------------

SNAPSHOT_HEADER = "qcspend-snapshot v3"


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
    if not all(line.startswith("block ") for line in lines[2:-1]):
        raise RuleViolation("snapshot-shape", "expected a block line")
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
