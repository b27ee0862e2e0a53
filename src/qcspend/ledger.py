"""UTXO set primitives: addresses, outputs, the six-way UTXO taxonomy,
transactions and blocks with their canonical byte layouts, leaked-key
tracking, good-Samaritan report selection, and the registry of known
derived keys.

Wire layouts (all length-prefixed per `encoding`):

* address:   kind tag byte + payload bytes
* output:    address + value u64 + wait-override u32 (0 = chain default)
* input:     outpoint (txid + index u32) + witness (tag 0 none, 1
             pre-quantum, 2 post-quantum; both carry pk bytes + signature)
* tx:        kind tag + inputs + outputs + payload bytes; the signing
             hash covers everything except witnesses
* block:     height + parent hash + miner id + transactions + samaritan
             reports + coinbase

The codec is table-driven: an enum tag is written from one table of
one-byte strings and read through one byte -> member dict per enum, runs
of fixed-width fields share one precompiled `struct.Struct`, and the
decoders are offset walkers `(data, pos) -> (value, pos)` with no call
per field.  A fixed layout encodes as one `b"".join` of a tuple; a
transaction or a block appends into one bytearray, because a `b"".join`
over a list holds an 80-byte buffer view per part while it runs (0.6 MiB
for a 1,865-output genesis coinbase, against 0.1 MiB for the bytearray).
A fused pack that fails re-encodes its integers one at a time, so an
out-of-range value raises the `DecodeError` of `enc_u32`/`enc_u64` (and
any other value the `struct.error` of the pack).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from .encoding import END_OF_BUFFER, U32, U64, DecodeError, Reader, bytes_at, decode_utf8, done_at, enc_u32, enc_u64
from .groups import GroupParams, address_hash, pk_ec
from .hdwallet import DerivationPath, ExtendedSecretKey, derive


class AddrKind(Enum):
    PK_HASH = 1       # 32-byte hash of a pre-quantum public key
    PLAIN_PK = 2      # pre-quantum public key in the clear
    POST_QUANTUM = 3  # 32-byte post-quantum address


@dataclass(frozen=True)
class Address:
    kind: AddrKind
    data: bytes

    def __post_init__(self):
        if len(self.data) != 32 and self.kind in _HASH_ADDRESS_KINDS:
            raise ValueError("hash addresses are 32 bytes")

    def serialize(self) -> bytes:
        data = self.data
        return b"".join((_TAG[self.kind._value_], U32.pack(len(data)), data))

    @staticmethod
    def read(r: Reader) -> "Address":
        return r.walk(_address_at)

    def matches_pk(self, pk_bytes: bytes) -> bool:
        """Does a revealed pre-quantum public key belong to this address?"""
        if self.kind is AddrKind.PK_HASH:
            return address_hash(pk_bytes) == self.data
        if self.kind is AddrKind.PLAIN_PK:
            return pk_bytes == self.data
        return False


def pk_hash_address(pk_bytes: bytes) -> Address:
    return Address(AddrKind.PK_HASH, address_hash(pk_bytes))


def plain_pk_address(pk_bytes: bytes) -> Address:
    return Address(AddrKind.PLAIN_PK, pk_bytes)


def post_quantum_address(pq_pk_bytes: bytes) -> Address:
    return Address(AddrKind.POST_QUANTUM, address_hash(pq_pk_bytes))


# -- codec tables -----------------------------------------------------------------

# Tags are written as `_TAG[member._value_]` (the raw value: `.value` is a
# property and hashing a member runs Python code) and read through one
# value -> member dict per enum.
_TAG = tuple(bytes((value,)) for value in range(256))
_ADDR_KIND = {kind.value: kind for kind in AddrKind}
_HASH_ADDRESS_KINDS = (AddrKind.PK_HASH, AddrKind.POST_QUANTUM)
_U8_U32 = struct.Struct(">BI")  # a tag and the length after it
_U32_U8 = struct.Struct(">IB")  # an outpoint index and the witness tag after it
_U64_U32 = struct.Struct(">QI")  # an output's value and wait; a block's height and parent length
_U32_U64 = struct.Struct(">IQ")  # a UTXO's outpoint index and value
_UTXO_TAIL = struct.Struct(">QBI")  # a UTXO's height, coinbase flag and wait


def _unknown(tag: int, enum: type) -> DecodeError:
    return DecodeError(f"{tag} is not a valid {enum.__qualname__}")


def _address_at(data: bytes, pos: int) -> tuple[Address, int]:
    try:
        tag, n = _U8_U32.unpack_from(data, pos)
    except struct.error:
        raise DecodeError(END_OF_BUFFER) from None
    kind = _ADDR_KIND.get(tag)
    if kind is None:
        raise _unknown(tag, AddrKind)
    pos += 5
    end = pos + n
    if end > len(data):
        raise DecodeError(END_OF_BUFFER)
    if n != 32 and kind in _HASH_ADDRESS_KINDS:
        raise DecodeError("hash addresses are 32 bytes")
    return Address(kind, data[pos:end]), end


Outpoint = tuple[bytes, int]


@dataclass(frozen=True)
class Utxo:
    outpoint: Outpoint
    value: int
    address: Address
    created_height: int
    coinbase: bool = False
    wait_override: int = 0  # 0 means the chain default applies

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative value")

    def serialize(self) -> bytes:
        txid, index = self.outpoint
        try:
            index_value = _U32_U64.pack(index, self.value)
            tail = _UTXO_TAIL.pack(self.created_height, 1 if self.coinbase else 0, self.wait_override)
        except struct.error:
            enc_u32(index), enc_u64(self.value), enc_u64(self.created_height), enc_u32(self.wait_override)
            raise
        return b"".join((U32.pack(len(txid)), txid, index_value, self.address.serialize(), tail))

    def utxo_hash(self) -> bytes:
        """H(u): the 32-byte identity a lifted-FawkesCoin record carries."""
        return address_hash(self.serialize())

    def wait_blocks(self, default: int, floor: int) -> int:
        if self.wait_override == 0:
            return default
        return max(self.wait_override, floor)


# -- taxonomy -----------------------------------------------------------------


class UtxoClass(Enum):
    HASHED = "hashed"
    DERIVED = "derived"
    NAKED = "naked"
    LOST = "lost"
    STEALABLE = "stealable"
    DOOMED = "doomed"
    POST_QUANTUM = "post_quantum"


class MalformedKnowledge(ValueError):
    pass


@dataclass(frozen=True)
class KnowledgeModel:
    """Who knows what about one UTXO.  This is a simulation-side oracle:
    "hashed" is a fact about the adversary's ignorance and cannot be read
    off the chain (the chain-side approximation is leak tracking).

    `adversary_knows_unrecoverable` is the certainty bit: the adversary
    knows the owner holds no derivation seed (either the keys were never
    derived or the seed is gone).
    """

    owner_seed: bool
    owner_sk: bool
    owner_pk: bool
    adversary_pk: bool
    adversary_knows_unrecoverable: bool

    def validate(self) -> None:
        if self.owner_seed and not self.owner_sk:
            raise MalformedKnowledge("a seed holder can derive the secret key")
        if self.owner_sk and not self.owner_pk:
            raise MalformedKnowledge("a secret-key holder can compute the public key")
        if self.adversary_knows_unrecoverable and self.owner_seed:
            raise MalformedKnowledge("the adversary cannot know a falsehood")


def classify(utxo: Utxo, knowledge: KnowledgeModel) -> UtxoClass:
    """Total classification over (knowledge, address kind); contradictory
    knowledge raises MalformedKnowledge.

    A UTXO can be both hashed and derived (seed held, public key secret);
    the function reports HASHED then, the stronger protection, and the
    seed capability is still visible in the knowledge model itself.
    """
    knowledge.validate()
    if utxo.address.kind is AddrKind.POST_QUANTUM:
        return UtxoClass.POST_QUANTUM
    if not knowledge.owner_pk and not knowledge.adversary_pk:
        return UtxoClass.DOOMED
    if knowledge.owner_sk and not knowledge.adversary_pk:
        return UtxoClass.HASHED
    if knowledge.owner_seed:
        return UtxoClass.DERIVED
    if knowledge.adversary_knows_unrecoverable and knowledge.adversary_pk:
        return UtxoClass.STEALABLE
    if knowledge.owner_sk:
        return UtxoClass.NAKED
    return UtxoClass.LOST


# -- transactions ----------------------------------------------------------------


class TxKind(Enum):
    COINBASE = 0
    TRANSFER = 1
    FC_COMMIT = 2
    FC_REVEAL = 3
    LFC_COMMIT = 4
    LFC_REVEAL = 5
    LFC_CLAIM = 6
    REGISTRY_DECLARE = 7
    CANARY_KILL = 8
    ESCROW_COVER = 9


class WitnessKind(Enum):
    NONE = 0
    PRE_QUANTUM = 1
    POST_QUANTUM = 2


_TX_KIND = {kind.value: kind for kind in TxKind}
_WITNESS_KIND = {kind.value: kind for kind in WitnessKind}


@dataclass(frozen=True)
class Witness:
    kind: WitnessKind
    pk: bytes = b""
    signature: bytes = b""

    def serialize(self) -> bytes:
        pk, sig = self.pk, self.signature
        return b"".join((_TAG[self.kind._value_], U32.pack(len(pk)), pk, U32.pack(len(sig)), sig))


NO_WITNESS = Witness(WitnessKind.NONE)


@dataclass(frozen=True)
class TxInput:
    outpoint: Outpoint
    witness: Witness = NO_WITNESS

    def serialize(self) -> bytes:
        return bytes(_put_inputs(bytearray(), (self,)))


@dataclass(frozen=True)
class TxOutput:
    address: Address
    value: int
    wait_override: int = 0

    def serialize(self) -> bytes:
        return bytes(_put_outputs(bytearray(), (self,)))


def _enc_outpoint(outpoint: Outpoint) -> bytes:
    txid, index = outpoint
    try:
        return b"".join((U32.pack(len(txid)), txid, U32.pack(index)))
    except struct.error:
        enc_u32(index)
        raise


def _put_inputs(buf: bytearray, inputs: Iterable[TxInput]) -> bytearray:
    for i in inputs:
        buf += _enc_outpoint(i.outpoint)
        buf += i.witness.serialize()
    return buf


def _put_outputs(buf: bytearray, outputs: Iterable[TxOutput]) -> bytearray:
    for o in outputs:
        try:
            value_wait = _U64_U32.pack(o.value, o.wait_override)
        except struct.error:
            enc_u64(o.value), enc_u32(o.wait_override)
            raise
        buf += o.address.serialize()
        buf += value_wait
    return buf


def _tx_at(data: bytes, pos: int) -> tuple["Transaction", int]:
    unpack_u32, unpack_index_tag = U32.unpack_from, _U32_U8.unpack_from
    size = len(data)
    try:
        kind = _TX_KIND.get(data[pos])
        if kind is None:
            raise _unknown(data[pos], TxKind)
        (count,) = unpack_u32(data, pos + 1)
        pos += 5
        inputs = []
        for _ in range(count):
            start = pos + 4
            pos = start + unpack_u32(data, pos)[0]
            txid = data[start:pos]
            index, tag = unpack_index_tag(data, pos)
            witness_kind = _WITNESS_KIND.get(tag)
            if witness_kind is None:
                raise _unknown(tag, WitnessKind)
            start = pos + 9
            pos = start + unpack_u32(data, pos + 5)[0]
            pk = data[start:pos]
            start = pos + 4
            pos = start + unpack_u32(data, pos)[0]
            if pos > size:
                raise DecodeError(END_OF_BUFFER)
            inputs.append(TxInput((txid, index), Witness(witness_kind, pk, data[start:pos])))
        (count,) = unpack_u32(data, pos)
        pos += 4
        outputs = []
        for _ in range(count):
            address, pos = _address_at(data, pos)
            value, wait = _U64_U32.unpack_from(data, pos)
            outputs.append(TxOutput(address, value, wait))
            pos += 12
        payload, pos = bytes_at(data, pos)
    except (IndexError, struct.error):
        raise DecodeError(END_OF_BUFFER) from None
    return Transaction(kind, tuple(inputs), tuple(outputs), payload), pos


@dataclass(frozen=True)
class Transaction:
    kind: TxKind
    inputs: tuple[TxInput, ...] = ()
    outputs: tuple[TxOutput, ...] = ()
    payload: bytes = b""

    def serialize(self) -> bytes:
        buf = bytearray(_TAG[self.kind._value_])
        buf += U32.pack(len(self.inputs))
        return bytes(self._tail(_put_inputs(buf, self.inputs)))

    def _tail(self, buf: bytearray) -> bytearray:
        """`buf` with the outputs and the payload appended: what the
        transaction's bytes and its sighash share after the inputs."""
        buf += U32.pack(len(self.outputs))
        _put_outputs(buf, self.outputs)
        buf += U32.pack(len(self.payload))
        buf += self.payload
        return buf

    @staticmethod
    def deserialize(data: bytes) -> "Transaction":
        tx, pos = _tx_at(data, 0)
        done_at(data, pos)
        return tx

    def txid(self) -> bytes:
        return address_hash(self.serialize())

    def sighash(self) -> bytes:
        """What witnesses sign: the transaction with witnesses blanked."""
        buf = bytearray(b"sighash")
        buf += _TAG[self.kind._value_]
        buf += U32.pack(len(self.inputs))
        for i in self.inputs:
            buf += _enc_outpoint(i.outpoint)
        return address_hash(bytes(self._tail(buf)))

    def signed(self, *signers: Callable[[bytes], Witness]) -> "Transaction":
        """This transaction with input i's witness made by `signers[i]`
        from the sighash."""
        if len(signers) != len(self.inputs):
            raise ValueError(f"{len(signers)} signers for {len(self.inputs)} inputs")
        sighash = self.sighash()
        inputs = tuple(TxInput(i.outpoint, sign(sighash)) for i, sign in zip(self.inputs, signers))
        return Transaction(self.kind, inputs, self.outputs, self.payload)

    def output_sum(self) -> int:
        return sum(o.value for o in self.outputs)


# -- blocks ---------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    height: int
    parent: bytes
    miner_id: str
    miner_address: Address
    transactions: tuple[Transaction, ...]
    samaritan_reports: tuple[bytes, ...]
    coinbase: Transaction

    def serialize(self) -> bytes:
        parent = self.parent
        miner_id = self.miner_id.encode("utf-8")
        try:
            head = _U64_U32.pack(self.height, len(parent))
        except struct.error:
            enc_u64(self.height)
            raise
        buf = bytearray(head)
        buf += b"".join((parent, U32.pack(len(miner_id)), miner_id, self.miner_address.serialize()))
        # The transactions and the reports: a count, then length-prefixed items.
        for items in ([tx.serialize() for tx in self.transactions], self.samaritan_reports):
            buf += U32.pack(len(items))
            for item in items:
                buf += U32.pack(len(item))
                buf += item
        encoded = self.coinbase.serialize()
        buf += U32.pack(len(encoded))
        buf += encoded
        return bytes(buf)

    @staticmethod
    def deserialize(data: bytes) -> "Block":
        try:
            height = U64.unpack_from(data, 0)[0]
            parent, pos = bytes_at(data, 8)
            raw_miner_id, pos = bytes_at(data, pos)
            miner_id = decode_utf8(raw_miner_id)
            miner_address, pos = _address_at(data, pos)
            (count,) = U32.unpack_from(data, pos)
            pos += 4
            txs = []
            for _ in range(count):
                encoded, pos = bytes_at(data, pos)
                txs.append(Transaction.deserialize(encoded))
            (count,) = U32.unpack_from(data, pos)
            pos += 4
            reports = []
            for _ in range(count):
                report, pos = bytes_at(data, pos)
                reports.append(report)
            encoded, pos = bytes_at(data, pos)
        except struct.error:
            raise DecodeError(END_OF_BUFFER) from None
        coinbase = Transaction.deserialize(encoded)
        done_at(data, pos)
        return Block(height, parent, miner_id, miner_address, tuple(txs), tuple(reports), coinbase)

    def block_hash(self) -> bytes:
        return address_hash(self.serialize())


GENESIS_PARENT = bytes(32)


# -- leak tracking ------------------------------------------------------------------


class LeakTracker:
    """First-appearance heights of pre-quantum public keys.  Monotone
    within a branch: a key never becomes un-leaked, except that a reorg
    unmarks the keys first seen in the blocks it rewinds.

    An address index maps `address_hash(pk)` to the first key marked with
    that hash, so `leaked_pk` answers "which leaked key is behind this
    address" without hashing every leaked key.  The index is derived from
    the marks: it stays out of `snapshot()` and so out of the state digest."""

    def __init__(self):
        self._leaked: dict[bytes, int] = {}
        self._by_address: dict[bytes, bytes] = {}

    def mark(self, pk_bytes: bytes, height: int) -> bool:
        """Record a key's first appearance; True if it was not leaked yet."""
        if pk_bytes in self._leaked:
            return False
        self._leaked[pk_bytes] = height
        self._by_address.setdefault(address_hash(pk_bytes), pk_bytes)
        return True

    def unmark(self, pk_bytes: bytes) -> None:
        """Undo the `mark` that first recorded `pk_bytes`."""
        del self._leaked[pk_bytes]
        digest = address_hash(pk_bytes)
        if self._by_address.get(digest) == pk_bytes:
            del self._by_address[digest]

    def is_leaked(self, pk_bytes: bytes) -> bool:
        return pk_bytes in self._leaked

    def leak_height(self, pk_bytes: bytes) -> Optional[int]:
        return self._leaked.get(pk_bytes)

    def leaked_pk(self, address: Address) -> Optional[bytes]:
        """The leaked pre-quantum key behind `address`, or None."""
        if address.kind is AddrKind.PK_HASH:
            return self._by_address.get(address.data)
        if address.kind is AddrKind.PLAIN_PK and address.data in self._leaked:
            return address.data
        return None

    def snapshot(self) -> dict[bytes, int]:
        return dict(self._leaked)


def select_samaritan_reports(
    pending: Iterable[bytes], tracker: LeakTracker, budget_bytes: int, pk_len: int
) -> list[bytes]:
    """Miner-side selection: drop malformed, already-leaked, and duplicate
    keys, then take as many as the per-block byte budget allows."""
    limit = budget_bytes // pk_len
    selected: list[bytes] = []
    seen: set[bytes] = set()
    for pk in pending:
        if len(selected) >= limit:
            break
        if len(pk) != pk_len or pk in seen or tracker.is_leaked(pk):
            continue
        seen.add(pk)
        selected.append(pk)
    return selected


# -- key registry -----------------------------------------------------------------


@dataclass(frozen=True)
class KeyRegistryEntry:
    key_digest: bytes  # H(serialized xsk)
    included_height: int
    materialized_keys: frozenset[bytes]  # serialized extended keys
    materialized_pks: frozenset[bytes]


class KeyRegistry:
    """On-chain declarations (H(xsk), P1..Pk) plus the key sets K_xsk
    materialized once an extended key shows up on chain.

    K_xsk holds derive(xsk, P') for every P' in the prefix closure of the
    regular path set plus any declared irregular paths; the closure
    includes the empty path, so the revealed key itself is always a
    member.
    """

    def __init__(self, regular_paths: Iterable[str]):
        self.regular: tuple[DerivationPath, ...] = tuple(DerivationPath.parse(p) for p in regular_paths)
        self.declared: dict[bytes, list[DerivationPath]] = {}
        self._by_digest: dict[bytes, KeyRegistryEntry] = {}  # in materialization order
        self._key_to_entry: dict[bytes, KeyRegistryEntry] = {}

    @staticmethod
    def key_digest(group: GroupParams, xsk: ExtendedSecretKey) -> bytes:
        return address_hash(xsk.serialize(group))

    @property
    def entries(self) -> Iterable[KeyRegistryEntry]:
        """The materialized key sets, in the order they were materialized."""
        return self._by_digest.values()

    def materialize(self, group: GroupParams, xsk: ExtendedSecretKey, height: int) -> Optional[KeyRegistryEntry]:
        """Compute K_xsk and record it; idempotent per key."""
        digest = self.key_digest(group, xsk)
        if digest in self._by_digest:
            return None
        prefix_closed: dict[bytes, DerivationPath] = {}
        for p in list(self.regular) + self.declared.get(digest, []):
            for prefix in p.prefixes():
                prefix_closed.setdefault(prefix.serialize(), prefix)
        keys = set()
        pks = set()
        for prefix in prefix_closed.values():
            key = derive(group, xsk, prefix)
            keys.add(key.serialize(group))
            pks.add(pk_ec(group, key.sk).encode())
        entry = KeyRegistryEntry(digest, height, frozenset(keys), frozenset(pks))
        self._by_digest[digest] = entry
        for key in keys:
            self._key_to_entry.setdefault(key, entry)
        return entry

    def forget(self, entry: KeyRegistryEntry) -> None:
        """Undo the `materialize` that returned `entry`."""
        del self._by_digest[entry.key_digest]
        for key in entry.materialized_keys:
            if self._key_to_entry.get(key) is entry:
                del self._key_to_entry[key]

    def ban_height(self, group: GroupParams, xsk: ExtendedSecretKey) -> Optional[int]:
        """If this key is in some K_xsk, the height b_xsk from which
        non-lifted derived spends through it are banned."""
        entry = self._key_to_entry.get(xsk.serialize(group))
        return entry.included_height if entry else None
