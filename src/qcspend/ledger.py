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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from .encoding import Reader, enc_bytes, enc_str, enc_u32, enc_u64
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
        if self.kind in (AddrKind.PK_HASH, AddrKind.POST_QUANTUM) and len(self.data) != 32:
            raise ValueError("hash addresses are 32 bytes")

    def serialize(self) -> bytes:
        return bytes([self.kind.value]) + enc_bytes(self.data)

    @staticmethod
    def read(r: Reader) -> "Address":
        return Address(AddrKind(r.u8()), r.bytes_())

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


Outpoint = tuple[bytes, int]


def enc_outpoint(op: Outpoint) -> bytes:
    return enc_bytes(op[0]) + enc_u32(op[1])


def read_outpoint(r: Reader) -> Outpoint:
    return (r.bytes_(), r.u32())


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
        return (
            enc_outpoint(self.outpoint)
            + enc_u64(self.value)
            + self.address.serialize()
            + enc_u64(self.created_height)
            + bytes([1 if self.coinbase else 0])
            + enc_u32(self.wait_override)
        )

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


@dataclass(frozen=True)
class Witness:
    kind: WitnessKind
    pk: bytes = b""
    signature: bytes = b""

    def serialize(self) -> bytes:
        return bytes([self.kind.value]) + enc_bytes(self.pk) + enc_bytes(self.signature)

    @staticmethod
    def read(r: Reader) -> "Witness":
        return Witness(WitnessKind(r.u8()), r.bytes_(), r.bytes_())


NO_WITNESS = Witness(WitnessKind.NONE)


@dataclass(frozen=True)
class TxInput:
    outpoint: Outpoint
    witness: Witness = NO_WITNESS

    def serialize(self) -> bytes:
        return enc_outpoint(self.outpoint) + self.witness.serialize()

    @staticmethod
    def read(r: Reader) -> "TxInput":
        return TxInput(read_outpoint(r), Witness.read(r))


@dataclass(frozen=True)
class TxOutput:
    address: Address
    value: int
    wait_override: int = 0

    def serialize(self) -> bytes:
        return self.address.serialize() + enc_u64(self.value) + enc_u32(self.wait_override)

    @staticmethod
    def read(r: Reader) -> "TxOutput":
        return TxOutput(Address.read(r), r.u64(), r.u32())


@dataclass(frozen=True)
class Transaction:
    kind: TxKind
    inputs: tuple[TxInput, ...] = ()
    outputs: tuple[TxOutput, ...] = ()
    payload: bytes = b""

    def serialize(self) -> bytes:
        out = bytes([self.kind.value]) + enc_u32(len(self.inputs))
        for i in self.inputs:
            out += i.serialize()
        out += enc_u32(len(self.outputs))
        for o in self.outputs:
            out += o.serialize()
        return out + enc_bytes(self.payload)

    @staticmethod
    def read(r: Reader) -> "Transaction":
        kind = TxKind(r.u8())
        inputs = tuple(TxInput.read(r) for _ in range(r.u32()))
        outputs = tuple(TxOutput.read(r) for _ in range(r.u32()))
        return Transaction(kind, inputs, outputs, r.bytes_())

    @staticmethod
    def deserialize(data: bytes) -> "Transaction":
        r = Reader(data)
        tx = Transaction.read(r)
        r.done()
        return tx

    def txid(self) -> bytes:
        return address_hash(self.serialize())

    def sighash(self) -> bytes:
        """What witnesses sign: the transaction with witnesses blanked."""
        out = b"sighash" + bytes([self.kind.value]) + enc_u32(len(self.inputs))
        for i in self.inputs:
            out += enc_outpoint(i.outpoint)
        out += enc_u32(len(self.outputs))
        for o in self.outputs:
            out += o.serialize()
        return address_hash(out + enc_bytes(self.payload))

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
        out = enc_u64(self.height) + enc_bytes(self.parent) + enc_str(self.miner_id)
        out += self.miner_address.serialize()
        out += enc_u32(len(self.transactions))
        for tx in self.transactions:
            out += enc_bytes(tx.serialize())
        out += enc_u32(len(self.samaritan_reports))
        for report in self.samaritan_reports:
            out += enc_bytes(report)
        return out + enc_bytes(self.coinbase.serialize())

    @staticmethod
    def deserialize(data: bytes) -> "Block":
        r = Reader(data)
        height = r.u64()
        parent = r.bytes_()
        miner_id = r.str_()
        miner_address = Address.read(r)
        txs = tuple(Transaction.deserialize(r.bytes_()) for _ in range(r.u32()))
        reports = tuple(r.bytes_() for _ in range(r.u32()))
        coinbase = Transaction.deserialize(r.bytes_())
        r.done()
        return Block(height, parent, miner_id, miner_address, txs, reports, coinbase)

    def block_hash(self) -> bytes:
        return address_hash(self.serialize())


GENESIS_PARENT = bytes(32)


# -- leak tracking ------------------------------------------------------------------


class LeakTracker:
    """First-appearance heights of pre-quantum public keys.  Monotone: a
    key never becomes un-leaked.

    An address index maps `address_hash(pk)` to the first key marked with
    that hash, so `leaked_pk` answers "which leaked key is behind this
    address" without hashing every leaked key.  The index is derived from
    the marks: it stays out of `snapshot()` and so out of the state digest."""

    def __init__(self):
        self._leaked: dict[bytes, int] = {}
        self._by_address: dict[bytes, bytes] = {}

    def mark(self, pk_bytes: bytes, height: int) -> None:
        if pk_bytes not in self._leaked:
            self._leaked[pk_bytes] = height
            self._by_address.setdefault(address_hash(pk_bytes), pk_bytes)

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

    def __init__(self, regular_paths: Iterable[str], max_declared: int):
        self.regular: tuple[DerivationPath, ...] = tuple(DerivationPath.parse(p) for p in regular_paths)
        self.max_declared = max_declared
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

    def declare(self, digest: bytes, paths: list[DerivationPath]) -> None:
        if len(paths) > self.max_declared:
            raise ValueError("declared path list exceeds the anti-spam bound")
        self.declared.setdefault(digest, []).extend(paths)

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

    def ban_height(self, group: GroupParams, xsk: ExtendedSecretKey) -> Optional[int]:
        """If this key is in some K_xsk, the height b_xsk from which
        non-lifted derived spends through it are banned."""
        entry = self._key_to_entry.get(xsk.serialize(group))
        return entry.included_height if entry else None
