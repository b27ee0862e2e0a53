"""The commit-wait-reveal protocol records and payload codecs, covering
all three operating modes.

Modes stack: restrictive spends hashed UTXOs (pre-quantum signature, key
unleaked at commit time) and derived UTXOs (parent extended key plus
path); unrestrictive adds naked spends, which post a deposit and sit in a
challenge period; permissive adds lost spends, which are naked spends
minus the signature.  A deposit-mode spend can be defeated during its
challenge period by a fraud proof: a derived-mode FawkesCoin spend of the
same UTXO (itself commit-wait-revealed), which redirects the deposit to
the prover minus the fee owed to the original including miner.

Payloads:

* commit:  the 32-byte transaction hash being committed to
* reveal:  mode tag, then for derived/fraud-proof spends the parent
           extended key and derivation path, and for fraud proofs the
           txid of the challenged transaction
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .encoding import DecodeError, Reader, enc_bytes, enc_u64
from .groups import GroupParams
from .hdwallet import DerivationPath, ExtendedSecretKey, deserialize_xsk, read_path
from .ledger import Address, Outpoint, Transaction, _enc_outpoint


class RevealMode(Enum):
    HASHED = 1
    DERIVED = 2
    NAKED = 3
    LOST = 4
    FRAUD_PROOF = 5


DEPOSIT_MODES = (RevealMode.NAKED, RevealMode.LOST)


class ChallengeStatus(Enum):
    OPEN = "open"
    FINALIZED = "finalized"
    DEFEATED = "defeated"


@dataclass
class ChallengeRecord:
    """An in-flight deposit-mode spend.  The spent UTXO and the deposit are
    escrowed here until the challenge period resolves; the revealed
    transaction's outputs only materialize on finalization."""

    txid: bytes
    revealed_tx: Transaction
    spent_outpoint: Outpoint
    spent_value: int
    spent_address: Address
    deposit_value: int
    fee: int
    challenge_end_height: int
    reveal_miner: Address
    spent_wait: int  # the spent output's effective waiting time
    status: ChallengeStatus = ChallengeStatus.OPEN

    def serialize(self) -> bytes:
        """The whole record, as the state digest hashes it."""
        return b"".join((
            enc_bytes(self.txid), enc_bytes(self.revealed_tx.serialize()), _enc_outpoint(self.spent_outpoint),
            enc_u64(self.spent_value), self.spent_address.serialize(), enc_u64(self.deposit_value), enc_u64(self.fee),
            enc_u64(self.challenge_end_height), self.reveal_miner.serialize(), enc_u64(self.spent_wait),
            self.status.value.encode(),
        ))


# -- payload codecs -----------------------------------------------------------


def commit_payload(committed_hash: bytes) -> bytes:
    if len(committed_hash) != 32:
        raise ValueError("commitment is a 32-byte hash")
    return enc_bytes(committed_hash)


def parse_commit_payload(payload: bytes) -> bytes:
    r = Reader(payload)
    committed = r.bytes_()
    r.done()
    if len(committed) != 32:
        raise DecodeError("commitment is a 32-byte hash")
    return committed


@dataclass(frozen=True)
class RevealPayload:
    mode: RevealMode
    parent_key: Optional[ExtendedSecretKey] = None
    path: Optional[DerivationPath] = None
    challenged_txid: bytes = b""

    def serialize(self, group: GroupParams) -> bytes:
        out = bytes([self.mode.value])
        if self.mode in (RevealMode.DERIVED, RevealMode.FRAUD_PROOF):
            out += enc_bytes(self.parent_key.serialize(group)) + self.path.serialize()
        if self.mode is RevealMode.FRAUD_PROOF:
            out += enc_bytes(self.challenged_txid)
        return out


def parse_reveal_payload(group: GroupParams, payload: bytes) -> RevealPayload:
    r = Reader(payload)
    mode = RevealMode(r.u8())
    parent_key = None
    path = None
    challenged = b""
    if mode in (RevealMode.DERIVED, RevealMode.FRAUD_PROOF):
        parent_key = deserialize_xsk(group, r.bytes_())
        path = read_path(r)
    if mode is RevealMode.FRAUD_PROOF:
        challenged = r.bytes_()
    r.done()
    return RevealPayload(mode, parent_key, path, challenged)
