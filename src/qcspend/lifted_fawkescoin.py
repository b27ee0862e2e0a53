"""Lifted FawkesCoin records: locked commitments backed by off-chain
proofs of ownership, the reveal/claim/fine deadline ladder, fee splitting,
delayed fee aggregation, and the throughput-extension decision.

Lifecycle of one commitment (ages are blocks since inclusion):

    age in [wait, wait + reveal]          spender may reveal
    age in (wait + reveal, wait + reveal + proof]
                                          committing miner may claim, by
                                          posting the proof of ownership
    past that, no resolution              miner pays the flat delay fine
                                          to the UTXO's address

Under an epoch extension, claims stay open until the extension ends and
pending fines are withheld rather than paid.  The extension decision
counts the claims from the records CLAIMED_BY_MINER, by the heights that
resolved them.

Wire formats:

* on-chain record (the transaction payload): committed tx hash, H(u),
  fee amount -- the proof never touches the chain on the honest path
* claim payload: committed tx hash plus the byte-exact proof
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .encoding import DecodeError, Reader, enc_bytes, enc_u64
from .ledger import Address, Outpoint, _enc_outpoint


class LfcState(Enum):
    LOCKED = "locked"
    REVEALED = "revealed"
    CLAIMED_BY_MINER = "claimed"
    EXPIRED_FINED = "expired-fined"


@dataclass
class LfcCommitment:
    """Consensus-side state of one lifted commitment.  The proof of
    ownership itself never appears here: on the honest path it stays in
    the mempool, and on the claim path it arrives inside the claim
    transaction and is verified there."""

    committed_hash: bytes
    alpha: int
    height_included: int
    committer_id: str
    committer_address: Address
    outpoint: Outpoint
    utxo_address: Address
    fine_escrow: int
    state: LfcState = LfcState.LOCKED
    resolved_height: Optional[int] = None

    def age(self, height: int) -> int:
        return height - self.height_included

    def serialize(self) -> bytes:
        """The whole record, as the state digest hashes it; a record not yet
        resolved has resolved height 0, which no resolved one has."""
        return b"".join((
            enc_bytes(self.committed_hash), enc_u64(self.alpha), enc_u64(self.height_included),
            enc_bytes(self.committer_id.encode()), self.committer_address.serialize(), _enc_outpoint(self.outpoint),
            self.utxo_address.serialize(), enc_u64(self.fine_escrow), enc_u64(self.resolved_height or 0),
            self.state.value.encode(),
        ))


def split_fee(alpha: int) -> tuple[int, int]:
    """Equal split of the reveal fee between the committing and revealing
    miners; an odd unit goes to the revealer, whose inclusion is the
    marginal act."""
    committer = alpha // 2
    return committer, alpha - committer


def extension_decision(claims_in_last_100: int, k: int, threshold_num: int, threshold_den: int) -> bool:
    """Extend iff strictly more than k * p proofs landed in the closing
    100 blocks; otherwise the epoch rotates."""
    return claims_in_last_100 * threshold_den > k * threshold_num


@dataclass(frozen=True)
class LfcMempoolMsg:
    """A lifted commitment as the mempool holds it: the proof of ownership
    and the spent outpoint in the clear.  It never goes on the wire."""

    committed_hash: bytes
    sigma: bytes
    outpoint: Outpoint
    alpha: int


# -- wire formats ---------------------------------------------------------------


def record_payload(committed_hash: bytes, utxo_hash: bytes, alpha: int) -> bytes:
    return enc_bytes(committed_hash) + enc_bytes(utxo_hash) + enc_u64(alpha)


def parse_record_payload(payload: bytes) -> tuple[bytes, bytes, int]:
    r = Reader(payload)
    committed, hu, alpha = r.bytes_(), r.bytes_(), r.u64()
    r.done()
    if len(committed) != 32 or len(hu) != 32:
        raise DecodeError("record carries two 32-byte hashes")
    return committed, hu, alpha


def claim_payload(committed_hash: bytes, sigma: bytes) -> bytes:
    return enc_bytes(committed_hash) + enc_bytes(sigma)


def parse_claim_payload(payload: bytes) -> tuple[bytes, bytes]:
    r = Reader(payload)
    committed, sigma = r.bytes_(), r.bytes_()
    r.done()
    return committed, sigma
