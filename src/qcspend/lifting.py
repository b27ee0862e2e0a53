"""Signature lifting: an argument-of-knowledge backend interface, the
key-lifting and seed-lifting constructions over it, and their wire format.

A lifting replaces the sign/verify pair of an already-deployed signature
scheme while keeping its keys.  Both constructions here ride on a backend
that proves knowledge of a preimage of a one-way function:

* key-lifting: the lifted secret is the pre-quantum public key itself and
  the lifted public key is its 32-byte hash (the address).  Works only
  while the public key has not leaked.
* seed-lifting: the lifted secret is the next-to-last state of the seed
  KDF chain; one more hash application yields the master extended key.  A
  signature carries (proof, msk, path) and verifies only if the path
  derives the exact public key being spent, with the path bound inside
  the signed message so it cannot be swapped or truncated.

The only bundled backend is `TransparentBackend`, which is deliberately
insecure: its "proof" simply reveals the preimage plus a binding hash, so
one seed-lifted proof hands out the lifting secret of every key of its
wallet (`TransparentBackend.revealed_secret`).  That is enough to execute
every protocol rule at desk scale.  A zero-knowledge argument-of-knowledge
system would slot in behind the same two-method interface, in place of
the transparent pair that `lifted_backends` returns.

Serialized signature layout: one tag byte, then
  key-lifted   0x01 || proof
  seed-lifted  0x02 || enc_bytes(master key) || path || proof
The proof is always the last field and runs to the end of the buffer, so
the codec takes it whole and never reads inside it: its bytes are the
backend's own format.

Signing and verification are pure given a thread-safe backend.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Protocol

from .encoding import DecodeError, Reader, enc_bytes
from .groups import GroupParams, address_hash, pk_ec
from .hdwallet import (
    DerivationPath,
    ExtendedSecretKey,
    Seed,
    derive,
    deserialize_xsk,
    kdf_pq,
    kdf_pre,
    read_path,
)

KEY_LIFTED_TAG = 1
SEED_LIFTED_TAG = 2


class OwfBackend(Protocol):
    """Proof-of-preimage-knowledge backend instantiated with a one-way
    function f.  verify(f(x), m, sign(x, m)) must hold for all x, m.  The
    proof bytes are the backend's own format, any string of bytes: a
    lifted signature carries them as its last field, unparsed, so verify
    alone parses them and returns False, never raises, on bytes it cannot
    parse."""

    def sign(self, secret: bytes, msg: bytes) -> bytes: ...

    def verify(self, public: bytes, msg: bytes, proof: bytes) -> bool: ...


class TransparentBackend:
    """Test stand-in for the argument-of-knowledge scheme.

    INSECURE BY DESIGN: the proof, enc_bytes(secret) + enc_bytes(binding),
    contains the secret in the clear, so it gives no zero knowledge.  It
    models the real construction's interface only, never its privacy.
    """

    def __init__(self, owf: Callable[[bytes], bytes]):
        self._owf = owf

    def sign(self, secret: bytes, msg: bytes) -> bytes:
        return enc_bytes(secret) + enc_bytes(self._binding(secret, msg))

    def verify(self, public: bytes, msg: bytes, proof: bytes) -> bool:
        r = Reader(proof)
        try:
            secret, binding = r.bytes_(), r.bytes_()
            r.done()
        except DecodeError:
            return False
        return self._owf(secret) == public and binding == self._binding(secret, msg)

    @staticmethod
    def revealed_secret(proof: bytes) -> bytes:
        """The leak: the preimage a transparent proof opens with."""
        return Reader(proof).bytes_()

    @staticmethod
    def _binding(secret: bytes, msg: bytes) -> bytes:
        return hashlib.sha512(b"transparent-bind" + enc_bytes(secret) + enc_bytes(msg)).digest()


def seedlift_owf(group: GroupParams) -> Callable[[bytes], bytes]:
    """The one-way step the seed-lifting proves knowledge through: one hash
    application mapping the pre-KDF state to a serialized master key."""
    return lambda x: kdf_pq(group, x).serialize(group)


def lifted_backends(group: GroupParams) -> tuple[OwfBackend, OwfBackend]:
    """The (key-lifting, seed-lifting) backends over `group`: the one place
    the backend is chosen."""
    return TransparentBackend(address_hash), TransparentBackend(seedlift_owf(group))


# -- key-lifting ---------------------------------------------------------------


@dataclass(frozen=True)
class KeyLiftedSig:
    proof: bytes

    def serialize(self) -> bytes:
        return bytes([KEY_LIFTED_TAG]) + self.proof


def keylift_sign(group: GroupParams, backend: OwfBackend, sk: int, msg: bytes) -> KeyLiftedSig:
    """Sign with the public key as the lifted secret.  Verifies against the
    32-byte address hash of the public key only."""
    pk_bytes = pk_ec(group, sk).encode()
    return KeyLiftedSig(backend.sign(pk_bytes, msg))


def keylift_verify(backend: OwfBackend, address: bytes, msg: bytes, sig: KeyLiftedSig) -> bool:
    if len(address) != 32:
        return False
    try:
        return backend.verify(address, msg, sig.proof)
    except (TypeError, AttributeError):
        return False


# -- seed-lifting ----------------------------------------------------------------


def _seedlift_message(msg: bytes, p: DerivationPath) -> bytes:
    # Length-prefixed so a truncated path can never alias message bytes.
    return enc_bytes(msg) + p.serialize()


@dataclass(frozen=True)
class SeedLiftedSig:
    proof: bytes
    msk: ExtendedSecretKey
    path: DerivationPath

    def serialize(self, group: GroupParams) -> bytes:
        return bytes([SEED_LIFTED_TAG]) + enc_bytes(self.msk.serialize(group)) + self.path.serialize() + self.proof


def seedlift_sign(
    group: GroupParams,
    backend: OwfBackend,
    seed: Seed,
    p: DerivationPath,
    msg: bytes,
    iterations: int = 2048,
) -> SeedLiftedSig:
    secret = kdf_pre(seed, iterations)
    msk = kdf_pq(group, secret)
    proof = backend.sign(secret, _seedlift_message(msg, p))
    return SeedLiftedSig(proof, msk, p)


def seedlift_verify(
    group: GroupParams, backend: OwfBackend, owns: Callable[[bytes], bool], msg: bytes, sig: SeedLiftedSig
) -> bool:
    """Accept iff the carried path derives, from the carried master key, a
    public key whose encoding the caller's ownership test `owns` accepts,
    AND the backend proof checks against that master key over the
    path-bound message.  Returns False on malformed input, never raises."""
    try:
        leaf = derive(group, sig.msk, sig.path)
        if not owns(pk_ec(group, leaf.sk).encode()):
            return False
        return backend.verify(sig.msk.serialize(group), _seedlift_message(msg, sig.path), sig.proof)
    except (DecodeError, ValueError, TypeError, AttributeError):
        return False


# -- wire format -----------------------------------------------------------------


LiftedSignature = KeyLiftedSig | SeedLiftedSig


def serialize_lifted(group: GroupParams, sig: LiftedSignature) -> bytes:
    if isinstance(sig, KeyLiftedSig):
        return sig.serialize()
    return sig.serialize(group)


def deserialize_lifted(group: GroupParams, data: bytes) -> LiftedSignature:
    r = Reader(data)
    tag = r.u8()
    if tag == KEY_LIFTED_TAG:
        return KeyLiftedSig(r.rest())
    if tag == SEED_LIFTED_TAG:
        msk = deserialize_xsk(group, r.bytes_())
        p = read_path(r)
        return SeedLiftedSig(r.rest(), msk, p)
    raise DecodeError(f"unknown lifted signature tag {tag}")
