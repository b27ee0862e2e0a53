"""Extended keys, hardened and non-hardened child derivation, the seed KDF
chain, and the derivation-path algebra.

An extended secret key is (sk, c): a group scalar plus a 32-byte chain
code; it serializes to L_sk + 32 bytes.  A child key hashes
c || encode(key) || index_be32 with the 512-bit hash, takes the left half
as a scalar offset and the right half as the new chain code.  Hardened
steps feed the scalar encoding (L_sk bytes) where non-hardened steps feed
the public-point encoding (L_sk + 1 bytes); the differing lengths keep the
two hash domains disjoint.

Paths are sequences of (index, hardened) steps with the canonical string
form "m/0h/5/12h" used in configs and logs.  Derivation is the left fold
of child steps, so derive(msk, P1 || P2) == derive(derive(msk, P1), P2) by
construction; those are exactly the "suffix" collisions the detection
helper `is_der_suffix` classifies.

The seed KDF applies the 512-bit hash 2048 times (configurable) to
entropy || password.  It splits as kdf = kdf_pq . kdf_pre where kdf_pre is
all but the last application and kdf_pq is the final one; the lifting
layer leans on that split.

Pure and immutable throughout; thread-safe.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Optional

from .encoding import U32, DecodeError, Reader
from .groups import GroupParams, GroupPoint, pk_ec

DEFAULT_KDF_ITERATIONS = 2048


@dataclass(frozen=True)
class ExtendedSecretKey:
    sk: int
    chain_code: bytes

    def __post_init__(self):
        if len(self.chain_code) != 32:
            raise ValueError("chain code must be 32 bytes")

    def serialize(self, group: GroupParams) -> bytes:
        return group.encode_scalar(self.sk) + self.chain_code


def deserialize_xsk(group: GroupParams, data: bytes) -> ExtendedSecretKey:
    if len(data) != group.scalar_len + 32:
        raise DecodeError("bad extended key length")
    return ExtendedSecretKey(group.decode_scalar(data[: group.scalar_len]), data[group.scalar_len :])


@dataclass(frozen=True)
class ExtendedPublicKey:
    pk: GroupPoint
    chain_code: bytes

    def __post_init__(self):
        if len(self.chain_code) != 32:
            raise ValueError("chain code must be 32 bytes")


def to_xpk(group: GroupParams, xsk: ExtendedSecretKey) -> ExtendedPublicKey:
    return ExtendedPublicKey(pk_ec(group, xsk.sk), xsk.chain_code)


_STEP = struct.Struct(">IB")  # a step's index and its hardened flag


@dataclass(frozen=True)
class DerivationStep:
    index: int
    hardened: bool

    def __post_init__(self):
        if not 0 <= self.index < 1 << 32:
            raise ValueError("index must fit in 32 bits")

    def __str__(self) -> str:
        return f"{self.index}h" if self.hardened else str(self.index)


@dataclass(frozen=True)
class DerivationPath:
    steps: tuple[DerivationStep, ...] = ()

    def __str__(self) -> str:
        return "m" + "".join("/" + str(s) for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def concat(self, other: "DerivationPath") -> "DerivationPath":
        return DerivationPath(self.steps + other.steps)

    def prefix(self, n: int) -> "DerivationPath":
        return DerivationPath(self.steps[:n])

    def suffix_from(self, n: int) -> "DerivationPath":
        return DerivationPath(self.steps[n:])

    def prefixes(self) -> list["DerivationPath"]:
        """All prefixes including the empty path and the path itself."""
        return [self.prefix(n) for n in range(len(self.steps) + 1)]

    def serialize(self) -> bytes:
        # A step's index is checked to fit in 32 bits when the step is made.
        return b"".join([U32.pack(len(self.steps))] + [_STEP.pack(s.index, 1 if s.hardened else 0) for s in self.steps])

    @staticmethod
    def deserialize(data: bytes) -> "DerivationPath":
        r = Reader(data)
        path = read_path(r)
        r.done()
        return path

    @staticmethod
    def parse(text: str) -> "DerivationPath":
        if not isinstance(text, str):
            raise TypeError(f"a derivation path is a string, not {text!r}")
        parts = text.strip().split("/")
        if not parts or parts[0] != "m":
            raise DecodeError(f"path must start with 'm': {text!r}")
        steps = []
        for part in parts[1:]:
            hardened = part.endswith("h")
            steps.append(DerivationStep(int(part[:-1] if hardened else part), hardened))
        return DerivationPath(tuple(steps))


def read_path(r: Reader) -> DerivationPath:
    n = r.u32()
    steps = tuple(DerivationStep(r.u32(), r.u8() == 1) for _ in range(n))
    return DerivationPath(steps)


def path(text: str) -> DerivationPath:
    return DerivationPath.parse(text)


def _child(group: GroupParams, parent: ExtendedSecretKey, key_material: bytes, index: int) -> ExtendedSecretKey:
    digest = hashlib.sha512(parent.chain_code + key_material + index.to_bytes(4, "big")).digest()
    sk = (group.scalar_from_hash(digest[:32]) + parent.sk) % group.q
    return ExtendedSecretKey(sk, digest[32:])


def child_nonhardened(group: GroupParams, parent: ExtendedSecretKey, index: int) -> ExtendedSecretKey:
    return _child(group, parent, pk_ec(group, parent.sk).encode(), index)


def child_hardened(group: GroupParams, parent: ExtendedSecretKey, index: int) -> ExtendedSecretKey:
    return _child(group, parent, group.encode_scalar(parent.sk), index)


def child(group: GroupParams, parent: ExtendedSecretKey, step: DerivationStep) -> ExtendedSecretKey:
    if step.hardened:
        return child_hardened(group, parent, step.index)
    return child_nonhardened(group, parent, step.index)


def derive(group: GroupParams, msk: ExtendedSecretKey, p: DerivationPath) -> ExtendedSecretKey:
    """Left fold of child derivation; the empty path is the identity."""
    key = msk
    for step in p.steps:
        key = child(group, key, step)
    return key


def public_child(group: GroupParams, parent: ExtendedPublicKey, step: DerivationStep) -> ExtendedPublicKey:
    """Watch-only derivation.  Hardened children need the secret key by
    construction, so a hardened request is an error rather than a wrong
    answer."""
    if step.hardened:
        raise ValueError("hardened derivation is impossible from a public key")
    digest = hashlib.sha512(parent.chain_code + parent.pk.encode() + step.index.to_bytes(4, "big")).digest()
    offset = pk_ec(group, group.scalar_from_hash(digest[:32]))
    return ExtendedPublicKey(offset.add(parent.pk), digest[32:])


# -- seed KDF ----------------------------------------------------------------


@dataclass(frozen=True)
class Seed:
    entropy: bytes
    password: bytes = b""

    def __post_init__(self):
        if len(self.entropy) < 16:
            raise ValueError("seed entropy must be at least 16 bytes")

    def material(self) -> bytes:
        # Entropy leads so the KDF input starts with the random bits.
        return self.entropy + self.password


def kdf_pre(seed: Seed, iterations: int = DEFAULT_KDF_ITERATIONS) -> bytes:
    """All but the final hash application (H^(n-1) of the seed material)."""
    if iterations < 1:
        raise ValueError("iteration count must be positive")
    data = seed.material()
    for _ in range(iterations - 1):
        data = hashlib.sha512(data).digest()
    return data


def xsk_from_digest(group: GroupParams, digest: bytes) -> ExtendedSecretKey:
    if len(digest) != 64:
        raise ValueError("expected a 64-byte digest")
    return ExtendedSecretKey(group.scalar_from_hash(digest[:32]), digest[32:])


def kdf_pq(group: GroupParams, data: bytes) -> ExtendedSecretKey:
    """The final hash application, mapped to an extended key as
    (left 32 bytes mod q, right 32 bytes)."""
    return xsk_from_digest(group, hashlib.sha512(data).digest())


def kdf(group: GroupParams, seed: Seed, iterations: int = DEFAULT_KDF_ITERATIONS) -> ExtendedSecretKey:
    return kdf_pq(group, kdf_pre(seed, iterations))


# -- suffix relation ----------------------------------------------------------


def is_der_suffix(
    group: GroupParams,
    candidate: tuple[ExtendedSecretKey, DerivationPath],
    of: tuple[ExtendedSecretKey, DerivationPath],
) -> Optional[DerivationPath]:
    """If `candidate` = (key', P') is a derivation suffix of `of` = (key, P),
    return the witness prefix W with P = W || P' and key' = derive(key, W);
    otherwise None."""
    cand_key, cand_path = candidate
    base_key, base_path = of
    split = len(base_path) - len(cand_path)
    if split < 0:
        return None
    if base_path.suffix_from(split) != cand_path:
        return None
    witness = base_path.prefix(split)
    if derive(group, base_key, witness) == cand_key:
        return witness
    return None
