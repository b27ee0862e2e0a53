"""Cyclic-group arithmetic, a Schnorr-style pre-quantum signature stand-in,
the 512-bit hash primitive, and the brute-force discrete-log oracle that
plays the quantum adversary.

The group is the order-q subgroup of Z_p* for a prime p = c*q + 1 with q
prime, written additively in the rest of the package ("scalar times
generator") even though the implementation multiplies modulo p.  Every
non-identity element generates the subgroup.  Scalars encode to L_sk
big-endian bytes; group elements encode to exactly L_sk + 1 bytes, so a
scalar encoding can never collide with an element encoding.

Two size classes exist: QUANTUM_VULNERABLE groups keep q <= 2**24 so the
discrete-log oracle answers quickly, and SECURE groups are out of the
oracle's reach (the stock secure group is the 2048-bit RFC 3526 safe
prime, generator 2).

Everything here is a pure function over immutable inputs; call from any
number of threads.

Fast path for the secure group, with byte-identical results:
- `decode_point` checks subgroup membership by the Jacobi symbol when
  p = 2q + 1, where the order-q subgroup is exactly the quadratic residues;
  other groups keep the `pow(x, q, p)` check.
- `prequantum_sign` memoises the signer's encoded public key per secret
  key (at most SIGNER_CACHE_SIZE keys).
- `prequantum_verify` caches its verdict keyed on every input: group, pk,
  msg, nonce point and s (at most VERIFY_CACHE_SIZE entries), so replays
  and reorgs do not redo 2048-bit work for signatures already checked.
Both caches serve secure-group calls only; toy-group work costs less than
a cache entry.  They are `functools.lru_cache`s, which are thread-safe.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .encoding import DecodeError, Reader, enc_bytes

VULNERABLE_MAX_ORDER = 1 << 24

# 2048-bit MODP safe prime from RFC 3526 (group 14).  2 is a quadratic
# residue mod p, so it generates the order-(p-1)/2 subgroup.
_RFC3526_P2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

SIGNER_CACHE_SIZE = 256
VERIFY_CACHE_SIZE = 1024


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.3e24 with the fixed base set."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0 (Cohen, Alg. 1.4.10)."""
    a %= n
    result = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            result = -result
        if a & n & 2:  # quadratic reciprocity: both are 3 mod 4
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


class GroupMode(Enum):
    SECURE = "secure"
    QUANTUM_VULNERABLE = "vulnerable"


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class GroupParams:
    """Order-q subgroup of Z_p* with a fixed generator.

    `modulus_bits` is the size class (bit length of p).  In
    QUANTUM_VULNERABLE mode the order is capped so that `quantum_invert`
    terminates in well under a second.
    """

    p: int
    q: int
    g: int
    mode: GroupMode

    def __post_init__(self):
        if not is_prime(self.q):
            raise GroupError("group order must be prime")
        if (self.p - 1) % self.q != 0:
            raise GroupError("q must divide p - 1")
        if pow(self.g, self.q, self.p) != 1 or self.g % self.p == 1:
            raise GroupError("generator must have order exactly q")
        if self.mode is GroupMode.QUANTUM_VULNERABLE and self.q > VULNERABLE_MAX_ORDER:
            raise GroupError("vulnerable groups must have order <= 2**24")
        if self.p >= 1 << (8 * self.point_len):
            raise GroupError("modulus too wide for the point encoding")

    @property
    def modulus_bits(self) -> int:
        return self.p.bit_length()

    @property
    def scalar_len(self) -> int:
        """L_sk: bytes needed for scalars in [0, q)."""
        return max(1, ((self.q - 1).bit_length() + 7) // 8)

    @property
    def point_len(self) -> int:
        """L_pk = L_sk + 1, mirroring the 32- vs 33-byte key encodings."""
        return self.scalar_len + 1

    @property
    def identity(self) -> "GroupPoint":
        return GroupPoint(self, 1)

    @property
    def generator(self) -> "GroupPoint":
        return GroupPoint(self, self.g)

    # -- scalar codec ------------------------------------------------------

    def encode_scalar(self, value: int) -> bytes:
        if not 0 <= value < self.q:
            raise GroupError(f"scalar out of range: {value}")
        return value.to_bytes(self.scalar_len, "big")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_len:
            raise DecodeError("bad scalar length")
        value = int.from_bytes(data, "big")
        if value >= self.q:
            raise DecodeError("scalar exceeds group order")
        return value

    def scalar_from_hash(self, digest: bytes) -> int:
        # Big-endian reduction mod q.  The slight non-uniformity is the
        # same shortcut deployed wallets take and is deliberately kept.
        return int.from_bytes(digest, "big") % self.q

    @staticmethod
    def generate(q: int, mode: GroupMode = GroupMode.QUANTUM_VULNERABLE) -> "GroupParams":
        """Build the group for a given prime order: smallest even c with
        p = c*q + 1 prime, generator lifted from the smallest usable base."""
        if not is_prime(q):
            raise GroupError("q must be prime")
        c = 2
        while not is_prime(c * q + 1):
            c += 2
            if c > 10_000:
                raise GroupError(f"no modulus found for q={q}")
        p = c * q + 1
        for h in range(2, 1000):
            g = pow(h, (p - 1) // q, p)
            if g != 1:
                return GroupParams(p=p, q=q, g=g, mode=mode)
        raise GroupError("no generator found")


@lru_cache(maxsize=None)
def toy_group(q: int = 101) -> GroupParams:
    """Small quantum-vulnerable group for tests and scenarios."""
    return GroupParams.generate(q, GroupMode.QUANTUM_VULNERABLE)


@lru_cache(maxsize=None)
def secure_group() -> GroupParams:
    """2048-bit safe-prime group; the dlog oracle refuses to touch it."""
    return GroupParams(p=_RFC3526_P2048, q=(_RFC3526_P2048 - 1) // 2, g=2, mode=GroupMode.SECURE)


@dataclass(frozen=True)
class GroupPoint:
    group: GroupParams
    value: int  # subgroup element as an integer in [1, p)

    def __post_init__(self):
        if not 1 <= self.value < self.group.p:
            raise GroupError("element outside Z_p*")

    def encode(self) -> bytes:
        return self.value.to_bytes(self.group.point_len, "big")

    def add(self, other: "GroupPoint") -> "GroupPoint":
        return GroupPoint(self.group, self.value * other.value % self.group.p)

    def mul(self, k: int) -> "GroupPoint":
        return GroupPoint(self.group, pow(self.value, k % self.group.q, self.group.p))

    def is_identity(self) -> bool:
        return self.value == 1


def decode_point(group: GroupParams, data: bytes) -> GroupPoint:
    if len(data) != group.point_len:
        raise DecodeError("bad point length")
    value = int.from_bytes(data, "big")
    if not 1 <= value < group.p:
        raise DecodeError("point value outside Z_p*")
    # With p = 2q + 1, an element of order q (the generator) exists only if
    # p is prime, and the order-q subgroup is then the quadratic residues.
    if group.p == 2 * group.q + 1:
        member = jacobi(value, group.p) == 1
    else:
        member = pow(value, group.q, group.p) == 1
    if not member:
        raise DecodeError("point not in the prime-order subgroup")
    return GroupPoint(group, value)


def pk_ec(group: GroupParams, sk: int) -> GroupPoint:
    """The secret-to-public map: sk -> sk*G.  A group homomorphism from
    Z_q, injective over [0, q)."""
    if not 0 <= sk < group.q:
        raise GroupError(f"secret scalar out of range: {sk}")
    return GroupPoint(group, pow(group.g, sk, group.p))


# -- hashing ---------------------------------------------------------------


@dataclass(frozen=True)
class Hash512:
    digest: bytes

    def __post_init__(self):
        if len(self.digest) != 64:
            raise ValueError("Hash512 wants exactly 64 bytes")

    @property
    def left(self) -> bytes:
        return self.digest[:32]

    @property
    def right(self) -> bytes:
        return self.digest[32:]


def h512(data: bytes) -> Hash512:
    return Hash512(hashlib.sha512(data).digest())


def address_hash(data: bytes) -> bytes:
    """Canonical 32-byte hash used for addresses and commitments."""
    return h512(data).left


# -- Schnorr-style signature stand-in ---------------------------------------


@dataclass(frozen=True)
class PreQuantumSignature:
    nonce_point: bytes  # encoded R
    s: int

    def encode(self) -> bytes:
        s_bytes = self.s.to_bytes(max(1, (self.s.bit_length() + 7) // 8), "big")
        return enc_bytes(self.nonce_point) + enc_bytes(s_bytes)

    @staticmethod
    def decode(data: bytes) -> "PreQuantumSignature":
        r = Reader(data)
        nonce = r.bytes_()
        s = int.from_bytes(r.bytes_(), "big")
        r.done()
        return PreQuantumSignature(nonce, s)


def _challenge(group: GroupParams, nonce_point: bytes, pk: bytes, msg: bytes) -> int:
    # Challenges live in [1, q): a zero challenge would make the signature
    # key-independent, which actually bites at toy group sizes.
    digest = h512(enc_bytes(nonce_point) + enc_bytes(pk) + enc_bytes(msg)).digest
    return 1 + int.from_bytes(digest, "big") % (group.q - 1)


def _encoded_pk(group: GroupParams, sk: int) -> bytes:
    return pk_ec(group, sk).encode()


_signer_pk = lru_cache(maxsize=SIGNER_CACHE_SIZE)(_encoded_pk)


def prequantum_sign(group: GroupParams, sk: int, msg: bytes) -> PreQuantumSignature:
    """Deterministic hash-challenge signature; the nonce is derived from
    (sk, msg) so repeated runs of a simulation byte-match."""
    if not 0 <= sk < group.q:
        raise GroupError("secret scalar out of range")
    pk_bytes = (_signer_pk if group.mode is GroupMode.SECURE else _encoded_pk)(group, sk)
    k = group.scalar_from_hash(h512(b"nonce" + group.encode_scalar(sk) + enc_bytes(msg)).digest)
    if k == 0:
        k = 1
    nonce_point = pk_ec(group, k).encode()
    e = _challenge(group, nonce_point, pk_bytes, msg)
    return PreQuantumSignature(nonce_point, (k + e * sk) % group.q)


def _verify(group: GroupParams, pk: GroupPoint, msg: bytes, nonce_point: bytes, s: int) -> bool:
    nonce = decode_point(group, nonce_point)
    if not 0 <= s < group.q:
        return False
    e = _challenge(group, nonce_point, pk.encode(), msg)
    return pk_ec(group, s).value == nonce.add(pk.mul(e)).value


# typed=True: an s of 1.0 (which pow rejects) must not hit the entry of s = 1.
_verify_cached = lru_cache(maxsize=VERIFY_CACHE_SIZE, typed=True)(_verify)


def prequantum_verify(group: GroupParams, pk: GroupPoint, msg: bytes, sig: PreQuantumSignature) -> bool:
    """Returns False (never raises) on malformed signature material,
    including unhashable input to a secure-group call."""
    try:
        verify = _verify_cached if group.mode is GroupMode.SECURE else _verify
        return verify(group, pk, msg, sig.nonce_point, sig.s)
    except (DecodeError, GroupError, AttributeError, TypeError):
        return False


# -- the quantum adversary ---------------------------------------------------


def quantum_invert(pk: GroupPoint) -> int:
    """Discrete log of pk, i.e. recover sk with pk_ec(sk) = pk.

    Baby-step/giant-step; only answers for QUANTUM_VULNERABLE groups.
    Calling it on a SECURE group signals the modeled adversary is out of
    scale, which is exactly the failure the caller must handle.
    """
    group = pk.group
    if group.mode is not GroupMode.QUANTUM_VULNERABLE:
        raise GroupError("quantum inversion is out of scale for a secure group")
    if pk.is_identity():
        return 0
    m = 1
    while m * m < group.q:
        m += 1
    baby = {}
    acc = 1
    for j in range(m):
        baby.setdefault(acc, j)
        acc = acc * group.g % group.p
    giant_step = pow(acc, -1, group.p)  # g^(-m)
    gamma = pk.value
    for i in range(m + 1):
        j = baby.get(gamma)
        if j is not None:
            return (i * m + j) % group.q
        gamma = gamma * giant_step % group.p
    raise GroupError("element not generated by G")  # unreachable for subgroup members
