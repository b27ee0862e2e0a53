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
oracle's reach (the stock secure group is a pinned 256-bit safe prime,
generator 2).

Every function here answers as a pure function over immutable inputs
would; call from any number of threads.  `decode_point` checks subgroup
membership by the Jacobi symbol when p = 2q + 1, where the order-q
subgroup is exactly the quadratic residues; other groups keep the
`pow(x, q, p)` check.

Each group keeps two tables.  `pk_ec` raises g from the group's
`generator_table`, which the group builds as it is made (43 rows of 64
powers, ~180 KiB and ~2 ms on the secure group), so no timed call pays
for it.  `quantum_invert` keeps its baby steps in `baby_steps`, built on
the first inversion on the group.  Every other power (a key raised to a
challenge, a membership test) is a plain `pow`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .encoding import DecodeError, Reader, enc_bytes

VULNERABLE_MAX_ORDER = 1 << 24

# The stock secure group's 256-bit safe prime p = 2q + 1: q is the largest
# q = 3 (mod 4) at or below SHA-256(b"qcspend secure group") with bit 254 set
# and bit 255 cleared such that q and p are both prime.  p = 7 (mod 8), so 2
# is a quadratic residue mod p and generates the order-q subgroup.
_SECURE_P = 0xE1EBB4E517AA896D5B24A316BDF0C0543A62EB214DFBD6FDFEA2107EB52842D7

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Challenges on a group of larger order have CHALLENGE_BITS bits (Schnorr's
# short challenges): s = k + e*sk mod q hides the key behind a nonce k that
# is uniform mod q, and a verify raises the key to a 128-bit power.
CHALLENGE_BITS = 128

# `pk_ec` reads a scalar in digits of DIGIT_BITS bits, one table row each.
DIGIT_BITS = 6


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
    """Order-q subgroup of Z_p* with a fixed generator.  The order decides
    the mode: QUANTUM_VULNERABLE up to VULNERABLE_MAX_ORDER, where
    `quantum_invert` answers in well under a second, else SECURE.

    `mode`, the encoding lengths, `generator_table` and `baby_steps` are
    plain attributes, which equality and hashing ignore, not
    cached_propertys: writing the instance `__dict__` makes CPython 3.11
    read every field of the record slower."""

    p: int
    q: int
    g: int

    baby_steps = None  # not a field: see `quantum_invert`

    def __post_init__(self):
        # q's primality is not tested here, where it would cost ~1.5 ms on
        # the secure group for every process: `generate` tests it, and a
        # test checks the pinned secure-group constants once.
        if (self.p - 1) % self.q != 0:
            raise GroupError("q must divide p - 1")
        if pow(self.g, self.q, self.p) != 1 or self.g % self.p == 1:
            raise GroupError("generator must have order exactly q")
        # L_sk, the bytes of a scalar in [0, q), and L_pk = L_sk + 1,
        # mirroring the 32- vs 33-byte key encodings.
        scalar_len = max(1, ((self.q - 1).bit_length() + 7) // 8)
        if self.p >= 1 << (8 * (scalar_len + 1)):
            raise GroupError("modulus too wide for the point encoding")
        # Set through object, as the record is frozen; the table is built
        # with the group, not in the first pk_ec.
        vulnerable = self.q <= VULNERABLE_MAX_ORDER
        object.__setattr__(self, "mode", GroupMode.QUANTUM_VULNERABLE if vulnerable else GroupMode.SECURE)
        object.__setattr__(self, "scalar_len", scalar_len)
        object.__setattr__(self, "point_len", scalar_len + 1)
        object.__setattr__(self, "generator_table", self._generator_table())

    def _generator_table(self) -> tuple[tuple[int, ...], ...]:
        """g^(d * 2^(DIGIT_BITS * i)) mod p at [i][d], for every digit d
        below 2^DIGIT_BITS and one row i per digit of q - 1: fixed-base
        windowing (Brickell, Gordon, McCurley and Wilson; HAC 14.6.3) with
        every digit's power stored, so raising g is one product per digit."""
        rows, base = [], self.g
        for _ in range(-(-(self.q - 1).bit_length() // DIGIT_BITS)):
            row = [1]
            for _ in range(1 << DIGIT_BITS):
                row.append(row[-1] * base % self.p)
            base = row.pop()  # base^(2^DIGIT_BITS), the next row's base
            rows.append(tuple(row))
        return tuple(rows)

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
    def generate(q: int) -> "GroupParams":
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
                return GroupParams(p=p, q=q, g=g)
        raise GroupError("no generator found")


@lru_cache(maxsize=None)
def toy_group(q: int = 101) -> GroupParams:
    """Small quantum-vulnerable group for tests and scenarios."""
    if q > VULNERABLE_MAX_ORDER:
        raise GroupError("vulnerable groups must have order <= 2**24")
    return GroupParams.generate(q)


@lru_cache(maxsize=None)
def secure_group() -> GroupParams:
    """256-bit safe-prime group; the dlog oracle refuses to touch it."""
    return GroupParams(p=_SECURE_P, q=_SECURE_P // 2, g=2)


@dataclass(frozen=True)
class GroupPoint:
    group: GroupParams
    value: int  # subgroup element as an integer in [1, p)

    # True on a point that `decode_point` tested for subgroup membership and
    # returned, so that the verify of its signature does not test it again;
    # `prequantum_verify` tests any other point.  A class default, not a
    # field: construction, equality and hashing ignore it.
    known_member = False

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
    if not _in_subgroup(group, value):
        raise DecodeError("point not in the prime-order subgroup")
    point = GroupPoint(group, value)
    object.__setattr__(point, "known_member", True)  # set through object: the record is frozen
    return point


def _in_subgroup(group: GroupParams, value: int) -> bool:
    # With p = 2q + 1, an element of order q (the generator) exists only if
    # p is prime, and the order-q subgroup is then the quadratic residues.
    if group.p == 2 * group.q + 1:
        return jacobi(value, group.p) == 1
    return pow(value, group.q, group.p) == 1


def pk_ec(group: GroupParams, sk: int) -> GroupPoint:
    """The secret-to-public map: sk -> sk*G.  A group homomorphism from
    Z_q, injective over [0, q)."""
    if not 0 <= sk < group.q:
        raise GroupError(f"secret scalar out of range: {sk}")
    p, mask, value = group.p, (1 << DIGIT_BITS) - 1, 1
    for row in group.generator_table:
        value = value * row[sk & mask] % p
        sk >>= DIGIT_BITS
    return GroupPoint(group, value)


# -- hashing ---------------------------------------------------------------


def address_hash(data: bytes) -> bytes:
    """Canonical 32-byte hash used for addresses and commitments: the left
    half of SHA-512(data)."""
    return hashlib.sha512(data).digest()[:32]


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


def _challenge_bound(group: GroupParams) -> int:
    """The largest challenge: q - 1 on a toy group, 2^CHALLENGE_BITS on
    the stock secure group."""
    return min(group.q - 1, 1 << CHALLENGE_BITS)


def _challenge(group: GroupParams, nonce_point: bytes, pk: bytes, msg: bytes) -> int:
    # Challenges live in [1, _challenge_bound]: a zero challenge would make
    # the signature key-independent, which actually bites at toy group sizes.
    digest = hashlib.sha512(enc_bytes(nonce_point) + enc_bytes(pk) + enc_bytes(msg)).digest()
    return 1 + int.from_bytes(digest, "big") % _challenge_bound(group)


def prequantum_sign(group: GroupParams, sk: int, msg: bytes, pk_bytes: bytes | None = None) -> PreQuantumSignature:
    """Deterministic hash-challenge signature; the nonce is derived from
    (sk, msg) so repeated runs of a simulation byte-match.  A caller that
    holds `pk_ec(group, sk).encode()` passes it as `pk_bytes`, so that
    only the nonce is raised."""
    if pk_bytes is None:
        pk_bytes = pk_ec(group, sk).encode()
    elif not 0 <= sk < group.q:
        raise GroupError(f"secret scalar out of range: {sk}")
    k = group.scalar_from_hash(hashlib.sha512(b"nonce" + group.encode_scalar(sk) + enc_bytes(msg)).digest())
    if k == 0:
        k = 1
    nonce_point = pk_ec(group, k).encode()
    e = _challenge(group, nonce_point, pk_bytes, msg)
    return PreQuantumSignature(nonce_point, (k + e * sk) % group.q)


def prequantum_verify(group: GroupParams, pk: GroupPoint, msg: bytes, sig: PreQuantumSignature) -> bool:
    """Returns False (never raises) on malformed signature material.  Only
    the key takes the subgroup test, unless `decode_point` made it
    (`GroupPoint.known_member`): g^s and pk lie in the order-q subgroup, so
    g^s = R*pk^e puts R = g^s*pk^(-e) there too, and R needs only a
    canonical encoding of a value in [1, p)."""
    try:
        if pk.group != group or len(sig.nonce_point) != group.point_len or not 0 <= sig.s < group.q:
            return False
        nonce = int.from_bytes(sig.nonce_point, "big")
        if not 1 <= nonce < group.p or not (pk.known_member or _in_subgroup(group, pk.value)):
            return False
        e = _challenge(group, sig.nonce_point, pk.encode(), msg)
        return pk_ec(group, sig.s).value == nonce * pk.mul(e).value % group.p
    except (GroupError, AttributeError, TypeError):
        return False


# -- the quantum adversary ---------------------------------------------------


def quantum_invert(pk: GroupPoint) -> int:
    """Discrete log of pk, i.e. recover sk with pk_ec(sk) = pk.

    Baby-step/giant-step; only answers for QUANTUM_VULNERABLE groups.
    Calling it on a SECURE group signals the modeled adversary is out of
    scale, which is exactly the failure the caller must handle.  The
    group's first inversion builds its `baby_steps`: m with m*m >= q, the
    map g^j -> j for j < m, and g^(-m).
    """
    group = pk.group
    if group.mode is not GroupMode.QUANTUM_VULNERABLE:
        raise GroupError("quantum inversion is out of scale for a secure group")
    if pk.is_identity():
        return 0
    if group.baby_steps is None:
        m = 1
        while m * m < group.q:
            m += 1
        baby = {}
        acc = 1
        for j in range(m):
            baby.setdefault(acc, j)
            acc = acc * group.g % group.p
        object.__setattr__(group, "baby_steps", (m, baby, pow(acc, -1, group.p)))  # the record is frozen
    m, baby, giant_step = group.baby_steps
    gamma = pk.value
    for i in range(m + 1):
        j = baby.get(gamma)
        if j is not None:
            return (i * m + j) % group.q
        gamma = gamma * giant_step % group.p
    raise GroupError("element not generated by G")  # unreachable for subgroup members
