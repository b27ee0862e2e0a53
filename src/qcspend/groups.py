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

Every function here answers as a pure function over immutable inputs
would; call from any number of threads.

Fast path for the secure group, with byte-identical results:
- `decode_point` checks subgroup membership by the Jacobi symbol when
  p = 2q + 1, where the order-q subgroup is exactly the quadratic residues;
  other groups keep the `pow(x, q, p)` check.  It memoises the points it
  decodes (at most SIGNER_CACHE_SIZE encodings; a DecodeError is not
  memoised), since a replay decodes a key once per witness.
- `prequantum_sign` memoises the signer's encoded public key per secret
  key (at most SIGNER_CACHE_SIZE keys); `signer_pk` reads and fills the same
  memo, so a wallet that takes its key from it raises that key once.
- `prequantum_verify` and `prequantum_batch_verify` share one memo of the
  signatures that verified, keyed on every input: group, pk, msg, nonce
  point, s and the type of s (at most VERIFY_CACHE_SIZE entries).  Replays
  and reorgs therefore do not redo 2048-bit work for a signature already
  checked, alone or in a batch.  A failed verdict is not memoised.
- `pk_ec` raises the generator by a Lim-Lee fixed-base comb (HAC Alg.
  14.117) with one table of 256 elements for each of six contiguous 128-bit
  slices of the exponent.  A g^x costs 16 squarings plus 16 multiplications
  for each slice that x reaches: 48 for a 256-bit key, 80 for a 512-bit
  nonce or almost every s, and up to 112 for a batch's sum of multiplier
  times s.  1,536 elements, ~0.42 MiB for the stock group, built once per
  process by `secure_group()`.  An exponent wider than 768 bits, such as a
  full-width scalar, takes `pow`.  Toy groups keep `pow`, which beats any
  table at q <= 2**24.
- A single verify tests the key for subgroup membership, a hit of the
  decode memo for a key the caller decoded, and decodes no nonce point:
  g^s and pk lie in the order-q subgroup, so g^s = R*pk^e puts R there too,
  and R needs only a canonical encoding in [1, p).
- A single verify raises the key to its challenge e <= 2^128 from a
  per-key Brickell-Gordon-McCurley-Wilson table (HAC Alg. 14.109) of
  33 elements (~9 KiB), built on the key's first verify and kept for the
  KEY_TABLE_SIZE keys verified last.  Building a table costs about three
  quarters of a `pow` and reading it a third, so a key used once pays
  about a tenth more than `pow` and every later verify of it a third.
- `prequantum_batch_verify` checks many signatures with one small-exponent
  test (Bellare, Garay and Rabin, EUROCRYPT '98): one fixed-base g^x and one
  interleaved multi-exponentiation (Straus, HAC Alg. 14.88, with Moeller's
  sliding windows) in place of a g^s and a 128-bit pk^e per signature.  It
  skips the items the memo holds, verifies fewer than BATCH_MIN others one
  by one, where the batch costs more, and a batch that holds stores all of
  its items there.
The memo, the caches and the tables serve secure-group calls only;
toy-group work costs less than a memo entry.  The signer and decode caches
and the key tables are `functools.lru_cache`s, which are thread-safe.  Only
the memo takes a lock: it is written only under it and, when a write
would overfill it, cleared whole rather than pruned entry by entry; a read
needs no lock.  Every table is a tuple that nothing mutates.
"""

from __future__ import annotations

import hashlib
import threading
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

from .encoding import DecodeError, Reader, enc_bytes, enc_u32

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
# Bits per digit of a key table's exponent.  A read costs a multiplication
# per digit and about 2 * 2^w to fold the buckets: for 128-bit challenges
# 3 and 4 read equally fast and 5 a fifth slower, and 4 keeps fewer elements.
FIXED_BASE_WINDOW = 4
# The generator's comb (Lim and Lee): an exponent is read in COMB_CHUNKS
# contiguous slices of COMB_CHUNK_BITS bits, each cut into 8 rows so that one
# bit of every row makes a one-byte index into the slice's table of 256
# elements.  A g^x costs one squaring per bit of a row, and per bit one
# multiplication for each slice that x reaches: 16 squarings, plus 16
# multiplications a slice, so 48 for a 256-bit key and 80 for a 512-bit
# nonce or almost every s.  The batch sums read the most: each multiplier
# times s is below 2^(BATCH_MULTIPLIER_BITS + 513), so a sum of fewer than
# 2^127 of them (a consensus batch has 64) stays below 2^768, and no
# exponent of a signature reads a seventh slice.  The stock group's comb
# holds 1,536 elements, ~0.42 MiB.
COMB_CHUNK_BITS = 128
COMB_CHUNKS = 6
_COMB_ROWS = 8
_ROW_BITS = COMB_CHUNK_BITS // _COMB_ROWS
_CHUNK_BYTES, _ROW_BYTES = COMB_CHUNK_BITS // 8, _ROW_BITS // 8
# Bits of each batch multiplier: a batch holding a bad signature passes
# with probability about 2**-BATCH_MULTIPLIER_BITS, so groups of no larger
# order verify one by one.
BATCH_MULTIPLIER_BITS = 128
# Fewest unknown signatures that `prequantum_batch_verify` checks in one
# batch; fewer verify one by one.  A batch pays a multi-exponentiation whose
# ~256-bit key exponents set its chain of squarings, a Jacobi symbol per
# nonce point and a g^x of up to six comb slices, where a single check pays
# a g^s and a 128-bit pk^e.  With cold caches on the stock group the batch
# costs 1.24 times the single checks for 2 signatures by fresh keys, 0.98
# for 3 and 0.90 for 4, and by one key 1.02 for 4 and 0.87 for 5
# (BENCH_2026-10-20-comb-slices.json).
BATCH_MIN = 4
# Widths of the post-quantum secret keys and challenges on a group of
# larger order: Schnorr over the integers (Girault, Poupard and Stern,
# J. Cryptology 2006).  q has 2,047 bits on the stock group, so s = k + e*sk
# stays below q, and only the 512-bit nonce k hides e*sk < 2^384 in it: to
# within 2^-128.  A key and a challenge as wide as k would let s // e give
# the key away.
SECRET_KEY_BITS = 256
CHALLENGE_BITS = 128
# Keys whose tables `_key_table` keeps: ~9 KiB of table per key.
KEY_TABLE_SIZE = 32


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
        # q's primality is not tested here, where it would cost ~0.3 s on
        # the secure group: `generate` tests it, and a test checks the RFC
        # 3526 constants once.
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

    # The two lengths are computed once per group: every point encoding
    # reads one.
    @cached_property
    def scalar_len(self) -> int:
        """L_sk: bytes needed for scalars in [0, q)."""
        return max(1, ((self.q - 1).bit_length() + 7) // 8)

    @cached_property
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

    @property
    def secret_key_bound(self) -> int:
        """Secret keys lie below this: q, and 2^SECRET_KEY_BITS on a group
        of larger order (a wider key leaks through a signature's s)."""
        return min(self.q, 1 << SECRET_KEY_BITS)

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
    """2048-bit safe-prime group; the dlog oracle refuses to touch it.
    Its comb table is built here, so the first `pk_ec` costs no more than
    the next."""
    group = GroupParams(p=_RFC3526_P2048, q=(_RFC3526_P2048 - 1) // 2, g=2, mode=GroupMode.SECURE)
    _generator_comb(group)
    return group


def _power_table(p: int, base: int, bits: int, step: int = FIXED_BASE_WINDOW) -> tuple[int, ...]:
    """base^(2^(step*i)) mod p for every `step`-bit digit position of a
    `bits`-bit exponent: one element per position, built by repeated
    squaring."""
    table = []
    for _ in range(0, bits, step):
        table.append(base)
        for _ in range(step):
            base = base * base % p
    return tuple(table)


@lru_cache(maxsize=None)
def _generator_comb(group: GroupParams) -> tuple[tuple[int, ...], ...]:
    """The comb's tables of g, one per slice of COMB_CHUNK_BITS bits.  Bit r
    of an index selects row r: entry i of the table of slice c is the
    product of g^(2^(COMB_CHUNK_BITS*c + _ROW_BITS*r)) over the bits r set
    in i."""
    powers = _power_table(group.p, group.g, COMB_CHUNKS * COMB_CHUNK_BITS, _ROW_BITS)
    tables = []
    for first in range(0, len(powers), _COMB_ROWS):  # a slice
        table = [1]
        for base in powers[first : first + _COMB_ROWS]:
            table += [element * base % group.p for element in table]
        tables.append(tuple(table))
    return tuple(tables)


def _generator_pow(group: GroupParams, x: int) -> int:
    """g^x mod p for x >= 0: from the comb on a SECURE group, unless x is
    wider than the comb."""
    if group.mode is GroupMode.SECURE:
        if x.bit_length() <= COMB_CHUNKS * COMB_CHUNK_BITS:
            return _comb_pow(_generator_comb(group), group.p, x)
    return pow(group.g, x, group.p)


# The transpose of one slice of an exponent into its index stream (see
# `_comb_pow`): _SPREAD[b] has bit u of the byte b as bit 8u, and byte
# _ROW_BYTES*r + i of a slice (bits 8i to 8i + 7 of row r) is spread from
# bit _COMB_SHIFTS[_ROW_BYTES*r + i] = 8*8i + r of the stream on, so that
# its bit u lands as bit r of stream byte 8i + u.
_SPREAD = tuple(sum((b >> u & 1) << 8 * u for u in range(8)) for b in range(256))
_COMB_SHIFTS = tuple(8 * 8 * (n % _ROW_BYTES) + n // _ROW_BYTES for n in range(_CHUNK_BYTES))


def _comb_pow(tables: tuple[tuple[int, ...], ...], p: int, x: int) -> int:
    """The comb's base to the power x, mod p, for x >= 0 no wider than the
    comb, by HAC Alg. 14.117 over the slices that x reaches.  Byte k of a
    slice's index stream holds bit k of each row of the slice, row r as bit
    r, and the table of the slice reads one byte per step."""
    data = x.to_bytes(-(-x.bit_length() // COMB_CHUNK_BITS) * _CHUNK_BYTES, "little")
    slices = []
    for start in range(0, len(data), _CHUNK_BYTES):
        chunk = zip(data[start : start + _CHUNK_BYTES], _COMB_SHIFTS)
        stream = sum(_SPREAD[byte] << shift for byte, shift in chunk).to_bytes(_ROW_BITS, "little")
        slices.append((tables[start // _CHUNK_BYTES], stream))
    result = 1
    for k in range(_ROW_BITS - 1, -1, -1):
        result = result * result % p
        for table, indices in slices:
            result = result * table[indices[k]] % p
    return result


def _fixed_base_pow(table: tuple[int, ...], p: int, x: int) -> int:
    """table[0]^x mod p for x >= 0 from a `_power_table`, by HAC Alg.
    14.109: multiply each table element into the bucket of its digit, then
    fold the buckets from the highest digit down, so that bucket d ends up
    raised to the power d.  An x wider than the table takes `pow`."""
    if x >> (FIXED_BASE_WINDOW * len(table)):
        return pow(table[0], x, p)
    mask = (1 << FIXED_BASE_WINDOW) - 1
    buckets = [1] * (mask + 1)
    for element in table:
        if not x:
            break
        digit = x & mask
        if digit:
            buckets[digit] = buckets[digit] * element % p
        x >>= FIXED_BASE_WINDOW
    a = b = 1
    for digit in range(mask, 0, -1):
        b = b * buckets[digit] % p
        a = a * b % p
    return a


def _window_width(bits: int) -> int:
    """Sliding-window width for a `bits`-bit exponent: the one that
    minimises the table's 2^(w-1) multiplications plus the ~bits/(w+1)
    multiplications of the windows."""
    return min(range(1, 8), key=lambda w: (1 << (w - 1)) + bits / (w + 1))


def _multi_pow(p: int, pairs: list[tuple[int, int]]) -> int:
    """The product of base^exp mod p over (base, exp >= 0) pairs, by
    interleaved sliding windows (Straus' simultaneous exponentiation, HAC
    Alg. 14.88, with Moeller's per-base windows): every base shares one
    chain of squarings, and at the low bit of each of its windows a base
    multiplies in the window's odd power from its own table."""
    steps: dict[int, list[int]] = defaultdict(list)  # bit position -> factors
    for base, exp in pairs:
        width = _window_width(exp.bit_length())
        square, odd = base * base % p, [base]  # odd[i] = base^(2i+1)
        for _ in range((1 << (width - 1)) - 1):
            odd.append(odd[-1] * square % p)
        mask, position = (1 << width) - 1, 0
        while exp:
            if exp & 1:
                steps[position].append(odd[(exp & mask) >> 1])
                exp >>= width
                position += width
            else:
                zeros = (exp & -exp).bit_length() - 1
                exp >>= zeros
                position += zeros
    result = 1
    for position in range(max(steps, default=-1), -1, -1):
        result = result * result % p
        for factor in steps.get(position, ()):
            result = result * factor % p
    return result


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
    return (_decoded if group.mode is GroupMode.SECURE else _decode)(group, data)


def _decode(group: GroupParams, data: bytes) -> GroupPoint:
    if len(data) != group.point_len:
        raise DecodeError("bad point length")
    value = int.from_bytes(data, "big")
    if not 1 <= value < group.p:
        raise DecodeError("point value outside Z_p*")
    if not _in_subgroup(group, value):
        raise DecodeError("point not in the prime-order subgroup")
    return GroupPoint(group, value)


# A DecodeError leaves no entry: lru_cache stores only returned values.
_decoded = lru_cache(maxsize=SIGNER_CACHE_SIZE)(_decode)


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
    return GroupPoint(group, _generator_pow(group, sk))


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


def _encoded_pk(group: GroupParams, sk: int) -> bytes:
    return pk_ec(group, sk).encode()


_signer_pk = lru_cache(maxsize=SIGNER_CACHE_SIZE)(_encoded_pk)


def signer_pk(group: GroupParams, sk: int) -> bytes:
    """pk_ec(group, sk).encode(), memoised per secret key on a SECURE group:
    the key that `prequantum_sign` puts into its challenge."""
    return (_signer_pk if group.mode is GroupMode.SECURE else _encoded_pk)(group, sk)


def prequantum_sign(group: GroupParams, sk: int, msg: bytes) -> PreQuantumSignature:
    """Deterministic hash-challenge signature; the nonce is derived from
    (sk, msg) so repeated runs of a simulation byte-match.  A key must lie
    below `group.secret_key_bound`."""
    if not 0 <= sk < group.secret_key_bound:
        raise GroupError("secret scalar out of range")
    pk_bytes = signer_pk(group, sk)
    k = group.scalar_from_hash(hashlib.sha512(b"nonce" + group.encode_scalar(sk) + enc_bytes(msg)).digest())
    if k == 0:
        k = 1
    nonce_point = pk_ec(group, k).encode()
    e = _challenge(group, nonce_point, pk_bytes, msg)
    return PreQuantumSignature(nonce_point, (k + e * sk) % group.q)


def _verify(group: GroupParams, pk: GroupPoint, msg: bytes, sig: PreQuantumSignature) -> bool:
    """The single check.  Only the key takes the subgroup test: g^s and pk
    lie in the order-q subgroup, so g^s = R*pk^e puts R = g^s*pk^(-e) there
    too, and R needs only a canonical encoding of a value in [1, p)."""
    if pk.group != group or len(sig.nonce_point) != group.point_len or not 0 <= sig.s < group.q:
        return False
    nonce = int.from_bytes(sig.nonce_point, "big")
    if not 1 <= nonce < group.p:
        return False
    pk_bytes = pk.encode()
    # Answered by the decode memo for a key the caller decoded: a key off
    # the subgroup raises DecodeError.
    decode_point(group, pk_bytes)
    e = _challenge(group, sig.nonce_point, pk_bytes, msg)
    return pk_ec(group, sig.s).value == nonce * _key_pow(pk, e) % group.p


def _key_pow(pk: GroupPoint, e: int) -> int:
    """pk^e mod p, as `pk.mul(e)`: on a SECURE group, from the key's table."""
    group = pk.group
    if group.mode is not GroupMode.SECURE:
        return pk.mul(e).value
    return _fixed_base_pow(_key_table(group, pk.value), group.p, e % group.q)


@lru_cache(maxsize=KEY_TABLE_SIZE)
def _key_table(group: GroupParams, value: int) -> tuple[int, ...]:
    """The fixed-base table of the key `value` over every bit of a
    challenge (e <= _challenge_bound), built on the key's first verify."""
    return _power_table(group.p, value, _challenge_bound(group).bit_length())


# The secure-group signatures that verified, alone or in a batch that held.
# A key carries the type of s, so an s of 1.0 (which pow rejects) does not
# match the entry of s = 1.  Writers hold the lock.
_verified: set[tuple] = set()
_verified_lock = threading.Lock()


def prequantum_verify(group: GroupParams, pk: GroupPoint, msg: bytes, sig: PreQuantumSignature) -> bool:
    """Returns False (never raises) on malformed signature material,
    including unhashable input to a secure-group call.  A batch of one:
    a secure-group call is answered from the memo of verified signatures
    when it holds the signature, and a signature that verifies joins it."""
    return prequantum_batch_verify(group, [(pk, msg, sig)])


def prequantum_batch_verify(group: GroupParams, items: list[tuple[GroupPoint, bytes, PreQuantumSignature]]) -> bool:
    """True only when every (pk, msg, sig) of `items` verifies, up to the
    batch's error bound.  Returns False (never raises) on malformed
    signature material.

    BATCH_MIN or more items that the memo does not hold, on a group of
    order above 2^BATCH_MULTIPLIER_BITS, take one small-exponent test
    (Bellare, Garay and Rabin):

        g^(sum a_i*s_i mod q) == prod R_i^a_i * prod over keys pk^(sum a_i*e_i)

    with each a_i a BATCH_MULTIPLIER_BITS-bit number hashed from the whole
    batch, so a batch holding a bad signature passes with probability about
    2^-128 and equal batches get equal multipliers.  Every R_i and pk must
    first pass the subgroup test (Boyd and Pavlovski break the test
    without it) and every s lie in [0, q).  The key exponents stay
    unreduced: ~256 bits for 128-bit challenges, against ~2,047 bits mod q.
    So does the sum of the a_i*s_i while it is below q: ~640 bits for the
    ~512-bit s of 256-bit keys.  Fewer items, and items on other groups,
    verify one by one.

    On a secure group, items the memo already holds are not checked again,
    and a batch that holds stores all of its items there; a failed verdict
    is not memoised.  A write that would overfill the memo clears it first,
    so it never holds more than VERIFY_CACHE_SIZE entries."""
    try:
        if group.mode is not GroupMode.SECURE:
            return all(_verify(group, *item) for item in items)
        keys = [(group, pk, msg, sig.nonce_point, sig.s, type(sig.s)) for pk, msg, sig in items]
        unknown = [item for item, key in zip(items, keys) if key not in _verified]
        if not unknown:
            return True
        if len(unknown) < BATCH_MIN or group.q.bit_length() <= BATCH_MULTIPLIER_BITS:
            if not all(_verify(group, *item) for item in unknown):
                return False
        elif not _batch_holds(group, unknown):
            return False
        with _verified_lock:
            if len(_verified) + len(keys) > VERIFY_CACHE_SIZE:
                _verified.clear()
            _verified.update(keys[:VERIFY_CACHE_SIZE])
        return True
    except (DecodeError, GroupError, AttributeError, TypeError):
        return False


def _batch_multipliers(items: list[tuple[GroupPoint, bytes, PreQuantumSignature]]) -> list[int]:
    """One BATCH_MULTIPLIER_BITS-bit multiplier per item, hashed from the
    whole batch."""
    batch = b"batch" + b"".join(enc_bytes(pk.encode()) + enc_bytes(msg) + sig.encode() for pk, msg, sig in items)
    seed = hashlib.sha512(batch).digest()
    size = BATCH_MULTIPLIER_BITS // 8
    return [int.from_bytes(hashlib.sha512(seed + enc_u32(i)).digest()[:size], "big") for i in range(len(items))]


def _batch_holds(group: GroupParams, items: list[tuple[GroupPoint, bytes, PreQuantumSignature]]) -> bool:
    exponents: dict[int, int] = {}  # pk value -> sum of a_i*e_i over its items
    for pk, _, sig in items:
        decode_point(group, sig.nonce_point)
        if not 0 <= sig.s < group.q:
            return False
        if pk.value not in exponents:
            if pk.group != group:
                return False
            # The subgroup test, answered by the decode memo for a key the
            # caller decoded: a key off the subgroup raises DecodeError.
            decode_point(group, pk.encode())
            exponents[pk.value] = 0
    pairs, s_sum = [], 0
    for a, (pk, msg, sig) in zip(_batch_multipliers(items), items):
        s_sum += a * sig.s
        exponents[pk.value] += a * _challenge(group, sig.nonce_point, pk.encode(), msg)
        pairs.append((int.from_bytes(sig.nonce_point, "big"), a))
    pairs.extend(exponents.items())
    return _generator_pow(group, s_sum if s_sum < group.q else s_sum % group.q) == _multi_pow(group.p, pairs)


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
