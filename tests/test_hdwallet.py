import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcspend.encoding import DecodeError
from qcspend.groups import pk_ec, toy_group
from qcspend.hdwallet import (
    DerivationPath,
    DerivationStep,
    ExtendedSecretKey,
    Seed,
    child_hardened,
    child_nonhardened,
    derive,
    deserialize_xsk,
    is_der_suffix,
    kdf,
    kdf_pq,
    kdf_pre,
    path,
    public_child,
    to_xpk,
)

GROUP = toy_group(101)


def ref_child(group, parent, index, hardened):
    """Independent recomputation with direct hashlib calls."""
    if hardened:
        key_material = parent.sk.to_bytes(group.scalar_len, "big")
    else:
        key_material = pow(group.g, parent.sk, group.p).to_bytes(group.point_len, "big")
    digest = hashlib.sha512(parent.chain_code + key_material + index.to_bytes(4, "big")).digest()
    sk = (int.from_bytes(digest[:32], "big") % group.q + parent.sk) % group.q
    return ExtendedSecretKey(sk, digest[32:])


PARENT = ExtendedSecretKey(37, bytes(range(32)))

steps = st.builds(
    DerivationStep,
    index=st.integers(min_value=0, max_value=2**32 - 1),
    hardened=st.booleans(),
)
paths = st.builds(DerivationPath, st.lists(steps, max_size=4).map(tuple))
keys = st.builds(
    ExtendedSecretKey,
    sk=st.integers(min_value=0, max_value=GROUP.q - 1),
    chain_code=st.binary(min_size=32, max_size=32),
)


class TestChildDerivation:
    def test_nonhardened_matches_reference(self):
        assert child_nonhardened(GROUP, PARENT, 0) == ref_child(GROUP, PARENT, 0, hardened=False)

    def test_hardened_matches_reference(self):
        assert child_hardened(GROUP, PARENT, 7) == ref_child(GROUP, PARENT, 7, hardened=True)

    def test_hardened_differs_from_nonhardened(self):
        # The hash inputs differ in length, so the children always differ.
        for i in range(8):
            assert child_hardened(GROUP, PARENT, i) != child_nonhardened(GROUP, PARENT, i)

    def test_distinct_indices_distinct_chain_codes(self):
        codes = {child_nonhardened(GROUP, PARENT, i).chain_code for i in range(64)}
        assert len(codes) == 64

    def test_deterministic(self):
        assert child_hardened(GROUP, PARENT, 3) == child_hardened(GROUP, PARENT, 3)

    def test_public_side_agrees_with_secret_side(self):
        xpk = to_xpk(GROUP, PARENT)
        for i in range(8):
            step = DerivationStep(i, hardened=False)
            secret_child = child_nonhardened(GROUP, PARENT, i)
            watch_child = public_child(GROUP, xpk, step)
            assert watch_child.pk.value == pk_ec(GROUP, secret_child.sk).value
            assert watch_child.chain_code == secret_child.chain_code

    def test_public_hardened_request_rejected(self):
        with pytest.raises(ValueError):
            public_child(GROUP, to_xpk(GROUP, PARENT), DerivationStep(0, hardened=True))


class TestDerive:
    def test_empty_path_is_identity(self):
        assert derive(GROUP, PARENT, DerivationPath()) == PARENT

    def test_two_step_hand_computation(self):
        p = path("m/5h/2")
        first = ref_child(GROUP, PARENT, 5, hardened=True)
        second = ref_child(GROUP, first, 2, hardened=False)
        assert derive(GROUP, PARENT, p) == second

    @settings(max_examples=100, deadline=None)
    @given(msk=keys, p1=paths, p2=paths)
    def test_path_fold_identity(self, msk, p1, p2):
        assert derive(GROUP, msk, p1.concat(p2)) == derive(GROUP, derive(GROUP, msk, p1), p2)

    @settings(max_examples=60, deadline=None)
    @given(msk=keys, p=st.builds(DerivationPath, st.lists(st.builds(DerivationStep, index=st.integers(0, 100), hardened=st.just(False)), max_size=3).map(tuple)))
    def test_public_secret_consistency_nonhardened(self, msk, p):
        xpk = to_xpk(GROUP, msk)
        for step in p.steps:
            xpk = public_child(GROUP, xpk, step)
        assert xpk.pk.value == pk_ec(GROUP, derive(GROUP, msk, p).sk).value


class TestKdf:
    SEED = Seed(entropy=b"0123456789abcdef", password=b"hunter2")

    def test_composition_identity(self):
        assert kdf(GROUP, self.SEED) == kdf_pq(GROUP, kdf_pre(self.SEED))

    def test_single_iteration_is_direct_hash(self):
        digest = hashlib.sha512(self.SEED.entropy + self.SEED.password).digest()
        got = kdf(GROUP, self.SEED, iterations=1)
        assert got.sk == int.from_bytes(digest[:32], "big") % GROUP.q
        assert got.chain_code == digest[32:]

    def test_full_iteration_count_matches_reference_loop(self):
        data = self.SEED.entropy + self.SEED.password
        for _ in range(2048):
            data = hashlib.sha512(data).digest()
        got = kdf(GROUP, self.SEED)
        assert got.sk == int.from_bytes(data[:32], "big") % GROUP.q
        assert got.chain_code == data[32:]

    def test_entropy_minimum_enforced(self):
        with pytest.raises(ValueError):
            Seed(entropy=b"short")


class TestPathAlgebra:
    def test_string_roundtrip(self):
        for text in ("m", "m/0h/5/12h", "m/4294967295h"):
            assert str(path(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            "m/0h/0/ 5", "m/0h/0/05", "m/00/0/7", "m/1_0", " m/0h ", "m/0h\n", "m/+1", "m/-1", "m/0H", "m/0hh",
            "m/h", "m/", "m//1", "m/1/", "M/1", "n/1", "", "/1", "m/\u0661", "m/4294967296", "m/4294967296h",
        ],
    )
    def test_one_spelling_per_path(self, text):
        # Only "m" and "/" plus a decimal index with no leading zero per
        # step, "h" after a hardened one.  A scenario path or a snapshot's
        # regular paths spelled any other way are a DecodeError here.
        with pytest.raises(DecodeError):
            path(text)

    @settings(max_examples=100, deadline=None)
    @given(p=paths)
    def test_serialization_roundtrip(self, p):
        assert DerivationPath.deserialize(p.serialize()) == p
        assert path(str(p)) == p

    def test_xsk_serialization_length_and_roundtrip(self):
        blob = PARENT.serialize(GROUP)
        assert len(blob) == GROUP.scalar_len + 32
        assert deserialize_xsk(GROUP, blob) == PARENT


class TestDerSuffix:
    def test_definition_instance(self):
        p1, p2 = path("m/1h/2"), path("m/3")
        mid = derive(GROUP, PARENT, p1)
        witness = is_der_suffix(GROUP, (mid, p2), (PARENT, p1.concat(p2)))
        assert witness == p1

    def test_self_suffix_with_empty_witness(self):
        p = path("m/1/2h")
        assert is_der_suffix(GROUP, (PARENT, p), (PARENT, p)) == DerivationPath()

    def test_fresh_key_is_not_a_suffix_for_any_split(self):
        p = path("m/0h/1/2/3h")
        stranger = ExtendedSecretKey(99, bytes(32))
        for n in range(len(p) + 1):
            tail = p.suffix_from(n)
            assert is_der_suffix(GROUP, (stranger, tail), (PARENT, p)) is None

    def test_longer_or_foreign_path_is_not_a_suffix(self):
        assert is_der_suffix(GROUP, (PARENT, path("m/1/2")), (PARENT, path("m/2"))) is None
        assert is_der_suffix(GROUP, (PARENT, path("m/3")), (PARENT, path("m/1/2"))) is None

    @settings(max_examples=60, deadline=None)
    @given(msk=keys, p1=paths, p2=paths)
    def test_constructed_collisions_are_suffix_collisions(self, msk, p1, p2):
        # derive(msk, p1||p2) == derive(derive(msk, p1), p2) always, and the
        # detector must classify the construction as a suffix, never miss it.
        mid = derive(GROUP, msk, p1)
        full = p1.concat(p2)
        assert derive(GROUP, msk, full) == derive(GROUP, mid, p2)
        assert is_der_suffix(GROUP, (mid, p2), (msk, full)) is not None

    @settings(max_examples=60, deadline=None)
    @given(msk=keys, p1=paths, p2=paths)
    def test_witness_replay_soundness(self, msk, p1, p2):
        witness = is_der_suffix(GROUP, (derive(GROUP, msk, p1), p2), (msk, p1.concat(p2)))
        assert witness is not None
        assert derive(GROUP, msk, witness) == derive(GROUP, msk, p1)
