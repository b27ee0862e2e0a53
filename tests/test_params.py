import math

import pytest

from qcspend.params import ConfigError, FinePolicy, Params, Table, check_fields, toy_order, u32_count


class TestFinePolicy:
    def test_closed_form_fraction(self):
        policy = FinePolicy()
        # 100% annual interest compounded over 25,000 of 525,600 minutes
        expected = 2 ** (25_000 / 525_600) - 1
        assert math.isclose(policy.exact_fraction(), expected)
        assert abs(policy.exact_fraction() - 0.0335) < 5e-4

    def test_basis_points(self):
        assert FinePolicy().basis_points == 335

    def test_fine_on_100k_is_3350_exactly(self):
        assert FinePolicy().fine(100_000) == 3_350

    def test_fine_on_zero(self):
        assert FinePolicy().fine(0) == 0

    def test_rounding_half_up(self):
        policy = FinePolicy()
        # 335 bp of 10 is 0.335: rounds to 0; of 15 is 0.5025: rounds to 1
        assert policy.fine(10) == 0
        assert policy.fine(15) == 1


class TestParams:
    def test_deposit_minimum_at_half(self):
        p = Params()
        assert p.deposit_minimum(1_000, 0) == 1_000
        assert p.deposit_minimum(1_000, 25) == 1_025

    def test_deposit_minimum_other_ratio(self):
        p = Params().with_overrides(deposit_p_num=2, deposit_p_den=3)  # p/(1-p) = 2
        assert p.deposit_minimum(1_000, 0) == 2_000
        p = Params().with_overrides(deposit_p_num=3, deposit_p_den=4)  # ratio 3
        assert p.deposit_minimum(1_000, 10) == 3_010

    def test_commit_windows(self):
        p = Params()
        assert p.fc_commit_window() == 1_800
        assert p.lfc_commit_window() == 200

    def test_lifted_deadlines(self):
        # Ages of a lifted commitment: the spender reveals up to the first,
        # the committer claims up to the second.
        assert Params().reveal_deadline() == 200
        assert Params().claim_deadline() == 300
        p = Params(wait_blocks=20, reveal_window=30, proof_window=40)
        assert (p.reveal_deadline(), p.claim_deadline()) == (50, 90)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown params"):
            Params().with_overrides(nonsense=1)

    def test_reveal_window_past_the_fee_share_payout_rejected(self):
        # A reveal later than FEE_SHARE_DELAY blocks after its commitment
        # would add the committer's share after the block that pays it.
        assert Params(wait_blocks=200, reveal_window=100).reveal_window == 100
        with pytest.raises(ValueError, match="fee share"):
            Params(wait_blocks=250, reveal_window=100)
        with pytest.raises(ValueError, match="fee share"):
            Params().with_overrides(wait_blocks=201)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Params(fc_mode="lenient")

    def test_default_constants(self):
        p = Params()
        assert p.wait_blocks == 100
        assert p.challenge_blocks == 52_560
        assert p.fc_epoch_len == 1_900
        assert p.lfc_epoch_len == 500
        assert p.era_countdown == 8_000
        assert p.canary_bounty == 20_000
        assert p.coinbase_cooldown == 100

    def test_overrides_are_json_values_normalized(self):
        p = Params().with_overrides(regular_paths=["m/1"], fine_policy={"period_minutes": 100})
        assert p.regular_paths == ("m/1",)
        assert p.fine_policy == FinePolicy(period_minutes=100, annual_doublings=1)

    @pytest.mark.parametrize(
        "override",
        [{"block_reward": True}, {"block_reward": -1}, {"block_reward": 2**64}, {"regular_paths": ("m/1",)},
         {"bounty_source": "treasury"}, {"fine_policy": {"period": 1}}, {"fine_policy": {"period_minutes": 10**9}}],
        ids=["bool", "negative", "past-u64", "tuple", "unknown-source", "unknown-fine-field", "fine-overflows"],
    )
    def test_mistyped_override_rejected(self, override):
        with pytest.raises(ConfigError):
            Params().with_overrides(**override)


# One row per kind of a `check_fields` table, and per way of failing it:
# (table, data, the exact ConfigError text).  Each is checked as a
# "thing" with the prefix "pre: ", except where the text shows a nested
# noun, or a dataclass record, whose own fields are checked without it.
SOME = {"n": (int, 0)}
ROWS = {
    "int-true": (SOME, {"n": True}, "pre: n must be a count, not True"),
    "int-negative": (SOME, {"n": -1}, "pre: n must be a count, not -1"),
    "int-past-u64": (SOME, {"n": 2**64}, "pre: n must be a count, not 18446744073709551616"),
    "int-float": (SOME, {"n": 1.5}, "pre: n must be a count, not 1.5"),
    "int-text": (SOME, {"n": "1"}, "pre: n must be a count, not '1'"),
    "int-null": (SOME, {"n": None}, "pre: n must be a count, not None"),
    "str": ({"s": (str, "")}, {"s": 5}, "pre: s must be a string, not 5"),
    "bool": ({"b": (bool, False)}, {"b": 1}, "pre: b must be a boolean, not 1"),
    "object": ({"o": (dict, {})}, {"o": []}, "pre: o must be a JSON object, not []"),
    "set-shape": ({"c": ({"red", "blue"}, "red")}, {"c": 5}, "pre: c must be a string, not 5"),
    "set-member": ({"c": ({"red", "blue"}, "red")}, {"c": "green"}, "pre: unknown thing c: 'green'; one of ['blue', 'red']"),
    "list-shape": ({"l": ([int], ())}, {"l": (1,)}, "pre: l must be a list, not (1,)"),
    "list-item": ({"l": ([int], ())}, {"l": [1, -1]}, "pre: l must be a count, not -1"),
    "list-of-sets": ({"l": ([{"a"}], ())}, {"l": ["a", "b"]}, "pre: unknown thing l: 'b'; one of ['a']"),
    "list-of-tables": ({"l": ([{"x": (int, ...)}], ())}, {"l": [{}]}, "pre: missing l field: x"),
    "table-shape": ({"t": ({"x": (int, 0)}, None)}, {"t": 3}, "pre: t must be a JSON object, not 3"),
    "table-unknown": ({"t": ({"x": (int, 0)}, None)}, {"t": {"y": 1}}, "pre: unknown t fields: ['y']"),
    "table-field": ({"t": ({"x": (int, 0)}, None)}, {"t": {"x": "1"}}, "pre: x must be a count, not '1'"),
    "table-set": ({"t": ({"x": ({"a"}, "a")}, None)}, {"t": {"x": "b"}}, "pre: unknown t x: 'b'; one of ['a']"),
    "record-shape": ({"f": (FinePolicy, FinePolicy())}, {"f": 3}, "pre: bad f: f must be a JSON object, not 3"),
    "record-unknown": ({"f": (FinePolicy, FinePolicy())}, {"f": {"p": 1}}, "pre: bad f: unknown f fields: ['p']"),
    "record-field": ({"f": (FinePolicy, FinePolicy())}, {"f": {"period_minutes": "1"}},
                     "pre: bad f: period_minutes must be a count, not '1'"),
    "record-post-init": ({"f": (FinePolicy, FinePolicy())}, {"f": {"period_minutes": 10**9}},
                         "pre: bad f: a fine policy past 1,000 doublings overflows the closed form"),
    "record-in-record": ({"p": (Params, Params())}, {"p": {"fine_policy": {"x": 1}}},
                         "pre: bad p: bad fine_policy: unknown fine_policy fields: ['x']"),
    "record-set": ({"p": (Params, Params())}, {"p": {"bounty_source": "treasury"}},
                   "pre: bad p: unknown p bounty_source: 'treasury'; one of ['burned', 'mint']"),
    "converter-value-error": ({"w": (u32_count, 0)}, {"w": 2**32}, "pre: bad w: must be a count below 2^32, not 4294967296"),
    "converter-type-error": ({"q": (toy_order, 8191)}, {"q": "7"}, "pre: bad q: a group order is an integer, not '7'"),
    "unknown-field": (SOME, {"n": 1, "z": 2, "a": 3}, "pre: unknown thing fields: ['a', 'z']"),
    "missing-field": ({"s": (str, ...)}, {}, "pre: missing thing field: s"),
    "non-object": (SOME, [1], "pre: thing must be a JSON object, not [1]"),
}


@pytest.mark.parametrize("table, data, text", ROWS.values(), ids=ROWS.keys())
def test_check_fields_error_text(table, data, text):
    with pytest.raises(ConfigError) as caught:
        check_fields(data, Table(table), "thing", "pre: ")
    assert str(caught.value) == text


def test_check_fields_normalizes():
    table = {
        "n": (int, 1), "l": ([{"a", "b"}], ()), "t": ({"x": (int, 0)}, None), "u": ({"x": (int, 0)}, None),
        "f": (FinePolicy, FinePolicy()), "w": (u32_count, 0), "s": (str, ...),
    }
    data = {"l": ["b", "a"], "t": {}, "u": None, "f": {"annual_doublings": 2}, "w": 7, "s": ""}
    assert check_fields(data, Table(table), "thing") == {
        "n": 1, "l": ("b", "a"), "t": {"x": 0}, "u": None, "f": FinePolicy(annual_doublings=2), "w": 7, "s": "",
    }
