import math

import pytest

from qcspend.params import ConfigError, FinePolicy, Params


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
