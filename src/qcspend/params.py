"""All consensus and protocol constants in one record, with the stock
values the protocol proposal settles on.

Every time constant is a block count (block time is fixed at ten minutes
for interest arithmetic).  Scenario configs may override any field; the
delay-fine arithmetic lives in `FinePolicy` so the closed form and the
integer rounding rule sit next to each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

MINUTES_PER_YEAR = 525_600
# A lifted reveal's fee shares are paid to the miners of the blocks that
# earned them, this many blocks later.  The committer's share is earned at
# the commitment, so every reveal must land within this many blocks of it.
FEE_SHARE_DELAY = 300


@dataclass(frozen=True)
class FinePolicy:
    """Delay-attack fine: 100% annual interest accrued over a fixed lock
    period (25,000 minutes, the worst-case delay under the stock epoch
    rotation), which comes to 3.35% of the delayed value.

    The applied fraction is the closed form rounded to basis points, so
    the fine on a value is value * 335 / 10000 rounded half-up.
    """

    period_minutes: int = 25_000
    annual_doublings: int = 1

    def exact_fraction(self) -> float:
        return 2.0 ** (self.annual_doublings * self.period_minutes / MINUTES_PER_YEAR) - 1.0

    @property
    def basis_points(self) -> int:
        return round(self.exact_fraction() * 10_000)

    def fine(self, value: int) -> int:
        """Flat fine under the basis-point rounding rule (half-up)."""
        return (value * self.basis_points + 5_000) // 10_000


FC_MODES = ("restrictive", "unrestrictive", "permissive")


@dataclass(frozen=True)
class Params:
    # ledger
    block_reward: int = 50_000
    coinbase_cooldown: int = 100
    samaritan_budget_bytes: int = 1_024
    registry_max_declared_paths: int = 32
    regular_paths: tuple[str, ...] = tuple(f"m/0h/0/{i}" for i in range(16))

    # commit-wait-reveal
    wait_blocks: int = 100
    wait_floor: int = 1
    reveal_window: int = 100
    proof_window: int = 100
    challenge_blocks: int = 52_560  # one year of ten-minute blocks

    # deposits: ratio p/(1-p) with p = deposit_p_num/deposit_p_den
    deposit_p_num: int = 1
    deposit_p_den: int = 2

    # epochs and eras
    fc_epoch_len: int = 1_900
    lfc_epoch_len: int = 500
    fc_commit_cutoff: int = 100
    lfc_commit_cutoff: int = 300
    era_countdown: int = 8_000

    # canary
    canary_bounty: int = 20_000
    bounty_source: str = "mint"  # "mint" (recommended) or "burned" (pay from burned funds)

    # FawkesCoin mode and the legacy-address carve-out (addresses first
    # posted below this height stay restrictive-only in the quantum era)
    fc_mode: str = "permissive"
    legacy_address_height: int = 0

    # lifted FawkesCoin throughput extension
    proofs_per_100_blocks: int = 10  # k
    extension_threshold_num: int = 1  # p = num/den, extension iff proofs > k*p
    extension_threshold_den: int = 2

    # timing
    minutes_per_block: int = 10
    max_reorg_depth: int = 20

    fine_policy: FinePolicy = field(default_factory=FinePolicy)

    def __post_init__(self):
        if self.fc_mode not in FC_MODES:
            raise ValueError(f"fc_mode must be one of {FC_MODES}")
        if not 0 < self.deposit_p_num < self.deposit_p_den:
            raise ValueError("deposit probability must satisfy 0 < p < 1")
        if self.wait_floor < 1:
            raise ValueError("wait floor must be at least 1")
        if self.lfc_epoch_len <= self.lfc_commit_cutoff:
            raise ValueError("lifted epoch too short for its commit cutoff")
        if self.fc_epoch_len <= self.fc_commit_cutoff:
            raise ValueError("fawkescoin epoch too short for its commit cutoff")
        if self.wait_blocks + self.reveal_window > FEE_SHARE_DELAY:
            raise ValueError(f"a reveal past {FEE_SHARE_DELAY} blocks would miss its committer's fee share payout")

    def deposit_minimum(self, spent_value: int, fee: int) -> int:
        """Smallest acceptable deposit: spent_value * p/(1-p) + fee,
        rounded up."""
        num, den = self.deposit_p_num, self.deposit_p_den
        ratio_num, ratio_den = num, den - num
        return -(-spent_value * ratio_num // ratio_den) + fee

    def fc_commit_window(self) -> int:
        return self.fc_epoch_len - self.fc_commit_cutoff

    def lfc_commit_window(self) -> int:
        return self.lfc_epoch_len - self.lfc_commit_cutoff

    def with_overrides(self, **kwargs) -> "Params":
        valid = {f.name for f in fields(self)}
        unknown = set(kwargs) - valid
        if unknown:
            raise ValueError(f"unknown params: {sorted(unknown)}")
        return replace(self, **kwargs)
