"""All consensus and protocol constants in one record, with the stock
values the protocol proposal settles on.

Every time constant is a block count (block time is fixed at ten minutes
for interest arithmetic).  Scenario configs may override any field; the
delay-fine arithmetic lives in `FinePolicy` so the closed form and the
integer rounding rule sit next to each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

from .groups import toy_group
from .hdwallet import DerivationPath

MINUTES_PER_YEAR = 525_600
# A lifted reveal's fee shares are paid to the miners of the blocks that
# earned them, this many blocks later.  The committer's share is earned at
# the commitment, so every reveal must land within this many blocks of it.
FEE_SHARE_DELAY = 300


class ConfigError(ValueError):
    """A run configuration that does not fit its declared fields."""


def toy_order(q) -> int:
    """`q`, if it is the order of a toy group."""
    if type(q) is not int:
        raise TypeError(f"a group order is an integer, not {q!r}")
    return toy_group(q).q


def u32_count(n) -> int:
    """`n`, if it is a count that fits a u32 field of the wire format."""
    if type(n) is not int or not 0 <= n < 1 << 32:
        raise ValueError(f"must be a count below 2^32, not {n!r}")
    return n


def path_text(text) -> str:
    """`text`, if it is a derivation path in string form (`m/0h/5`)."""
    DerivationPath.parse(text)
    return text


_NAMES = {int: "count", str: "string", bool: "boolean", dict: "JSON object", list: "list"}


def check_fields(data, table: dict, noun: str, prefix: str = "") -> dict:
    """The fields of the JSON object `data`, a `noun`, checked against
    `table` and normalized; else a ConfigError whose text starts with
    `prefix`.  `table` maps each field name to `(kind, default)`: a default
    of `...` marks a field that must be given, and a field whose default is
    None may be given as null.  A kind is `int` (a JSON integer from 0 to
    2**64 - 1; `true` is not one), `str`, `bool` or `dict` (any object); a
    set of the strings allowed; `[kind]`, a list returned as a tuple; a
    table, for an object of its own; a dataclass, for an object with its
    fields, each of the kind its default has unless the class's `KINDS`
    names another; or any other callable, which returns the value
    normalized or raises ValueError or TypeError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix}{noun} must be a JSON object, not {data!r}")
    unknown = data.keys() - table.keys()
    if unknown:
        raise ConfigError(f"{prefix}unknown {noun} fields: {sorted(unknown)}")
    checked = {}
    for name, (kind, default) in table.items():
        if name in data and not (data[name] is None and default is None):
            checked[name] = _check(data[name], kind, noun, prefix, name)
        elif default is ...:
            raise ConfigError(f"{prefix}missing {noun} field: {name}")
        else:
            checked[name] = default
    return checked


def _check(value, kind, noun: str, prefix: str, name: str):
    """`value` of the field `name`, if it is of `kind` (see `check_fields`)."""
    if isinstance(kind, dict):
        return check_fields(value, kind, name, prefix)
    shape = list if isinstance(kind, list) else str if isinstance(kind, set) else kind
    if shape not in _NAMES:
        try:
            return _record(kind(), value, name) if is_dataclass(kind) else kind(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{prefix}bad {name}: {exc}") from None
    if not isinstance(value, shape) or shape is int and (isinstance(value, bool) or not 0 <= value < 1 << 64):
        raise ConfigError(f"{prefix}{name} must be a {_NAMES[shape]}, not {value!r}")
    if isinstance(kind, set) and value not in kind:
        raise ConfigError(f"{prefix}unknown {noun} {name}: {value!r}; one of {sorted(kind)}")
    return tuple(_check(item, kind[0], noun, prefix, name) for item in value) if isinstance(kind, list) else value


def _record(base, data, noun: str):
    """A copy of the dataclass `base` with the fields of the JSON object
    `data`, each of the kind `check_fields` gives a dataclass's fields."""
    kinds = getattr(base, "KINDS", {})
    table = {f.name: (kinds.get(f.name, type(getattr(base, f.name))), getattr(base, f.name)) for f in fields(base)}
    return type(base)(**check_fields(data, table, noun))


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

    def __post_init__(self):
        if self.annual_doublings * self.period_minutes > 1_000 * MINUTES_PER_YEAR:
            raise ConfigError("a fine policy past 1,000 doublings overflows the closed form")

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
    # The kind of each field whose default's type does not say it all (see
    # `check_fields`).  A block count or a height is a u32, so every height
    # derived from one stays far below 2^64.
    KINDS = {
        "regular_paths": [path_text],
        "bounty_source": {"mint", "burned"},
        **dict.fromkeys(
            ("coinbase_cooldown", "wait_blocks", "wait_floor", "reveal_window", "proof_window", "challenge_blocks",
             "fc_epoch_len", "lfc_epoch_len", "fc_commit_cutoff", "lfc_commit_cutoff", "era_countdown",
             "legacy_address_height", "max_reorg_depth"),
            u32_count,
        ),
    }

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

    # reorgs: the deepest fork a chain switches to
    max_reorg_depth: int = 20

    fine_policy: FinePolicy = field(default_factory=FinePolicy)

    def __post_init__(self):
        if self.fc_mode not in FC_MODES:
            raise ConfigError(f"fc_mode must be one of {FC_MODES}")
        if not 0 < self.deposit_p_num < self.deposit_p_den:
            raise ConfigError("deposit probability must satisfy 0 < p < 1")
        if self.wait_floor < 1:
            raise ConfigError("wait floor must be at least 1")
        if self.lfc_epoch_len <= self.lfc_commit_cutoff:
            raise ConfigError("lifted epoch too short for its commit cutoff")
        if self.fc_epoch_len <= self.fc_commit_cutoff:
            raise ConfigError("fawkescoin epoch too short for its commit cutoff")
        if self.wait_blocks + self.reveal_window > FEE_SHARE_DELAY:
            raise ConfigError(f"a reveal past {FEE_SHARE_DELAY} blocks would miss its committer's fee share payout")

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
        """This record with the fields `kwargs`, JSON values checked by
        `check_fields`, in place of its own."""
        return _record(self, kwargs, "params")
