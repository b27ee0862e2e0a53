"""Two-entity canary game: who claims the bounty, who (if anyone) gets the
loot, which strategy profiles are pure Nash equilibria, and how the answer
moves as the waiting time shrinks or the bounty grows.

Model.  Each entity can first claim the bounty at time t_b and first take
the loot at time t_l, with t_b < t_l (killing the canary is strictly easier
than looting).  The canary dies at the earlier of the two claim attempts;
loot is only collectible until kill + w, inclusive.  The EARLY strategy
claims at t_b; the LATE strategy claims at max(t_b, t_l - w), the last
moment that keeps the entity's own loot alive.  An entity with
t_b > t_l - w cannot distinguish the strategies and is called degenerate.

Entities are labeled so the "faster" one has the earlier bounty time.  Ties
in claim or loot timing go to the faster entity; the loot is winner-take-all.
An early claimant still takes the loot when the deadline happens to permit
it.

Timelines fall into seven interleavings of the six event times (bounty,
late-claim point, and loot time per entity), grouped into three scenarios
by their payoff matrix.  Times are integers in abstract units; scenario
configs may read them as blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Optional, Sequence


class Strategy(Enum):
    EARLY = "E"
    LATE = "L"


class Player(Enum):
    FASTER = "faster"
    SLOWER = "slower"


@dataclass(frozen=True)
class EntityTimeline:
    t_bounty: int
    t_loot: int

    def __post_init__(self):
        if self.t_bounty >= self.t_loot:
            raise ValueError("bounty capability must come strictly before loot capability")

    def late_claim_time(self, w: int) -> int:
        return max(self.t_bounty, self.t_loot - w)

    def is_degenerate(self, w: int) -> bool:
        return self.t_bounty > self.t_loot - w

    def claim_time(self, strategy: Strategy, w: int) -> int:
        return self.t_bounty if strategy is Strategy.EARLY else self.late_claim_time(w)


@dataclass(frozen=True)
class GameSpec:
    faster: EntityTimeline
    slower: EntityTimeline
    w: int
    bounty: int
    loot: int

    def __post_init__(self):
        if self.faster.t_bounty > self.slower.t_bounty:
            raise ValueError("label the entity with the earlier bounty time as faster")
        if self.w <= 0:
            raise ValueError("waiting time must be positive")

    @staticmethod
    def of(a: EntityTimeline, b: EntityTimeline, w: int, bounty: int, loot: int) -> "GameSpec":
        """Relabel so the first entity is the faster one (payoffs are
        symmetric, so this loses nothing)."""
        if a.t_bounty <= b.t_bounty:
            return GameSpec(a, b, w, bounty, loot)
        return GameSpec(b, a, w, bounty, loot)


@dataclass(frozen=True)
class Outcome:
    bounty_to: Player
    loot_to: Optional[Player]
    kill_time: int


def outcome(game: GameSpec, s_f: Strategy, s_s: Strategy) -> Outcome:
    c_f = game.faster.claim_time(s_f, game.w)
    c_s = game.slower.claim_time(s_s, game.w)
    kill = min(c_f, c_s)
    bounty_to = Player.FASTER if c_f <= c_s else Player.SLOWER
    deadline = kill + game.w  # inclusive
    loot_to = None
    f_loots = game.faster.t_loot <= deadline
    s_loots = game.slower.t_loot <= deadline
    if f_loots and (not s_loots or game.faster.t_loot <= game.slower.t_loot):
        loot_to = Player.FASTER
    elif s_loots:
        loot_to = Player.SLOWER
    return Outcome(bounty_to, loot_to, kill)


def resolve(game: GameSpec, s_f: Strategy, s_s: Strategy) -> tuple[int, int]:
    """Payoffs (faster, slower) for one strategy profile."""
    out = outcome(game, s_f, s_s)
    pf = (game.bounty if out.bounty_to is Player.FASTER else 0) + (
        game.loot if out.loot_to is Player.FASTER else 0
    )
    ps = (game.bounty if out.bounty_to is Player.SLOWER else 0) + (
        game.loot if out.loot_to is Player.SLOWER else 0
    )
    return pf, ps


PROFILES = (
    (Strategy.EARLY, Strategy.EARLY),
    (Strategy.EARLY, Strategy.LATE),
    (Strategy.LATE, Strategy.EARLY),
    (Strategy.LATE, Strategy.LATE),
)


@dataclass(frozen=True)
class PayoffMatrix:
    entries: dict[tuple[Strategy, Strategy], tuple[int, int]]
    equilibria: frozenset[tuple[Strategy, Strategy]]

    def __post_init__(self):
        assert set(self.entries) == set(PROFILES)


def payoff_matrix(game: GameSpec) -> PayoffMatrix:
    entries = {profile: resolve(game, *profile) for profile in PROFILES}
    equilibria = set()
    for (sf, ss), (pf, ps) in entries.items():
        # Weak pure Nash: no unilateral deviation strictly gains.
        best_f = all(entries[(alt, ss)][0] <= pf for alt in Strategy)
        best_s = all(entries[(sf, alt)][1] <= ps for alt in Strategy)
        if best_f and best_s:
            equilibria.add((sf, ss))
    return PayoffMatrix(entries, frozenset(equilibria))


# -- timeline classification ---------------------------------------------------

# Scenario groups keyed by the symbolic outcome of each profile
# (bounty recipient, loot recipient).
_F, _S = Player.FASTER, Player.SLOWER
_SCENARIO_SHAPES = {
    1: {PROFILES[0]: (_F, None), PROFILES[1]: (_F, None), PROFILES[2]: (_S, None), PROFILES[3]: (_S, _S)},
    2: {PROFILES[0]: (_F, None), PROFILES[1]: (_F, None), PROFILES[2]: (_S, None), PROFILES[3]: (_F, _F)},
    3: {PROFILES[0]: (_F, None), PROFILES[1]: (_F, None), PROFILES[2]: (_F, _F), PROFILES[3]: (_F, _F)},
}

DEGENERATE = 0

_EVENT_ORDER = ("bf", "bs", "ps", "ls", "pf", "lf")


@dataclass(frozen=True)
class ScenarioClass:
    timeline: int  # 1..7, or DEGENERATE
    scenario: int  # 1..3, or 0 when no canonical matrix matches
    pattern: tuple[str, ...]

    @property
    def is_degenerate(self) -> bool:
        return self.timeline == DEGENERATE


def _event_pattern(game: GameSpec) -> tuple[str, ...]:
    events = {
        "bf": game.faster.t_bounty,
        "bs": game.slower.t_bounty,
        "pf": game.faster.late_claim_time(game.w),
        "ps": game.slower.late_claim_time(game.w),
        "lf": game.faster.t_loot,
        "ls": game.slower.t_loot,
    }
    return tuple(sorted(events, key=lambda name: (events[name], _EVENT_ORDER.index(name))))


def _scenario_of(game: GameSpec) -> int:
    shape = {profile: (o.bounty_to, o.loot_to) for profile in PROFILES for o in [outcome(game, *profile)]}
    for scenario, expected in _SCENARIO_SHAPES.items():
        if shape == expected:
            return scenario
    return 0


def classify_timeline(game: GameSpec) -> ScenarioClass:
    """Which of the seven interleavings this game instantiates, and which
    payoff-matrix scenario it produces."""
    pattern = _event_pattern(game)
    if game.faster.is_degenerate(game.w) or game.slower.is_degenerate(game.w):
        return ScenarioClass(DEGENERATE, 0, pattern)
    scenario = _scenario_of(game)
    b_s = game.slower.t_bounty
    p_f = game.faster.late_claim_time(game.w)
    p_s = game.slower.late_claim_time(game.w)
    l_f = game.faster.t_loot
    l_s = game.slower.t_loot
    if p_s < p_f:
        timeline = 1 if l_s <= p_f else 2
    elif p_f <= b_s:
        if l_f < b_s:
            timeline = 7
        elif p_s <= l_f:
            timeline = 5
        else:
            timeline = 6
    else:
        timeline = 3 if p_s <= l_f else 4
    return ScenarioClass(timeline, scenario, pattern)


# -- sweeps ---------------------------------------------------------------------


def sweep_w(game: GameSpec, w_values: Sequence[int]) -> list[ScenarioClass]:
    """Classify the game at each waiting time.  Decreasing w slides both
    late-claim points toward their loot times while everything else stays
    put; the arrow structure only shows in descending sweeps but any order
    is accepted."""
    return [classify_timeline(GameSpec(game.faster, game.slower, w, game.bounty, game.loot)) for w in w_values]


def sweep_bounty(game: GameSpec, bounty_times: Iterable[tuple[int, int]]) -> list[ScenarioClass]:
    """Classify the game as growing bounties pull both bounty-capability
    times earlier (loot times, and hence late-claim points, stay fixed).

    `bounty_times` yields (t_bounty_faster, t_bounty_slower) pairs, each
    elementwise <= the previous pair.
    """
    trajectory = []
    previous: Optional[tuple[int, int]] = None
    for tb_f, tb_s in bounty_times:
        if previous is not None and (tb_f > previous[0] or tb_s > previous[1]):
            raise ValueError("bounty investment must move capability times earlier")
        previous = (tb_f, tb_s)
        spec = GameSpec.of(
            EntityTimeline(tb_f, game.faster.t_loot),
            EntityTimeline(tb_s, game.slower.t_loot),
            game.w,
            game.bounty,
            game.loot,
        )
        trajectory.append(classify_timeline(spec))
    return trajectory


def collapse(trajectory: Sequence[ScenarioClass]) -> list[int]:
    """Deduplicate consecutive timeline ids; the shape sweep tests assert on."""
    out: list[int] = []
    for cls in trajectory:
        if not out or out[-1] != cls.timeline:
            out.append(cls.timeline)
    return out


# -- canonical instances and rendering -------------------------------------------


def canonical_games(bounty: int = 10, loot: int = 1000) -> dict[int, GameSpec]:
    """One integer instance per timeline interleaving, w = 3 throughout.
    Timeline 1 uses the bounty/loot times 0/12 and 1/9 so its late-claim
    points land at 9 and 6."""
    w = 3

    def game(bf, lf, bs, ls):
        return GameSpec(EntityTimeline(bf, lf), EntityTimeline(bs, ls), w, bounty, loot)

    return {
        1: game(0, 12, 1, 9),
        2: game(0, 6, 1, 5),
        3: game(0, 5, 1, 6),
        4: game(0, 5, 1, 9),
        5: game(0, 4, 2, 6),
        6: game(0, 4, 2, 8),
        7: game(0, 4, 5, 9),
    }


def _payoff_symbol(who: Player, out: Outcome) -> str:
    parts = []
    if out.bounty_to is who:
        parts.append("b")
    if out.loot_to is who:
        parts.append("l")
    return "+".join(parts) if parts else "0"


def _symbol_cell(game: GameSpec, profile: tuple[Strategy, Strategy]) -> str:
    out = outcome(game, *profile)
    return f"({_payoff_symbol(Player.FASTER, out)}, {_payoff_symbol(Player.SLOWER, out)})"


def render_payoff_table() -> str:
    """The full 7-timeline table: event pattern, scenario group, and the
    four strategy cells with pure Nash equilibria starred."""
    lines = [
        "quantum canary two-entity game",
        "events: bf/pf/lf = faster entity bounty/late-claim/loot, bs/ps/ls = slower entity",
        "strategies: E = claim bounty immediately, L = claim as late as the loot allows",
        "cells: (faster payoff, slower payoff); * = pure Nash equilibrium",
        "",
    ]
    for game in canonical_games().values():
        lines += game_rows(game, partial(_symbol_cell, game))
        lines.append("")
    return "\n".join(lines)


def game_rows(game: GameSpec, cell: Callable[[tuple[Strategy, Strategy]], str]) -> list[str]:
    """One game's lines: its timeline class and event pattern, then one row
    per strategy profile holding `cell(profile)`, pure Nash equilibria
    starred."""
    cls = classify_timeline(game)
    pattern = " ".join(cls.pattern)
    if cls.is_degenerate:
        rows = [f"timeline degenerate  pattern {pattern}"]
    else:
        rows = [f"timeline TL{cls.timeline}  scenario {cls.scenario}  pattern {pattern}"]
    equilibria = payoff_matrix(game).equilibria
    for profile in PROFILES:
        star = "  *" if profile in equilibria else ""
        rows.append(f"  ({profile[0].value},{profile[1].value}) {cell(profile)}{star}")
    return rows
