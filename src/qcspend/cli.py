"""Command-line entry points.

    qcspend run <scenario-or-path> [--seed N] [--out DIR] [--params-override k=v]...
    qcspend canary --table | --spec FILE [--sweep-w CSV] [--sweep-bounty PAIRS]
    qcspend verify <snapshot-path>

`run` executes a scenario deterministically and writes the chain snapshot,
the per-agent report, and the rule-violation log to the output directory.
Exit codes: 0 clean, 1 invariant/rule violation (the rule id is printed),
2 config parse error or an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .canary_game import (
    EntityTimeline,
    GameSpec,
    collapse,
    game_rows,
    render_payoff_table,
    resolve,
    sweep_bounty,
    sweep_w,
)
from .consensus import verify_snapshot
from .params import Table, check_fields
from .rules import RuleViolation
from .scenarios import BUNDLED, run_scenario
from .simulation import ConfigError


def _parse_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must be key=value: {pair!r}")
        key, value = pair.split("=", 1)
        try:
            overrides[key] = int(value)
        except ValueError:
            overrides[key] = value
    return overrides


def cmd_run(args) -> int:
    try:
        sim = run_scenario(args.scenario, seed=args.seed, overrides=_parse_overrides(args.params_override))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuleViolation as exc:
        print(f"rule violation: {exc.rule}: {exc.detail}", file=sys.stderr)
        return 1
    out = Path(args.out)
    report = sim.report()
    violations = "".join(f"h{h} {rule} {detail}\n" for h, rule, detail in sim.chain.violations)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report)
        (out / "snapshot.txt").write_text(sim.snapshot())
        (out / "violations.txt").write_text(violations)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report, end="")
    return 0


# The object of a `canary --spec` file, as a table for `check_fields`.
TIMELINE = {"t_bounty": (int, ...), "t_loot": (int, ...)}
GAME_SPEC = Table({
    "faster": (TIMELINE, ...), "slower": (TIMELINE, ...), "w": (int, ...), "bounty": (int, 10), "loot": (int, 1000),
})


def _game_from_spec(data) -> GameSpec:
    spec = check_fields(data, GAME_SPEC, "game spec", "bad game spec: ")
    return GameSpec.of(EntityTimeline(**spec["faster"]), EntityTimeline(**spec["slower"]), spec["w"], spec["bounty"], spec["loot"])


def cmd_canary(args) -> int:
    if args.table:
        print(render_payoff_table(), end="")
        return 0
    if not args.spec:
        print("canary: need --table or --spec FILE", file=sys.stderr)
        return 2
    try:
        game = _game_from_spec(json.loads(Path(args.spec).read_text()))
        w_values = [int(w) for w in args.sweep_w.split(",")] if args.sweep_w else []
        pairs = [tuple(map(int, p.split(":"))) for p in args.sweep_bounty.split(",")] if args.sweep_bounty else []
        if any(len(pair) != 2 for pair in pairs):
            raise ValueError(f"--sweep-bounty takes tb_f:tb_s pairs, not {args.sweep_bounty!r}")
        w_trajectory, bounty_trajectory = sweep_w(game, w_values), sweep_bounty(game, pairs)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(game_rows(game, lambda profile: "({}, {})".format(*resolve(game, *profile)))))
    if w_values:
        print("sweep-w " + " ".join(f"w={w}:TL{c.timeline}" for w, c in zip(w_values, w_trajectory)))
        print("sweep-w classes " + "->".join(f"TL{t}" for t in collapse(w_trajectory)))
    if pairs:
        print("sweep-bounty classes " + "->".join(f"TL{t}" for t in collapse(bounty_trajectory)))
    return 0


def cmd_verify(args) -> int:
    try:
        text = Path(args.snapshot).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        chain = verify_snapshot(text)
    except RuleViolation as exc:
        print(f"verification failed: {exc.rule}: {exc.detail}", file=sys.stderr)
        return 1
    print(f"ok height={chain.height} digest={chain.state_digest().hex()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcspend", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario deterministically")
    run_p.add_argument("scenario", help=f"path to a scenario JSON, or a bundled name: {', '.join(BUNDLED)}")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default="qcspend-out")
    run_p.add_argument("--params-override", action="append", default=[], metavar="KEY=VALUE")
    run_p.set_defaults(fn=cmd_run)

    canary_p = sub.add_parser("canary", help="canary game analysis")
    canary_p.add_argument("--table", action="store_true", help="print the full timeline/payoff table")
    canary_p.add_argument("--spec", help="JSON file with faster/slower timelines, w, bounty, loot")
    canary_p.add_argument("--sweep-w", help="comma-separated waiting times, descending")
    canary_p.add_argument("--sweep-bounty", help="comma-separated tb_f:tb_s pairs, non-increasing")
    canary_p.set_defaults(fn=cmd_canary)

    verify_p = sub.add_parser("verify", help="replay and re-validate a snapshot")
    verify_p.add_argument("snapshot")
    verify_p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
