import json
from importlib import resources
from pathlib import Path

import pytest

from qcspend.cli import main

DATA = Path(__file__).parent / "data"


class TestRun:
    def test_honest_scenario_exits_zero_and_writes_outputs(self, tmp_path, capsys):
        code = main(["run", "honest-fc", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "agent alice" in out
        assert (tmp_path / "report.txt").exists()
        assert (tmp_path / "snapshot.txt").exists()
        assert (tmp_path / "violations.txt").exists()

    def test_front_runner_report_shows_zero_profit(self, tmp_path, capsys):
        code = main(["run", "front-runner", "--out", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "report.txt").read_text()
        assert "agent eve kind=FrontRunnerAgent" in report
        assert "profit=+0" in report

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "write",
        [
            lambda p: None,
            lambda p: p.mkdir(),
            lambda p: p.write_bytes(b'{"name": "\xff"}'),
            lambda p: p.write_text(json.dumps({"name": "x", "blocks": "many", "agents": [], "miners": []})),
        ],
        ids=["missing-file", "directory", "not-utf-8", "blocks-not-an-integer"],
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, write):
        bad = tmp_path / "bad.json"
        write(bad)
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "out",
        ["taken", "taken/sub", "dir"],
        ids=["out-is-a-file", "out-under-a-file", "report-is-a-directory"],
    )
    def test_unwritable_out_exits_2(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("")
        (tmp_path / "dir" / "report.txt").mkdir(parents=True)
        assert main(["run", "honest-fc", "--out", str(tmp_path / out)]) == 2
        stdout, err = capsys.readouterr()
        assert not stdout and err.startswith("error: ") and "Traceback" not in err

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "blocks": 1, "agents": [], "miners": [], "zorp": 1}))
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "agent, key, entry",
        [
            ("alice", "script", {"height": 3, "do": "bogus"}),
            ("alice", "script", {"height": 3, "do": "fc_spend", "utxo": "nope"}),
            ("alice", "script", {"do": "fc_spend", "utxo": "u-hashed"}),
            ("alice", "script", {"height": 3, "do": "fc_spend", "utxo": "u-hashed", "mode": "naked", "deposit": "nope"}),
            ("alice", "script", {"height": 3, "do": "direct_spend", "utxo": "u-hashed", "to": "nobody"}),
            ("m0", "script", {"height": 3, "fake_lfc": {"utxo": "nope"}}),
            ("alice", "watch", "nope"),
            ("alice", "script", {"height": 3, "do": "fc_spend", "utxo": "u-hashed", "mode": "bogus"}),
            ("alice", "script", {"height": 3, "do": "lfc_spend", "utxo": "u-hashed", "sig": "bogus"}),
            ("alice", "script", {"height": 3, "do": "registry_declare", "paths": ["x/y"]}),
            ("alice", "script", {"height": 3, "do": "registry_declare", "paths": ["m/1x"]}),
            ("alice", "script", {"height": 3, "do": "steal", "utxo": "u-hashed"}),
            ("alice", "script", {"height": 3, "do": "steal", "utxo": "u-hashed", "mode": "hashed"}),
            ("alice", "script", {"height": 3, "do": "fc_spend"}),
            ("alice", "script", {"height": 3, "do": "fc_spend", "utxo": "u-hashed", "comit_fee": 5}),
            ("m0", "script", {"height": 3, "fake_lfc": {"utxo": "u-hashed", "alpah": 5}}),
            ("alice", "script", {"height": 3, "do": "lfc_spend", "utxo": "u-hashed", "abandon": "no"}),
            ("alice", "script", {"height": 3, "do": "fc_spend", "utxo": "u-hashed", "mode": "naked"}),
            ("alice", "script", {"height": 3, "do": "fc_spend", "utxo": "u-hashed", "mode": "fraud_proof"}),
            ("alice", "script", {"height": 3, "do": "direct_spend", "utxo": "pq-alice"}),
            ("alice", "script", {"height": 3, "do": "registry_declare", "paths": ["m/05"]}),
            ("oracle", "script", {"height": 0, "do": "kill_canary"}),
        ],
        ids=["unknown-action", "unknown-utxo", "no-height", "unknown-deposit", "unknown-recipient",
             "unknown-fake-lfc-utxo", "unknown-watch", "unknown-mode", "unknown-sig", "path-without-m",
             "path-bad-index", "steal-without-mode", "steal-needing-a-key", "fc-spend-without-utxo",
             "entry-typo", "fake-lfc-typo", "abandon-text", "naked-without-deposit", "fraud-proof-mode",
             "spend-of-a-pq-grant", "path-leading-zero", "height-0"],
    )
    def test_bad_script_entry_exits_2(self, tmp_path, capsys, agent, key, entry):
        data = json.loads(resources.files("qcspend").joinpath("scenarios/honest-fc.json").read_text())
        next(a for a in data["agents"] if a["id"] == agent).setdefault(key, []).append(entry)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("agents", 5),
            ("grants", 5),
            ("grants", [5]),
            ("miners", 5),
            ("miners", [["m0"]]),
            ("miner_overrides", [1]),
            ("miner_overrides", {"3": ["m0"]}),
            ("miner_overrides", {"03": "m0"}),
            ("miner_overrides", {"3": "m0", "03": "m0"}),
            ("miner_overrides", {"\u0663": "m0"}),
            ("miner_overrides", {"\uff13": "m0"}),
            ("miner_overrides", {"3 ": "m0"}),
            ("miner_overrides", {"0": "m0"}),
        ],
        ids=["agents-int", "grants-int", "grant-int", "miners-int", "miner-list", "overrides-list", "override-list",
             "override-leading-zero", "override-two-spellings", "override-arabic-indic-digit", "override-fullwidth-digit",
             "override-trailing-space", "override-height-0"],
    )
    def test_misshaped_field_exits_2(self, tmp_path, capsys, field, value):
        data = json.loads(resources.files("qcspend").joinpath("scenarios/honest-fc.json").read_text())
        data[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field} must be a ") and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("script", 5), ("script", [5]), ("watch", 5)], ids=["script-int", "entry-int", "watch-int"])
    def test_misshaped_agent_field_exits_2(self, tmp_path, capsys, key, value):
        data = json.loads(resources.files("qcspend").joinpath("scenarios/honest-fc.json").read_text())
        next(a for a in data["agents"] if a["id"] == "alice")[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: agent alice: {key} must be a ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(miners=[]),
            lambda d: d["grants"][0].update(value="x"),
            lambda d: d["grants"][0].update(wait="x"),
            lambda d: d["grants"][0].update(value=-5),
            lambda d: d["agents"][1].update(id=["oracle"]),
            lambda d: d["grants"][2].update(name=["pq-alice"]),
            lambda d: d["grants"][2].update(owner=["alice"]),
            lambda d: d["agents"][2]["script"][0].update(fee="x"),
            lambda d: d.update(group_q=100),
            lambda d: d.update(group_q="101"),
            lambda d: d.update(kdf_iterations=0),
            lambda d: d["agents"][1].update(quantum="no"),
            lambda d: d["agents"][0].setdefault("script", []).append({"height": 3, "fake_lfc": 5}),
            lambda d: d["params"].update(block_reward="x"),
            lambda d: d["params"].update(coinbase_cooldown="x"),
            lambda d: d["params"].update(regular_paths=["m/x"]),
            lambda d: d["params"].update(fine_policy={"period_minutes": "x"}),
            lambda d: d["params"].update(era_countdown=True),
            lambda d: d["grants"][0].update(path=[1]),
            lambda d: d["grants"][2].update(path="m/0"),
            lambda d: d["grants"].append(dict(d["grants"][0])),
            lambda d: d.update(name=5),
            lambda d: d.update(blocks=2.5),
            lambda d: d["grants"][0].update(wait=2**32),
            lambda d: d["params"].update(challenge_blocks=2**32),
            lambda d: d["params"].update(challenge_blocks=2**64 - 1),
            lambda d: d["params"].update(era_countdown=2**32),
            lambda d: d["params"].update(era_countdown=2**64 - 1),
            lambda d: d["params"].update(deposit_p_num=2, deposit_p_den=2),
            lambda d: d["params"].update(wait_floor=0),
            lambda d: d["params"].update(lfc_epoch_len=300, lfc_commit_cutoff=300),
            lambda d: d["params"].update(fc_epoch_len=100, fc_commit_cutoff=100),
            lambda d: d["grants"][0].update(owner="nobody"),
            lambda d: d.update(miners=["alice"]),
        ],
        ids=["no-miners", "grant-value-text", "grant-wait-text", "grant-value-negative", "agent-id-list",
             "grant-name-list", "grant-owner-list", "script-fee-text", "group-q-not-a-group", "group-q-text",
             "kdf-iterations-zero", "quantum-text", "fake-lfc-not-an-object", "block-reward-text", "cooldown-text",
             "regular-path-bad", "fine-policy-text", "countdown-bool", "grant-path-list", "pq-grant-path",
             "grant-name-twice", "name-int", "blocks-float", "grant-wait-past-u32", "challenge-blocks-2^32",
             "challenge-blocks-max-u64", "countdown-2^32", "countdown-max-u64", "deposit-p-one", "wait-floor-zero",
             "lfc-epoch-in-cutoff", "fc-epoch-in-cutoff", "grant-owner-unknown", "miner-not-a-miner"],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, edit):
        data = json.loads(resources.files("qcspend").joinpath("scenarios/honest-fc.json").read_text())
        edit(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_params_override(self, tmp_path, capsys):
        code = main(["run", "honest-fc", "--out", str(tmp_path), "--params-override", "block_reward=7"])
        assert code == 0
        snapshot = (tmp_path / "snapshot.txt").read_text()
        assert '"block_reward":7' in snapshot

    def test_supply_past_u64_exits_1(self, tmp_path, capsys):
        # A block reward of 2^63 would take the supply past 2^64 - 1 in the
        # second block.
        assert main(["run", "honest-fc", "--out", str(tmp_path), "--params-override", f"block_reward={2**63}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("rule violation: supply-bound:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "override",
        ["block_reward=x", "nope=1", "fc_mode=lenient", "wait_blocks=250", "minutes_per_block=10", "block_reward"],
    )
    def test_bad_params_override_exits_2(self, tmp_path, capsys, override):
        assert main(["run", "honest-fc", "--out", str(tmp_path), "--params-override", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_fine_policy_object_is_a_fine_policy(self, tmp_path, capsys):
        # A scenario's fine_policy object used to stay a dict, which the
        # delay attack's fine could not be computed from.
        data = json.loads(resources.files("qcspend").joinpath("scenarios/lfc-delay.json").read_text())
        data["params"]["fine_policy"] = {"period_minutes": 25_000, "annual_doublings": 1}
        scenario = tmp_path / "lfc-delay.json"
        scenario.write_text(json.dumps(data))
        assert main(["run", str(scenario), "--out", str(tmp_path / "o")]) == 0
        main(["run", "lfc-delay", "--out", str(tmp_path / "stock")])
        for name in ("report.txt", "snapshot.txt"):
            assert (tmp_path / "o" / name).read_text() == (tmp_path / "stock" / name).read_text()
        assert main(["verify", str(tmp_path / "o" / "snapshot.txt")]) == 0

    @pytest.mark.parametrize(
        "entries, code, text",
        [
            ([{"height": 3, "do": "direct_spend", "utxo": "u-hashed"}], 0, "fc spend failed: u-hashed already gone"),
            (
                [{"height": 3, "do": "direct_spend", "utxo": "u-hashed"}, {"height": 4, "do": "lfc_spend", "utxo": "u-hashed"}],
                0,
                "lifted spend failed: u-hashed already gone",
            ),
            ([{"height": 3, "do": "fc_spend", "utxo": "u-hashed", "fee": 10**9}], 1, "rule violation: agent-underfunded"),
            ([{"height": 3, "do": "direct_spend", "utxo": "u-hashed", "fee": 50_001}], 1, "rule violation: agent-underfunded"),
        ],
        ids=["fc-spend-of-a-gone-output", "lfc-spend-of-a-gone-output", "fc-fee-past-the-value", "direct-fee-past-the-value"],
    )
    def test_action_that_cannot_be_made(self, tmp_path, capsys, entries, code, text):
        # A gone output is logged and skipped; a fee larger than the output
        # is a rule violation (exit 1), not a traceback.
        data = json.loads(resources.files("qcspend").joinpath("scenarios/honest-fc.json").read_text())
        next(a for a in data["agents"] if a["id"] == "alice")["script"][:0] = entries
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(data))
        assert main(["run", str(scenario), "--out", str(tmp_path / "o")]) == code
        out, err = capsys.readouterr()
        assert text in out + err and "Traceback" not in err

    def test_determinism_across_runs(self, tmp_path):
        main(["run", "fraud-proof", "--out", str(tmp_path / "a")])
        main(["run", "fraud-proof", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/snapshot.txt").read_bytes() == (tmp_path / "b/snapshot.txt").read_bytes()
        assert (tmp_path / "a/report.txt").read_bytes() == (tmp_path / "b/report.txt").read_bytes()


class TestCanary:
    def test_table_matches_golden(self, capsys):
        assert main(["canary", "--table"]) == 0
        out = capsys.readouterr().out
        assert out == (DATA / "canary_table.golden").read_text()

    def test_spec_with_sweeps(self, tmp_path, capsys):
        spec = tmp_path / "game.json"
        spec.write_text(json.dumps({
            "faster": {"t_bounty": 0, "t_loot": 4},
            "slower": {"t_bounty": 5, "t_loot": 9},
            "w": 3, "bounty": 10, "loot": 1000,
        }))
        code = main(["canary", "--spec", str(spec), "--sweep-w", "3,2,1", "--sweep-bounty", "0:5,0:4,0:2,0:0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline TL7" in out
        assert "sweep-w classes TL7" in out
        assert "sweep-bounty classes TL7->TL6->TL4" in out

    def test_degenerate_spec(self, tmp_path, capsys):
        # The faster entity's bounty time is past its loot time less w.
        spec = tmp_path / "game.json"
        spec.write_text(json.dumps({"faster": {"t_bounty": 0, "t_loot": 2}, "slower": {"t_bounty": 1, "t_loot": 9}, "w": 3}))
        assert main(["canary", "--spec", str(spec)]) == 0
        assert capsys.readouterr().out == (
            "timeline degenerate  pattern bf pf bs lf ps ls\n"
            "  (E,E) (1010, 0)  *\n"
            "  (E,L) (1010, 0)  *\n"
            "  (L,E) (1010, 0)  *\n"
            "  (L,L) (1010, 0)  *\n"
        )

    def test_inconsistent_timeline_errors(self, tmp_path, capsys):
        spec = tmp_path / "game.json"
        spec.write_text(json.dumps({
            "faster": {"t_bounty": 9, "t_loot": 9},
            "slower": {"t_bounty": 5, "t_loot": 9},
            "w": 3,
        }))
        assert main(["canary", "--spec", str(spec)]) == 2
        assert "error" in capsys.readouterr().err

    def test_needs_table_or_spec(self, capsys):
        assert main(["canary"]) == 2

    SPEC = {"faster": {"t_bounty": 0, "t_loot": 4}, "slower": {"t_bounty": 5, "t_loot": 9}, "w": 3}

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"w": 2.7}, "w must be a count, not 2.7"),
            ({"bounty": True}, "bounty must be a count, not True"),
            ({"lot": 1000}, "unknown game spec fields: ['lot']"),
            ({"slower": {"t_bounty": 5, "t_loot": "9"}}, "t_loot must be a count, not '9'"),
        ],
        ids=["float-w", "boolean-bounty", "unknown-key", "text-time"],
    )
    def test_bad_spec_field_errors(self, tmp_path, capsys, change, message):
        spec = tmp_path / "game.json"
        spec.write_text(json.dumps({**self.SPEC, **change}))
        assert main(["canary", "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == f"error: bad game spec: {message}\n"

    @pytest.mark.parametrize(
        "sweep",
        [["--sweep-w", "3,x"], ["--sweep-w", "0"], ["--sweep-bounty", "1"], ["--sweep-bounty", "0:5,1:6"]],
        ids=["w-text", "w-zero", "bounty-not-a-pair", "bounty-rising"],
    )
    def test_bad_sweep_errors(self, tmp_path, capsys, sweep):
        spec = tmp_path / "game.json"
        spec.write_text(json.dumps(self.SPEC))
        assert main(["canary", "--spec", str(spec), *sweep]) == 2
        out, err = capsys.readouterr()
        assert not out and err.startswith("error: ") and "Traceback" not in err


class TestVerify:
    def test_valid_snapshot(self, tmp_path, capsys):
        main(["run", "front-runner-direct", "--out", str(tmp_path)])
        assert main(["verify", str(tmp_path / "snapshot.txt")]) == 0
        assert "ok height=20" in capsys.readouterr().out

    def test_corrupted_byte_fails(self, tmp_path, capsys):
        main(["run", "front-runner-direct", "--out", str(tmp_path)])
        text = (tmp_path / "snapshot.txt").read_text()
        lines = text.splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("block ") and len(l) > 300)
        line = lines[idx]
        pos = 150
        lines[idx] = line[:pos] + ("0" if line[pos] != "0" else "1") + line[pos + 1 :]
        corrupted = tmp_path / "corrupted.txt"
        corrupted.write_text("\n".join(lines))
        assert main(["verify", str(corrupted)]) == 1
        assert "verification failed" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.txt")]) == 2

    def test_non_utf8_file_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        assert main(["verify", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c.update(group_q=100),
            lambda c: c["grants"][0].update(value="x"),
            lambda c: c.update(canary_killed_at="x"),
            lambda c: c["params"].update(block_reward="x"),
            lambda c: c["params"].update(max_reorg_depth="x"),
            lambda c: c["params"].update(regular_paths=["m/x"]),
            lambda c: c["params"]["fine_policy"].update(period_minutes="x"),
            lambda c: c.update(canary_pk="zz"),
            lambda c: c.update(zorp=1),
            lambda c: c["grants"][0].update(wait_override=2**32),
            lambda c: c["params"].update(minutes_per_block=10),
            lambda c: c["params"].update(challenge_blocks=2**32),
            lambda c: c["params"].update(challenge_blocks=2**64 - 1),
            lambda c: c["params"].update(era_countdown=2**32),
            lambda c: c["params"].update(era_countdown=2**64 - 1),
        ],
        ids=["group-q-not-a-group", "grant-value-text", "killed-at-text", "block-reward-text", "reorg-depth-text",
             "regular-path-bad", "fine-policy-text", "canary-pk-not-hex", "unknown-field", "grant-wait-past-u32",
             "removed-minutes-per-block", "challenge-blocks-2^32", "challenge-blocks-max-u64", "countdown-2^32",
             "countdown-max-u64"],
    )
    def test_bad_config_is_a_parse_failure(self, tmp_path, capsys, edit):
        main(["run", "honest-fc", "--out", str(tmp_path)])
        lines = (tmp_path / "snapshot.txt").read_text().splitlines()
        config = json.loads(lines[1][len("config ") :])
        edit(config)
        lines[1] = "config " + json.dumps(config)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failed: snapshot-parse:") and "Traceback" not in err

    def test_empty_chain_snapshot(self, tmp_path):
        from qcspend.scenarios import load_scenario
        from qcspend.simulation import Simulation

        sim = Simulation(load_scenario("honest-fc"))
        path = tmp_path / "empty.txt"
        path.write_text(sim.snapshot())  # height 0, genesis only
        assert main(["verify", str(path)]) == 0
