"""The repro-check CLI: exit codes and output surfaces."""

import json

from repro.check.cli import build_parser, main


def test_parser_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    assert "run" in text and "fuzz" in text and "shrink" in text


def test_run_passes_on_clean_stack(capsys):
    code = main(
        [
            "run",
            "--sequential-ops", "25",
            "--ops", "60",
            "--config", "UCR-IB",
            "--config", "SDP/bin",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "linearizable" in out and "digest" in out
    assert "MISMATCH" not in out


def test_run_rejects_unknown_config():
    import pytest

    with pytest.raises(SystemExit):
        main(["run", "--config", "carrier-pigeon"])


def test_fuzz_detects_mutation_and_dumps_repro(tmp_path, capsys):
    code = main(
        [
            "fuzz",
            "--seed", "9",
            "--seeds", "1",
            "--ops", "60",
            "--parser-cases", "30",
            "--mutation", "delete-lies",
            "--config", "UCR-IB",
            "--out", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH" in out
    dumps = list(tmp_path.glob("mismatch-*.json"))
    assert len(dumps) == 1
    doc = json.loads(dumps[0].read_text())
    assert doc["mutation"] == "delete-lies"
    assert 1 <= len(doc["commands"]) <= 10  # shrunk before dumping


def test_a_printed_repro_is_readable_under_pressure(tmp_path, capsys):
    """A pressure value is 124 KB; the witness is what a CI log is for.
    Every line of fuzz's output (and of shrink's) stays short, while the
    dump keeps the bytes."""
    code = main(
        [
            "fuzz",
            "--pressure",
            "--seed", "1",
            "--seeds", "1",
            "--ops", "60",
            "--parser-cases", "0",
            "--mutation", "skip-eviction-counter",
            "--config", "UCR-IB",
            "--out", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1 and "MISMATCH" in out
    dump = tmp_path / "mismatch-seed1.json"
    steps = json.loads(dump.read_text())["commands"]
    assert any(len(step.get("value", "")) > 100_000 for step in steps)
    # A dump says what each op reads, not every field on every step.
    assert all("stale_ok" not in step and "sleep_s" not in step for step in steps)
    main(["shrink", str(dump)])
    out += capsys.readouterr().out
    assert out.count(" bytes> ") >= 2 * sum("value" in step for step in steps)
    assert max(len(line) for line in out.splitlines()) <= 200


def test_fuzz_clean_exits_zero(tmp_path, capsys):
    code = main(
        [
            "fuzz",
            "--seed", "3",
            "--seeds", "2",
            "--ops", "30",
            "--parser-cases", "30",
            "--config", "UCR-IB",
            "--config", "SDP/text",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert not list(tmp_path.glob("*.json"))


def test_shrink_reminimizes_dump(tmp_path, capsys):
    main(
        [
            "fuzz",
            "--seed", "9",
            "--seeds", "1",
            "--ops", "80",
            "--parser-cases", "0",
            "--mutation", "incr-off-by-one",
            "--config", "UCR-IB",
            "--out", str(tmp_path),
        ]
    )
    capsys.readouterr()
    dump = next(tmp_path.glob("mismatch-*.json"))
    code = main(["shrink", str(dump)])
    out = capsys.readouterr().out
    assert code == 1  # still failing (the mutation is in the dump)
    assert "shrunk" in out
    assert dump.with_name(dump.stem + ".min.json").exists()


def test_fuzz_shrinks_a_cross_config_disagreement_on_the_pair(
    tmp_path, capsys, monkeypatch
):
    """Every replay agrees with its own oracle and two configs disagree
    with each other: the pair is what failed, so the pair is what gets
    named, shrunk and dumped (``fuzz --pressure --seed 202`` used to blame
    the first config, shrink on a predicate that held, and die on the
    ``assert`` in ``shrink_commands``)."""
    from repro.check import differential

    real = differential.replay

    def skewed(config, commands, **kwargs):
        result = real(config, commands, **kwargs)
        if config[0] == "SDP/text":
            for index, cmd in enumerate(commands):
                if cmd.op == "delete":
                    result.outcomes[index] = ["ok", "skewed"]
        return result

    monkeypatch.setattr(differential, "replay", skewed)
    code = main(
        [
            "fuzz",
            "--seed", "3",
            "--seeds", "1",
            "--ops", "30",
            "--parser-cases", "0",
            "--config", "UCR-IB",
            "--config", "SDP/text",
            "--out", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH between UCR-IB and SDP/text at op #14" in out
    dump = tmp_path / "mismatch-seed3.json"
    doc = json.loads(dump.read_text())
    assert (doc["config"], doc["versus"], doc["mismatches"]) == ("UCR-IB", ["SDP/text"], [])
    assert [c["op"] for c in doc["commands"]] == ["delete"]
    assert doc["disagreements"] == [
        {"index": 0, "UCR-IB": ["ok", False], "SDP/text": ["ok", "skewed"]}
    ]
    # ...and the dump names the pair, so `shrink` replays the pair too.
    assert main(["shrink", str(dump)]) == 1
    assert "shrunk 1 -> 1 commands" in capsys.readouterr().out


def test_run_says_what_a_red_pass_failed_on(capsys, monkeypatch):
    """A red ``run`` names the mismatching op and the disagreeing pair, for
    the blocking pass and the pipelined one alike (one printer)."""
    from repro.check import differential

    real = differential.replay

    def skewed(config, steps, **kwargs):
        result = real(config, steps, **kwargs)
        if config[0] == "SDP/text":
            result.outcomes[0] = ["ok", "skewed"]
            result.mismatches.append((0, ["ok", "skewed"], result.outcomes[1]))
        return result

    monkeypatch.setattr(differential, "replay", skewed)
    code = main(
        ["run", "--sequential-ops", "10", "--ops", "16",
         "--config", "UCR-IB", "--config", "SDP/text"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "sequential: 10 commands x 2 configs (seed 42): MISMATCH" in out
    assert "  SDP/text #0: client ['ok', 'skewed'] != oracle" in out
    assert "  SDP/text/pipe4         MISMATCH" in out
    assert out.count("  UCR-IB vs SDP/text: first disagreement at #0") == 1
    assert out.count("  UCR-IB/pipe4 vs SDP/text/pipe4: first disagreement at #0") == 1


def test_shrink_reports_a_dump_that_no_longer_fails(tmp_path, capsys):
    dump = tmp_path / "fixed.json"
    dump.write_text(json.dumps({
        "seed": 1, "config": "UCR-IB", "mutation": None, "pressure": False,
        "commands": [{"op": "get", "key": "k"}],
    }))
    assert main(["shrink", str(dump)]) == 0
    assert "no longer fails" in capsys.readouterr().out


def test_run_under_pressure_prints_the_store_pressure(capsys):
    """``run --pressure`` reports each replay's evictions, skips the
    pipelined differential pass (eviction adoption needs one drain
    point) and adds the store's pressure to each concurrent verdict."""
    code = main(
        ["run", "--pressure", "--seed", "7", "--sequential-ops", "20",
         "--ops", "40", "--config", "UCR-IB"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "pressure sequential: 20 commands x 1 configs (seed 7): ok" in out
    assert "  UCR-IB                 evictions " in out
    assert "  cross-config divergences tolerated: 0" in out
    assert "pipelined: skipped under --pressure" in out
    assert out.count(" evictable ") == 2  # depth 1 and depth 4


def test_run_names_why_a_concurrent_history_is_not_linearizable(capsys, monkeypatch):
    """With a ``MUTATIONS`` row armed on every server a ``run`` boots, the
    concurrent verdict turns red and prints the checker's reasons."""
    from repro.check import differential
    from repro.check.mutations import MUTATIONS

    start = differential.Cluster.start_server

    def start_mutated(cluster, *args, **kwargs):
        first = start(cluster, *args, **kwargs)
        for server in cluster.servers.values():
            MUTATIONS["incr-off-by-one"](server.store)
        return first

    monkeypatch.setattr(differential.Cluster, "start_server", start_mutated)
    code = main(
        ["run", "--sequential-ops", "10", "--ops", "80", "--pipeline-depth", "1",
         "--config", "UCR-IB"]
    )
    out = capsys.readouterr().out
    assert code == 1
    verdict = next(line for line in out.splitlines() if "NOT LINEARIZABLE" in line)
    reasons = out.splitlines()[out.splitlines().index(verdict) + 1:]
    assert reasons and all(line.startswith("    ") for line in reasons)


def test_fuzz_under_pressure_reports_the_store_pressure(tmp_path, capsys):
    code = main(
        ["fuzz", "--pressure", "--seed", "1", "--seeds", "1", "--ops", "30",
         "--parser-cases", "0", "--config", "UCR-IB", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("seed 1: ok (30 commands, evictions ")
    assert ", oom " in out


def test_fuzz_reports_parser_crashes(tmp_path, capsys, monkeypatch):
    from repro.memcached import protocol_binary

    def crash(parser, data):
        raise RuntimeError("injected parser crash")

    monkeypatch.setattr(protocol_binary.BinaryParser, "feed", crash)
    code = main(
        ["fuzz", "--seed", "1", "--seeds", "0", "--parser-cases", "12",
         "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "parser fuzz: 12 failures" in out
    listed = [line for line in out.splitlines() if line.startswith("  BinaryParser")]
    assert len(listed) == 10  # the first ten are printed
    assert all("CRASH RuntimeError: injected parser crash" in line for line in listed)


def test_shrink_rejects_a_dump_naming_an_unknown_config(tmp_path, capsys):
    dump = tmp_path / "foreign.json"
    dump.write_text(json.dumps({
        "seed": 1, "config": "carrier-pigeon", "mutation": None,
        "commands": [{"op": "get", "key": "k"}],
    }))
    assert main(["shrink", str(dump)]) == 1
    assert "unknown config 'carrier-pigeon'" in capsys.readouterr().err
