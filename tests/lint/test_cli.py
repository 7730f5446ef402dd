"""The repro-lint CLI and the ship-clean guarantee for this repository."""

import json
import pathlib
import textwrap

import pytest

from repro.lint import (
    ALL_RULES,
    FLOW_RULES,
    apply_baseline,
    lint_paths,
    load_baseline,
    main,
)

REPO = pathlib.Path(__file__).resolve().parents[2]


def _write(tmp_path, source):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(source))
    return path


DIRTY = """
import time

def f():
    return time.time()
"""


def test_exit_zero_on_clean_tree(tmp_path, capsys):
    _write(tmp_path, "X = 1\n")
    assert main([str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_exit_one_with_findings_printed(tmp_path, capsys):
    path = _write(tmp_path, DIRTY)
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"{path}:" in out and "L001" in out


def test_select_restricts_rules(tmp_path):
    _write(tmp_path, DIRTY)
    assert main(["--select", "L004", str(tmp_path)]) == 0
    assert main(["--select", "L001", str(tmp_path)]) == 1


def test_select_unknown_rule_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["--select", "L999", str(tmp_path)])


def test_list_rules_prints_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.rule_id in out


def test_show_suppressed_lists_silenced_findings(tmp_path, capsys):
    _write(
        tmp_path,
        """
        import time

        def f():
            return time.time()  # repro-lint: disable=L001
        """,
    )
    assert main(["--show-suppressed", str(tmp_path)]) == 0
    assert "[suppressed]" in capsys.readouterr().out


def test_nonexistent_path_is_an_error_not_a_clean_run(tmp_path, capsys):
    assert main([str(tmp_path / "typo")]) == 1
    assert "no such file" in capsys.readouterr().err


# -- file-level suppression headers ------------------------------------------


LEAKY = """
def handler(pool):
    buf = pool.get()
    buf.write(b"payload")
"""


def test_file_header_suppresses_whole_module(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(
        '"""Docstring first."""\n'
        "# repro-lint: disable-file=L009 -- deliberate-leak fixture\n"
        + textwrap.dedent(LEAKY)
    )
    assert main(["--flow", "--no-baseline", str(tmp_path)]) == 0
    assert main(["--flow", "--no-baseline", "--show-suppressed", str(tmp_path)]) == 0
    assert "[suppressed]" in capsys.readouterr().out


def test_file_header_mid_module_is_ignored(tmp_path):
    """A disable-file buried after code is a misplaced suppression."""
    path = tmp_path / "mod.py"
    path.write_text(
        textwrap.dedent(LEAKY)
        + "# repro-lint: disable-file=L009\n"
    )
    assert main(["--flow", "--no-baseline", str(tmp_path)]) == 1


# -- baseline ----------------------------------------------------------------


def test_baseline_turns_findings_nonfailing(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(textwrap.dedent(LEAKY))
    baseline = tmp_path / "baseline"
    baseline.write_text("L009 mod.py:3  # reviewed: fixture debt\n")
    args = ["--flow", "--baseline", str(baseline), str(tmp_path)]
    assert main(args) == 0
    assert "1 baselined" in capsys.readouterr().out
    assert main(args + ["--show-suppressed"]) == 0
    assert "[baselined]" in capsys.readouterr().out


def test_stale_baseline_entry_warns(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("X = 1\n")
    baseline = tmp_path / "baseline"
    baseline.write_text("L009 gone.py:7\n")
    assert main(["--baseline", str(baseline), str(tmp_path)]) == 0
    assert "stale baseline entry L009 gone.py:7" in capsys.readouterr().err


def test_malformed_baseline_is_an_error(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("X = 1\n")
    baseline = tmp_path / "baseline"
    baseline.write_text("not a baseline line\n")
    assert main(["--baseline", str(baseline), str(tmp_path)]) == 1
    assert "expected '<rule> <path>:<line|*>'" in capsys.readouterr().err


def test_missing_explicit_baseline_is_an_error(tmp_path, capsys):
    (tmp_path / "mod.py").write_text("X = 1\n")
    assert main(["--baseline", str(tmp_path / "typo"), str(tmp_path)]) == 1
    assert "not found" in capsys.readouterr().err


def test_no_baseline_reopens_the_debt(tmp_path):
    (tmp_path / "mod.py").write_text(textwrap.dedent(LEAKY))
    baseline = tmp_path / "baseline"
    baseline.write_text("L009 mod.py:3\n")
    assert main(["--flow", "--baseline", str(baseline), str(tmp_path)]) == 0
    assert main(["--flow", "--no-baseline", str(tmp_path)]) == 1


def test_wildcard_baseline_line_matches_any_line(tmp_path):
    (tmp_path / "mod.py").write_text(textwrap.dedent(LEAKY))
    baseline = tmp_path / "baseline"
    baseline.write_text("L009 mod.py:*\n")
    assert main(["--flow", "--baseline", str(baseline), str(tmp_path)]) == 0


# -- flow flag and machine formats -------------------------------------------


def test_flow_flag_enables_dataflow_rules(tmp_path):
    (tmp_path / "mod.py").write_text(textwrap.dedent(LEAKY))
    assert main(["--no-baseline", str(tmp_path)]) == 0  # L009 off by default
    assert main(["--flow", "--no-baseline", str(tmp_path)]) == 1


def test_selecting_a_flow_rule_implies_flow(tmp_path):
    (tmp_path / "mod.py").write_text(textwrap.dedent(LEAKY))
    assert main(["--select", "L009", "--no-baseline", str(tmp_path)]) == 1
    assert main(["--select", "L001", "--no-baseline", str(tmp_path)]) == 0


def test_list_rules_includes_flow_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in tuple(ALL_RULES) + tuple(FLOW_RULES):
        assert rule.rule_id in out


def test_json_format_reports_counts(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(textwrap.dedent(LEAKY))
    assert main(["--flow", "--no-baseline", "--format", "json", str(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert payload["ok"] is False
    assert [f["rule_id"] for f in payload["findings"]] == ["L009"]


def test_sarif_format_is_valid_and_marks_suppressions(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        textwrap.dedent(
            """
            def handler(pool):
                buf = pool.get()  # repro-lint: disable=L009 -- test double
                buf.write(b"payload")
            """
        )
    )
    assert main(["--flow", "--no-baseline", "--format", "sarif", str(tmp_path)]) == 0
    sarif = json.loads(capsys.readouterr().out)
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"L008", "L009", "L010", "L011"} <= rule_ids
    suppressed = [r for r in run["results"] if r.get("suppressions")]
    assert suppressed and suppressed[0]["suppressions"][0]["kind"] == "inSource"


def test_output_writes_report_file(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(textwrap.dedent(LEAKY))
    out_file = tmp_path / "report.sarif"
    code = main(
        ["--flow", "--no-baseline", "--format", "sarif",
         "--output", str(out_file), str(tmp_path)]
    )
    assert code == 1
    sarif = json.loads(out_file.read_text())
    assert sarif["runs"][0]["results"]
    assert "1 finding(s)" in capsys.readouterr().out  # summary still on stdout


# -- the ship-clean gate -----------------------------------------------------


def test_repository_ships_lint_clean():
    """The acceptance gate: src/ and tests/ carry zero open findings
    under the full catalogue (L001-L012), and the reviewed baseline --
    which once carried the rendezvous staging-buffer leak -- is empty."""
    rules = tuple(ALL_RULES) + tuple(FLOW_RULES)
    report = lint_paths([REPO / "src", REPO / "tests"], rules)
    entries = load_baseline(REPO / ".repro-lint-baseline")
    unused = apply_baseline(report, entries)
    assert report.parse_errors == []
    assert [f.format() for f in report.findings] == []
    assert entries == [] and unused == [] and report.baselined == []
