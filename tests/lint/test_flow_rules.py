"""The dataflow rules L008-L012 against seeded-hazard fixtures.

Mutation-style: every ``# HAZARD: L0XX`` marker in a fixture module must
be reported *at that exact line*, and nothing else may be reported.  The
clean fixture pins the false-positive controls the same way.
"""

import pathlib
import re
import textwrap

import pytest

from repro.lint.engine import iter_python_files, lint_file
from repro.lint.flow import FLOW_RULES
from repro.lint.shared_state import classify_chain, is_pool_get
import ast

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"
_MARKER = re.compile(r"#\s*HAZARD:\s*(L\d{3})")


def _expected_markers(path):
    """``{(rule_id, line), ...}`` parsed from the fixture's comments."""
    expected = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        match = _MARKER.search(line)
        if match is not None:
            expected.add((match.group(1), lineno))
    return expected


def _findings(path):
    """``{(rule_id, line), ...}`` the flow rules actually report."""
    report = lint_file(path, rules=FLOW_RULES)
    assert report.parse_errors == []
    return {(f.rule_id, f.line) for f in report.findings}


@pytest.mark.parametrize("name", ["l008", "l009", "l010", "l011", "l012"])
def test_each_seeded_hazard_caught_at_its_exact_line(name):
    path = FIXTURES / f"hazard_{name}.py"
    expected = _expected_markers(path)
    assert expected, f"{path} has no HAZARD markers"
    assert _findings(path) == expected


def test_clean_fixture_produces_no_findings():
    assert _findings(FIXTURES / "clean_flow.py") == set()


def test_fixtures_are_excluded_from_tree_sweeps():
    """The seeded hazards must never fail the repository-wide gate."""
    swept = list(iter_python_files([FIXTURES.parent]))
    assert all("lint_fixtures" not in p.parts for p in swept)


# ---------------------------------------------------------------- units


def _lint_source(tmp_path, source, scope="src"):
    base = tmp_path / "src" if scope == "src" else tmp_path / "tests"
    base.mkdir(exist_ok=True)
    path = base / "mod.py"
    path.write_text(textwrap.dedent(source))
    report = lint_file(path, rules=FLOW_RULES)
    assert report.parse_errors == []
    return report.findings


def test_l008_ignores_non_generator_functions(tmp_path):
    findings = _lint_source(
        tmp_path,
        """
        def sync(self, key):
            owner = self.ring.server_for(key)
            return owner
        """,
    )
    assert findings == []


def test_l008_names_category_and_definition_line(tmp_path):
    findings = _lint_source(
        tmp_path,
        """
        def proc(self, sim, key):
            owner = self.ring.server_for(key)
            yield sim.timeout(1.0)
            return owner
        """,
    )
    assert len(findings) == 1
    assert "ring" in findings[0].message and "line 3" in findings[0].message


def test_l009_tracks_factory_pool_gets(tmp_path):
    findings = _lint_source(
        tmp_path,
        """
        def stage(self, n):
            staging = self.runtime.rendezvous_pool_for(n).get()
            staging.write(b"x")
        """,
    )
    assert [f.rule_id for f in findings] == ["L009"]
    assert "leak" in findings[0].message


def test_l009_dict_get_is_not_an_acquire(tmp_path):
    findings = _lint_source(
        tmp_path,
        """
        def lookup(cache):
            value = cache.get()
            return value
        """,
    )
    assert findings == []


def test_l010_first_write_is_unchecked(tmp_path):
    findings = _lint_source(
        tmp_path,
        """
        from repro.verbs.enums import QpState

        def flush(qp):
            qp.state = QpState.ERROR
        """,
    )
    assert findings == []


def test_l010_distinguishes_receivers(tmp_path):
    findings = _lint_source(
        tmp_path,
        """
        from repro.verbs.enums import QpState

        def pair(a, b):
            a.state = QpState.RTS
            b.state = QpState.INIT
        """,
    )
    assert findings == []


def test_l011_flags_the_grant_yield_itself(tmp_path):
    """The grant's own yield counts: the request is live there."""
    findings = _lint_source(
        tmp_path,
        """
        def hold(sim, res):
            req = res.request()
            yield req
            res.release(req)
        """,
    )
    assert [f.rule_id for f in findings] == ["L011"]
    assert findings[0].line == 3


def test_l012_requires_bracket_on_every_path(tmp_path):
    findings = _lint_source(
        tmp_path,
        """
        def publish(self, bucket, fast):
            slot = self._mirror[bucket]
            if not fast:
                self.seq_begin(bucket)
            slot.cas = 3
            if not fast:
                self.seq_end(bucket)
        """,
    )
    assert [f.rule_id for f in findings] == ["L012"]
    assert findings[0].line == 6


def test_l012_accepts_the_bracketed_idiom(tmp_path):
    findings = _lint_source(
        tmp_path,
        """
        def publish(self, bucket, item):
            slot = self._mirror[bucket]
            self.seq_begin(bucket)
            slot.key_hash = 7
            slot.cas = item.cas
            self.seq_end(bucket)
        """,
    )
    assert findings == []


def test_l012_ignores_untracked_receivers(tmp_path):
    """Entry-layout field names on arbitrary objects are not index
    slots; only locals bound from onesided state are held to the lock."""
    findings = _lint_source(
        tmp_path,
        """
        def stamp(self, item):
            item.flags = 1
            item.cas = 2
        """,
    )
    assert findings == []


def test_l012_exempts_the_seqlock_helpers(tmp_path):
    findings = _lint_source(
        tmp_path,
        """
        def seq_begin(self, bucket):
            slot = self._mirror[bucket]
            slot.version += 1
        """,
    )
    assert findings == []


def test_flow_rules_apply_to_test_scope_too(tmp_path):
    findings = _lint_source(
        tmp_path,
        """
        def hold(sim, res):
            req = res.request()
            yield req
            res.release(req)
        """,
        scope="tests",
    )
    assert [f.rule_id for f in findings] == ["L011"]


# ------------------------------------------------- shared-state registry


def _chain(expr_src):
    return classify_chain(ast.parse(expr_src, mode="eval").body)


def test_registry_classifies_known_chains():
    assert _chain("self.ring._nodes") == ("ring", "self.ring._nodes")
    assert _chain("self.distribution.server_for") == (
        "ring", "self.distribution.server_for"
    )
    assert _chain("self.store.by_key")[0] == "store"
    assert _chain("self.by_key") == ("store", "self.by_key")
    assert _chain("self.lrus") == ("slabs", "self.lrus")
    assert _chain("qp._recv_queue")[0] == "qp"
    assert _chain("self._mirror")[0] == "onesided"
    assert _chain("store.onesided")[0] == "onesided"
    assert _chain("server.onesided_index")[0] == "onesided"


def test_stable_terminals_are_exempt():
    assert _chain("self.cluster.sim") is None
    assert _chain("self.node") is None
    assert _chain("self.ring") is not None  # non-terminal shared link


def test_pool_get_requires_pool_shaped_receiver():
    assert is_pool_get(ast.parse("pool.get()", mode="eval").body)
    assert is_pool_get(ast.parse("self.runtime.recv_pool.get()", mode="eval").body)
    assert is_pool_get(
        ast.parse("rt.rendezvous_pool_for(4096).get()", mode="eval").body
    )
    assert not is_pool_get(ast.parse("mapping.get()", mode="eval").body)
    assert not is_pool_get(ast.parse("pool.get(1)", mode="eval").body)
