"""Each lint rule: one positive case, one suppressed case, one negative."""

import textwrap

from repro.lint import lint_paths
from repro.lint.engine import lint_file


def _lint(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_file(path)


def _rule_ids(report):
    return [f.rule_id for f in report.findings]


# -- L001: wall clock / entropy ------------------------------------------------


def test_l001_flags_time_time(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    assert _rule_ids(report) == ["L001"]
    assert "time.time" in report.findings[0].message


def test_l001_flags_aliased_and_from_imports(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        import random
        from time import monotonic
        from datetime import datetime

        def f():
            return random.random(), monotonic(), datetime.now()
        """,
    )
    assert _rule_ids(report) == ["L001", "L001", "L001"]


def test_l001_suppressed_inline(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        import time

        def stamp():
            return time.monotonic()  # repro-lint: disable=L001
        """,
    )
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_l001_does_not_apply_to_tests(tmp_path):
    report = _lint(
        tmp_path,
        "tests/test_mod.py",
        """
        import time

        def test_something():
            assert time.time() > 0
        """,
    )
    assert report.findings == []


# -- L002: timestamp equality ---------------------------------------------------


def test_l002_flags_timestamp_equality(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        def check(sim, deadline):
            if sim.now == deadline:
                return True
            t0 = sim.now
            t1 = sim.now
            return t0 != t1
        """,
    )
    assert _rule_ids(report) == ["L002", "L002"]


def test_l002_allows_literal_comparisons(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        def check(sim, exptime):
            return sim.now == 0.0 or exptime == 0
        """,
    )
    assert report.findings == []


def test_l002_suppressed_inline(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        def check(sim, deadline):
            return sim.now == deadline  # repro-lint: disable=L002
        """,
    )
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- L003: hot-path __slots__ ----------------------------------------------------


def test_l003_flags_slotless_hot_path_class(tmp_path):
    report = _lint(
        tmp_path,
        "verbs/mod.py",
        """
        class Wqe:
            \"\"\"A hot-path object.\"\"\"

            def __init__(self):
                self.a = 1
        """,
    )
    assert _rule_ids(report) == ["L003"]


def test_l003_accepts_slots_and_dataclass_slots(tmp_path):
    report = _lint(
        tmp_path,
        "verbs/mod.py",
        """
        from dataclasses import dataclass

        class Wqe:
            __slots__ = ("a",)

        @dataclass(slots=True)
        class Cqe:
            a: int
        """,
    )
    assert report.findings == []


def test_l003_exempts_exceptions_and_enums(tmp_path):
    report = _lint(
        tmp_path,
        "verbs/mod.py",
        """
        import enum

        class VerbsError(Exception):
            pass

        class State(enum.Enum):
            A = 1
        """,
    )
    assert report.findings == []


def test_l003_ignores_cold_path_modules(tmp_path):
    report = _lint(
        tmp_path,
        "experiments/mod.py",
        """
        class Report:
            def __init__(self):
                self.rows = []
        """,
    )
    assert report.findings == []


def test_l003_suppressed_inline(tmp_path):
    report = _lint(
        tmp_path,
        "core/mod.py",
        """
        class Patchable:  # repro-lint: disable=L003
            \"\"\"Monkeypatched by examples; cannot use slots.\"\"\"

            def __init__(self):
                self.a = 1
        """,
    )
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_l003_requires_slots_in_telemetry_package(tmp_path):
    report = _lint(
        tmp_path,
        "src/repro/telemetry/mod.py",
        """
        class Loose:
            def __init__(self):
                self.a = 1
                self.b = 2
                self.c = 3
        """,
    )
    assert _rule_ids(report) == ["L003"]
    assert "__slots__" in report.findings[0].message


def test_l003_telemetry_slotted_class_passes(tmp_path):
    report = _lint(
        tmp_path,
        "src/repro/telemetry/mod.py",
        """
        class Tight:
            __slots__ = ("a",)

            def __init__(self):
                self.a = 1
        """,
    )
    assert report.findings == []


# -- L004: mutable default arguments --------------------------------------------


def test_l004_flags_mutable_defaults(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        def f(x, acc=[]):
            acc.append(x)
            return acc

        def g(x, table={}):
            return table
        """,
    )
    assert _rule_ids(report) == ["L004", "L004"]


def test_l004_applies_in_tests_too(tmp_path):
    report = _lint(
        tmp_path,
        "tests/test_mod.py",
        """
        def helper(x, acc=[]):
            return acc
        """,
    )
    assert _rule_ids(report) == ["L004"]


def test_l004_allows_immutable_defaults(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        def f(x=(), y=None, z="s", n=0):
            return x, y, z, n
        """,
    )
    assert report.findings == []


# -- L005: duplicate msg ids -----------------------------------------------------


def test_l005_flags_duplicate_msg_constants(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        MSG_GET = 1
        MSG_SET = 2
        MSG_PING = 1
        """,
    )
    assert _rule_ids(report) == ["L005"]
    assert "MSG_PING" in report.findings[0].message


def test_l005_flags_double_registration_in_one_scope(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        def setup(rt):
            rt.register_handler(7)
            rt.register_handler(7)
        """,
    )
    assert _rule_ids(report) == ["L005"]


def test_l005_allows_same_id_on_different_runtimes_or_scopes(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        def setup(world):
            world.server_rt.register_handler(7)
            world.client_rt.register_handler(7)

        def other(world):
            world.server_rt.register_handler(7)
        """,
    )
    assert report.findings == []


def test_l005_suppressed_inline(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        def setup(rt):
            rt.register_handler(7)
            rt.register_handler(7)  # repro-lint: disable=L005
        """,
    )
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- engine behavior -------------------------------------------------------------


def test_syntax_errors_are_reported_not_raised(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    report = lint_paths([path])
    assert report.parse_errors and not report.ok


def test_disable_all_suppresses_everything(tmp_path):
    report = _lint(
        tmp_path,
        "mod.py",
        """
        def f(x, acc=[]):  # repro-lint: disable=all
            return acc
        """,
    )
    assert report.findings == []
    assert len(report.suppressed) == 1


# -- L006: telemetry zero-cost discipline ----------------------------------------


def test_l006_flags_unguarded_tracer_calls(tmp_path):
    report = _lint(
        tmp_path,
        "src/repro/core/mod.py",
        """
        from repro.telemetry import tracer

        def hot(sim):
            span = tracer.begin("x", "client", sim.now)
            tracer.end(span, sim.now)
        """,
    )
    assert _rule_ids(report) == ["L006", "L006"]
    assert "unguarded" in report.findings[0].message


def test_l006_accepts_guarded_idioms(tmp_path):
    report = _lint(
        tmp_path,
        "src/repro/core/mod.py",
        """
        from repro.telemetry import tracer

        def hot(sim, parent):
            span = (
                tracer.begin("x", "client", sim.now, parent=parent)
                if tracer.enabled and parent is not None
                else None
            )
            if tracer.enabled:
                tracer.end(span, sim.now)
            ok = tracer.enabled and tracer.instant("e", "client", sim.now)
            return ok
        """,
    )
    assert report.findings == []


def test_l006_guard_does_not_leak_into_nested_defs(tmp_path):
    report = _lint(
        tmp_path,
        "src/repro/core/mod.py",
        """
        from repro.telemetry import tracer

        def outer(sim):
            if tracer.enabled:
                def later():
                    tracer.instant("e", "client", sim.now)
                return later
        """,
    )
    assert _rule_ids(report) == ["L006"]


def test_l006_ignores_tests_and_non_recording_methods(tmp_path):
    report = _lint(
        tmp_path,
        "tests/test_mod.py",
        """
        from repro.telemetry import tracer

        def test_x(sim):
            tracer.begin("x", "client", 0.0)
        """,
    )
    assert report.findings == []
    report = _lint(
        tmp_path,
        "src/repro/analysis/mod.py",
        """
        from repro.telemetry import tracer

        def collect():
            return tracer.finished_spans()
        """,
    )
    assert report.findings == []


# -- L007: history recording discipline ------------------------------------------


def test_l007_flags_unguarded_recorder_calls(tmp_path):
    report = _lint(
        tmp_path,
        "src/repro/core/mod.py",
        """
        from repro.check.history import recorder

        def hot(sim):
            r = recorder.invoke(None, "get", "k", (), sim.now)
            recorder.complete(r, None, sim.now, "s0")
        """,
    )
    assert _rule_ids(report) == ["L007", "L007"]
    assert "unguarded recorder" in report.findings[0].message


def test_l007_accepts_guard_and_early_exit_idioms(tmp_path):
    report = _lint(
        tmp_path,
        "src/repro/core/mod.py",
        """
        from repro.check.history import recorder

        def wrapped(fn, sim):
            if not recorder.enabled:
                return fn()
            r = recorder.invoke(None, "get", "k", (), sim.now)
            out = fn()
            recorder.complete(r, out, sim.now, "s0")
            return out

        def other(sim):
            if recorder.enabled:
                recorder.fail(None, "client", sim.now, "s0")
        """,
    )
    assert report.findings == []


def test_l007_flags_unrecorded_client_op_method(tmp_path):
    report = _lint(
        tmp_path,
        "src/repro/core/mod.py",
        """
        class FancyClient:
            __slots__ = ()

            def get(self, key):
                yield from self._round_trip(b"get " + key.encode())
        """,
    )
    assert _rule_ids(report) == ["L007"]
    assert "does not record history" in report.findings[0].message


def test_l007_accepts_ops_that_call_or_touch_the_recorder(tmp_path):
    report = _lint(
        tmp_path,
        "src/repro/core/mod.py",
        """
        from repro.check.history import recorder

        class FancyClient:
            __slots__ = ()

            def get(self, key):
                return self.call(Command(op="get", keys=[key]))

            def flush_all(self):
                rec = (
                    recorder.invoke(self, "flush_all", None, (), self.sim.now)
                    if recorder.enabled
                    else None
                )
                yield from self._round_trip(b"flush_all")

            def helper(self, key):
                return key  # not an op method: no obligation
        """,
    )
    assert report.findings == []


def test_l007_follows_same_class_helpers_that_record(tmp_path):
    """An op that reaches the recorder through its own class's helpers
    (two hops here) records; the helper is resolved, not trusted."""
    report = _lint(
        tmp_path,
        "src/repro/core/mod.py",
        """
        from repro.check.history import recorder

        class FancyClient:
            __slots__ = ()

            def get_multi(self, keys):
                return (yield from self._batch(keys))

            def _batch(self, keys):
                recs = [self._invoke(key) for key in keys]
                yield from self._round_trip(keys)

            def _invoke(self, key):
                if not recorder.enabled:
                    return None
                return recorder.invoke(self, "get", key, (), 0.0)
        """,
    )
    assert report.findings == []


def test_l007_flags_same_class_helpers_that_do_not_record(tmp_path):
    report = _lint(
        tmp_path,
        "src/repro/core/mod.py",
        """
        class FancyClient:
            __slots__ = ()

            def get_multi(self, keys):
                return (yield from self._batch(keys))

            def _batch(self, keys):
                yield from self._batch(keys[1:])  # recursion terminates
                yield from self._round_trip(keys)
        """,
    )
    assert _rule_ids(report) == ["L007"]
    assert "get_multi" in report.findings[0].message


def test_l007_no_longer_trusts_wrapper_names(tmp_path):
    """A decorator or helper merely *named* like the deleted wrappers
    proves nothing: only the ``call`` chain or the recorder does."""
    report = _lint(
        tmp_path,
        "src/repro/core/mod.py",
        """
        def _recorded(op):
            def deco(fn):
                return fn
            return deco

        class FancyClient:
            __slots__ = ()

            @_recorded("get")
            def get(self, key):
                yield from self._round_trip(key)

            def delete(self, key):
                return (yield from self._with_failover("delete", key))
        """,
    )
    assert _rule_ids(report) == ["L007", "L007"]


def test_l007_skips_the_check_package_itself(tmp_path):
    report = _lint(
        tmp_path,
        "src/repro/check/history.py",
        """
        class _Recorder:
            pass

        def internal(recorder, sim):
            recorder.invoke(None, "get", "k", (), sim.now)
        """,
    )
    assert report.findings == []


def test_l007_suppressed_inline(tmp_path):
    report = _lint(
        tmp_path,
        "src/repro/core/mod.py",
        """
        from repro.check.history import recorder

        def hot(sim):
            recorder.lost(None, sim.now, "s0")  # repro-lint: disable=L007
        """,
    )
    assert report.findings == []
    assert len(report.suppressed) == 1
