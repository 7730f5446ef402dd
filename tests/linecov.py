"""Line coverage of ``src/repro`` function bodies, standard library only.

``coverage`` / ``pytest-cov`` cannot be installed where this suite is
developed, so this is the measuring stick::

    PYTHONPATH=src python -m pytest -p tests.linecov    # writes linecov.json
    python -m tests.linecov [--fail-under PCT]          # reads it back

What is counted: every line of every function body under ``src/repro`` --
functions, methods, lambdas, comprehensions, nested ones included; the
universe comes from compiling each source file, so a function nobody calls
still counts, all of it missed.  What is not: module and class bodies.  They
run at import, which is over before ``pytest_configure`` can install a trace
function, so they would all read "missed"; and a function's own ``def`` line,
which only ever gets a ``call`` event, never a ``line`` event.

The cost decays: a code object whose lines have all been seen gets no local
trace function any more, so a suite that takes 3 minutes takes under 8
under trace, not thirteen.  The local trace function is one module-level
function, not a closure per call: a frame that points at a closure that
points back at per-call state is cyclic garbage, and the suite has tests
that fail on cyclic garbage (``tests/verbs/test_wr_budget.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from inspect import CO_OPTIMIZED
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
REPORT = os.path.join(ROOT, "linecov.json")

#: ``(path, first line, name)`` of a function -> its body lines / the ones
#: no ``line`` event has reported yet.
_body: dict[tuple, frozenset] = {}
_unseen: dict[tuple, set] = {}
#: Live code object -> its entry in ``_unseen``; ``None`` for code that is
#: not ours, so the global trace function answers with one dict lookup.
_by_code: dict[CodeType, "set | None"] = {}


def _functions(code: CodeType):
    """Every code object nested in *code* that runs when called (class
    bodies are walked through, not yielded)."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & CO_OPTIMIZED:
                yield const
            yield from _functions(const)


def _load_universe() -> None:
    for folder, _dirs, names in os.walk(PACKAGE):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as source:
                    module = compile(source.read(), path, "exec")
                for code in _functions(module):
                    lines = {line for _, _, line in code.co_lines() if line is not None}
                    if len(lines) > 1:  # else a one-liner: its def line *is* its body
                        lines.discard(code.co_firstlineno)
                    key = (path, code.co_firstlineno, code.co_name)
                    _body[key] = frozenset(lines)
                    _unseen[key] = lines


def _on_call(frame, event, _arg):
    code = frame.f_code
    try:
        unseen = _by_code[code]
    except KeyError:
        key = (os.path.abspath(code.co_filename), code.co_firstlineno, code.co_name)
        unseen = _by_code[code] = _unseen.get(key)
    return _on_line if unseen else None


def _on_line(frame, event, _arg):
    if event == "line":
        _by_code[frame.f_code].discard(frame.f_lineno)
    return _on_line


def _summary() -> dict:
    files: dict[str, dict] = {}
    never_run = []
    for key in sorted(_body):
        path, first, name = key
        entry = files.setdefault(
            os.path.relpath(path, ROOT), {"lines": set(), "seen": set(), "missed": set()}
        )
        entry["lines"] |= _body[key]
        entry["seen"] |= _body[key] - _unseen[key]
        entry["missed"] |= _unseen[key]
        if _unseen[key] == _body[key]:
            never_run.append(f"{os.path.relpath(path, ROOT)}:{first} {name}")
    for entry in files.values():
        # A line shared by two code objects (a comprehension and the function
        # around it) is missed only if neither saw it.
        entry["missed"] = sorted(entry["missed"] - entry.pop("seen"))
        entry["lines"] = len(entry["lines"])
    total = sum(entry["lines"] for entry in files.values())
    missed = sum(len(entry["missed"]) for entry in files.values())
    return {
        "what": "function-body lines under src/repro; import-time lines not counted",
        "lines": total,
        "missed": missed,
        "percent": round(100.0 * (total - missed) / total, 2),
        "files": files,
        "never_run": never_run,
    }


# -- pytest plugin (``-p tests.linecov``) -------------------------------------


def pytest_configure(config):
    _load_universe()
    sys.settrace(_on_call)


def pytest_unconfigure(config):
    sys.settrace(None)
    with open(REPORT, "w", encoding="utf-8") as out:
        json.dump(_summary(), out, indent=1)
        out.write("\n")


# -- report (``python -m tests.linecov``) -------------------------------------


def _ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` -> ``3-5, 9``."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fail-under", type=float, default=0.0, metavar="PCT",
                        help="exit 1 if fewer than PCT percent of lines ran")
    args = parser.parse_args(argv)
    with open(REPORT, encoding="utf-8") as source:
        report = json.load(source)
    print(f"{report['what']}\n")
    for path, entry in sorted(report["files"].items(),
                              key=lambda item: -len(item[1]["missed"])):
        if entry["missed"]:
            print(f"{len(entry['missed']):5d} of {entry['lines']:5d}  {path}: "
                  f"{_ranges(entry['missed'])}")
    print(f"\n{len(report['never_run'])} functions with no executed line:")
    for where in report["never_run"]:
        print(f"  {where}")
    print(f"\n{report['lines'] - report['missed']} of {report['lines']} lines ran: "
          f"{report['percent']} %")
    if report["percent"] < args.fail_under:
        print(f"below the floor of {args.fail_under} %")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
