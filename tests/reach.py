"""What the entry points run: every function under ``src/repro`` that no CI
entry point calls, each either marked kept with a reason or left unmarked::

    PYTHONPATH=src python -m tests.reach        # writes reach.json

Line coverage (``tests/linecov.py``) says what tier-1 runs; this asks what
the product runs.  One trace hook is armed before ``repro`` is imported, so
calls made at import (a module-level table built by a factory function)
count.  Then the entry points CI runs are driven in this process, in turn:
``repro-experiments --fast``, the ``repro-check`` lines of ``ci.yml`` at
matrix seed 1, ``repro-lint`` with and without ``--flow``, ``repro-trace
run`` and ``view``, the four ``benchmarks/perf`` workloads (end to end and
per layer, small scale) and ``benchmarks/perf/micro.py``.

A named function (lambdas and comprehensions are not listed) that none of
them called is *kept* when :data:`KEPT` or :data:`KEPT_MODULES` gives a
reason, and *unmarked* otherwise; ``reach.json`` lists both.  The report
does not gate on unmarked functions.  The tool fails (exit 1, no report)
when an entry point raises or exits non-zero, and when a mark names a
function or module that no longer exists.

The hook is a ``sys.settrace`` global function that returns ``None``: it
sees one ``call`` event per frame and traces no lines, and it leaves
``sys.setprofile`` to the ``cProfile`` run inside the per-layer benchmark.
About four minutes on a 2-core box.
"""

from __future__ import annotations

import sys

_called: dict[int, object] = {}


def _on_call(frame, _event, _arg):
    # Keyed by id: hashing a code object hashes its constants, every call.
    # The value keeps the code object alive, so no id is reused.
    code = frame.f_code
    if id(code) not in _called:
        _called[id(code)] = code
    return None


sys.settrace(_on_call)

# Everything below is imported under the hook.
import argparse
import contextlib
import io
import json
import os
import tempfile
import traceback
from inspect import CO_OPTIMIZED
from pathlib import Path
from types import CodeType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
PERF = os.path.join(ROOT, "benchmarks", "perf")
REPORT = os.path.join(ROOT, "reach.json")

#: Whole modules (or packages, by dotted prefix) kept, with the reason.
KEPT_MODULES: dict[str, str] = {
    "repro.sanitize": "sanitizer tooling: it exists to serve tests",
    "repro.check": "checker tooling: it exists to serve tests",
    "repro.lint": "lint tooling: it exists to serve tests",
    "repro.testing": "test fixtures (UcrWorld and friends)",
}

_CLIENT_OPS = "the memcached command surface a client offers"
_OBSERVED = "an observation point tests assert through"
_KERNEL = "kernel contract: tests/sim drive and inspect events through it"
_TEARDOWN = "socket teardown: _Worker._drop runs it on quit, EOF and parse errors"
_STATS = "the stats seam a metrics plane builds on"
_SRQ = "shared receive queue: its ablation is to become a figure claim"
_LATER_FAULT = "a fault random_schedule draws; run --chaos strikes it at other seeds"
_ELASTIC = "live ring membership: the consistent-hashing property tests change it"

#: ``module:qualname`` -> why it stays although no entry point calls it.
KEPT: dict[str, str] = {
    "repro.chaos.controller:ChaosController.faults_applied": _OBSERVED,
    "repro.chaos.faults:Fault.apply": "abstract fault hook: a subclass overrides it",
    "repro.chaos.faults:Fault.revert": "abstract fault hook: a subclass overrides it",
    "repro.chaos.faults:Fault.describe": "abstract fault hook: a subclass overrides it",
    "repro.chaos.faults:LinkDegrade.__post_init__": _LATER_FAULT,
    "repro.chaos.faults:LinkDegrade._nic": _LATER_FAULT,
    "repro.chaos.faults:LinkDegrade.apply": _LATER_FAULT,
    "repro.chaos.faults:LinkDegrade.revert": _LATER_FAULT,
    "repro.chaos.faults:LinkDegrade.describe": _LATER_FAULT,
    "repro.chaos.faults:EndpointFlap.apply": _LATER_FAULT,
    "repro.chaos.faults:EndpointFlap.describe": _LATER_FAULT,
    "repro.fabric.link:Nic.slowdown": "the knob LinkDegrade turns",
    "repro.fabric.topology:Network.nic_of": "LinkDegrade finds its NIC through it",
    "repro.cluster.router:HashRing.add_server": _ELASTIC,
    "repro.cluster.router:HashRing.remove_server": _ELASTIC,
    "repro.cluster.router:ModulaDistribution.remove_server":
        "live removal, as examples/scaling_beyond_the_paper.py does it",
    "repro.memcached.serving.gutter:GutterRouter.remove_server":
        "live removal, as examples/scaling_beyond_the_paper.py does it",
    "repro.cluster.router:HashRing.arc_shares": _OBSERVED,
    "repro.cluster.router:HashRing.__len__": _OBSERVED,
    "repro.memcached.serving.gutter:GutterRouter.servers":
        "the distribution protocol: MemcachedClient.flush_all and stats walk it",
    "repro.memcached.serving.gutter:GutterRouter.__contains__": _OBSERVED,
    "repro.memcached.serving.hotcache:ProbabilisticHotCache.invalidate_all":
        "the hot-cache arm of MemcachedClient.flush_all",
    "repro.memcached.serving.hotcache:ProbabilisticHotCache.__len__": _OBSERVED,
    "repro.memcached.serving.leases:LeaseTable.__len__": _OBSERVED,
    "repro.core.buffers:BufferPool.free_count": _OBSERVED,
    "repro.core.buffers:PooledBuffer.read":
        "the pooled buffer's use-after-release guard on the read side",
    "repro.core.context:UcrContext._drop_landing":
        "failure arm: a rendezvous READ that fails or is never posted",
    "repro.core.counters:SanitizerCounters.__init__": "sanitizer counters (SANITIZERS.md)",
    "repro.core.counters:SanitizerCounters.snapshot": "sanitizer counters (SANITIZERS.md)",
    "repro.core.endpoint:Endpoint.staged_count": _OBSERVED,
    "repro.core.runtime:UcrRuntime.ensure_srq": _SRQ,
    "repro.core.runtime:UcrRuntime._refill_srq": _SRQ,
    "repro.verbs.device:Hca.create_srq": _SRQ,
    "repro.verbs.srq:SharedReceiveQueue.__init__": _SRQ,
    "repro.verbs.srq:SharedReceiveQueue.__len__": _SRQ,
    "repro.verbs.srq:SharedReceiveQueue.post_recv": _SRQ,
    "repro.verbs.srq:SharedReceiveQueue.pop": _SRQ,
    "repro.verbs.srq:SharedReceiveQueue._signal_low": _SRQ,
    "repro.verbs.mr:ProtectionDomain.dereg_mr": "MR invalidation mid-READ, for transport faults",
    "repro.verbs.qp:QueuePair.responder_write":
        "the RC WRITE responder: verbs tests post WRITEs; a verbs reference needs it",
    "repro.verbs.qp:_fail": "failure arm of a raising responder stage",
    "repro.verbs.wr:Sge.gather": "the payload of a WR with no inline data",
    "repro.verbs.cq:CompletionQueue.poll": "poll-mode completions: verbs tests drain CQs with it",
    "repro.verbs.cq:CompletionQueue.__len__": _OBSERVED,
    "repro.verbs.cq:WorkCompletion.ok": _OBSERVED,
    **{f"repro.memcached.client:MemcachedClient.{op}": _CLIENT_OPS for op in (
        "add", "replace", "cas", "append", "prepend", "gets", "delete", "incr", "decr",
        "touch", "stats")},
    "repro.memcached.onesided.layout:unpack_header": _OBSERVED,
    "repro.memcached.protocol:encode_stats": _STATS,
    "repro.memcached.server:MemcachedServer.stats_dict": _STATS,
    "repro.memcached.slabs:SlabAllocator.stats": _STATS,
    **{f"repro.memcached.store:ItemStore.{name}": _STATS for name in (
        "stats_dict", "slab_stats_detail", "item_stats_detail", "settings_dict")},
    "repro.memcached.server:_Worker._drop": _TEARDOWN,
    "repro.sockets.api:Socket.close": _TEARDOWN,
    "repro.sockets.api:Socket.unwatch_readiness": _TEARDOWN,
    "repro.sockets.epoll:Epoll.unregister": _TEARDOWN,
    "repro.sockets.stack:Connection.enqueue_fin": _TEARDOWN,
    "repro.sockets.stack:Connection.deliver_eof": _TEARDOWN,
    "repro.sockets.stack:SocketStack.unregister_listener": _TEARDOWN,
    "repro.sockets.stack:SocketStack.drop_connection": _TEARDOWN,
    "repro.sockets.api:Socket.accept_pending": "epoll readiness of a listening socket",
    "repro.sockets.api:Socket.writable": "epoll's EPOLLOUT readiness",
    "repro.sockets.api:Socket.recv_exactly": "repro.testing's echo fixtures read through it",
    "repro.sockets.epoll:Epoll.__len__": _OBSERVED,
    "repro.sockets.stack:Connection.wait_sndbuf_space":
        "flow control: a send that fills the socket buffer waits here",
    "repro.sockets.params:StackParams.with_zcopy":
        "the SDP zero-copy ablation (tests/experiments/test_ablations.py)",
    "repro.sim.engine:Simulator.peek": _KERNEL,
    "repro.sim.engine:Simulator.step": _KERNEL,
    "repro.sim.events:Event.name": _KERNEL,
    "repro.sim.events:Event.processed": _KERNEL,
    "repro.sim.events:Event.ok": _KERNEL,
    "repro.sim.events:Event.exception": _KERNEL,
    "repro.sim.events:Timeout.name": _KERNEL,
    "repro.sim.process:Process.name": _KERNEL,
    "repro.sim.process:Process.is_alive": _OBSERVED,
    "repro.sim.resources:Request.name": _KERNEL,
    "repro.sim.resources:Resource.count": _KERNEL,
    "repro.sim.resources:Resource.queued": _KERNEL,
    "repro.sim.resources:Resource.request":
        "the born-processed event of the kernel contract tests",
    "repro.sim.trace:LatencyRecorder.__len__": _OBSERVED,
    "repro.sim.trace:LatencyRecorder.samples": "the determinism gates compare raw samples",
    "repro.telemetry.spans:Tracer.disable": "benchmarks/telemetry_overhead.py switches tracing off",
    **{f"repro.telemetry.histogram:{name}": "FixedBucketHistogram, kept for a metrics plane"
       for name in (
           "_edges", "FixedBucketHistogram.__init__", "FixedBucketHistogram.record",
           "FixedBucketHistogram.record_many", "FixedBucketHistogram.bucket_bounds",
           "FixedBucketHistogram.percentile", "FixedBucketHistogram.merge",
           "FixedBucketHistogram.to_dict", "FixedBucketHistogram.from_samples")},
    **{f"repro.memcached.{module}:{name}": "benchmarks/perf/micro.py builds its corpora with it"
       for module, name in (("protocol", "build_storage"), ("protocol", "build_get"),
                            ("protocol_binary", "build_set"), ("protocol_binary", "build_get"))},
}


# -- the universe --------------------------------------------------------------------


def _functions(code: CodeType, qualname: str = ""):
    """``(code, qualname)`` of every named function nested in *code* (class
    bodies are walked through, not yielded)."""
    for const in code.co_consts:
        if not isinstance(const, CodeType) or const.co_name.startswith("<"):
            continue
        name = f"{qualname}{const.co_name}"
        if const.co_flags & CO_OPTIMIZED:
            yield const, name
            yield from _functions(const, f"{name}.<locals>.")
        else:
            yield from _functions(const, f"{name}.")


def _module_of(path: str) -> str:
    rel = os.path.relpath(path, os.path.join(ROOT, "src"))[: -len(".py")]
    parts = rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def universe() -> dict[tuple, dict]:
    """``(path, first line, name)`` -> where / module / qualname / body lines
    of every named function under ``src/repro``."""
    found: dict[tuple, dict] = {}
    for folder, _dirs, names in sorted(os.walk(PACKAGE)):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as source:
                module_code = compile(source.read(), path, "exec")
            module = _module_of(path)
            for code, qualname in _functions(module_code):
                lines = {line for _, _, line in code.co_lines() if line is not None}
                if len(lines) > 1:  # else a one-liner: its def line *is* its body
                    lines.discard(code.co_firstlineno)
                found[(path, code.co_firstlineno, code.co_name)] = {
                    "where": f"{os.path.relpath(path, ROOT)}:{code.co_firstlineno}",
                    "module": module,
                    "qualname": qualname,
                    "lines": len(lines),
                }
    return found


def reason_for(entry: dict) -> "str | None":
    """The kept reason of an uncalled function, or ``None`` (unmarked)."""
    mark = KEPT.get(f"{entry['module']}:{entry['qualname']}")
    if mark is not None:
        return mark
    for prefix, why in KEPT_MODULES.items():
        if entry["module"] == prefix or entry["module"].startswith(prefix + "."):
            return why
    if entry["qualname"].rsplit(".", 1)[-1] == "__repr__":
        return "__repr__: read by people at a debugger or in a failure message"
    return None


def stale_marks(found: dict[tuple, dict]) -> list[str]:
    """Marks that name no function (or no module) under ``src/repro``."""
    names = {f"{e['module']}:{e['qualname']}" for e in found.values()}
    modules = {e["module"] for e in found.values()}
    stale = [mark for mark in KEPT if mark not in names]
    stale += [
        prefix for prefix in KEPT_MODULES
        if not any(m == prefix or m.startswith(prefix + ".") for m in modules)
    ]
    return stale


# -- the entry points ----------------------------------------------------------------


def _cli(main, argv: list[str]):
    def run() -> None:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        if code not in (0, None):
            raise RuntimeError(f"exited {code}")
    return run


def _checked(run):
    def thunk() -> None:
        result = run()
        if not result["correct"]:
            raise RuntimeError(f"not correct: {result['errors']}")
    return thunk


def entry_points(scratch: str) -> list[tuple[str, object]]:
    """``(label, thunk)`` for every entry point CI runs, in order."""
    from repro.check.cli import main as check
    from repro.experiments.runner import main as experiments
    from repro.lint.engine import main as lint
    from repro.telemetry.cli import main as trace

    sys.path.insert(0, PERF)
    import loadgen
    import measure
    import micro

    measure.OUT_DIR = Path(scratch) / "perf-out"
    micro.ROUNDS = 1
    src, tests = os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")
    dump = os.path.join(scratch, "fuzz-out")
    trace_file = os.path.join(scratch, "trace.json")
    three = ["--config", "UCR-IB", "--config", "SDP/bin", "--config", "UCR-1S"]
    check_lines = [
        ["fuzz", "--seed", "1", "--seeds", "2", "--ops", "60", "--out", dump],
        ["run", "--chaos"],
        ["run", "--ops", "200", "--sequential-ops", "60", *three],
        ["run", "--seed", "1", "--config", "UCR-1S", "--pipeline-depth", "1"],
        ["fuzz", "--pressure", "--seed", "1", "--seeds", "2", "--ops", "120", "--out", dump],
        ["run", "--pressure", "--seed", "7", "--ops", "240", "--sequential-ops", "120",
         *three],
        ["fuzz", "--lease", "--zipf", "--seed", "1", "--seeds", "2", "--ops", "80",
         "--out", dump],
        ["fuzz", "--lease", "--zipf", "--pressure", "--seed", "1", "--seeds", "2",
         "--ops", "80", "--out", dump],
    ]
    points: list[tuple[str, object]] = [
        ("repro-experiments --fast", _cli(experiments, ["--fast"])),
    ]
    points += [(f"repro-check {' '.join(a)}", _cli(check, a)) for a in check_lines]
    points += [
        ("repro-lint", _cli(lint, [src, tests])),
        ("repro-lint --flow", _cli(lint, ["--flow", "--format", "sarif", "--output",
                                          os.path.join(scratch, "lint.sarif"), src, tests])),
        ("repro-trace run", _cli(trace, ["run", "--transport", "UCR-IB", "--size", "4096",
                                         "--ops", "3", "-o", trace_file])),
        ("repro-trace view", _cli(trace, ["view", trace_file])),
    ]
    for name in loadgen.WORKLOADS:
        points.append((f"perf {name} (end to end)",
                       _checked(lambda n=name: measure.end_to_end(n, 1, 0.0, scale=0.05))))
        points.append((f"perf {name} (per layer)",
                       _checked(lambda n=name: measure.per_layer(n, 1, scale=0.05))))
    points.append(("perf micro.py", micro.run_all))
    return points


# -- main ----------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default=REPORT, help="report path")
    args = parser.parse_args(argv)
    found = universe()
    stale = stale_marks(found)
    if stale:
        sys.settrace(None)
        print("kept marks that name nothing under src/repro:", *stale, sep="\n  ")
        return 1
    labels = []
    with tempfile.TemporaryDirectory() as scratch:
        for label, thunk in entry_points(scratch):
            print(f"running {label} ...", file=sys.stderr, flush=True)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    thunk()
            except BaseException:  # any failure, SystemExit included, fails the tool
                sys.settrace(None)
                traceback.print_exc()
                print(f"entry point failed: {label}", file=sys.stderr)
                return 1
            labels.append(label)
    sys.settrace(None)

    called = {
        (os.path.abspath(code.co_filename), code.co_firstlineno, code.co_name)
        for code in _called.values()
    }
    kept, unmarked = [], []
    for key in sorted(found):
        if key in called:
            continue
        entry = dict(found[key])
        why = reason_for(entry)
        if why is None:
            unmarked.append(entry)
        else:
            entry["reason"] = why
            kept.append(entry)
    report = {
        "what": "named functions under src/repro that no CI entry point calls",
        "entry_points": labels,
        "functions": len(found),
        "called": len(found) - len(kept) - len(unmarked),
        "kept": len(kept),
        "kept_lines": sum(e["lines"] for e in kept),
        "unmarked": len(unmarked),
        "unmarked_lines": sum(e["lines"] for e in unmarked),
        "kept_functions": kept,
        "unmarked_functions": unmarked,
    }
    with open(args.output, "w", encoding="utf-8") as out:
        json.dump(report, out, indent=1)
        out.write("\n")
    for entry in unmarked:
        print(f"  {entry['where']} {entry['qualname']} ({entry['lines']} lines)")
    print(f"{report['functions']} functions: {report['called']} called by an entry point, "
          f"{report['kept']} kept ({report['kept_lines']} lines), "
          f"{report['unmarked']} unmarked ({report['unmarked_lines']} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
