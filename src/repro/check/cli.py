"""The ``repro-check`` CLI: model-based verification from the shell.

``repro-check run`` replays one seeded workload two ways -- a
sequential differential pass (every response compared with the oracle
and across all transport/protocol configurations) and a concurrent
4-client sharded pass whose recorded history goes to the
linearizability checker -- and prints a per-configuration verdict with
the deterministic history digest.  By default each configuration also
runs pipelined (``--pipeline-depth`` commands in flight): the same
differential pass replayed in depth-wide windows, plus a pipelined
concurrent pass.  ``repro-check fuzz`` sweeps seeds, shrinks any mismatch
it finds, and writes JSON repro cases; ``repro-check shrink`` re-minimizes
a previously dumped case.

Exit code 0 means every check passed; 1 means a mismatch, a
non-linearizable history, or a parser crash.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.check.differential import (
    CONFIGS,
    PRESSURE_STORE_CONFIG,
    differential_run,
    replay_concurrent,
)
from repro.check.generate import generate_commands
from repro.check.parser_fuzz import fuzz_parsers
from repro.check.shrink import dump_mismatch, load_commands, shrink_commands

_BY_NAME = {config[0]: config for config in CONFIGS}


def _select_configs(names: Optional[list[str]]) -> list:
    missing = [n for n in names or () if n not in _BY_NAME]
    if missing:
        raise SystemExit(
            f"unknown config(s) {missing}; choose from {sorted(_BY_NAME)}"
        )
    return [_BY_NAME[n] for n in names] if names else list(CONFIGS)


def _script(seed: int, n: int, pressure: bool, **modes) -> list:
    """The seeded script a CLI run replays (pressure widens the key pool)."""
    return generate_commands(
        seed, n, n_keys=32 if pressure else 8, pressure=pressure, **modes
    )


def _differential(
    steps: list, configs: list, seed: int, pressure: bool,
    mutation: Optional[str] = None, depth: int = 1,
):
    """One differential run (pressure: small store, tolerant comparator)."""
    return differential_run(
        steps,
        seed=seed,
        configs=configs,
        mutation=mutation,
        store_config=PRESSURE_STORE_CONFIG if pressure else None,
        tolerant=pressure,
        depth=depth,
    )


def _print_failures(diff) -> None:
    """Say what a failed differential run failed on (first five each)."""
    for replay in diff.replays:
        for index, actual, expected in replay.mismatches[:5]:
            print(
                f"  {replay.config} #{index}: client {actual!r}"
                f" != oracle {expected!r}"
            )
    for a, b, index in diff.disagreements[:5]:
        print(f"  {a} vs {b}: first disagreement at #{index}")


def _cmd_run(args: argparse.Namespace) -> int:
    configs = _select_configs(args.config)
    failed = False
    pressure = args.pressure

    commands = _script(args.seed, args.sequential_ops, pressure)
    diff = _differential(commands, configs, args.seed, pressure)
    status = "ok" if diff.ok else "MISMATCH"
    label = "pressure sequential" if pressure else "sequential"
    print(
        f"{label}: {len(commands)} commands x {len(configs)} configs "
        f"(seed {args.seed}): {status}"
    )
    if pressure:
        for replay in diff.replays:
            print(
                f"  {replay.config:<22} evictions {replay.evictions} "
                f"reclaimed {replay.reclaimed} oom {replay.oom_errors} "
                f"slab_moves {replay.slab_moves}"
            )
        print(f"  cross-config divergences tolerated: {len(diff.tolerated)}")
    if not diff.ok:
        failed = True
        _print_failures(diff)

    depth = args.pipeline_depth
    if depth > 1 and pressure:
        # Eviction adoption needs a single "before the oracle op" drain
        # point, and batched ops complete out of order: replay() rejects
        # the combination.  Pressure pipelining is covered by the
        # concurrent pass below instead.
        print("pipelined: skipped under --pressure")
    elif depth > 1:
        print(
            f"pipelined: {len(commands)} commands x {len(configs)} configs "
            f"(depth {depth}, seed {args.seed})"
        )
        piped = _differential(commands, configs, args.seed, pressure=False, depth=depth)
        for replay in piped.replays:
            print(f"  {replay.config:<22} {'ok' if replay.ok else 'MISMATCH'}")
        if not piped.ok:
            failed = True
            _print_failures(piped)

    print(
        f"concurrent: {args.clients} clients x {args.ops} ops over "
        f"{args.shards} shards (seed {args.seed}"
        + (", chaos)" if args.chaos else ")")
    )
    depths = [1] if depth <= 1 else [1, depth]
    for config in configs:
        for d in depths:
            result = replay_concurrent(
                config,
                seed=args.seed,
                n_clients=args.clients,
                n_servers=args.shards,
                n_ops=args.ops,
                n_keys=32 if pressure else 8,
                chaos=args.chaos,
                pipeline_depth=d,
                store_config=PRESSURE_STORE_CONFIG if pressure else None,
            )
            verdict = "linearizable" if result.ok else "NOT LINEARIZABLE"
            extra = (
                f"  evictions {result.evictions} oom {result.oom_errors} "
                f"evictable {len(result.check.evictable)}"
                if pressure
                else ""
            )
            print(
                f"  {result.config:<22} {result.n_records} ops "
                f"{verdict}  digest {result.digest[:16]}{extra}"
            )
            if not result.ok:
                failed = True
                for key, server, reason in result.check.failures[:3]:
                    print(f"    {reason}")
    return 1 if failed else 0


def _shrink_and_dump(
    commands: list,
    names: list[str],
    seed: int,
    mutation: Optional[str],
    pressure: bool,
    path: str,
) -> Optional[list]:
    """Shrink *commands* on the predicate that failed and dump the repro.

    *names* is one config -- its replay disagreed with its oracle -- or a
    pair whose replays each agree with their own oracle but not with each
    other.  :func:`differential_run` over just those configs is the
    predicate either way.  Returns the shrunk commands, or ``None`` (and
    writes nothing) when *commands* do not fail to begin with.
    """
    configs = [_BY_NAME[name] for name in names]

    def run(sub):
        return _differential(sub, configs, seed, pressure, mutation)

    if run(commands).ok:
        return None
    small = shrink_commands(commands, lambda sub: not run(sub).ok)
    diff = run(small)
    dump_mismatch(
        path, seed, names[0], small, diff.replays[0],
        mutation=mutation, pressure=pressure, versus=diff,
    )
    return small


def _cmd_fuzz(args: argparse.Namespace) -> int:
    configs = _select_configs(args.config)
    pressure = args.pressure
    failures = 0
    for seed in range(args.seed, args.seed + args.seeds):
        commands = _script(seed, args.ops, pressure, zipf=args.zipf, lease=args.lease)
        diff = _differential(commands, configs, seed, pressure, args.mutation)
        if diff.ok:
            note = ""
            if pressure:
                evictions = sum(r.evictions for r in diff.replays)
                ooms = sum(r.oom_errors for r in diff.replays)
                note = f", evictions {evictions}, oom {ooms}"
            print(f"seed {seed}: ok ({len(commands)} commands{note})")
            continue
        failures += 1
        bad = next((r for r in diff.replays if not r.ok), None)
        if bad is not None:
            names = [bad.config]
            print(f"seed {seed}: MISMATCH on {bad.config}; shrinking ...")
        else:
            # Every replay agrees with its own oracle: what failed is the
            # cross-config comparison, so that is what gets shrunk.
            a, b, index = diff.disagreements[0]
            names = [a, b]
            print(
                f"seed {seed}: MISMATCH between {a} and {b} at op #{index} "
                "(each agrees with its oracle); shrinking ..."
            )
        path = f"{args.out}/mismatch-seed{seed}.json"
        small = _shrink_and_dump(
            commands, names, seed, args.mutation, pressure, path
        )
        print(f"  {len(small)}-op repro written to {path}")
        for step in small:
            print(f"    {step.describe()}")

    parser_failures = fuzz_parsers(args.seed, n_cases=args.parser_cases)
    if parser_failures:
        failures += len(parser_failures)
        print(f"parser fuzz: {len(parser_failures)} failures")
        for line in parser_failures[:10]:
            print(f"  {line}")
    else:
        print(f"parser fuzz: {args.parser_cases} cases ok")
    return 1 if failures else 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    doc, commands = load_commands(args.repro_file)
    names = [doc["config"], *doc.get("versus", [])]
    unknown = [name for name in names if name not in _BY_NAME]
    if unknown:
        print(f"unknown config {unknown[0]!r} in {args.repro_file}", file=sys.stderr)
        return 1
    out = args.output or args.repro_file.replace(".json", "") + ".min.json"
    small = _shrink_and_dump(
        commands, names, doc.get("seed", 42), doc.get("mutation"),
        doc.get("pressure", False), out,
    )
    if small is None:
        print(f"{args.repro_file}: no longer fails ({len(commands)} commands) -- fixed?")
        return 0
    print(f"shrunk {len(commands)} -> {len(small)} commands; wrote {out}")
    for step in small:
        print(f"  {step.describe()}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-check`` argument parser (run / fuzz / shrink)."""
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Model-based verification for the memcached reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one seeded differential + linearizability pass")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--ops", type=int, default=500, help="concurrent ops total")
    run.add_argument("--sequential-ops", type=int, default=120)
    run.add_argument("--clients", type=int, default=4)
    run.add_argument("--shards", type=int, default=2)
    run.add_argument("--chaos", action="store_true", help="arm a seeded fault schedule")
    run.add_argument(
        "--pipeline-depth", type=int, default=4, metavar="N",
        help="also run pipelined variants with N in flight (1 disables)",
    )
    run.add_argument(
        "--config", action="append", metavar="NAME",
        help="restrict to a configuration (repeatable); default: all",
    )
    run.add_argument(
        "--pressure", action="store_true",
        help="memory-pressure mode: 2 MiB stores + slab-edge values "
        "(eviction-aware oracle, tolerant cross-config comparator)",
    )
    run.set_defaults(func=_cmd_run)

    fuzz = sub.add_parser("fuzz", help="sweep seeds; shrink and dump mismatches")
    fuzz.add_argument("--seed", type=int, default=1, help="first seed")
    fuzz.add_argument("--seeds", type=int, default=10, help="number of seeds")
    fuzz.add_argument("--ops", type=int, default=80, help="commands per seed")
    fuzz.add_argument("--parser-cases", type=int, default=200)
    fuzz.add_argument("--out", default=".repro-check", help="repro dump directory")
    fuzz.add_argument(
        "--mutation", default=None,
        help="TEST-ONLY: inject a named store bug (see MUTATIONS)",
    )
    fuzz.add_argument("--config", action="append", metavar="NAME")
    fuzz.add_argument(
        "--lease", action="store_true",
        help="lease mode: mix in getl/setl, longer sleeps and more "
        "expiring stores so sequences cross lease TTLs and stale windows",
    )
    fuzz.add_argument(
        "--zipf", action="store_true",
        help="Zipf-skewed key draws (hot-key mode) instead of uniform",
    )
    fuzz.add_argument(
        "--pressure", action="store_true",
        help="fuzz against 2 MiB stores with slab-edge values",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    shrink = sub.add_parser("shrink", help="re-minimize a dumped repro case")
    shrink.add_argument("repro_file")
    shrink.add_argument("-o", "--output", default=None)
    shrink.set_defaults(func=_cmd_shrink)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Console entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via repro-check
    raise SystemExit(main())
