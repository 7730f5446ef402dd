"""Malformed-frame fuzzing of the two wire parsers."""

from __future__ import annotations

from repro.memcached import protocol, protocol_binary as binp
from repro.memcached.command import Command
from repro.memcached.errors import ProtocolError
from repro.sim.rng import RngStream


def fuzz_parsers(seed: int, n_cases: int = 200) -> list[str]:
    """Throw mutated and garbage frames at both wire parsers.

    The property is crash-freedom and determinism, not agreement (the
    framings are different by design): every feed either yields
    messages or raises :class:`ProtocolError`; any other exception, or
    a chunking-dependent result -- including which requests came out
    before a parse error -- is reported.  Returns failure strings
    (empty = pass).
    """
    rng = RngStream(seed, "check.fuzz-parsers")
    seeds_text = [
        b"set key0 0 0 5\r\nhello\r\n",
        b"get key0 key1\r\n",
        b"incr key0 7\r\n",
        b"delete key0\r\nstats\r\n",
    ]
    seeds_bin = [
        binp.encode_command(Command("set", ["key0"], value=b"hello")),
        binp.encode_command(Command("get", ["key0"])),
        binp.encode_command(Command("incr", ["key0"], delta=3)),
        binp.encode_command(Command("flush_all", exptime=2)),
    ]
    failures: list[str] = []

    def one_feed(parser_cls, blob: bytes, chunk: int):
        """Feed *blob* in *chunk*-byte slices, then nothing (a parser holds
        a parse error back behind the requests completed before it);
        classify the outcome."""
        parser = parser_cls()
        out = []
        try:
            for i in range(0, len(blob), chunk):
                out.extend(parser.feed(blob[i : i + chunk]))
            parser.feed(b"")
        except ProtocolError:
            return f"{out!r} then protocol-error"
        except Exception as exc:  # noqa: BLE001 - the property under test
            return f"CRASH {type(exc).__name__}: {exc}"
        return repr(out)

    for case in range(n_cases):
        base = bytearray(rng.choice(seeds_text if case % 2 else seeds_bin))
        for _ in range(rng.randint(1, 6)):
            mutation = rng.randint(0, 3)
            if mutation == 0 and base:
                base[rng.randint(0, len(base))] = rng.randint(0, 256)
            elif mutation == 1:
                base.extend(rng.random_bytes(rng.randint(1, 16)))
            elif mutation == 2 and len(base) > 1:
                del base[rng.randint(0, len(base)) :]
        blob = bytes(base)
        for parser_cls in (protocol.RequestParser, binp.BinaryParser):
            whole = one_feed(parser_cls, blob, len(blob) or 1)
            byte_wise = one_feed(parser_cls, blob, 1)
            if whole.startswith("CRASH"):
                failures.append(f"{parser_cls.__name__} case {case}: {whole}")
            elif byte_wise.startswith("CRASH"):
                failures.append(f"{parser_cls.__name__} case {case} (chunked): {byte_wise}")
            elif whole != byte_wise:
                # Chunking must change neither the parse nor what was
                # parsed before a parse error.
                failures.append(
                    f"{parser_cls.__name__} case {case}: chunked parse differs"
                )
    return failures
