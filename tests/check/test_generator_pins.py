"""The generator's RNG draw order is a contract: every seed ever quoted in
a commit message, a CI job or a repro dump must keep meaning the same
sequence.  Each pin is the SHA-256 of a representation-independent
projection of 150 generated steps -- only what a step *says* (and only
the fields its op reads), not how the class that carries it is laid out
-- so the carrier may be refactored freely and the pins still bind.
"""

import hashlib
import json

import pytest

from repro.check.generate import generate_commands

MODES = {
    "plain": {},
    "concurrent": {"concurrent": True},
    "pressure": {"pressure": True, "n_keys": 32},
    "lease+zipf": {"lease": True, "zipf": True},
    "lease+zipf+pressure": {"lease": True, "zipf": True, "pressure": True, "n_keys": 32},
    "no-expiry": {"with_expiry": False},
}

SEEDS = (1, 7, 202, 900)
N_STEPS = 150


def _projection(step) -> list:
    """What one generated step says, independent of its representation."""
    op = step.op
    row = [op, step.key, step.value.decode("latin-1"), step.flags,
           step.exptime, step.sleep_s]
    if op in ("incr", "decr"):
        row.append(step.delta)
    if op in ("cas", "setl"):
        row.append(step.token_ref)
    if op == "getl":
        row.append(step.stale_ok)
    return row


def _pin(mode: str, seed: int) -> str:
    steps = generate_commands(seed, N_STEPS, **MODES[mode])
    rows = [_projection(step) for step in steps]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


#: Recorded at 7ca847e, before the generated step carried an IR Command.
PINS = {
    ("plain", 1): "63fa1f619fcc7a3e7df8a3e482f73d28ae55d65a72faaf9198b6b2391fd8f373",
    ("plain", 7): "03326dcb564a8d88164ca46ca0f1310003d32d4fbf2c8de98feeb9201267ee62",
    ("plain", 202): "fbfa452392d5d48eb1cd86dab7747ca5bfb1908fd31cc3e3276dde3e2638893f",
    ("plain", 900): "ab91c6f902ff890b237ebd52569566e1bebe229c7d109992c6693768f49bc3b4",
    ("concurrent", 1): "8d3d278688b86bb7b516a023a20f09428cf68be61e536c500e63bba6dd06cf9a",
    ("concurrent", 7): "5c64ccc08d65834ed2954dd1206c39f7efb6d8e6094e6961a3e79cb572c5946b",
    ("concurrent", 202): "8fb7508e49235558e0249f7a49e4b9badd76b72cf05f5d593eb129e588ed06b3",
    ("concurrent", 900): "0e308984d1f6d497e40798755e0870cf38623c4bf5558545338070d8bd901671",
    ("pressure", 1): "bee7aa348168595204a2fd94400ac8014f872bb1585547635345d1247c85924e",
    ("pressure", 7): "90ca83fb5524b3f8f0d5e1cf4a86415ff2aad2ac8a642328ec4e6f0093cd2566",
    ("pressure", 202): "aca4075dafa652c28ee58669388d9998e10f2903a2d6a9810699e23b8d6adee2",
    ("pressure", 900): "b23ad3cf4c67c3b095d6a9e8b0a54682136062923d431b34fe9c7156f066c46a",
    ("lease+zipf", 1): "d00b4bd6a1dc07f54ce98a52388cc8edc4e76ddcc24fd81b07698f90d663bc03",
    ("lease+zipf", 7): "1f9e1f32c50a1b25932cb7f91c3c3469a61a147d88d5d2b596e898386044a13a",
    ("lease+zipf", 202): "2decc1ce0ac393e6dd9550454d2f378f34e36565acc442696318baf0d704c3f0",
    ("lease+zipf", 900): "22f000b84787df38f2300f30dcc05b3723deb6c4ccb3ff8d103486774dc70503",
    ("lease+zipf+pressure", 1): "4d7b79799a4633281ae168ffbc4fe2d9df56b9a6678194faa4447b0e2d376fb2",
    ("lease+zipf+pressure", 7): "f18e871235486c696c95dfd713e01bfa6781b8c372f6f8abbd3addbafa1dab79",
    ("lease+zipf+pressure", 202): "deb2714b1d20a0c2ecaed632ff84e1190e71a79df77be665e763a9f7bfead5a7",
    ("lease+zipf+pressure", 900): "1ec5f460f7a74d896e84d075f3794e2ae24faf27a2fa8be9f0052df5935288d5",
    ("no-expiry", 1): "57484d55c3a78b18886e5cc9aa9b1821fd94bbfaf45306c1ac860f15ff0d7a0e",
    ("no-expiry", 7): "7e8d1058104c12484fcf02a8e0d8995b21caa402db6a8aef7d395b7a57058ece",
    ("no-expiry", 202): "efde345af7f6252e133081ffd1f0bec34b3a89d6763e8a8c859c345407cf8c12",
    ("no-expiry", 900): "19e8bccd4c5f4e6136cf8d2eca12bc985d0c76cdc81d641092b75d078eb848ad",
}


def test_every_mode_and_seed_is_pinned():
    assert set(PINS) == {(mode, seed) for mode in MODES for seed in SEEDS}


@pytest.mark.parametrize("mode,seed", sorted(PINS), ids=lambda v: str(v))
def test_generator_pin(mode, seed):
    assert _pin(mode, seed) == PINS[(mode, seed)]


if __name__ == "__main__":  # re-record: python -m tests.check.test_generator_pins
    for mode in MODES:
        for seed in SEEDS:
            print(f'    ("{mode}", {seed}): "{_pin(mode, seed)}",')
