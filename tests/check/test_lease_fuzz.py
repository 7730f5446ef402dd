"""Lease-mode differential fuzz: getl/setl against the oracle mirror,
Zipf hot keys, pressure composition, and the pinned lease mutation."""

import pytest

from repro.check.differential import (
    CONFIGS,
    PRESSURE_STORE_CONFIG,
    differential_run,
    replay,
)
from repro.check.generate import Step, generate_commands
from repro.check.shrink import shrink_commands

UCR = CONFIGS[0]
SDP_TEXT = CONFIGS[1]
SDP_BIN = CONFIGS[2]
ONESIDED = CONFIGS[-1]

#: The pinned detection seed for the serve-stale-past-deadline mutation:
#: its sequence sets a short-TTL key, sleeps past exptime plus the whole
#: stale window, then reads it back with a stale-tolerant getl.
PINNED_SEED = 900
MUTATION = "lease-serve-stale-past-deadline"


def test_lease_generator_is_deterministic_and_opt_in():
    a = generate_commands(7, 80, lease=True)
    assert a == generate_commands(7, 80, lease=True)
    assert any(c.op in ("getl", "setl") for c in a)
    # The default mode is bit-identical to what pre-lease seeds produced:
    # no getl/setl, short sleeps, the old expiry rate.
    plain = generate_commands(7, 80)
    assert all(c.op not in ("getl", "setl") for c in plain)
    assert all(c.sleep_s <= 4 for c in plain if c.op == "sleep")


def test_zipf_mode_concentrates_keys():
    cmds = generate_commands(5, 300, zipf=True, lease=True)
    keyed = [c.key for c in cmds if c.key and not c.key.startswith("k" * 20)]
    top = max(keyed.count(k) for k in set(keyed))
    # Zipf s=0.99 over 8 keys: the hottest key draws far above uniform.
    assert top > len(keyed) / 8 * 1.5


@pytest.mark.parametrize("config", [UCR, SDP_TEXT, SDP_BIN, ONESIDED],
                         ids=lambda c: c[0])
def test_lease_fuzz_matches_oracle(config):
    for seed in (1, 2, 3):
        result = replay(
            config, generate_commands(seed, 80, lease=True), seed=seed
        )
        assert result.ok, (config[0], seed, result.mismatches[:3])


def test_the_lease_conversation_reads_the_same_on_every_wire():
    """Every lease verdict, scripted, over all eight configs: won with a
    stale ghost, lost with and without one, a denied fill, the winner's
    fill, a fresh hit.  (The seeded sequences above seldom lose a lease
    or serve stale, and nothing else in tier-1 speaks ``getl`` in text.)"""
    script = [
        Step("set", ["k"], b"v1", flags=5, exptime=1),
        Step("sleep", sleep_s=2),
        Step("getl", ["k"], stale_ok=True),
        Step("getl", ["k"], stale_ok=True),
        Step("getl", ["k"], stale_ok=False),
        Step("setl", ["k"], b"v2", token_ref="bogus"),
        Step("setl", ["k"], b"v2"),
        Step("getl", ["k"], stale_ok=True),
    ]
    result = differential_run(script, configs=CONFIGS)
    assert result.ok, (result.disagreements, [r.mismatches for r in result.replays])
    assert result.replays[0].outcomes == [
        ["ok", True],
        ["sleep", 2],
        ["ok", ["won", "v1", "lease#0"]],
        ["ok", ["lost", "v1", None]],
        ["ok", ["lost", None, None]],
        ["ok", False],
        ["ok", True],
        ["ok", "v2"],
    ]


def test_lease_fuzz_under_pressure_matches_oracle():
    for seed in (1, 2):
        commands = generate_commands(
            seed, 80, lease=True, zipf=True, pressure=True
        )
        result = replay(
            UCR, commands, seed=seed, store_config=PRESSURE_STORE_CONFIG
        )
        assert result.ok, (seed, result.mismatches[:3])


def test_lease_mutation_is_caught_and_shrinks_small():
    """The anti-dogpile bug -- serving stale values past the stale-window
    deadline -- is detected and ddmin shrinks it to a tiny witness:
    set(ttl) -> sleep past ttl + window -> stale-tolerant getl."""
    commands = generate_commands(PINNED_SEED, 120, n_keys=4, lease=True)
    result = replay(UCR, commands, seed=PINNED_SEED,
                               mutation=MUTATION)
    assert not result.ok, f"{MUTATION} not detected"
    assert replay(UCR, commands, seed=PINNED_SEED).ok

    def failing(sub):
        return not replay(
            UCR, sub, seed=PINNED_SEED, mutation=MUTATION
        ).ok

    small = shrink_commands(commands, failing)
    assert 1 <= len(small) <= 10
    assert failing(small)
    # The witness must actually cross the deadline: an expiring store,
    # enough sleep, and a stale-tolerant lease read.
    assert any(c.op in ("set", "setl", "add") and c.exptime > 0 for c in small)
    assert any(c.op == "getl" and c.stale_ok for c in small)
    slept = sum(c.sleep_s for c in small)
    expiring = min(c.exptime for c in small if c.exptime > 0)
    assert slept > expiring + 10  # past exptime + stale_window_s


def test_lease_mutation_invisible_without_stale_reads():
    """The same mutation never fires on a lease-free sequence: the stale
    window only matters to stale-tolerant getl."""
    commands = generate_commands(PINNED_SEED, 120, n_keys=4)
    result = replay(UCR, commands, seed=PINNED_SEED,
                               mutation=MUTATION)
    assert result.ok
