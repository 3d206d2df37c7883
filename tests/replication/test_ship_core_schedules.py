"""Seeded schedule exploration of the ship core, with no threads.

Each seed draws a broker shape (backups, virtual logs, pipeline depth,
credit window, batch cap) and a schedule: appends, acks in any order,
refused calls, backups dying with or without a failover plane claiming
them, the shell's thread pumping when woken, kicks, and calls answered
inside their own send (the synchronous driver), some of which kick
again from the ack. It drives the sans-IO :class:`ShipCore` through the
schedule on a real broker core. The oracle:

* durability is applied in issue order per virtual log: each log's
  durable chunks are a prefix of its appended chunks;
* every produce resolves exactly once, acked or failed with a typed
  error, and the broker completes each request at most once;
* the only ship failures are the injected ones;
* at quiescence no flight, credit or owed call remains.

A failing seed prints a one-line repro.
"""

import random

import pytest

from tests.replication.ship_harness import Harness, Injected, Runaway

SEEDS = 2000
NODES = 6
STREAMLETS = 3


def explore(seed):
    rng = random.Random(seed)
    h = Harness(
        nodes=NODES,
        replication_factor=rng.choice((2, 3)),
        vlogs=rng.choice((1, 2, 3)),
        streamlets=STREAMLETS,
        pipeline_depth=rng.choice((1, 2, 3)),
        window=rng.choice((0, 0, 250, 600)),
        max_batch_chunks=rng.choice((0, 0, 1, 2)),
    )
    manager = h.broker.manager
    appended = {}  # vlog key -> [(streamlet, chunk_seq)] in append order
    durable = {}
    apply = manager.on_durable

    def on_durable(stored):
        key = manager.policy.vlog_key(stored.stream_id, stored.streamlet_id, 0)
        got = durable.setdefault(key, [])
        got.append((stored.streamlet_id, stored.chunk_seq))
        assert got == appended[key][: len(got)], f"vlog {key} applied out of issue order"
        apply(stored)

    manager.on_durable = on_durable
    wake = h.wake

    def wake_or_kick():
        # A kick re-entered from an ack callback finds the pump busy.
        if h.answer_inline and rng.random() < 0.5:
            h.core.pump()
        else:
            wake()

    h.wake = wake_or_kick
    seqs = [0] * STREAMLETS
    for _ in range(rng.randint(8, 40)):
        roll = rng.random()
        if roll < 0.4:
            streamlet = rng.randrange(STREAMLETS)
            chunk_seqs = list(range(seqs[streamlet], seqs[streamlet] + rng.choice((1, 1, 2))))
            seqs[streamlet] += len(chunk_seqs)
            key = manager.policy.vlog_key(0, streamlet, 0)
            appended.setdefault(key, []).extend((streamlet, s) for s in chunk_seqs)
            h.answer_inline = rng.random() < 0.2
            h.produce(*chunk_seqs, streamlet=streamlet)
            h.answer_inline = False
        elif roll < 0.75 and h.parked:
            entry = rng.choice(h.parked)
            refused = entry[1] in h.dead or rng.random() < 0.1
            h.ack([entry], Injected(f"call to {entry[1]} refused") if refused else None)
        elif roll < 0.85 and h.wakes:
            h.wakes = 0
            h.core.pump()  # the shell's thread
        elif roll < 0.9 and len(h.dead) < 2:
            node = rng.choice([n for n in range(1, NODES) if n not in h.dead])
            h.dead.add(node)
            if rng.random() < 0.5:
                h.claimed.add(node)
        else:
            h.core.pump()

    # Quiescence: answer every call (a dead node's fail), pump when woken.
    for _ in range(50):
        while h.parked:
            entry = h.parked[0]
            h.ack([entry], Injected("dead") if entry[1] in h.dead else None)
        if not h.wakes:
            break
        h.wakes = 0
        h.core.pump()
    else:
        raise AssertionError("still waking after 50 rounds of answers")
    h.assert_quiescent()
    assert h.unresolved() == {}, "produces left unresolved"
    assert h.core.error is None
    for error in h.ship_errors:
        assert isinstance(error, Injected), f"ship failure not injected: {error!r}"


def test_seeded_schedules_keep_the_ship_core_invariants():
    for seed in range(SEEDS):
        try:
            explore(seed)
        except (Exception, Runaway) as exc:
            pytest.fail(
                f"seed {seed}: {exc!r}\n  repro: PYTHONPATH=src python -c "
                f"'from tests.replication.test_ship_core_schedules import explore; "
                f"explore({seed})'"
            )
