"""Chaos layer: seeded determinism + reliability over the live framing.

Three families:

* determinism — the injected fault sequence is a pure function of
  ``(seed, link)``, so two injectors built alike agree verdict-for-
  verdict, and corruption never touches the stream header;
* one lottery — the live injector and the simulated fault plane are the
  same draw over differently named streams, and the first verdicts of
  each are pinned as literals (stream names and draw order are what a
  seed *means*);
* properties (hypothesis) — an arbitrary lossy pipe carrying the real
  :class:`~repro.network.reliable.SendWindow` (its timers on a
  :class:`~repro.sim.Simulator`) to a
  :class:`~repro.network.reliable.ReceiveLedger`, speaking the real
  stream framing, still delivers every payload exactly once and in
  order.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.chaos import NOMINAL_ONE_WAY, ChaosConfig, ChaosInjector
from repro.live.transport import (
    ENVELOPE_CRC_OFFSET,
    StreamDecoder,
    done_frame,
    wrap_envelope,
)
from repro.network.faults import FaultLottery, FaultPlane, FaultPlaneStats
from repro.network.reliable import (
    ReceiveLedger,
    ReliabilityConfig,
    SendWindow,
    TransportStats,
)
from repro.sim import Simulator
from repro.util.errors import ConfigurationError
from repro.util.rng import SeedSequenceRegistry


def _verdict_tuple(v):
    return (v.drop, v.corrupt, v.duplicate, v.delay, v.dup_delay)


class TestDeterminism:
    CONFIG = {"drop": 0.2, "corrupt": 0.1, "duplicate": 0.1, "jitter": 0.001,
              "seed": 42, "disconnect": {"every": 7}}

    def test_same_seed_same_link_same_sequence(self):
        a = ChaosInjector(ChaosConfig.from_spec(self.CONFIG), "n0->n1")
        b = ChaosInjector(ChaosConfig.from_spec(self.CONFIG), "n0->n1")
        seq_a = [(_verdict_tuple(a.judge()), a.should_disconnect(), a.judge_ack())
                 for _ in range(300)]
        seq_b = [(_verdict_tuple(b.judge()), b.should_disconnect(), b.judge_ack())
                 for _ in range(300)]
        assert seq_a == seq_b

    def test_links_draw_independent_sequences(self):
        config = ChaosConfig.from_spec(self.CONFIG)
        a = ChaosInjector(config, "n0->n1")
        b = ChaosInjector(config, "n1->n0")
        seq_a = [_verdict_tuple(a.judge()) for _ in range(300)]
        seq_b = [_verdict_tuple(b.judge()) for _ in range(300)]
        assert seq_a != seq_b

    def test_different_seed_different_sequence(self):
        spec = dict(self.CONFIG)
        a = ChaosInjector(ChaosConfig.from_spec(spec), "n0->n1")
        spec["seed"] = 43
        b = ChaosInjector(ChaosConfig.from_spec(spec), "n0->n1")
        seq_a = [_verdict_tuple(a.judge()) for _ in range(300)]
        seq_b = [_verdict_tuple(b.judge()) for _ in range(300)]
        assert seq_a != seq_b

    def test_disconnect_cadence(self):
        config = ChaosConfig.from_spec({"disconnect": {"every": 5}})
        injector = ChaosInjector(config, "n0->n1")
        pattern = [injector.should_disconnect() for _ in range(15)]
        assert pattern == [False] * 4 + [True] + [False] * 4 + [True] + [False] * 4 + [True]
        assert injector.stats.disconnects == 3


#: ``(drop, corrupt, duplicate, delay, dup_delay), ack_lost`` for the first
#: 8 draws at seed 42 under ``TestDeterminism.CONFIG``'s spec, captured
#: at the commit before the two lotteries became one.
_GOLDEN = {
    "chaos:n0->n1": [
        ((False, False, False, 2.543779302258649e-05, 0.0), False),
        ((False, False, False, 0.0029171420598032988, 0.0), False),
        ((False, False, False, 0.0013229051856315309, 0.0), False),
        ((False, True, True, 0.0016535877720068072, 0.0015463319202959245), False),
        ((False, False, False, 0.00011229091941835731, 0.0), False),
        ((False, False, False, 0.00017489792439265013, 0.0), False),
        ((False, False, False, 0.0013158980688595804, 0.0), False),
        ((False, False, False, 0.002999159389336795, 0.0), False),
    ],
    "faults:n0.mx00": [
        ((True, True, False, 0.0001698782354719064, 0.0), True),
        ((False, False, True, 0.00044170601139921706, 0.0010058905908271899), True),
        ((False, False, False, 0.0003282271321987084, 0.0), False),
        ((False, False, False, 0.0005285046823748667, 0.0), False),
        ((True, False, False, 0.0017068582769881565, 0.0), False),
        ((False, False, False, 0.00031119450173010775, 0.0), False),
        ((False, False, False, 0.0008511094117793881, 0.0), False),
        ((False, False, False, 0.0019458012840038155, 0.0), True),
    ],
}


class TestOneLottery:
    """Both planes' fault decisions are one implementation."""

    CONFIG = ChaosConfig.from_spec(TestDeterminism.CONFIG)

    def _carrier(self, stream):
        """``judge, judge_ack`` of the plane that draws from ``stream``."""
        if stream.startswith("chaos:"):
            injector = ChaosInjector(self.CONFIG, stream.removeprefix("chaos:"))
            return injector.judge, injector.judge_ack, injector.stats
        plane = FaultPlane(self.CONFIG.spec, seed=self.CONFIG.seed)
        nic = SimpleNamespace(name=stream.removeprefix("faults:"), network=None)
        return (lambda: plane.judge(nic)), (lambda: plane.judge_ack(nic)), plane.stats

    @pytest.mark.parametrize("stream", sorted(_GOLDEN))
    def test_first_verdicts_are_pinned(self, stream):
        judge, judge_ack, _ = self._carrier(stream)
        drawn = [(_verdict_tuple(judge()), judge_ack()) for _ in range(8)]
        assert drawn == _GOLDEN[stream]

    @pytest.mark.parametrize("stream", sorted(_GOLDEN))
    def test_each_plane_is_the_bare_lottery_on_its_streams(self, stream):
        """A plane adds stream *names* to the shared draw and nothing
        else — so the two planes, given the same seed and the same
        stream names, would decide alike."""
        judge, judge_ack, stats = self._carrier(stream)
        rng = SeedSequenceRegistry(self.CONFIG.seed)
        prefix, _, name = stream.partition(":")
        bare = FaultLottery(
            self.CONFIG.spec,
            rng.stream(stream),
            rng.stream(f"{prefix}:ack:{name}"),
            FaultPlaneStats(),
        )
        for _ in range(300):
            assert _verdict_tuple(judge()) == _verdict_tuple(bare.judge())
            assert judge_ack() == bare.judge_ack()
        for key in ("judged", "drops", "corruptions", "duplicates", "delayed"):
            assert getattr(stats, key) == getattr(bare.stats, key)
        assert bare.stats.drops > 0 and bare.stats.delayed > 0


class TestCorruption:
    def test_corrupt_preserves_header_and_flips_one_payload_byte(self):
        config = ChaosConfig.from_spec({"corrupt": 1.0, "seed": 3})
        injector = ChaosInjector(config, "n0->n1")
        record = wrap_envelope(done_frame("n0", "n1", [(1, 0.0)]), seq=9)
        mutated = injector.corrupt_record(record)
        assert len(mutated) == len(record)
        assert mutated[:ENVELOPE_CRC_OFFSET] == record[:ENVELOPE_CRC_OFFSET]
        diffs = [i for i in range(len(record)) if mutated[i] != record[i]]
        assert len(diffs) == 1 and diffs[0] >= ENVELOPE_CRC_OFFSET

    def test_corrupt_record_is_detected_not_fatal(self):
        config = ChaosConfig.from_spec({"corrupt": 1.0, "seed": 3})
        injector = ChaosInjector(config, "n0->n1")
        record = wrap_envelope(done_frame("n0", "n1", [(1, 0.0)]), seq=9)
        decoder = StreamDecoder(tolerant=True)
        out = decoder.feed(injector.corrupt_record(record))
        assert out == []
        assert decoder.corrupt_frames == 1
        # The stream stays in sync: the next clean record decodes fine.
        (seq, frame), = decoder.feed(record)
        assert seq == 9

    def test_too_short_record_returned_unchanged(self):
        config = ChaosConfig.from_spec({"corrupt": 1.0})
        injector = ChaosInjector(config, "n0->n1")
        assert injector.corrupt_record(b"tiny") == b"tiny"


class TestConfigParsing:
    def test_sim_only_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig.from_spec({"per_nic": {"n0.mx00": {"drop": 0.1}}})
        with pytest.raises(ConfigurationError):
            ChaosConfig.from_spec({"per_network": {"mx": {"drop": 0.1}}})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig.from_spec({"dropp": 0.1})
        with pytest.raises(ConfigurationError):
            ChaosConfig.from_spec({"disconnect": {"evry": 3}})
        with pytest.raises(ConfigurationError):
            ChaosConfig.from_spec({"die": {"rank": 0, "afterr": 1}})
        with pytest.raises(ConfigurationError):
            ChaosConfig.from_spec({"heartbeat": {"intervall": 0.1}})

    def test_die_requires_rank(self):
        with pytest.raises(ConfigurationError):
            ChaosConfig.from_spec({"die": {"after": 1.0}})

    def test_die_signal_names(self):
        config = ChaosConfig.from_spec({"die": {"rank": 1, "signal": "TERM"}})
        import signal
        assert config.die is not None and config.die.signal == int(signal.SIGTERM)
        with pytest.raises(ConfigurationError):
            ChaosConfig.from_spec({"die": {"rank": 1, "signal": "NOPE"}})

    def test_wire_active_only_for_wire_faults(self):
        assert not ChaosConfig.from_spec({"die": {"rank": 0}}).wire_active
        assert not ChaosConfig.from_spec(
            {"outages": [{"at": 0.1, "nic": "n0.mx00"}]}
        ).wire_active
        assert ChaosConfig.from_spec({"drop": 0.01}).wire_active
        assert ChaosConfig.from_spec({"disconnect": {"every": 10}}).wire_active

    def test_rto_backoff_monotonic(self):
        config = ChaosConfig.from_spec({"drop": 0.1})
        rtos = [config.reliability.rto_for(NOMINAL_ONE_WAY, a) for a in range(5)]
        assert all(b >= a for a, b in zip(rtos, rtos[1:]))
        assert rtos[0] > 0

    def test_dead_after(self):
        config = ChaosConfig.from_spec(
            {"heartbeat": {"interval": 0.5, "misses": 4}}
        )
        assert config.dead_after == pytest.approx(2.0)


# ----------------------------------------------------------------------
# properties: retransmit + dedup over the real stream framing
# ----------------------------------------------------------------------

def _payload_id(frame) -> int:
    return int(frame.meta["items"][0][0])


def _run_pipe(n, write, ack_lost=lambda: False, shuffle=lambda wire: None, chunk=1 << 16):
    """Send ``n`` DONE frames through a lossy byte pipe; returns what
    the far ledger released, and its decoder.

    The real send window runs its timers on a :class:`Simulator` (a
    constant 1 s RTO).  Its carrier puts on the wire whatever records
    ``write(seq, frame)`` returns for the attempt; the far end reads
    the wire once per RTO, half a period out of phase, and ACKs every
    record it sees — duplicates too — unless ``ack_lost()``.
    """
    sim = Simulator()
    stats = TransportStats()
    wire: list[bytes] = []

    def carry(seq, frame, attempt):
        wire.extend(write(seq, frame))
        return True

    window = SendWindow(
        sim,
        ReliabilityConfig(max_retries=10 * n + 50, rto=1.0, backoff=1.0),
        carry,
        lambda seq, frame, attempts: pytest.fail(
            f"seq {seq} still unacknowledged after {attempts} attempts"
        ),
        stats,
    )
    ledger = ReceiveLedger(stats)
    decoder = StreamDecoder(tolerant=True)
    delivered: list = []

    def read():
        shuffle(wire)
        stream = b"".join(wire)
        wire.clear()
        for start in range(0, len(stream), chunk):
            for seq, frame in decoder.feed(stream[start : start + chunk]):
                assert seq is not None
                delivered.extend(ledger.admit(seq, frame) or ())
                if not ack_lost():  # the sender just retransmits more
                    window.ack(seq)
        if window.in_flight:
            sim.schedule(1.0, read)

    sim.schedule(0.5, read)
    for i in range(n):
        window.send(done_frame("n0", "n1", [(i, 0.0)]), NOMINAL_ONE_WAY)
    sim.run()
    assert window.in_flight == 0 and sim.pending_events == 0
    assert stats.delivered == len(delivered)
    return delivered, decoder


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    drop=st.floats(0.0, 0.6),
    duplicate=st.floats(0.0, 0.5),
    reorder=st.floats(0.0, 1.0),
    chunk=st.integers(1, 48),
)
@settings(max_examples=60, deadline=None)
def test_exactly_once_in_order_over_live_framing(
    seed, n, drop, duplicate, reorder, chunk
):
    """Any drop/duplicate/reorder pattern on the wire, any read
    chunking: the (window, ledger) pair still releases every payload
    exactly once, in sequence order."""
    rng = random.Random(seed)

    def write(seq, frame):
        if rng.random() < drop:
            return []
        copies = 2 if rng.random() < duplicate else 1
        return [wrap_envelope(frame, seq)] * copies

    def shuffle(wire):
        if rng.random() < reorder:
            rng.shuffle(wire)

    delivered, decoder = _run_pipe(
        n, write, ack_lost=lambda: rng.random() < drop, shuffle=shuffle, chunk=chunk
    )
    assert [_payload_id(f) for f in delivered] == list(range(n))
    assert decoder.corrupt_frames == 0


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 20),
    corrupt=st.floats(0.0, 0.7),
)
@settings(max_examples=40, deadline=None)
def test_corruption_is_always_detected_never_delivered(seed, n, corrupt):
    """Injected byte flips are caught by the frame CRC: the tolerant
    decoder skips them, the retransmit path re-sends, and the delivered
    payloads are byte-identical originals."""
    config = ChaosConfig.from_spec({"corrupt": 1.0, "seed": seed % 2**31})
    injector = ChaosInjector(config, "n0->n1")
    rng = random.Random(seed)
    flips = 0

    def write(seq, frame):
        nonlocal flips
        record = wrap_envelope(frame, seq)
        if rng.random() < corrupt:
            flips += 1
            record = injector.corrupt_record(record)
        return [record]

    delivered, decoder = _run_pipe(n, write)
    assert [_payload_id(f) for f in delivered] == list(range(n))
    assert decoder.corrupt_frames == flips
