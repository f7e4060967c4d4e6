"""Tests for the shared-memory snapshot plane (repro.core.shm).

Covers the segment codec round-trip, ownership/lifetime rules, the
per-process attach cache, the repo-wide start-method policy, and — the
load-bearing guarantee — parse differentials: a reader attached to the
trie-only segment the training pool publishes must parse
**byte-identically** to the publishing parser, in-process and across
fork/spawn pool workers alike, including after a worker swaps to
another segment.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import training
from repro.core.meter import FuzzyPSM, FuzzyPSMConfig
from repro.core import shm as shm_module
from repro.core.shm import (
    SEGMENT_PREFIX,
    START_METHOD_ENV,
    MaterializedScoringState,
    SharedScoringSegment,
    _worker_attach_state,
    mp_context,
)

from tests.conftest import BASE_DICTIONARY, TRAINING_PASSWORDS

#: Start methods the platform offers; the differential suites run once
#: per entry so the spawn CI legs and fork dev boxes cover the same
#: assertions.
START_METHODS = [
    method for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]

#: Inputs spanning the interesting parse paths: base words, composites,
#: leet, capitalization, digits, unseen strings, unicode, empty.
PROBE_PASSWORDS = [
    "password", "password123", "Password123", "p@ssw0rd", "PASSWORD",
    "123456", "123qwe123qwe", "iloveyou1", "woaini520", "qwerty12",
    "monkey99", "letmein!", "totally-novel-string", "Zx9#kk",
    "pässword", "ab", "",
]


def _train() -> FuzzyPSM:
    """A private meter — segment/update tests must not mutate fixtures."""
    return FuzzyPSM.train(list(BASE_DICTIONARY), list(TRAINING_PASSWORDS))


def _publish(meter: FuzzyPSM) -> SharedScoringSegment:
    """The trie-only segment the training pool publishes for ``meter``."""
    return SharedScoringSegment.create(
        MaterializedScoringState.from_parser(meter.parser)
    )


def _scores(meter: FuzzyPSM, parses) -> list:
    """``parses`` scored through ``meter``'s frozen kernel."""
    kernel = meter.frozen_grammar().derivation_probability
    return [kernel(parse) for parse in parses]


def _attached_parses(name: str, passwords: list) -> list:
    """Pool task: parse with the parser published in segment ``name``.

    A worker whose attach cache holds another segment swaps to this
    one, as a training worker re-initialised with a new name does.
    """
    parser = _worker_attach_state(name).build_parser()
    return [parser.parse_flat(password) for password in passwords]


def _segment_files() -> set:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {
        name for name in os.listdir("/dev/shm")
        if name.startswith(SEGMENT_PREFIX)
    }


class TestMpContext:
    def test_default_prefers_fork_where_available(self, monkeypatch):
        monkeypatch.delenv(START_METHOD_ENV, raising=False)
        context = mp_context()
        available = multiprocessing.get_all_start_methods()
        expected = "fork" if "fork" in available else available[0]
        assert context.get_start_method() == expected

    def test_env_var_selects_method(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        assert mp_context().get_start_method() == "spawn"

    def test_explicit_method_beats_env(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        available = multiprocessing.get_all_start_methods()
        assert mp_context(available[0]).get_start_method() == available[0]

    def test_unknown_method_is_an_error(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "threads")
        with pytest.raises(ValueError, match="threads"):
            mp_context()


class TestSegmentRoundTrip:
    def test_materialized_state_scores_bit_identically(self):
        meter = _train()
        segment = _publish(meter)
        reader = SharedScoringSegment.attach(segment.name)
        try:
            parser = reader.materialize().build_parser()
            probes = [password for password in PROBE_PASSWORDS if password]
            parses = [parser.parse_flat(password) for password in probes]
            assert parses == [
                meter.parser.parse_flat(password) for password in probes
            ]
            assert _scores(meter, parses) == [
                meter.probability(password) for password in probes
            ]
            del parser
        finally:
            reader.close()
            segment.unlink()

    def test_trie_only_segment_has_no_grammar(self):
        meter = _train()
        segment = _publish(meter)
        try:
            state = segment.materialize()
            assert not hasattr(state, "frozen")
            assert state.forward is not None
            # Parsing works — training workers only parse.
            parsed = state.build_parser().parse("password123")
            assert parsed.to_derivation() == meter.parse(
                "password123"
            ).to_derivation()
        finally:
            segment.unlink()


class TestLifetime:
    def test_unlink_removes_dev_shm_entry(self):
        segment = _publish(_train())
        if os.path.isdir("/dev/shm"):
            assert segment.name in _segment_files()
        segment.unlink()
        assert segment.name not in _segment_files()
        assert segment.name not in shm_module._OWNED
        # The retired name is gone: late attachers fail fast.
        with pytest.raises(FileNotFoundError):
            SharedScoringSegment.attach(segment.name)

    def test_unlink_and_close_are_idempotent(self):
        segment = _publish(_train())
        segment.unlink()
        segment.unlink()
        segment.close()

    def test_attached_mapping_survives_owner_unlink(self):
        meter = _train()
        segment = _publish(meter)
        reader = SharedScoringSegment.attach(segment.name)
        state = reader.materialize()
        segment.unlink()
        # The name is gone but the existing mapping stays valid.
        assert state.build_parser().parse("password").to_derivation() \
            == meter.parse("password").to_derivation()
        del state
        reader.close()

    def test_create_registers_ownership(self):
        segment = _publish(_train())
        assert segment.name.startswith(SEGMENT_PREFIX)
        assert segment.owner_pid == os.getpid()
        assert segment.size >= 8
        assert shm_module._OWNED.get(segment.name) is segment
        segment.unlink()


class TestAttachCache:
    def test_same_name_reuses_the_cached_state(self):
        segment = _publish(_train())
        try:
            first = _worker_attach_state(segment.name)
            second = _worker_attach_state(segment.name)
            assert second is first
        finally:
            segment.unlink()

    def test_new_name_swaps_the_cache(self):
        old_segment = _publish(_train())
        new_segment = _publish(_train())
        try:
            old_state = _worker_attach_state(old_segment.name)
            new_state = _worker_attach_state(new_segment.name)
            assert new_state is not old_state
            cached = shm_module._ATTACH_CACHE
            assert cached is not None and cached[0] == new_segment.name
        finally:
            old_segment.unlink()
            new_segment.unlink()


class TestScoreDifferential:
    """Attached parser == publishing parser, byte for byte."""

    @given(st.lists(
        st.sampled_from(PROBE_PASSWORDS), min_size=1, max_size=12,
    ))
    @settings(max_examples=25, deadline=None)
    def test_in_process_attachment_matches_meter(self, stream):
        meter = getattr(self, "_meter", None)
        if meter is None:
            meter = self._meter = _train()
            self._segment = _publish(meter)
        parser = _worker_attach_state(self._segment.name).build_parser()
        for password in stream:
            if not password:
                continue
            parse = parser.parse_flat(password)
            assert parse == meter.parser.parse_flat(password)
            assert _scores(meter, [parse]) == [meter.probability(password)]

    @pytest.mark.parametrize("method", START_METHODS)
    def test_pool_scores_match_serial_including_hot_swap(
        self, method, monkeypatch
    ):
        # Training workers attach a segment by name and parse.  The
        # parent scores what they parsed, which must equal its serial
        # batch; then the same workers swap to a second meter's
        # segment, whose parser flags differ, and must match it too.
        monkeypatch.setenv(START_METHOD_ENV, method)
        meters = [
            _train(),
            FuzzyPSM.train(
                list(BASE_DICTIONARY), list(TRAINING_PASSWORDS),
                FuzzyPSMConfig(allow_reverse=True, allow_allcaps=True),
            ),
        ]
        stream = [password for password in PROBE_PASSWORDS if password]
        stream += [password[::-1].upper() for password in stream]
        segments = [_publish(meter) for meter in meters]
        try:
            with mp_context().Pool(
                processes=2,
                initializer=training._worker_init_shared,
                initargs=(segments[0].name,),
            ) as pool:
                for meter, segment in zip(meters, segments):
                    halves = pool.starmap(_attached_parses, [
                        (segment.name, stream[:len(stream) // 2]),
                        (segment.name, stream[len(stream) // 2:]),
                    ])
                    parses = [parse for half in halves for parse in half]
                    assert parses == [
                        meter.parser.parse_flat(password)
                        for password in stream
                    ]
                    assert _scores(meter, parses) == \
                        meter.probability_many(stream)
            assert _scores(meters[0], parses) != \
                meters[0].probability_many(stream)
        finally:
            for segment in segments:
                segment.unlink()


#: Publishes a trie-only segment the way the training pool does, runs
#: a spawn pool of training workers that attach it, prints the segment
#: name and dies by SIGKILL before unlinking it, and before any
#: ``atexit``.
_KILLED_OWNER = textwrap.dedent("""
    import os
    import signal
    from repro.core import training
    from repro.core.meter import FuzzyPSM
    from repro.core.shm import (
        MaterializedScoringState, SharedScoringSegment, mp_context,
    )

    meter = FuzzyPSM.train(["password", "dragon", "monkey"],
                           ["password1", "dragon99", "Monkey!"])
    segment = SharedScoringSegment.create(
        MaterializedScoringState.from_parser(meter.parser)
    )
    with mp_context().Pool(
        processes=2,
        initializer=training._worker_init_shared,
        initargs=(segment.name,),
    ) as pool:
        counts = pool.map(training._count_slice,
                          [[(f"pass{n}word", 1)] for n in range(40)])
    assert len(counts) == 40
    print(segment.name, flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
""")


class TestResourceTracker:
    @pytest.mark.skipif(
        "spawn" not in START_METHODS or not os.path.isdir("/dev/shm"),
        reason="needs the spawn start method and /dev/shm",
    )
    def test_spawn_workers_leave_a_killed_owners_segment_to_its_tracker(
        self,
    ):
        # Spawn workers share their owner's resource tracker.  Had they
        # unregistered the segment they attached, the tracker would
        # print a KeyError for every later unregistration and, with the
        # owner killed, never unlink the segment.
        source = os.path.dirname(shm_module.__file__)
        env = dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(source)),
            **{START_METHOD_ENV: "spawn"},
        )
        # Output pipes close once the owner and its tracker have exited.
        result = subprocess.run(
            [sys.executable, "-c", _KILLED_OWNER], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        name = result.stdout.strip()
        assert name.startswith(SEGMENT_PREFIX)
        assert name not in _segment_files()
        assert "KeyError" not in result.stderr, result.stderr
