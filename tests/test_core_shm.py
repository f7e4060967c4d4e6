"""Tests for the shared-memory snapshot plane (repro.core.shm).

Covers the segment codec round-trip, ownership/lifetime rules, the
per-process attach cache, the repo-wide start-method policy, and — the
load-bearing guarantee — score differentials: a reader attached to a
published segment must score **bit-identically** to the publishing
meter, in-process and across fork/spawn pool workers alike, including
after an epoch hot-swap.
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

from repro.core.meter import FuzzyPSM
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
        segment = meter.shared_segment()
        reader = SharedScoringSegment.attach(segment.name)
        try:
            state = reader.materialize()
            assert state.epoch == meter.grammar.epoch
            parser = state.build_parser()
            frozen = state.frozen
            assert frozen is not None
            for password in PROBE_PASSWORDS:
                if not password:
                    continue
                expected = meter.probability(password)
                assert frozen.derivation_probability(
                    parser.parse_flat(password)
                ) == expected
        finally:
            reader.close()

    def test_segment_is_cached_per_epoch_and_named(self):
        meter = _train()
        segment = meter.shared_segment()
        assert segment.name.startswith(SEGMENT_PREFIX)
        assert segment.owner_pid == os.getpid()
        assert segment.size >= 8
        assert meter.shared_segment() is segment  # epoch unchanged

    def test_update_publishes_new_epoch_and_unlinks_old(self):
        meter = _train()
        old = meter.shared_segment()
        meter.update("zebra42!", 50)
        new = meter.shared_segment()
        assert new is not old
        assert new.epoch == old.epoch + 1
        # The retired name is gone: late attachers fail fast.
        with pytest.raises(FileNotFoundError):
            SharedScoringSegment.attach(old.name)
        new.unlink()

    def test_trie_only_segment_has_no_grammar(self):
        meter = _train()
        segment = SharedScoringSegment.create(
            MaterializedScoringState.from_parser(meter.parser)
        )
        try:
            state = segment.materialize()
            assert state.frozen is None
            assert state.forward is not None
            # Parsing still works — training workers only parse.
            parsed = state.build_parser().parse("password123")
            assert parsed.to_derivation() == meter.parse(
                "password123"
            ).to_derivation()
        finally:
            segment.unlink()


class TestLifetime:
    def test_unlink_removes_dev_shm_entry(self):
        meter = _train()
        segment = meter.shared_segment()
        if os.path.isdir("/dev/shm"):
            assert segment.name in _segment_files()
        meter._shared_segment = None  # drop the meter's cache
        segment.unlink()
        assert segment.name not in _segment_files()
        assert segment.name not in shm_module._OWNED

    def test_unlink_and_close_are_idempotent(self):
        meter = _train()
        segment = meter.shared_segment()
        meter._shared_segment = None
        segment.unlink()
        segment.unlink()
        segment.close()

    def test_attached_mapping_survives_owner_unlink(self):
        meter = _train()
        segment = meter.shared_segment()
        reader = SharedScoringSegment.attach(segment.name)
        state = reader.materialize()
        meter._shared_segment = None
        segment.unlink()
        # The name is gone but the existing mapping stays valid.
        assert state.build_parser().parse("password").to_derivation() \
            == meter.parse("password").to_derivation()
        del state
        reader.close()

    def test_create_registers_ownership(self):
        meter = _train()
        segment = meter.shared_segment()
        assert shm_module._OWNED.get(segment.name) is segment
        meter._shared_segment = None
        segment.unlink()


class TestAttachCache:
    def test_same_name_reuses_the_cached_state(self):
        meter = _train()
        segment = meter.shared_segment()
        first = _worker_attach_state(segment.name)
        second = _worker_attach_state(segment.name)
        assert second is first

    def test_new_name_swaps_the_cache(self):
        meter = _train()
        old_state = _worker_attach_state(meter.shared_segment().name)
        meter.update("zebra42!", 50)
        new_segment = meter.shared_segment()
        new_state = _worker_attach_state(new_segment.name)
        assert new_state is not old_state
        assert new_state.epoch == old_state.epoch + 1
        cached = shm_module._ATTACH_CACHE
        assert cached is not None and cached[0] == new_segment.name


class TestScoreDifferential:
    """Published segment == publishing meter, bit for bit."""

    @given(st.lists(
        st.sampled_from(PROBE_PASSWORDS), min_size=1, max_size=12,
    ))
    @settings(max_examples=25, deadline=None)
    def test_in_process_attachment_matches_meter(self, stream):
        meter = getattr(self, "_meter", None)
        if meter is None:
            meter = self._meter = _train()
        state = _worker_attach_state(meter.shared_segment().name)
        parser = state.build_parser()
        frozen = state.frozen
        for password in stream:
            expected = meter.probability(password)
            if not password:
                assert expected == 0.0
                continue
            assert frozen.derivation_probability(
                parser.parse_flat_cached(password)
            ) == expected

    @pytest.mark.parametrize("method", START_METHODS)
    def test_pool_scores_match_serial_including_hot_swap(
        self, method, monkeypatch
    ):
        monkeypatch.setenv(START_METHOD_ENV, method)
        meter = _train()
        stream = PROBE_PASSWORDS * 3
        serial = meter.probability_many(stream)
        parallel = meter.probability_many(
            stream, jobs=2, parallel_threshold=1
        )
        assert parallel == serial
        # Epoch hot-swap: the update republishes; a fresh pool attaches
        # the new segment and must match the updated meter exactly.
        meter.update("zebra42!", 50)
        swapped_serial = meter.probability_many(stream)
        assert swapped_serial != serial
        swapped_parallel = meter.probability_many(
            stream, jobs=2, parallel_threshold=1
        )
        assert swapped_parallel == swapped_serial
        meter.shared_segment().unlink()
        meter._shared_segment = None


#: Trains a meter, scores through a ``jobs=2`` pool, prints the
#: meter's segment name and dies by SIGKILL, before any ``atexit``.
_KILLED_OWNER = textwrap.dedent("""
    import os
    import signal
    from repro.core.meter import FuzzyPSM

    meter = FuzzyPSM.train(["password", "dragon", "monkey"],
                           ["password1", "dragon99", "Monkey!"])
    meter.probability_many([f"pass{n}word" for n in range(40)],
                           jobs=2, parallel_threshold=1)
    print(meter.shared_segment().name, flush=True)
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
