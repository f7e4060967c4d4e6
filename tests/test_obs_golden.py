"""Golden telemetry values for a fixed tiny corpus.

Every count below is derived by hand from the parse procedure (paper
Sec. IV-C): the base dictionary is two words, the probe passwords are
chosen so each exercises exactly one known path.  If a probe moves or
a parse changes shape, these tests name the drifted counter.
"""

from __future__ import annotations

from repro import obs
from repro.core.meter import FuzzyPSM, FuzzyPSMConfig
from repro.core.parser import FuzzyParser
from repro.core.training import build_base_trie, train_grammar
from repro.obs.report import build_report

GOLDEN_BASE = ["password", "dragon"]


def golden_parser() -> FuzzyParser:
    parser = FuzzyParser(build_base_trie(GOLDEN_BASE))
    # The compiled matcher is built lazily on the first parse; trigger
    # it here so trie-compilation probes stay out of the sessions below.
    parser.parse("x")
    return parser


class TestParserGolden:
    def test_exact_counter_inventory(self):
        parser = golden_parser()
        with obs.session() as telemetry:
            parser.parse("password123")  # trie hit + digit fallback
            parser.parse("Dragon99")     # capitalized trie hit + digits
            parser.parse("p@ssword")     # trie hit via one leet toggle
            parser.parse("xyz")          # pure PCFG fallback
            counters = telemetry.snapshot()["counters"]
        # Zero-valued counters are never emitted (report readers
        # default missing probes to 0), so the inventory is exact:
        # no reverse or all-caps rule fired on these four parses.
        assert counters == {
            "parser.parse": 4,
            "parser.match.attempts": 6,
            "parser.segment.trie_hit": 3,
            "parser.segment.fallback": 3,
            "parser.rule.capitalization": 1,
            "parser.rule.leet": 1,
        }

    def test_segment_histogram(self):
        parser = golden_parser()
        with obs.session() as telemetry:
            parser.parse("password123")  # 2 segments
            parser.parse("Dragon99")     # 2 segments
            parser.parse("p@ssword")     # 1 segment
            parser.parse("xyz")          # 1 segment
            histogram = telemetry.histogram("parser.segments")
        assert histogram is not None
        assert histogram.count == 4
        assert histogram.total == 6.0
        assert histogram.minimum == 1.0
        assert histogram.maximum == 2.0
        # 1-segment and 2-segment parses land in distinct buckets.
        assert [count for _, count in histogram.nonzero_buckets()] == [2, 2]

    def test_leet_counts_toggles_not_segments(self):
        parser = golden_parser()
        with obs.session() as telemetry:
            parser.parse("p@$$word")     # three toggles, one segment
            counters = telemetry.snapshot()["counters"]
        assert counters["parser.rule.leet"] == 3
        assert counters["parser.segment.trie_hit"] == 1

    def test_empty_password_is_a_parse_with_no_segments(self):
        parser = golden_parser()
        with obs.session() as telemetry:
            parser.parse("")
            counters = telemetry.snapshot()["counters"]
        assert counters["parser.parse"] == 1
        assert counters.get("parser.match.attempts", 0) == 0


class TestCacheGolden:
    def test_score_memo_hit_miss_evict_sequence(self):
        meter = FuzzyPSM.train(
            GOLDEN_BASE, ["password1", "dragon99"],
            config=FuzzyPSMConfig(parse_cache_size=2),
        )
        meter.probability("x")  # pre-build the compiled matcher
        meter.frozen_grammar()
        with obs.session() as telemetry:
            # One call per password: within a call a repeat is answered
            # by the call's own distinct dict, not by the memo.
            for password in ["password",   # miss
                             "password",   # hit
                             "dragon1",    # miss
                             "123456",     # miss, evicts "password"
                             "password"]:  # miss again, evicts "dragon1"
                meter.probability_many([password])
            counters = telemetry.snapshot()["counters"]
        assert counters["meter.memo.hit"] == 1
        assert counters["meter.memo.miss"] == 4
        assert counters["meter.memo.evict"] == 2
        # Memo hits are not parses: only the misses did parse work.
        assert counters["parser.parse"] == 4
        assert meter.score_memo_info() == {"size": 2, "capacity": 2}


class TestMeterGolden:
    def test_batch_counters(self):
        meter = FuzzyPSM.train(
            GOLDEN_BASE, ["password1", "password1", "dragon99"]
        )
        meter.probability("x")  # pre-build the compiled matcher
        with obs.session() as telemetry:
            meter.probability_many(
                ["password1", "password1", "dragon99", ""]
            )
            counters = telemetry.snapshot()["counters"]
        assert counters["meter.batch.calls"] == 1
        assert counters["meter.batch.scores"] == 4
        assert counters["meter.batch.distinct"] == 3  # "" is memoised too
        assert counters["meter.memo.miss"] == 2       # "" never parses
        assert counters.get("meter.memo.hit", 0) == 0

    def test_report_derives_the_golden_rates(self):
        meter = FuzzyPSM.train(
            GOLDEN_BASE, ["password1", "password1", "dragon99"]
        )
        meter.probability("x")
        with obs.session() as telemetry:
            meter.probability_many(["password1", "dragon99"])
            meter.probability_many(["password1", "dragon99"])
            report = build_report(telemetry.snapshot())
        assert report["score_memo"] == {
            "hits": 2, "misses": 2, "evictions": 0, "hit_rate": 0.5,
        }
        outcomes = report["parse_outcomes"]
        # "password1" -> trie hit + fallback; "dragon99" -> the same.
        assert outcomes["parses"] == 2
        assert outcomes["trie_hit"] == 2
        assert outcomes["fallback"] == 2
        assert outcomes["trie_hit_share"] == 0.5

    def test_scores_identical_with_and_without_telemetry(self):
        meter = FuzzyPSM.train(
            GOLDEN_BASE, ["password1", "password1", "dragon99"]
        )
        stream = ["password1", "Dr@gon99", "", "xyz123", "password1"]
        baseline = meter.probability_many(stream)
        with obs.session():
            instrumented = meter.probability_many(stream)
        assert instrumented == baseline


class TestTrainingGolden:
    def test_serial_training_counters(self):
        trie = build_base_trie(GOLDEN_BASE)
        with obs.session() as telemetry:
            train_grammar(["password1", ("dragon", 5), ""], trie)
            counters = telemetry.snapshot()["counters"]
            histogram = telemetry.histogram("train.stream.seconds")
        # Two distinct entries trained: the empty string is skipped and
        # multiplicity does not inflate the pass count.
        assert counters["train.passwords"] == 2
        assert histogram is not None
        assert histogram.count == 1
