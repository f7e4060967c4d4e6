"""Unit tests for corpus file loading/saving (plain and counted)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.datasets.corpus import PasswordCorpus
from repro.datasets.loaders import (
    iter_password_entries,
    load_corpus,
    save_corpus,
    stream_corpus_chunks,
)


@pytest.fixture()
def corpus():
    return PasswordCorpus(
        {"123456": 3, "password": 2, "pass word": 1}, name="toy"
    )


class TestPlainFormat:
    def test_round_trip(self, corpus, tmp_path):
        path = tmp_path / "plain.txt"
        save_corpus(corpus, str(path), fmt="plain")
        loaded = load_corpus(str(path), fmt="plain")
        assert loaded.counts() == corpus.counts()

    def test_duplicates_counted(self, tmp_path):
        path = tmp_path / "dups.txt"
        path.write_text("abcdef\nabcdef\nxyzzyx\n")
        loaded = load_corpus(str(path), fmt="plain")
        assert loaded.count("abcdef") == 2
        assert loaded.total == 3

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.txt"
        path.write_text("abcdef\n\n\nxyzzyx\n")
        assert load_corpus(str(path), fmt="plain").total == 2

    def test_overlong_lines_dropped(self, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text("short\n" + "x" * 100 + "\n")
        loaded = load_corpus(str(path), fmt="plain", max_length=64)
        assert loaded.total == 1


class TestCountedFormat:
    def test_round_trip(self, corpus, tmp_path):
        path = tmp_path / "counted.txt"
        save_corpus(corpus, str(path), fmt="counted")
        loaded = load_corpus(str(path), fmt="counted")
        assert loaded.counts() == corpus.counts()

    def test_password_with_spaces(self, corpus, tmp_path):
        path = tmp_path / "counted.txt"
        save_corpus(corpus, str(path), fmt="counted")
        loaded = load_corpus(str(path), fmt="counted")
        assert loaded.count("pass word") == 1

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 abcdef\nnot-a-count xyz\n2 qwerty\n")
        loaded = load_corpus(str(path), fmt="counted")
        assert loaded.counts() == {"abcdef": 3, "qwerty": 2}


class TestAutoSniff:
    def test_sniffs_counted(self, corpus, tmp_path):
        path = tmp_path / "counted.txt"
        save_corpus(corpus, str(path), fmt="counted")
        loaded = load_corpus(str(path))  # fmt="auto"
        assert loaded.counts() == corpus.counts()

    def test_sniffs_plain(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("iloveyou\nsunshine\nprincess\n")
        loaded = load_corpus(str(path))
        assert loaded.total == 3

    def test_plain_digit_passwords_not_misdetected(self, tmp_path):
        # All-digit passwords have no second token, so the sniffer
        # must not read them as counted lines.
        path = tmp_path / "digits.txt"
        path.write_text("123456\n111111\n000000\n")
        loaded = load_corpus(str(path))
        assert loaded.counts() == {"123456": 1, "111111": 1, "000000": 1}


class TestValidation:
    def test_unknown_load_format(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("abc\n")
        with pytest.raises(ValueError):
            load_corpus(str(path), fmt="exotic")

    def test_unknown_save_format(self, corpus, tmp_path):
        with pytest.raises(ValueError):
            save_corpus(corpus, str(tmp_path / "x.txt"), fmt="exotic")

    def test_default_name_is_file_stem(self, corpus, tmp_path):
        path = tmp_path / "rockyou.txt"
        save_corpus(corpus, str(path))
        assert load_corpus(str(path)).name == "rockyou"

    def test_explicit_name(self, corpus, tmp_path):
        path = tmp_path / "file.txt"
        save_corpus(corpus, str(path))
        assert load_corpus(str(path), name="custom").name == "custom"


class TestNonAsciiCounts:
    """A count is ASCII digits only, as ``uniq -c`` writes it.

    ``"²".isdigit()`` is True but ``int("²")`` raises, so a line such
    as ``² sup`` must be dropped as malformed, never parsed as a count.
    """

    GOOD = [(f"password{i}", i + 1) for i in range(20)]

    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "counted.txt"
        lines = [f"{count} {password}" for password, count in self.GOOD]
        lines.insert(5, "\u00b2 sup")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_load_corpus_drops_the_line(self, path):
        for fmt in ("counted", "auto"):
            assert dict(load_corpus(path, fmt=fmt).items()) == dict(self.GOOD)

    def test_streams_drop_the_line(self, path):
        assert list(iter_password_entries(path)) == self.GOOD
        chunks = list(stream_corpus_chunks(path, chunk_size=3))
        assert [entry for chunk in chunks for entry in chunk] == self.GOOD

    def test_streamed_training_drops_the_line(self, path):
        from repro.core.meter import FuzzyPSM

        base = ["password"]
        streamed = FuzzyPSM.train_streaming(
            base, stream_corpus_chunks(path, chunk_size=4)
        )
        assert streamed.to_dict() == FuzzyPSM.train(base, self.GOOD).to_dict()

    def test_sniffer_does_not_take_it_for_a_count(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("\u00b2 sup\n\u00b3 up\n", encoding="utf-8")
        assert list(iter_password_entries(str(path))) == [
            ("\u00b2 sup", 1), ("\u00b3 up", 1),
        ]


class TestZeroCounts:
    """A ``0 password`` line is dropped by both reading regimes.

    :class:`PasswordCorpus` drops zero counts, so the in-memory path
    always trained past them; the streaming reader must drop them too,
    or streamed training rejects the count it was handed.
    """

    LINES = "3 password1\n0 dragon\n2 monkey12\n"

    @pytest.fixture()
    def path(self, tmp_path):
        path = tmp_path / "counted.txt"
        path.write_text(self.LINES, encoding="utf-8")
        return str(path)

    def test_streams_yield_no_zero_count(self, path):
        expected = [("password1", 3), ("monkey12", 2)]
        assert list(iter_password_entries(path)) == expected
        assert list(stream_corpus_chunks(path, chunk_size=10)) == [expected]
        assert dict(load_corpus(path).items()) == dict(expected)

    def test_streamed_training_equals_in_memory_byte_for_byte(
        self, path, tmp_path
    ):
        from repro.cli import main

        base = tmp_path / "base.txt"
        base.write_text("password\ndragon\nmonkey\n", encoding="utf-8")
        outputs = []
        for extra in ([], ["--stream-chunk", "10"]):
            output = tmp_path / f"model{len(outputs)}.json"
            assert main(["train", "--training", path, "--base", str(base),
                         "--output", str(output), *extra]) == 0
            outputs.append(output.read_bytes())
        assert outputs[0] == outputs[1]


class TestStreamingEntries:
    """iter_password_entries / stream_corpus_chunks: the out-of-core path."""

    def test_entries_match_in_memory_loader(self, corpus, tmp_path):
        path = str(tmp_path / "counted.txt")
        save_corpus(corpus, path, fmt="counted")
        streamed = {}
        for password, count in iter_password_entries(path):
            streamed[password] = streamed.get(password, 0) + count
        assert streamed == dict(load_corpus(path).items())

    def test_plain_file_yields_unit_counts(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("abc\nabc\nxyz\n")
        assert list(iter_password_entries(str(path))) == [
            ("abc", 1), ("abc", 1), ("xyz", 1),
        ]

    def test_chunks_are_bounded_and_ordered(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("\n".join(f"pw{i}" for i in range(10)) + "\n")
        chunks = list(stream_corpus_chunks(str(path), chunk_size=4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        flat = [password for chunk in chunks for password, _ in chunk]
        assert flat == [f"pw{i}" for i in range(10)]

    def test_chunk_size_validated(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("abc\n")
        with pytest.raises(ValueError, match="chunk_size"):
            list(stream_corpus_chunks(str(path), chunk_size=0))

    def test_stream_telemetry(self, tmp_path):
        from repro import obs
        path = tmp_path / "plain.txt"
        path.write_text("\n".join(f"pw{i}" for i in range(10)) + "\n")
        with obs.session() as telemetry:
            list(stream_corpus_chunks(str(path), chunk_size=4))
            snapshot = telemetry.snapshot()
        assert snapshot["counters"]["stream.chunks"] == 3
        assert snapshot["counters"]["stream.entries"] == 10
        assert snapshot["histograms"]["stream.chunk.seconds"]["count"] == 3
        assert snapshot["histograms"]["stream.rss_kib"]["count"] == 3

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"),
        reason="a process's own peak is read from /proc/self/status",
    )
    def test_stream_rss_is_the_process_own_peak(self, tmp_path):
        # Linux carries ru_maxrss across execve, so a child started
        # while this process holds 64 MiB would record at least that.
        path = tmp_path / "plain.txt"
        path.write_text("\n".join(f"pw{i}" for i in range(10)) + "\n")
        child = (
            "import sys\n"
            "from repro import obs\n"
            "from repro.datasets.loaders import stream_corpus_chunks\n"
            "with obs.session() as telemetry:\n"
            "    list(stream_corpus_chunks(sys.argv[1], chunk_size=4))\n"
            "    print(telemetry.histogram('stream.rss_kib').maximum)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(
            os.path.dirname(repro.__file__)
        )
        held_kib = 64 * 1024
        held = b"\x01" * (held_kib * 1024)  # written, so resident
        completed = subprocess.run(
            [sys.executable, "-c", child, str(path)],
            capture_output=True, text=True, env=env, timeout=120,
            check=False,
        )
        del held
        assert completed.returncode == 0, completed.stderr
        assert 0 < float(completed.stdout) < held_kib

    def test_corpus_iter_chunks(self, corpus):
        chunks = list(corpus.iter_chunks(2))
        assert [len(chunk) for chunk in chunks] == [2, 1]
        merged = {}
        for chunk in chunks:
            for password, count in chunk:
                merged[password] = merged.get(password, 0) + count
        assert merged == dict(corpus.items())
        with pytest.raises(ValueError):
            list(corpus.iter_chunks(0))
