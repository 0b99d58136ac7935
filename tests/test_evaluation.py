from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from psverify import evaluation, pipeline, synth
from psverify.evaluation import (
    EvalReport,
    ManifestEntry,
    SystemCounts,
    UtteranceOutcome,
    aggregate_outcomes,
    format_report,
    load_manifest,
    make_synthetic_corpus,
    run_evaluation,
    run_training,
    write_manifest,
    write_report_csv,
)
from psverify.features import count_extrema
from psverify.modeling import ModelSet, build_model
from psverify.signal_io import write_text_samples
from psverify.synth import VOWEL_FORMANTS, synth_vowel


class TestSynthVowel:
    def test_source_period_exact(self):
        buf = synth_vowel(100.0, (), 0.5, 16000, seed=4)
        impulses = np.nonzero(buf.samples)[0]
        assert np.all(np.diff(impulses) == 160)

    def test_pulse_train_extrema_known(self):
        buf = synth_vowel(100.0, (), 0.5, 16000, seed=4)
        impulses = np.nonzero(buf.samples)[0]
        start = int(impulses[1]) - 80  # impulse interior to the window scan
        assert count_extrema(buf, (start, 160)) == (1, 0, 0, 0)

    def test_same_seed_bit_identical(self):
        a = synth_vowel(142.0, VOWEL_FORMANTS["e"], 0.3, 16000, seed=99)
        b = synth_vowel(142.0, VOWEL_FORMANTS["e"], 0.3, 16000, seed=99)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_silence_padding(self):
        buf = synth_vowel(100.0, VOWEL_FORMANTS["a"], 0.25, 16000, seed=1, silence_pad_s=0.05)
        assert len(buf) == int(0.25 * 16000) + 2 * 800
        assert np.all(buf.samples[:800] == 0.0)
        assert np.all(buf.samples[-800:] == 0.0)

    def test_invalid_f0(self):
        with pytest.raises(ValueError, match="f0"):
            synth_vowel(9000.0, (), 0.2, 16000)

    def test_period_longer_than_the_voiced_part(self):
        with pytest.raises(ValueError) as refused:
            synth_vowel(0.001, VOWEL_FORMANTS["a"], 0.6, 16000)
        assert str(refused.value) == "f0 0.001 Hz: a period of 16000000 samples exceeds the 9600 voiced samples"
        with pytest.raises(ValueError, match="^f0 99.0 Hz: a period of 162 samples exceeds the 160 voiced"):
            synth_vowel(99.0, (), 0.01, 16000)
        # a period of exactly the voiced part holds one impulse
        assert np.count_nonzero(synth_vowel(100.0, (), 0.01, 16000, seed=5).samples) == 1

    def test_formant_beyond_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            synth_vowel(100.0, ((9000.0, 60.0),), 0.2, 16000)

    def test_too_many_formants(self):
        with pytest.raises(ValueError, match="three"):
            synth_vowel(100.0, ((500, 60), (1000, 60), (1500, 60), (2000, 60)), 0.2)

    @pytest.mark.parametrize("duration_s", [0.0, -0.1, np.inf, np.nan])
    def test_duration_must_be_finite_and_positive(self, duration_s):
        with pytest.raises(ValueError, match="duration_s must be finite and positive"):
            synth_vowel(100.0, VOWEL_FORMANTS["a"], duration_s)

    @pytest.mark.parametrize("silence_pad_s", [-1.0, np.inf, np.nan])
    def test_silence_pad_must_be_finite_and_non_negative(self, silence_pad_s):
        with pytest.raises(ValueError, match="silence_pad_s must be finite and non-negative"):
            synth_vowel(100.0, VOWEL_FORMANTS["a"], 0.2, silence_pad_s=silence_pad_s)

    @pytest.mark.parametrize("bandwidth", [0.0, -60.0, np.inf, np.nan])
    def test_bandwidth_must_be_finite_and_positive(self, bandwidth):
        with pytest.raises(ValueError, match="formant bandwidth must be finite and positive"):
            synth_vowel(100.0, ((500.0, bandwidth),), 0.2)

    @pytest.mark.parametrize("rate", [0, -16000, 10**400, np.inf, np.nan],
                             ids=["0", "negative", "1e400", "inf", "nan"])
    def test_rate_must_be_positive_and_fit_a_float(self, rate):
        # an int past the largest float would overflow the sample counts
        with pytest.raises(ValueError) as refused:
            synth_vowel(120.0, VOWEL_FORMANTS["a"], 0.35, sample_rate_hz=rate)
        assert str(refused.value) == f"sample_rate_hz must be finite and positive, at most 1.79769e+308, got {rate}"

    def test_bandwidth_too_narrow_to_decay_in_time(self):
        # 2**20 samples for the envelope to fall below 2**-60: about 0.2 Hz at 16 kHz
        synth_vowel(100.0, ((500.0, 0.21),), 0.2)
        with pytest.raises(ValueError) as refused:
            synth_vowel(100.0, ((500.0, 60.0), (900.0, 0.2)), 0.2)
        assert str(refused.value) == ("formant bandwidth 0.2 Hz too narrow for rate 16000: "
                                      "its resonance outlasts 1048576 samples")

    def test_train_without_formants_is_exactly_zeros_and_ones(self):
        buf = synth_vowel(123.0, (), 0.3, 16000, seed=8, silence_pad_s=0.01)
        ones = np.flatnonzero(buf.samples)
        assert set(buf.samples[ones]) == {1.0}
        assert np.all(np.diff(ones) == 130)

    def test_any_rate_above_twice_the_voice_is_synthesized(self):
        # the pipeline's pitch bounds do not apply: 30 Hz at 99 Hz is a valid output
        buf = synth_vowel(30.0, ((40.0, 10.0),), 1.0, sample_rate_hz=99)
        assert buf.sample_rate_hz == 99 and len(buf) == 99


def lfilter_vowel(f0_hz, formants, duration_s, sample_rate_hz, seed):
    """The resonators as a cascade of scipy's direct-form filters over the
    whole impulse train, lead-in included, as the generator once ran them."""
    from scipy.signal import lfilter

    period = round(sample_rate_hz / f0_hz)
    warmup = round(synth.WARMUP_S * sample_rate_hz)
    out = np.zeros(warmup + round(duration_s * sample_rate_hz))
    out[int(np.random.default_rng(seed).integers(0, period))::period] = 1.0
    for centre, bandwidth in formants:
        r = np.exp(-np.pi * bandwidth / sample_rate_hz)
        theta = 2.0 * np.pi * centre / sample_rate_hz
        out = lfilter([1.0], [1.0, -2.0 * r * np.cos(theta), r * r], out)
    return out[warmup:]


@pytest.mark.parametrize("case", range(40))
def test_synth_vowel_matches_a_recursive_filter_cascade(case):
    rng = np.random.default_rng(case)
    rate = int(rng.choice([8000, 11025, 16000, 22050, 44100]))
    f0 = rng.uniform(60.0, 400.0)
    formants = [(rng.uniform(100.0, rate / 2 - 100.0), rng.uniform(20.0, 500.0))
                for _ in range(int(rng.integers(1, 4)))]
    duration, seed = rng.uniform(0.05, 0.6), int(rng.integers(0, 2**31))
    expected = lfilter_vowel(f0, formants, duration, rate, seed)
    samples = synth_vowel(f0, formants, duration, rate, seed=seed).samples
    assert samples.shape == expected.shape
    assert np.max(np.abs(samples - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestSyntheticCorpus:
    def test_counts_and_manifest(self, tmp_path):
        manifest, entries = make_synthetic_corpus(
            tmp_path, n_speakers=2, train_per_vowel=1, test_per_vowel=1, seed=5
        )
        assert len(entries) == 2 * 5 * 2
        loaded = load_manifest(manifest)
        assert len(loaded) == len(entries)
        assert sum(1 for e in loaded if e.split == "train") == 10

    def test_same_seed_identical(self, tmp_path):
        m1, e1 = make_synthetic_corpus(tmp_path / "a", 2, 1, 1, seed=5)
        m2, e2 = make_synthetic_corpus(tmp_path / "b", 2, 1, 1, seed=5)
        assert m1.read_text() == m2.read_text()
        # the entries' paths lead into each corpus directory; relative to it they agree
        relative = [
            [replace(e, path=Path(e.path).relative_to(root)) for e in entries]
            for root, entries in ((tmp_path / "a", e1), (tmp_path / "b", e2))
        ]
        assert relative[0] == relative[1]
        for a, b in zip(e1[:3], e2[:3]):
            assert Path(a.path).read_bytes() == Path(b.path).read_bytes()

    def test_entries_are_the_manifest_read_back(self, tmp_path, monkeypatch):
        # paths lead to the files from any working directory, as load_manifest's do
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        manifest, entries = make_synthetic_corpus(Path("..") / "corpus", 2, 1, 1, seed=5)
        assert entries == load_manifest(manifest)
        assert all(Path(e.path).is_file() for e in entries)

    def test_plan_is_what_the_corpus_renders(self, tmp_path):
        # the plan writes nothing, and each utterance's voice renders its file's bytes
        plan = synth.corpus_plan(2, 1, 1, 5, 16000, 0.35, 0.04)
        assert not any(tmp_path.iterdir())
        _, entries = make_synthetic_corpus(tmp_path / "corpus", 2, 1, 1, seed=5)
        assert len(plan) == len(entries)
        for u, entry in zip(plan, entries):
            assert Path(entry.path).name == f"s{u.speaker + 1:02d}_{u.vowel}_{u.split}{u.take:02d}.txt"
            assert (entry.speaker_id, entry.vowel, entry.split) == (f"s{u.speaker + 1:02d}", u.vowel, u.split)
            write_text_samples(synth_vowel(u.f0_hz, u.formants, 0.35, seed=u.seed, silence_pad_s=0.04),
                               tmp_path / "alone.txt")
            assert (tmp_path / "alone.txt").read_bytes() == Path(entry.path).read_bytes()

    def test_a_failed_write_leaves_the_rest_written_and_no_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        (tmp_path / "s01_a_train00.txt").mkdir()  # the first utterance in plan order
        with pytest.raises(IsADirectoryError, match="s01_a_train00.txt"):
            make_synthetic_corpus(tmp_path, 2, 1, 1, seed=5)
        written = [path.name for path in tmp_path.iterdir() if path.is_file()]
        assert len(written) == 2 * 5 * 2 - 1 and "manifest.csv" not in written

    def test_duration_shorter_than_a_period_rejected_before_writing(self, tmp_path):
        # the lowest voices have periods of about 170 samples at 16 kHz
        with pytest.raises(ValueError, match="^f0 .* Hz: a period of 1[67][0-9] samples exceeds the 160 voiced"):
            make_synthetic_corpus(tmp_path / "c", n_speakers=2, train_per_vowel=1, duration_s=0.01)
        assert not (tmp_path / "c").exists()

    def test_narrow_bandwidth_rejected_before_the_directory_is_made(self, tmp_path, monkeypatch):
        # the corpus plan reads the table where synthesis keeps it
        formants = dict(synth.VOWEL_FORMANTS, u=((300.0, 60.0), (870.0, 0.1), (2240.0, 200.0)))
        monkeypatch.setattr(synth, "VOWEL_FORMANTS", formants)
        with pytest.raises(ValueError, match="^formant bandwidth 0.1 Hz too narrow for rate 16000"):
            make_synthetic_corpus(tmp_path / "c", n_speakers=2, train_per_vowel=1)
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("rate", [0, 10**400], ids=["0", "1e400"])
    def test_bad_rate_rejected_before_the_directory_is_made(self, rate, tmp_path):
        with pytest.raises(ValueError, match=f"^sample_rate_hz must be finite and positive, .*, got {rate}$"):
            make_synthetic_corpus(tmp_path / "c", n_speakers=2, train_per_vowel=1, sample_rate_hz=rate)
        assert not (tmp_path / "c").exists()

    def test_single_speaker_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="two speakers"):
            make_synthetic_corpus(tmp_path, n_speakers=1)

    @pytest.mark.parametrize("train, test", [(0, 1), (1, -1)])
    def test_utterance_counts_checked(self, train, test):
        with pytest.raises(ValueError, match="invalid utterance counts"):
            synth.corpus_plan(2, train, test, 5, 16000, 0.35, 0.04)


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [
            ManifestEntry("x.txt", "s01", "a", "train"),
            ManifestEntry("y.txt", "s02", "u", "test"),
        ]
        p = tmp_path / "manifest.csv"
        write_manifest(entries, p)
        loaded = load_manifest(p)
        assert [e.speaker_id for e in loaded] == ["s01", "s02"]
        assert loaded[0].path.endswith("x.txt")

    def test_bad_vowel_reports_line(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("path,speaker_id,vowel,split\nx.txt,s01,q,train\n")
        with pytest.raises(ValueError, match="line 2"):
            load_manifest(p)

    @pytest.mark.parametrize("speaker_id", ["s 01", ""])
    def test_bad_speaker_id_reports_line(self, speaker_id, tmp_path):
        # the rule of model files: no model could be saved or matched under this id
        p = tmp_path / "manifest.csv"
        p.write_text(f"path,speaker_id,vowel,split\nx.txt,s01,a,train\ny.txt,{speaker_id},a,test\n")
        with pytest.raises(ValueError, match="manifest.csv: line 3: speaker id must be non-empty"):
            load_manifest(p)

    def test_empty_path_reports_line(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("path,speaker_id,vowel,split\nx.txt,s01,a,train\n,s01,a,train\n")
        with pytest.raises(ValueError, match="manifest.csv: line 3: empty path"):
            load_manifest(p)

    @pytest.mark.parametrize("row, message", [
        ("x.txt", "line 2: no speaker_id cell"),
        ("x.txt,s01", "line 2: no vowel cell"),
        ('x.txt,"s01,a,train', "line 2: no vowel cell"),  # the quote is never closed
        ("x" * 140_000 + ",s01,a,train", "line 2: field larger than field limit (131072)"),
        ("x.txt,s01,a,train,extra", "line 2: 5 cells, the header has 4"),
        ("x.txt,s01,a,train,,", "line 2: 6 cells, the header has 4"),
        ("x.txt,s01,a,dev", "line 2: unknown split 'dev'"),
    ], ids=["one-cell", "two-cells", "open-quote", "long-field", "extra-cell", "trailing-commas", "unknown-split"])
    def test_malformed_row_reports_line(self, row, message, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text(f"path,speaker_id,vowel,split\n{row}\n")
        with pytest.raises(ValueError) as refused:
            load_manifest(p)
        assert str(refused.value) == f"{p}: {message}"

    def test_non_utf8_names_the_file(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_bytes(b"path,speaker_id,vowel,split\nx\xff.txt,s01,a,train\n")
        with pytest.raises(ValueError) as refused:
            load_manifest(p)
        assert str(refused.value) == f"{p}: not UTF-8 text: invalid start byte at byte 29"

    def test_utf8_bom_accepted(self, tmp_path):
        # spreadsheet exports start a UTF-8 CSV with a byte-order mark
        p = tmp_path / "manifest.csv"
        p.write_text("path,speaker_id,vowel,split\nx.txt,s01,a,train\n", encoding="utf-8-sig")
        assert p.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_manifest(p) == [ManifestEntry(str(tmp_path / "x.txt"), "s01", "a", "train")]

    def test_missing_column(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("path,speaker_id\nx.txt,s01\n")
        with pytest.raises(ValueError, match="columns"):
            load_manifest(p)

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "manifest.csv"
        p.write_text("path,speaker_id,vowel,split\n")
        with pytest.raises(ValueError, match="empty"):
            load_manifest(p)


def outcome(vowel, true, cep, tem, path="f.txt"):
    return UtteranceOutcome(path, true, vowel, cep, tem)


class TestAggregation:
    def random_outcomes(self, rng, n=300):
        sids = ["s1", "s2", "s3"]
        return [
            outcome(
                rng.choice(list("aeiou")),
                rng.choice(sids),
                rng.choice(sids),
                rng.choice(sids),
            )
            for _ in range(n)
        ]

    def test_accounting_identities(self):
        rng = np.random.default_rng(18)
        report = aggregate_outcomes(self.random_outcomes(rng))
        for counts in report.systems.values():
            assert counts.correct + counts.wrong == counts.accepted
            assert counts.accepted + counts.rejected == counts.total
        combined = report.systems["combined"]
        assert sum(r.total for r in report.vowel_rows) == combined.total
        assert sum(r.rejected for r in report.vowel_rows) == combined.rejected
        assert sum(r.correct for r in report.vowel_rows) == combined.correct

    def test_combined_wrong_requires_agreeing_wrong(self):
        rng = np.random.default_rng(19)
        outcomes = self.random_outcomes(rng)
        report = aggregate_outcomes(outcomes)
        wrong = [
            o for o in outcomes
            if o.combined_pick is not None and o.combined_pick != o.speaker_id
        ]
        assert len(wrong) == report.systems["combined"].wrong
        for o in wrong:
            assert o.cepstral_pick == o.temporal_pick != o.speaker_id

    def test_zero_accepted_vowel_has_undefined_accuracy(self):
        outcomes = [outcome("a", "s1", "s1", "s2") for _ in range(5)]
        report = aggregate_outcomes(outcomes)
        row = report.vowel_rows[0]
        assert row.accepted == 0 and row.accuracy is None
        assert "n/a" in format_report(report)

    def test_wrong_and_rejected_are_derived_from_the_stored_counts(self):
        counts = SystemCounts(total=10, accepted=6, correct=4)
        assert (counts.wrong, counts.rejected, counts.vowel) == (2, 4, None)
        assert [f.name for f in fields(SystemCounts)] == ["total", "accepted", "correct", "vowel"]
        with pytest.raises(TypeError):
            SystemCounts(total=10, accepted=5, correct=3, wrong=1, rejected=5)


class TestReportLayout:
    """The report text and CSVs, byte for byte, from hand-made outcomes: the
    vowel e has nothing accepted, so its accuracy reads n/a, and one test
    file failed, so the failed line prints."""

    @pytest.fixture
    def report(self):
        return aggregate_outcomes(
            [
                outcome("a", "s1", "s1", "s1", "a1.txt"),
                outcome("a", "s2", "s1", "s1", "a2.txt"),
                outcome("a", "s1", "s1", "s2", "a3.txt"),
                outcome("e", "s2", "s2", "s1", "dir,x/e1.txt"),
                outcome("e", "s1", "s2", "s1", "e2.txt"),
                outcome("i", "s2", "s2", "s2", "i1.txt"),
            ],
            [("bad.txt", "bad.txt: not a number")],
        )

    def test_text(self, report):
        assert format_report(report) == (
            "System comparison:\n"
            "system      total  accepted  correct  wrong  rejected  accuracy%\n"
            "cepstral        6         6        4      2         0      66.67\n"
            "temporal        6         6        3      3         0      50.00\n"
            "combined        6         3        2      1         3      66.67\n"
            "\n"
            "Per-vowel (combined system):\n"
            "vowel   total  rejected  correct  wrong  accuracy%\n"
            "a           3         1        1      1      50.00\n"
            "e           2         2        0      0        n/a\n"
            "i           1         0        1      0     100.00\n"
            "\n"
            "failed: 1 of 7 test files"
        )

    def test_csvs(self, report, tmp_path):
        write_report_csv(report, tmp_path)
        expected = {
            "systems.csv": (
                "system,total,accepted,correct,wrong,rejected,accuracy_pct\r\n"
                "cepstral,6,6,4,2,0,66.66666666666666\r\n"
                "temporal,6,6,3,3,0,50.0\r\n"
                "combined,6,3,2,1,3,66.66666666666666\r\n"
            ),
            "vowels.csv": (
                "vowel,total,rejected,correct,wrong,accuracy_on_accepted_pct\r\n"
                "a,3,1,1,1,50.0\r\n"
                "e,2,2,0,0,\r\n"
                "i,1,0,1,0,100.0\r\n"
            ),
            "outcomes.csv": (
                "path,speaker_id,vowel,cepstral_pick,temporal_pick,combined\r\n"
                "a1.txt,s1,a,s1,s1,s1\r\n"
                "a2.txt,s2,a,s1,s1,s1\r\n"
                "a3.txt,s1,a,s1,s2,rejected\r\n"
                '"dir,x/e1.txt",s2,e,s2,s1,rejected\r\n'
                "e2.txt,s1,e,s2,s1,rejected\r\n"
                "i1.txt,s2,i,s2,s2,s2\r\n"
            ),
        }
        assert {name: (tmp_path / name).read_bytes() for name in expected} == {
            name: text.encode() for name, text in expected.items()
        }


class TestCallsThroughTheModule:
    """Synthesis, the text write and model building are looked up on the
    `evaluation` module at each call, so a wrapper set there, such as
    perfbench's tracer, sees every one. One process does all the work here,
    so no call is hidden in a child."""

    def test_one_synth_per_utterance_and_one_build_per_model(self, tmp_path, monkeypatch, config):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        calls = {"synth_vowel": 0, "write_text_samples": 0, "build_model": 0}

        def counting(name):
            real = getattr(evaluation, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(evaluation, name, counting(name))
        _, entries = make_synthetic_corpus(tmp_path, n_speakers=2, train_per_vowel=2, test_per_vowel=1, seed=5)
        assert calls == {"synth_vowel": len(entries), "write_text_samples": len(entries), "build_model": 0}
        model_set = run_training(entries, config)
        assert calls == {"synth_vowel": len(entries), "write_text_samples": len(entries), "build_model": 2 * 5}
        assert len(model_set.models) == 2 * 5


class TestRunTraining:
    def test_small_corpus_models(self, small_corpus, small_models):
        assert len(small_models.models) == 15  # 3 speakers x 5 vowels
        for model in small_models.models.values():
            assert model.n_utterances == 2

    def test_unreadable_file_warns_and_continues(self, small_corpus, config, caplog):
        _, entries = small_corpus
        group = [e for e in entries if e.split == "train"][:2]
        bogus = ManifestEntry("missing_file.txt", group[0].speaker_id, group[0].vowel, "train")
        with caplog.at_level("WARNING"):
            model_set = run_training([*group, bogus], config)
        assert "missing_file.txt" in caplog.text
        key = (group[0].speaker_id, group[0].vowel)
        assert model_set.models[key].n_utterances == len(
            [e for e in group if (e.speaker_id, e.vowel) == key]
        )

    def test_all_failures_in_group_abort(self, config):
        bogus = [ManifestEntry("nope.txt", "s01", "a", "train")]
        with pytest.raises(ValueError, match=r"\(s01, a\)"):
            run_training(bogus, config)

    def test_no_train_entries(self, config):
        with pytest.raises(ValueError, match="no train"):
            run_training([ManifestEntry("x.txt", "s01", "a", "test")], config)

    @staticmethod
    def interleaved(entries, seed=3):
        """The manifest's rows in a seeded order that mixes speakers, vowels and splits."""
        return [entries[i] for i in np.random.default_rng(seed).permutation(len(entries))]

    def test_models_and_failures_match_a_file_by_file_reference(self, small_corpus, config, tmp_path):
        _, entries = small_corpus
        rows = self.interleaved(entries)
        (tmp_path / "z_malformed.txt").write_text("abc\n")
        # unreadable files just after the first train row of two groups, so they
        # sit among their group's rows; the manifest lists (s03, a)'s first, and
        # (s01, o)'s two against the order of their names
        bad = {("s03", "a"): ["missing.txt"], ("s01", "o"): ["z_malformed.txt", "a_missing.txt"]}
        for key, names in bad.items():
            first = next(i for i, e in enumerate(rows) if e.split == "train" and (e.speaker_id, e.vowel) == key)
            rows[first + 1 : first + 1] = [ManifestEntry(str(tmp_path / name), *key, "train") for name in names]
        listed = [Path(e.path).name for e in rows if e.path.startswith(str(tmp_path))]
        assert listed == ["missing.txt", "z_malformed.txt", "a_missing.txt"]
        # the reference: one file at a time, each group in sorted key order and
        # its files in manifest order
        want, want_failed = {}, []
        for key in sorted({(e.speaker_id, e.vowel) for e in rows if e.split == "train"}):
            features = []
            for entry in (e for e in rows if e.split == "train" and (e.speaker_id, e.vowel) == key):
                try:
                    features.append(pipeline.utterance_features_from_file(entry.path, entry.vowel, config))
                except (OSError, ValueError):
                    want_failed.append(entry.path)
            want[key] = build_model(*key, features)
        assert [Path(path).name for path in want_failed] == ["z_malformed.txt", "a_missing.txt", "missing.txt"]
        failed = []
        model_set = run_training(rows, config, failed)
        assert [path for path, _ in failed] == want_failed
        assert sorted(model_set.models) == sorted(want)
        for key, model in want.items():
            got = model_set.models[key]
            assert got.n_utterances == model.n_utterances
            assert got.mean_features.tobytes() == model.mean_features.tobytes()

    def test_the_first_group_in_key_order_with_no_usable_file_is_named(self, small_corpus, config, tmp_path):
        _, entries = small_corpus
        # every train file of (s03, i) and of (s02, u) is missing; the manifest lists (s03, i)'s first
        dead = {("s03", "i"), ("s02", "u")}
        rows = [
            replace(e, path=str(tmp_path / Path(e.path).name))
            if e.split == "train" and (e.speaker_id, e.vowel) in dead else e
            for e in self.interleaved(entries)
        ]
        keys = [(e.speaker_id, e.vowel) for e in rows if not Path(e.path).exists()]
        assert keys.index(("s03", "i")) < keys.index(("s02", "u"))
        with pytest.raises(ValueError) as refused:
            run_training(rows, config)
        assert str(refused.value) == "no usable training utterances for (s02, u)"


class TestFailedFileReasons:
    @pytest.mark.parametrize("split", ["train", "test"])
    def test_each_failure_names_its_path_once(
        self, small_corpus, small_models, config, tmp_path, caplog, split
    ):
        _, entries = small_corpus
        (tmp_path / "malformed.txt").write_text("abc\n")
        (tmp_path / "silent.txt").write_text("0\n" * 2000)
        kinds = {"malformed": "not a number", "missing": "No such file", "silent": "silent signal"}
        paths = [str(tmp_path / f"{kind}.txt") for kind in kinds]
        first = entries[0]
        bad = [ManifestEntry(path, first.speaker_id, first.vowel, split) for path in paths]
        with caplog.at_level("WARNING", logger=evaluation.log.name):
            if split == "train":
                failed = []
                run_training([*entries, *bad], config, failed)
            else:
                failed = run_evaluation([*entries, *bad], small_models, config).failed
        warnings = [r.getMessage() for r in caplog.records if r.name == evaluation.log.name]
        assert [path for path, _ in failed] == paths
        assert len(warnings) == len(paths)
        for path, (_, reason), warning, detail in zip(paths, failed, warnings, kinds.values()):
            assert reason.count(path) == 1 and detail in reason
            assert warning.count(path) == 1 and detail in warning


class TestRunEvaluation:
    def test_identities_and_determinism(self, small_corpus, small_models, config):
        _, entries = small_corpus
        first = run_evaluation(entries, small_models, config)
        second = run_evaluation(entries, small_models, config)
        assert first.outcomes == second.outcomes
        assert first.systems == second.systems
        combined = first.systems["combined"]
        assert combined.total == 15  # 3 speakers x 5 vowels x 1 test

    def test_failed_file_counted(self, small_corpus, small_models, config, caplog):
        _, entries = small_corpus
        tests = [e for e in entries if e.split == "test"]
        bogus = ManifestEntry("missing_file.txt", tests[0].speaker_id, tests[0].vowel, "test")
        with caplog.at_level("WARNING"):
            report = run_evaluation([*entries, bogus], small_models, config)
        assert [path for path, _ in report.failed] == ["missing_file.txt"]
        assert "missing_file.txt" in report.failed[0][1]
        assert report.systems["combined"].total + len(report.failed) == len(tests) + 1
        assert f"failed: 1 of {len(tests) + 1} test files" in format_report(report)
        assert "failed" not in format_report(run_evaluation(entries, small_models, config))

    def test_pass_in_which_every_file_fails_is_refused(self, small_corpus, small_models, config, tmp_path, caplog):
        # an all-zero report would read as a pass that rejected every trial
        _, entries = small_corpus
        silent = tmp_path / "silent.txt"
        silent.write_text("0\n" * 3000)
        tests = [replace(e, path=str(silent)) for e in entries if e.split == "test"]
        with caplog.at_level("WARNING"), pytest.raises(ValueError) as refused:
            run_evaluation(tests, small_models, config)
        assert str(refused.value) == f"no test file could be scored: failed {len(tests)} of {len(tests)} test files"
        # one file that scores is a report
        assert run_evaluation([*tests, *entries], small_models, config).systems["combined"].total == len(tests)

    def test_no_test_entries(self, small_corpus, small_models, config):
        _, entries = small_corpus
        with pytest.raises(ValueError, match="manifest has no test entries"):
            run_evaluation([e for e in entries if e.split == "train"], small_models, config)

    def test_missing_vowel_models_rejected(self, small_corpus, config):
        _, entries = small_corpus
        partial = ModelSet()
        with pytest.raises(ValueError, match="no models for vowels"):
            run_evaluation(entries, partial, config)

    def test_csv_report_written(self, small_corpus, small_models, config, tmp_path):
        _, entries = small_corpus
        report = run_evaluation(entries, small_models, config)
        write_report_csv(report, tmp_path / "report")
        for name in ("systems.csv", "vowels.csv", "outcomes.csv"):
            assert (tmp_path / "report" / name).exists()
        lines = (tmp_path / "report" / "systems.csv").read_text().splitlines()
        assert lines[0].startswith("system,")
        assert len(lines) == 4

    def test_format_report_contains_tables(self, small_corpus, small_models, config):
        _, entries = small_corpus
        text = format_report(run_evaluation(entries, small_models, config))
        assert "System comparison:" in text
        assert "Per-vowel" in text
        for name in ("cepstral", "temporal", "combined"):
            assert name in text
