import argparse
import wave

import numpy as np
import pytest

from helpers import composed_vector
from psverify import cli
from psverify.evaluation import ManifestEntry, write_manifest
from psverify.modeling import ModelSet, SpeakerModel, save_models
from psverify.pipeline import PipelineConfig, detect_marks, load_signal, preprocess_signal
from psverify.signal_io import load_text_samples


@pytest.fixture(scope="module")
def vowel_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "vowel.txt"
    code = cli.main([
        "synth", "vowel", "--out", str(path), "--f0", "140", "--vowel", "a",
        "--duration", "0.4", "--seed", "3",
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def enrolled(small_corpus, tmp_path_factory):
    manifest_path, entries = small_corpus
    models_path = tmp_path_factory.mktemp("models") / "models.txt"
    code = cli.main(["enroll", "--manifest", str(manifest_path), "--out", str(models_path)])
    assert code == 0
    return models_path, entries


class TestParsing:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_no_subcommand_exits_one(self):
        assert cli.main([]) == 1

    def test_subcommand_help_exits_zero(self):
        for command in ("preprocess", "identify", "evaluate", "synth"):
            with pytest.raises(SystemExit) as exc:
                cli.main([command, "--help"])
            assert exc.value.code == 0


    def test_lpc_order_flag_is_usage_error(self, vowel_file):
        # the order is fixed at 12 by the 16-feature layout
        with pytest.raises(SystemExit) as exc:
            cli.main(["features", str(vowel_file), "--lpc-order", "12"])
        assert exc.value.code == 1


SIGNAL = {"--config", "--sample-rate"}
TRIMMING = {"--frame-len", "--frame-shift", "--silence-multiplier", "--normalization-target",
            "--silence-frames"}
PITCH = {"--min-f0", "--max-f0"}
WEIGHTS = {"--cepstral-weights", "--temporal-weights"}
SETTINGS = SIGNAL | TRIMMING | PITCH | WEIGHTS
SETTINGS_BY_PARSER = {
    "preprocess": SIGNAL | TRIMMING,
    "pitch-marks": SIGNAL | TRIMMING | PITCH,
    "features": SIGNAL | TRIMMING | PITCH,
    "enroll": SIGNAL | TRIMMING | PITCH,
    "identify": SETTINGS,
    "verify": SETTINGS,
    "evaluate": SETTINGS,
    "synth": set(),
    "synth vowel": SIGNAL,
    "synth corpus": SIGNAL,
}


def _sub_parsers(parser, prefix=""):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield prefix + name, child
                yield from _sub_parsers(child, prefix + name + " ")


class TestSettingsSurface:
    @pytest.mark.parametrize("name", SETTINGS_BY_PARSER)
    def test_parser_takes_exactly_its_settings(self, name):
        parser = dict(_sub_parsers(cli.build_parser()))[name]
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags & SETTINGS == SETTINGS_BY_PARSER[name]

    def test_every_parser_is_listed(self):
        assert [name for name, _ in _sub_parsers(cli.build_parser())] == list(SETTINGS_BY_PARSER)
        assert sum(map(len, SETTINGS_BY_PARSER.values())) == 71

    def test_unknown_config_key_is_data_error(self, vowel_file, tmp_path, capsys):
        config = tmp_path / "psv.cfg"
        config.write_text("# shared by every command\ntemporal_weights=1,1,1,1\nmin_f0_hz=60\n")
        out = tmp_path / "pre.txt"
        # keys a command does not read are allowed
        assert cli.main(["preprocess", str(vowel_file), str(out), "--config", str(config)]) == 0
        config.write_text("min_f0_hz=60\nmin_f0=300\n")
        assert cli.main(["features", str(vowel_file), "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert f"{config}: line 2: unknown key 'min_f0'" in captured.err
        assert captured.out == ""

    def test_bad_frame_pair_refused_before_any_file(self, enrolled, small_corpus, tmp_path):
        with pytest.raises(ValueError, match="frame_shift <= frame_len"):
            PipelineConfig(frame_len=50, frame_shift=100)
        models_path, _ = enrolled
        manifest_path, _ = small_corpus
        report_dir = tmp_path / "report"
        code = cli.main([
            "evaluate", "--models", str(models_path), "--manifest", str(manifest_path),
            "--report", str(report_dir), "--frame-len", "50", "--frame-shift", "100",
        ])
        assert code == 2
        assert not report_dir.exists()

    @pytest.mark.parametrize("argv", [
        ["enroll", "--manifest", "m.csv", "--out", "m.txt", "--cepstral-weights", "1,2"],
        ["synth", "--sample-rate", "8000", "vowel", "--out", "v.txt", "--f0", "120",
         "--duration", "0.1", "--silence-pad", "0"],
        ["synth", "--config", "none.cfg", "vowel", "--out", "v.txt", "--f0", "120"],
        ["preprocess", "in.txt", "out.txt", "--max-f0", "300"],
    ])
    def test_setting_a_command_does_not_read_is_usage_error(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", [
        ["--sample-rate", "8000"], ["--config=none.cfg"], ["--min-f0", "60"],
        ["--sample", "8000"], ["--conf=x"],  # prefixes argparse would take
    ])
    def test_setting_before_synth_command_says_where_it_goes(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", *flag, "vowel", "--out", "v.txt", "--f0", "120", "--duration", "0.1"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        name = flag[0].partition("=")[0]
        assert f"{name}: setting flags go after the sub-command (synth vowel|corpus ...)" in err
        assert "invalid choice" not in err
        assert list(tmp_path.iterdir()) == []


class TestSignalCommands:
    def test_preprocess_writes_loadable_signal(self, vowel_file, tmp_path):
        out = tmp_path / "pre.txt"
        assert cli.main(["preprocess", str(vowel_file), str(out)]) == 0
        buf = load_text_samples(out)
        assert np.abs(buf.samples).max() == pytest.approx(10000.0, rel=1e-6)

    def test_preprocess_config_file_and_flag_precedence(self, vowel_file, tmp_path):
        config = tmp_path / "psv.cfg"
        config.write_text("normalization_target=5000\n")
        out = tmp_path / "pre.txt"
        assert cli.main(["preprocess", str(vowel_file), str(out), "--config", str(config)]) == 0
        assert np.abs(load_text_samples(out).samples).max() == pytest.approx(5000.0, rel=1e-6)
        assert cli.main([
            "preprocess", str(vowel_file), str(out),
            "--config", str(config), "--normalization-target", "2000",
        ]) == 0
        assert np.abs(load_text_samples(out).samples).max() == pytest.approx(2000.0, rel=1e-6)

    def test_pitch_marks_output(self, vowel_file, capsys):
        assert cli.main(["pitch-marks", str(vowel_file)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] in ("polarity positive", "polarity negative")
        indices = [int(line) for line in lines[1:]]
        assert len(indices) > 10
        assert all(b > a for a, b in zip(indices, indices[1:]))

    def test_features_line(self, vowel_file, capsys):
        assert cli.main(["features", str(vowel_file), "--vowel", "a"]) == 0
        values = [float(tok) for tok in capsys.readouterr().out.split()]
        assert len(values) == 16

    def test_features_deterministic(self, vowel_file, capsys):
        cli.main(["features", str(vowel_file)])
        first = capsys.readouterr().out
        cli.main(["features", str(vowel_file)])
        assert capsys.readouterr().out == first

    def test_missing_input_is_data_error(self, tmp_path):
        assert cli.main(["pitch-marks", str(tmp_path / "nope.txt")]) == 2

    @pytest.mark.parametrize("size", [30, 44 + 200])
    def test_truncated_wav_is_data_error(self, vowel_file, tmp_path, capsys, size):
        samples = load_text_samples(vowel_file).samples
        path = tmp_path / "cut.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(samples.astype("<i2").tobytes())
        path.write_bytes(path.read_bytes()[:size])
        assert cli.main(["features", str(path)]) == 2
        assert "truncated WAV" in capsys.readouterr().err


class TestRecognitionCommands:
    def test_enroll_then_identify_self_match(self, enrolled, capsys):
        models_path, entries = enrolled
        train = next(e for e in entries if e.split == "train")
        code = cli.main([
            "identify", train.path, "--models", str(models_path), "--vowel", train.vowel,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert f"outcome: accepted {train.speaker_id}" in out
        assert "nearest by cepstra" in out

    def test_verify_verified(self, enrolled):
        models_path, entries = enrolled
        train = next(e for e in entries if e.split == "train")
        code = cli.main([
            "verify", train.path, "--models", str(models_path),
            "--claim", train.speaker_id, "--vowel", train.vowel,
        ])
        assert code == 0

    def test_verify_impostor(self, enrolled):
        models_path, entries = enrolled
        train = next(e for e in entries if e.split == "train")
        other = next(
            e.speaker_id for e in entries if e.speaker_id != train.speaker_id
        )
        code = cli.main([
            "verify", train.path, "--models", str(models_path),
            "--claim", other, "--vowel", train.vowel,
        ])
        assert code == 2

    def test_verify_retry_on_disagreement(self, enrolled, tmp_path):
        _, entries = enrolled
        test_entry = next(e for e in entries if e.split == "test")
        cfg = PipelineConfig()
        buffer = preprocess_signal(load_signal(test_entry.path, cfg), cfg)
        vector = composed_vector(buffer, detect_marks(buffer, cfg))
        temporal, cepstral = vector[:4], vector[4:]
        # one model matches only the cepstra, the other only the temporal block
        crafted = ModelSet()
        crafted.add(SpeakerModel(
            "ra", test_entry.vowel, np.concatenate((temporal + 5.0, cepstral)), 1,
        ))
        crafted.add(SpeakerModel(
            "rb", test_entry.vowel, np.concatenate((temporal, cepstral + 5.0)), 1,
        ))
        crafted_path = tmp_path / "crafted.txt"
        save_models(crafted, crafted_path)
        code = cli.main([
            "verify", test_entry.path, "--models", str(crafted_path),
            "--claim", "ra", "--vowel", test_entry.vowel,
        ])
        assert code == 3

    def test_identify_missing_models_is_data_error(self, vowel_file, tmp_path):
        code = cli.main([
            "identify", str(vowel_file), "--models", str(tmp_path / "none.txt"), "--vowel", "a",
        ])
        assert code == 2

    def test_config_file_weights(self, enrolled, tmp_path, capsys, monkeypatch):
        models_path, entries = enrolled
        train = next(e for e in entries if e.split == "train")
        argv = ["identify", train.path, "--models", str(models_path), "--vowel", train.vowel]

        def temporal_column():
            out = capsys.readouterr().out
            table = out.split("nearest by cepstra")[0].splitlines()[1:]
            return {sid: float(tem) for sid, _, tem in map(str.split, table)}

        assert cli.main(argv) == 0
        plain = temporal_column()
        assert len(plain) == 3
        config = tmp_path / "weights.cfg"
        config.write_text("temporal_weights=2,2,2,2\n")
        reads = []
        parse = cli._parse_config_file
        monkeypatch.setattr(cli, "_parse_config_file", lambda path: reads.append(path) or parse(path))
        assert cli.main(argv + ["--config", str(config)]) == 0
        assert reads == [str(config)]
        doubled = temporal_column()
        assert doubled.keys() == plain.keys()
        for sid, value in plain.items():
            assert doubled[sid] == pytest.approx(2.0 * value, rel=1e-5)

        config.write_text("cepstral_weights=" + ",".join(["1"] * 11) + "\n")
        assert cli.main(argv + ["--config", str(config)]) == 2
        assert "cepstral weights needs 12 values, got 11" in capsys.readouterr().err

    def test_nan_weights_are_data_error(self, enrolled, capsys):
        models_path, entries = enrolled
        test_entry = next(e for e in entries if e.split == "test")
        code = cli.main([
            "verify", test_entry.path, "--models", str(models_path),
            "--claim", test_entry.speaker_id, "--vowel", test_entry.vowel,
            "--cepstral-weights", ",".join(["nan"] + ["1"] * 11),
            "--temporal-weights", "nan,1,1,1",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "finite and positive" in captured.err
        assert "claim" not in captured.out

    def test_enroll_counts_failed_train_files(self, small_corpus, tmp_path, capsys):
        _, entries = small_corpus
        broken = tmp_path / "broken.txt"
        broken.write_text("abc\n")
        first = entries[0]
        manifest = tmp_path / "manifest.csv"
        bad = ManifestEntry(str(broken), first.speaker_id, first.vowel, "train")
        write_manifest([*entries, bad], manifest)
        n_train = sum(e.split == "train" for e in entries) + 1
        code = cli.main(["enroll", "--manifest", str(manifest), "--out", str(tmp_path / "m.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == f"failed: 1 of {n_train} train files"

    def test_enroll_without_failures_prints_no_count(self, small_corpus, tmp_path, capsys):
        manifest_path, _ = small_corpus
        out_path = tmp_path / "m.txt"
        assert cli.main(["enroll", "--manifest", str(manifest_path), "--out", str(out_path)]) == 0
        assert "failed" not in capsys.readouterr().out

    def test_evaluate_writes_reports(self, enrolled, small_corpus, tmp_path, capsys):
        models_path, _ = enrolled
        manifest_path, _ = small_corpus
        report_dir = tmp_path / "report"
        code = cli.main([
            "evaluate", "--models", str(models_path),
            "--manifest", str(manifest_path), "--report", str(report_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "System comparison:" in out
        for name in ("systems.csv", "vowels.csv", "outcomes.csv"):
            assert (report_dir / name).exists()


class TestNonFiniteSettings:
    @pytest.mark.parametrize("field", ["min_f0_hz", "max_f0_hz", "silence_multiplier"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_config_refuses_non_finite(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            PipelineConfig(**{field: bad})

    def test_flag_and_config_file_refuse_non_finite(self, vowel_file, tmp_path, capsys):
        assert cli.main(["features", str(vowel_file), "--max-f0", "inf"]) == 2
        assert "max_f0_hz must be finite and positive" in capsys.readouterr().err
        config = tmp_path / "psv.cfg"
        config.write_text("min_f0_hz=nan\n")
        assert cli.main(["features", str(vowel_file), "--config", str(config)]) == 2
        assert "min_f0_hz must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["1e-200", "1e200"])
    def test_normalization_target_out_of_range_is_data_error(self, target, vowel_file, tmp_path, capsys):
        # beyond [1e-100, 1e100] the frame energies underflow or overflow and
        # a clean vowel would read as "no speech detected"
        out = tmp_path / "pre.txt"
        assert cli.main(["preprocess", str(vowel_file), str(out), "--normalization-target", target]) == 2
        assert "normalization_target must be within [1e-100, 1e100]" in capsys.readouterr().err
        assert not out.exists()


class TestSynthCommand:
    def test_corpus_generation(self, tmp_path, capsys):
        code = cli.main([
            "synth", "corpus", "--out", str(tmp_path / "c"),
            "--speakers", "2", "--train", "1", "--test", "1", "--seed", "2",
        ])
        assert code == 0
        assert (tmp_path / "c" / "manifest.csv").exists()
        assert "20 utterances" in capsys.readouterr().out

    def test_custom_formants(self, tmp_path):
        out = tmp_path / "v.txt"
        code = cli.main([
            "synth", "vowel", "--out", str(out), "--f0", "120",
            "--formants", "500:80,1500:100", "--duration", "0.3",
        ])
        assert code == 0
        assert out.exists()

    def test_abbreviated_setting_after_vowel_is_read(self, tmp_path):
        out = tmp_path / "v.txt"
        code = cli.main([
            "synth", "vowel", "--sample", "8000", "--out", str(out), "--f0", "120", "--duration", "0.1",
        ])
        assert code == 0
        assert len(out.read_text().split()) == 800 + 2 * 400  # 0.1 s plus two 0.05 s pads at 8 kHz

    @pytest.mark.parametrize("argv, message", [
        (["vowel", "--duration", "inf"], "duration_s must be finite and positive, got inf"),
        (["vowel", "--duration", "nan"], "duration_s must be finite and positive, got nan"),
        (["vowel", "--silence-pad", "inf"], "silence_pad_s must be finite and non-negative, got inf"),
        (["vowel", "--silence-pad", "nan"], "silence_pad_s must be finite and non-negative, got nan"),
        (["vowel", "--silence-pad", "-1"], "silence_pad_s must be finite and non-negative, got -1.0"),
        (["vowel", "--formants", "500:inf"], "formant bandwidth must be finite and positive, got inf"),
        (["corpus", "--duration", "inf"], "duration_s must be finite and positive, got inf"),
        (["corpus", "--silence-pad", "nan"], "silence_pad_s must be finite and non-negative, got nan"),
    ])
    def test_bad_size_is_data_error(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        what, *sizes = argv
        target = ["--out", "v.txt", "--f0", "120"] if what == "vowel" else ["--out", "c"]
        assert cli.main(["synth", what, *target, *sizes]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "v.txt").exists()
        assert not (tmp_path / "c").exists()  # sizes are checked before the corpus directory is made

    def test_synth_without_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth"])
        assert exc.value.code == 1

    def test_bad_speaker_count_is_data_error(self, tmp_path):
        code = cli.main([
            "synth", "corpus", "--out", str(tmp_path / "c"), "--speakers", "1",
        ])
        assert code == 2
