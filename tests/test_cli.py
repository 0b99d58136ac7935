import argparse
import functools
import wave

import numpy as np
import pytest

from helpers import composed_vector
from psverify import cli, evaluation
from psverify.evaluation import ManifestEntry, write_manifest
from psverify.features import CepstralVector, TemporalFeatures, UtteranceFeatures
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


PIPELINE = {"--sample-rate", "--min-f0", "--max-f0"}
WEIGHTS = {"--cepstral-weights", "--temporal-weights"}
SETTINGS = PIPELINE | WEIGHTS
SETTINGS_BY_PARSER = {
    "preprocess": set(),
    "pitch-marks": PIPELINE,
    "features": PIPELINE,
    "enroll": PIPELINE,
    "identify": SETTINGS,
    "verify": SETTINGS,
    "evaluate": SETTINGS,
    "synth": set(),
    "synth vowel": set(),
    "synth corpus": set(),
}
# each command's own options, which are not settings: synth's --sample-rate
# is the rate it writes, not the pipeline's rate of text inputs
OWN_OPTIONS = {
    "preprocess": set(),
    "pitch-marks": set(),
    "features": set(),
    "enroll": {"--manifest", "--out"},
    "identify": {"--models", "--vowel"},
    "verify": {"--models", "--claim", "--vowel"},
    "evaluate": {"--models", "--manifest", "--report"},
    "synth": set(),
    "synth vowel": {"--out", "--f0", "--vowel", "--formants", "--duration", "--silence-pad", "--seed",
                    "--sample-rate"},
    "synth corpus": {"--out", "--speakers", "--train", "--test", "--seed", "--duration", "--silence-pad",
                     "--sample-rate"},
}
# abbreviations argparse takes for a flag, which a refusal names in full
ABBREVIATED = {"--sample": "--sample-rate", "--sam": "--sample-rate", "--temp": "--temporal-weights",
               "--mi": "--min-f0"}


def _taken_flags(parser):
    """Every option string a parser takes, bar help and the hidden refusal of settings."""
    return {flag for action in parser._actions if not isinstance(action, cli._SettingBeforeCommand)
            for flag in action.option_strings} - {"-h", "--help"}


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
        # every option string bar help, so a stray or re-added setting shows
        assert _taken_flags(parser) == SETTINGS_BY_PARSER[name] | OWN_OPTIONS[name]

    def test_every_parser_is_listed(self):
        assert [name for name, _ in _sub_parsers(cli.build_parser())] == list(SETTINGS_BY_PARSER)
        assert list(OWN_OPTIONS) == list(SETTINGS_BY_PARSER)
        assert sum(map(len, SETTINGS_BY_PARSER.values())) == 24

    def test_parsers_before_a_command_refuse_every_setting_unseen(self):
        parser = cli.build_parser()
        parsers = {"psverify": parser, **{name: p for name, p in _sub_parsers(parser)}}
        for name, p in parsers.items():
            hidden = [a for a in p._actions if isinstance(a, cli._SettingBeforeCommand)]
            if name in ("psverify", "synth"):
                # "--m" starts two settings: spelled out, argparse matches it exactly
                (action,) = hidden
                assert set(action.option_strings) == SETTINGS | {"--m"}
                assert action.help is argparse.SUPPRESS and action.dest is argparse.SUPPRESS
                assert "--min-f0" not in p.format_help()
            else:
                assert hidden == []
        assert _taken_flags(parser) == set()

    def test_help_names_each_rate(self, capsys):
        for argv, text in ((["synth", "vowel"], "output sample rate (default 16000)"),
                           (["synth", "corpus"], "output sample rate (default 16000)"),
                           (["features"], "rate of text inputs; a WAV file carries its own")):
            with pytest.raises(SystemExit):
                cli.main([*argv, "--help"])
            assert text in " ".join(capsys.readouterr().out.split())

    def test_unknown_config_key_is_data_error(self, vowel_file, tmp_path, capsys, monkeypatch):
        # settings come from flags alone: --config is a usage error that reads and writes nothing
        monkeypatch.chdir(tmp_path)
        opened = []
        monkeypatch.setattr(cli.pipeline, "load_signal", lambda *a: opened.append(a))
        for argv in (["preprocess", str(vowel_file), "pre.txt"], ["features", str(vowel_file)]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--config", "psv.cfg"])
            assert exc.value.code == 1
            captured = capsys.readouterr()
            assert "unrecognized arguments: --config psv.cfg" in captured.err
            assert captured.out == ""
        assert opened == []
        assert list(tmp_path.iterdir()) == []

    def test_bad_pitch_bounds_refused_before_any_file(self, enrolled, small_corpus, tmp_path, capsys):
        models_path, _ = enrolled
        manifest_path, _ = small_corpus
        report_dir = tmp_path / "report"
        code = cli.main([
            "evaluate", "--models", str(models_path), "--manifest", str(manifest_path),
            "--report", str(report_dir), "--min-f0", "600", "--max-f0", "500",
        ])
        assert code == 2
        assert "need min_f0_hz < max_f0_hz" in capsys.readouterr().err
        assert not report_dir.exists()

    @pytest.mark.parametrize("argv", [
        ["enroll", "--manifest", "m.csv", "--out", "m.txt", "--cepstral-weights", "1,2"],
        ["synth", "--sample-rate", "8000", "vowel", "--out", "v.txt", "--f0", "120",
         "--duration", "0.1", "--silence-pad", "0"],
        ["synth", "vowel", "--out", "v.txt", "--f0", "120", "--max-f0", "300"],
        ["preprocess", "in.txt", "out.txt", "--max-f0", "300"],
        # the output is the same at every rate: the rate is not a preprocess setting
        ["preprocess", "in.txt", "out.txt", "--sample-rate", "8000"],
    ])
    def test_setting_a_command_does_not_read_is_usage_error(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", [
        ["--sample-rate", "8000"], ["--max-f0=300"], ["--min-f0", "60"],
        ["--sample", "8000"], ["--temp=1"],  # prefixes argparse would take
    ])
    def test_setting_before_synth_command_says_where_it_goes(self, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", *flag, "vowel", "--out", "v.txt", "--f0", "120", "--duration", "0.1"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        name = flag[0].partition("=")[0]
        refusal = f"{ABBREVIATED.get(name, name)}: setting flags go after the sub-command that reads them"
        assert f"psverify synth: error: {refusal}" in err
        assert "invalid choice" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--min-f0", "60", "features", "x.txt"],
        ["--sam", "8000", "features", "x.txt"],
        ["--mi=60", "pitch-marks", "x.txt"],
        ["--temp", "1,1,1,1", "identify", "x.txt", "--models", "m.bin", "--vowel", "a"],
        ["--cepstral-weights", "preprocess", "in.txt", "out.txt"],
        ["--m", "3", "features", "x.txt"],
        ["--max-f0"],
    ])
    def test_setting_before_any_command_says_where_it_goes(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        name = argv[0].partition("=")[0]
        refusal = f"{ABBREVIATED.get(name, name)}: setting flags go after the sub-command that reads them"
        assert f"psverify: error: {refusal}" in err
        assert "invalid choice" not in err
        assert list(tmp_path.iterdir()) == []

    def test_settings_after_the_command_are_read_abbreviated_or_not(self):
        parse = cli.build_parser().parse_args
        assert parse(["features", "x.txt", "--min", "60"]).min_f0_hz == 60.0
        assert parse(["pitch-marks", "x.txt", "--sample-rate=8000", "--max-f0", "300"]).max_f0_hz == 300.0
        args = parse(["identify", "x.txt", "--models", "m", "--vowel", "a", "--temp", "1,2,3,4"])
        assert args.temporal_weights == [1.0, 2.0, 3.0, 4.0]
        # the refusal of settings before a command leaves no attribute behind
        assert set(vars(args)) == {"command", "handler", "settings", "input", "models", "vowel",
                                   "sample_rate_hz", "min_f0_hz", "max_f0_hz", "cepstral_weights", "temporal_weights"}

    @pytest.mark.parametrize("argv, message", [
        # "--m" is a setting's prefix only before the command; after it, the command's parser decides
        (["preprocess", "in.txt", "out.txt", "--m", "3"], "psverify preprocess: error: unrecognized arguments: --m 3"),
        (["synth", "vowel", "--out", "v.txt", "--f0", "120", "--m", "3"],
         "psverify synth vowel: error: unrecognized arguments: --m 3"),
        (["features", "x.txt", "--m", "3"],
         "psverify features: error: ambiguous option: --m could match --min-f0, --max-f0"),
        (["enroll", "--manifest", "m.csv", "--out", "m.bin", "--m", "3"],
         "psverify enroll: error: ambiguous option: --m could match --min-f0, --max-f0, --manifest"),
    ], ids=["preprocess", "synth-vowel", "features", "enroll"])
    def test_prefix_of_two_settings_after_a_command_gets_that_commands_reason(self, argv, message, tmp_path,
                                                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines()[-1] == message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, argv, leftovers", [
        ("preprocess", ["preprocess", "a", "b", "--frame-len", "10"], "--frame-len 10"),
        ("pitch-marks", ["pitch-marks", "x.txt", "--bogus", "1"], "--bogus 1"),
        ("features", ["features", "x.txt", "--bogus", "1"], "--bogus 1"),
        ("enroll", ["enroll", "--manifest", "m.csv", "--out", "m.bin", "extra"], "extra"),
        ("identify", ["identify", "x.txt", "--models", "m.bin", "--vowel", "a", "--bogus"], "--bogus"),
        ("verify", ["verify", "x.txt", "--models", "m.bin", "--vowel", "a", "--claim", "s01", "y.txt"], "y.txt"),
        ("evaluate", ["evaluate", "--models", "m.bin", "--manifest", "m.csv", "--report", "r", "--bogus"],
         "--bogus"),
        ("synth", ["synth", "--bogus", "vowel", "--out", "v.txt", "--f0", "120"], "--bogus"),
        ("synth vowel", ["synth", "vowel", "--out", "v.txt", "--f0", "120", "--bogus"], "--bogus"),
        ("synth corpus", ["synth", "corpus", "--out", "c", "--bogus", "1"], "--bogus 1"),
    ])
    def test_leftover_arguments_get_the_commands_usage(self, command, argv, leftovers, tmp_path, monkeypatch,
                                                       capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        usage, *_, error = capsys.readouterr().err.splitlines()
        assert usage.startswith(f"usage: psverify {command} [-h]")
        assert error == f"psverify {command}: error: unrecognized arguments: {leftovers}"
        assert list(tmp_path.iterdir()) == []

    def test_leftover_arguments_before_a_command_get_the_top_level_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--bogus", "features", "x.txt"])
        assert exc.value.code == 1
        usage, *_, error = capsys.readouterr().err.splitlines()
        assert usage == "usage: psverify [-h] COMMAND ..."
        assert error == "psverify: error: unrecognized arguments: --bogus"

    @pytest.mark.parametrize("argv, flag", [
        (["identify", "x.txt", "--models", "m.bin", "--vowel", "a", "--cepstral-weights", "abc"],
         "--cepstral-weights"),
        (["verify", "x.txt", "--models", "m.bin", "--claim", "s1", "--vowel", "a", "--temporal-weights", "1,2,3,x"],
         "--temporal-weights"),
        (["synth", "vowel", "--out", "v.txt", "--f0", "120", "--formants", "abc"], "--formants"),
        (["synth", "vowel", "--out", "v.txt", "--f0", "120", "--formants", "500:80,x:90"], "--formants"),
        # values that name no formant
        (["synth", "vowel", "--out", "v.txt", "--f0", "120", "--formants", ",,,"], "--formants"),
        (["synth", "vowel", "--out", "v.txt", "--f0", "120", "--formants", ""], "--formants"),
    ])
    def test_malformed_list_flag_is_usage_error_naming_it(self, argv, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert f"error: argument {flag}: expected " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSignalCommands:
    def test_preprocess_writes_loadable_signal(self, vowel_file, tmp_path):
        out = tmp_path / "pre.txt"
        assert cli.main(["preprocess", str(vowel_file), str(out)]) == 0
        buf = load_text_samples(out)
        assert np.abs(buf.samples).max() == 10000.0  # exact once written with 12 digits

    def test_pitch_marks_config_file_and_flag_precedence(self, vowel_file, capsys):
        # near the vowel's 140 Hz, the highest admissible F0 moves its marks
        def marks(max_f0_hz):
            cfg = PipelineConfig(max_f0_hz=max_f0_hz)
            buffer = preprocess_signal(load_signal(vowel_file, cfg))
            return detect_marks(buffer, cfg).mark_indices.tolist()

        def printed_marks(*argv):
            assert cli.main(["pitch-marks", str(vowel_file), *argv]) == 0
            return [int(line) for line in capsys.readouterr().out.splitlines()[1:]]

        assert marks(500.0) != marks(150.0) != marks(130.0) != marks(500.0)
        assert printed_marks() == marks(500.0)
        assert printed_marks("--max-f0", "150") == marks(150.0)
        assert printed_marks("--max-f0", "130") == marks(130.0)

    def test_normalization_target_is_gone(self, vowel_file, tmp_path, capsys):
        # the peak is the fixed 10,000: the flag is a usage error
        out = tmp_path / "pre.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(["preprocess", str(vowel_file), str(out), "--normalization-target", "5000"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --normalization-target" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--frame-len", "--frame-shift", "--silence-frames", "--silence-multiplier"])
    def test_trimming_flag_is_usage_error(self, flag, vowel_file, tmp_path):
        # the trimming rule is fixed in preprocess, as the peak is
        out = tmp_path / "pre.txt"
        with pytest.raises(SystemExit) as exc:
            cli.main(["preprocess", str(vowel_file), str(out), flag, "10"])
        assert exc.value.code == 1
        assert not out.exists()

    def test_pitch_marks_output(self, vowel_file, capsys):
        assert cli.main(["pitch-marks", str(vowel_file)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        marks = detect_marks(preprocess_signal(load_signal(vowel_file)))
        assert lines[0] == {1: "polarity positive", -1: "polarity negative"}[marks.polarity_used]
        indices = [int(line) for line in lines[1:]]
        assert indices == marks.mark_indices.tolist()
        assert len(indices) > 10
        assert all(b > a for a, b in zip(indices, indices[1:]))

    def test_features_line(self, vowel_file, capsys):
        assert cli.main(["features", str(vowel_file)]) == 0
        values = [float(tok) for tok in capsys.readouterr().out.split()]
        assert len(values) == 16

    def test_features_deterministic(self, vowel_file, capsys):
        cli.main(["features", str(vowel_file)])
        first = capsys.readouterr().out
        cli.main(["features", str(vowel_file)])
        assert capsys.readouterr().out == first

    def test_missing_input_is_data_error(self, tmp_path):
        assert cli.main(["pitch-marks", str(tmp_path / "nope.txt")]) == 2

    def test_non_utf8_text_is_data_error_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1\n2\n")
        assert cli.main(["features", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text: ")

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

    @pytest.mark.parametrize("claim, vowel", [("nobody", "a"), ("s2", "e")])
    def test_verify_refuses_an_unknown_claim_before_scoring(self, claim, vowel, vowel_file, tmp_path, monkeypatch, capsys):
        # s2 is enrolled on a only; the claim is refused before the input is read
        model_set = ModelSet()
        for sid, v in (("s1", "a"), ("s1", "e"), ("s2", "a")):
            model_set.add(SpeakerModel(sid, v, np.zeros(16), 1))
        models_path = tmp_path / "small.bin"
        save_models(model_set, models_path)
        read = []
        monkeypatch.setattr(cli.pipeline, "utterance_features_from_file", lambda *a: read.append(a))
        code = cli.main(["verify", str(vowel_file), "--models", str(models_path), "--claim", claim, "--vowel", vowel])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"error: unknown claimed speaker {claim!r}" in captured.err
        assert read == []

    def test_identify_prints_the_exact_table(self, vowel_file, tmp_path, monkeypatch, capsys):
        # fixed features, so the bytes pin the table's layout, not the pipeline
        feats = UtteranceFeatures(TemporalFeatures(4.0, 0.0, 1.0, 5.0), CepstralVector(np.linspace(-1, 1, 12)), "a")
        monkeypatch.setattr(cli.pipeline, "utterance_features_from_file", lambda path, vowel, cfg: feats)
        model_set = ModelSet()
        for sid, shift in (("s2", 0.5), ("s10", 0.25), ("speaker_with_a_long_id", 3.0)):
            model_set.add(SpeakerModel(sid, "a", feats.vector + shift * np.arange(16) / 16, 2))
        model_set.add(SpeakerModel("s2", "e", np.zeros(16), 1))
        models_path = tmp_path / "small.bin"
        save_models(model_set, models_path)
        code = cli.main(["identify", str(vowel_file), "--models", str(models_path), "--vowel", "a"])
        assert code == 0
        assert capsys.readouterr().out == (
            "speaker            cepstral       temporal\n"
            "s10                 12.1265     0.00341797\n"
            "s2                  48.5059      0.0136719\n"
            "speaker_with_a_long_id        1746.21       0.492188\n"
            "nearest by cepstra:  s10\n"
            "nearest by features: s10\n"
            "outcome: accepted s10\n"
        )

    def test_identify_reports_disagreeing_picks_as_a_rejection(self, vowel_file, tmp_path, monkeypatch, capsys):
        # ra is nearest by cepstra and rb by the temporal features
        feats = UtteranceFeatures(TemporalFeatures(4.0, 0.0, 1.0, 5.0), CepstralVector(np.linspace(-1, 1, 12)), "a")
        monkeypatch.setattr(cli.pipeline, "utterance_features_from_file", lambda path, vowel, cfg: feats)
        model_set = ModelSet()
        model_set.add(SpeakerModel("ra", "a", feats.vector + np.repeat([5.0, 0.0], [4, 12]), 1))
        model_set.add(SpeakerModel("rb", "a", feats.vector + np.repeat([0.0, 5.0], [4, 12]), 1))
        models_path = tmp_path / "split.bin"
        save_models(model_set, models_path)
        code = cli.main(["identify", str(vowel_file), "--models", str(models_path), "--vowel", "a"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "nearest by cepstra:  ra",
            "nearest by features: rb",
            "outcome: rejected (nearest speakers disagree)",
        ]

    def test_identify_missing_models_is_data_error(self, vowel_file, tmp_path):
        code = cli.main([
            "identify", str(vowel_file), "--models", str(tmp_path / "none.txt"), "--vowel", "a",
        ])
        assert code == 2

    def test_identify_v1_models_is_data_error(self, vowel_file, tmp_path, capsys):
        v1 = tmp_path / "v1.txt"
        v1.write_text("PSV-MODELS v1\ns01 a 3 " + " ".join(["1.0"] * 16) + "\n")
        code = cli.main(["identify", str(vowel_file), "--models", str(v1), "--vowel", "a"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {v1}: not a 'PSV-MODELS v3' model file; run enroll")

    def test_config_file_weights(self, enrolled, capsys):
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
        # the weight flags are the only way to set the weights
        assert cli.main(argv + ["--temporal-weights", "2,2,2,2"]) == 0
        doubled = temporal_column()
        assert doubled.keys() == plain.keys()
        for sid, value in plain.items():
            assert doubled[sid] == pytest.approx(2.0 * value, rel=1e-5)

        assert cli.main(argv + ["--cepstral-weights", ",".join(["1"] * 11)]) == 2
        assert "cepstral_weights needs 12 values, got 11" in capsys.readouterr().err

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

    def test_evaluate_refuses_a_pass_that_scored_nothing(self, enrolled, small_corpus, tmp_path, capsys):
        # every test file silent: an all-zero report is refused, and no CSV is written
        models_path, _ = enrolled
        _, entries = small_corpus
        silent = tmp_path / "silent.txt"
        silent.write_text("0\n" * 3000)
        manifest = tmp_path / "manifest.csv"
        write_manifest([e if e.split == "train" else ManifestEntry(str(silent), e.speaker_id, e.vowel, "test")
                        for e in entries], manifest)
        report_dir = tmp_path / "report"
        code = cli.main(["evaluate", "--models", str(models_path), "--manifest", str(manifest),
                         "--report", str(report_dir)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: no test file could be scored: failed 15 of 15 test files" in captured.err
        assert not report_dir.exists()

    def test_model_file_with_a_speaker_missing_on_one_vowel(self, small_corpus, tmp_path, capsys):
        # s03 enrolled on every vowel but u: identify scores 2 speakers on u and 3 on a
        _, entries = small_corpus
        manifest = tmp_path / "partial.csv"
        write_manifest([e for e in entries if (e.speaker_id, e.vowel) != ("s03", "u")], manifest)
        models_path = tmp_path / "partial.bin"
        assert cli.main(["enroll", "--manifest", str(manifest), "--out", str(models_path)]) == 0
        capsys.readouterr()
        for vowel, speakers in (("u", ["s01", "s02"]), ("a", ["s01", "s02", "s03"])):
            test = next(e for e in entries if (e.speaker_id, e.vowel, e.split) == ("s01", vowel, "test"))
            assert cli.main(["identify", test.path, "--models", str(models_path), "--vowel", vowel]) == 0
            rows = capsys.readouterr().out.splitlines()[1:-3]
            assert [row.split()[0] for row in rows] == speakers

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
    @pytest.mark.parametrize("field", ["min_f0_hz", "max_f0_hz", "sample_rate_hz"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_config_refuses_non_finite(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            PipelineConfig(**{field: bad})

    def test_flag_and_config_file_refuse_non_finite(self, vowel_file, capsys):
        # the flags are the only way in
        assert cli.main(["features", str(vowel_file), "--max-f0", "inf"]) == 2
        assert "max_f0_hz must be finite and positive" in capsys.readouterr().err
        assert cli.main(["features", str(vowel_file), "--min-f0", "nan"]) == 2
        assert "min_f0_hz must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("settings, message", [
        (["--min-f0", "1e-320"], "need sample_rate_hz / min_f0_hz finite, got 16000/9.99989e-321"),
        (["--sample-rate", "1" + "0" * 400], "sample_rate_hz must be finite and positive, at most 1.79769e+308"),
        (["--sample-rate", str(10**308), "--min-f0", "0.5"],
         "need sample_rate_hz / min_f0_hz finite, got 1" + "0" * 308 + "/0.5"),
    ], ids=["min-f0", "sample-rate", "rate-over-min-f0"])
    def test_overflowing_setting_is_data_error(self, settings, message, tmp_path, capsys):
        # refused before the (missing) input file is read
        missing = tmp_path / "missing.txt"
        assert cli.main(["features", str(missing), *settings]) == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "missing.txt" not in err

    def test_min_f0_at_nyquist_is_data_error(self, tmp_path, capsys):
        # at min_f0 >= rate/2 the period bounds collapse to 2/2; refused before
        # the (missing) input file is read
        missing = tmp_path / "missing.txt"
        assert cli.main(["features", str(missing), "--min-f0", "8000", "--max-f0", "9000"]) == 2
        err = capsys.readouterr().err
        assert "need min_f0_hz < sample_rate_hz / 2, got 8000/16000" in err
        assert "missing.txt" not in err

    @pytest.mark.parametrize("rate, settings, got", [
        (8000, ["--min-f0", "4500", "--max-f0", "5000"], "4500/8000"),
        (1, [], "50/1"),
    ])
    def test_min_f0_checked_against_the_wav_rate(self, rate, settings, got, vowel_file, tmp_path, capsys):
        # the settings pass at the configured 16 kHz; the file's own rate refuses them
        path = tmp_path / "v.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(rate)
            w.writeframes(load_text_samples(vowel_file).samples.astype("<i2").tobytes())
        assert cli.main(["features", str(path), *settings]) == 2
        assert f"need min_f0_hz < sample_rate_hz / 2, got {got}" in capsys.readouterr().err


class TestSynthCommand:
    def test_corpus_generation(self, tmp_path, capsys):
        code = cli.main([
            "synth", "corpus", "--out", str(tmp_path / "c"),
            "--speakers", "2", "--train", "1", "--test", "1", "--seed", "2",
        ])
        assert code == 0
        assert (tmp_path / "c" / "manifest.csv").exists()
        assert "20 utterances" in capsys.readouterr().out

    def test_rate_is_the_output_rate_alone(self, tmp_path):
        # no pipeline pitch bound applies: 30 Hz with a 40 Hz formant at 99 Hz is valid
        out = tmp_path / "v.txt"
        code = cli.main([
            "synth", "vowel", "--out", str(out), "--f0", "30", "--formants", "40:10",
            "--sample-rate", "99", "--duration", "1",
        ])
        assert code == 0
        assert len(out.read_text().split()) == 99 + 2 * 5  # 1 s plus two 0.05 s pads, rounded

    @pytest.mark.parametrize("what", ["vowel", "corpus"])
    @pytest.mark.parametrize("rate", ["0", "-8000", "1" + "0" * 400], ids=["0", "negative", "1e400"])
    def test_bad_rate_is_data_error_naming_it(self, what, rate, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        target = ["--out", "v.txt", "--f0", "120"] if what == "vowel" else ["--out", "c"]
        assert cli.main(["synth", what, *target, "--sample-rate", rate]) == 2
        err = capsys.readouterr().err
        assert f"error: sample_rate_hz must be finite and positive, at most 1.79769e+308, got {rate}\n" in err
        assert not any(tmp_path.iterdir())

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
        (["corpus", "--sample-rate", "5000", "--speakers", "2", "--train", "1", "--test", "0"],
         "formant centre 2639.5566944647185 Hz beyond Nyquist"),
        # sizes whose sample counts overflow
        (["vowel", "--f0", "1e-320"], "f0 1e-320 Hz out of range for rate 16000"),
        (["vowel", "--duration", "1e308"], "duration_s 1e+308 s overflows a sample count at 16000 Hz"),
        (["vowel", "--silence-pad", "1e308"], "silence_pad_s 1e+308 s overflows a sample count at 16000 Hz"),
        (["corpus", "--duration", "1e308"], "duration_s 1e+308 s overflows a sample count at 16000 Hz"),
        (["corpus", "--silence-pad", "1e308"], "silence_pad_s 1e+308 s overflows a sample count at 16000 Hz"),
        # a period longer than the voiced part, where no impulse would land
        (["vowel", "--f0", "0.001"], "f0 0.001 Hz: a period of 16000000 samples exceeds the 8000 voiced samples"),
        # a bandwidth whose resonance would not decay within 2**20 samples
        (["vowel", "--formants", "500:0.1"],
         "formant bandwidth 0.1 Hz too narrow for rate 16000: its resonance outlasts 1048576 samples"),
    ])
    def test_bad_size_is_data_error(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        what, *sizes = argv
        target = ["--out", "v.txt", "--f0", "120"] if what == "vowel" else ["--out", "c"]
        assert cli.main(["synth", what, *target, *sizes]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "v.txt").exists()
        assert not (tmp_path / "c").exists()  # every utterance is checked before the corpus directory is made

    @pytest.mark.parametrize("what", ["vowel", "corpus"])
    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    def test_bad_seed_is_usage_error(self, what, seed, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        target = ["--out", "v.txt", "--f0", "120"] if what == "vowel" else ["--out", "c"]
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth", what, *target, "--seed", seed])
        assert exc.value.code == 1
        assert f"argument --seed: expected a non-negative integer, got {seed!r}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_synth_without_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["synth"])
        assert exc.value.code == 1

    def test_bad_speaker_count_is_data_error(self, tmp_path):
        code = cli.main([
            "synth", "corpus", "--out", str(tmp_path / "c"), "--speakers", "1",
        ])
        assert code == 2

    def test_corpus_passes_only_the_flags_given(self, tmp_path, monkeypatch):
        # make_synthetic_corpus's defaults are the only ones: a flag not given is not passed
        calls = []

        @functools.wraps(evaluation.make_synthetic_corpus)
        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return tmp_path / "manifest.csv", []

        monkeypatch.setattr(evaluation, "make_synthetic_corpus", recording)
        assert cli.main(["synth", "corpus", "--out", "c"]) == 0
        assert cli.main(["synth", "corpus", "--out", "d", "--speakers", "3", "--train", "2", "--test", "0",
                         "--seed", "4", "--duration", "0.2", "--silence-pad", "0.01", "--sample-rate", "8000"]) == 0
        assert calls == [
            (("c",), {"sample_rate_hz": 16000}),
            (("d",), {"n_speakers": 3, "train_per_vowel": 2, "test_per_vowel": 0, "seed": 4,
                      "sample_rate_hz": 8000, "duration_s": 0.2, "silence_pad_s": 0.01}),
        ]

    def test_corpus_writes_the_library_corpus(self, tmp_path):
        flags = ["--speakers", "2", "--train", "1", "--test", "1", "--seed", "9", "--duration", "0.2",
                 "--silence-pad", "0.01"]
        assert cli.main(["synth", "corpus", "--out", str(tmp_path / "cli"), *flags]) == 0
        evaluation.make_synthetic_corpus(tmp_path / "library", n_speakers=2, train_per_vowel=1, test_per_vowel=1,
                                         seed=9, duration_s=0.2, silence_pad_s=0.01)
        written = {root: {p.name: p.read_bytes() for p in (tmp_path / root).iterdir()} for root in ("cli", "library")}
        assert len(written["cli"]) == 2 * 5 * 2 + 1
        assert written["cli"] == written["library"]

    def test_corpus_help_names_no_default(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            cli.main(["synth", "corpus", "--help"])
        assert capsys.readouterr().out.split() == """
            usage: psverify synth corpus [-h] --out DIR [--speakers SPEAKERS]
                                         [--train TRAIN] [--test TEST] [--seed SEED]
                                         [--duration DURATION] [--silence-pad SILENCE_PAD]
                                         [--sample-rate HZ]
            options:
              -h, --help            show this help message and exit
              --out DIR
              --speakers SPEAKERS
              --train TRAIN         train utterances per vowel
              --test TEST           test utterances per vowel
              --seed SEED
              --duration DURATION
              --silence-pad SILENCE_PAD
              --sample-rate HZ      output sample rate (default 16000)
            """.split()
