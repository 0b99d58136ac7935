"""Command-line entry point.

Subcommands: preprocess, pitch-marks, features, enroll, identify, verify,
evaluate, synth. Exit codes: 0 success, 1 usage error, 2 data error;
`verify` additionally exits 2 for an impostor and 3 for a retry.
"""

import argparse
import dataclasses
import itertools
import logging
import sys
from pathlib import Path

import numpy as np

from . import evaluation, modeling, pipeline, signal_io
from .decision import (
    IMPOSTOR,
    RETRY,
    VERIFIED,
    DistanceWeights,
    identify_combined,
    score_against_models,
    verify_claim,
)
from .features import VOWELS

USAGE_ERROR = 1
DATA_ERROR = 2

_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(pipeline.PipelineConfig)}
_WEIGHT_COUNTS = {"cepstral_weights": 12, "temporal_weights": 4}
# every key a config file may hold, with the type its value is read as
_CONFIG_KEYS = _CONFIG_FIELDS | dict.fromkeys(_WEIGHT_COUNTS, str)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _parse_config_file(path) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        try:
            if not eq:
                raise ValueError("expected key=value")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown key {key!r}")
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return values


def _build_config(values) -> pipeline.PipelineConfig:
    return pipeline.PipelineConfig(**{k: values[k] for k in _CONFIG_FIELDS if k in values})


def _parse_weight_list(text, count, label) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != count:
        raise ValueError(f"{label} needs {count} values, got {len(parts)}")
    return np.array([float(p) for p in parts])


def _build_weights(values) -> DistanceWeights:
    return DistanceWeights(**{
        key: _parse_weight_list(values[key], count, key.replace("_", " "))
        for key, count in _WEIGHT_COUNTS.items() if key in values
    })


def _parse_formants(text):
    formants = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        centre, _, bandwidth = chunk.partition(":")
        formants.append((float(centre), float(bandwidth) if bandwidth else 60.0))
    return tuple(formants)


def _setting_groups() -> list[argparse.ArgumentParser]:
    """Parent parsers for the signal, trimming, pitch and weight settings; a
    command that reads one group reads all before it, so takes a prefix."""
    d = pipeline.PipelineConfig()
    parents = []

    def group(title):
        parents.append(argparse.ArgumentParser(add_help=False))
        return parents[-1].add_argument_group(title)

    g = group("signal options")
    g.add_argument("--config", metavar="FILE", help="key=value config file; flags win")
    g.add_argument("--sample-rate", dest="sample_rate_hz", type=int, metavar="HZ",
                   help=f"rate for text inputs (default {d.sample_rate_hz})")
    g = group("trimming options")
    g.add_argument("--frame-len", dest="frame_len", type=int,
                   help=f"silence frame length (default {d.frame_len})")
    g.add_argument("--frame-shift", dest="frame_shift", type=int,
                   help=f"silence frame shift (default {d.frame_shift})")
    g.add_argument("--silence-multiplier", dest="silence_multiplier", type=float,
                   help=f"speech-energy factor over silence (default {d.silence_multiplier:g})")
    g.add_argument("--normalization-target", dest="normalization_target", type=float,
                   help=f"peak normalization value (default {d.normalization_target:g})")
    g.add_argument("--silence-frames", dest="silence_frames", type=int,
                   help=f"lowest-energy frames averaged as silence (default {d.silence_frames})")
    g = group("pitch options")
    g.add_argument("--min-f0", dest="min_f0_hz", type=float,
                   help=f"lowest admissible F0 (default {d.min_f0_hz:g})")
    g.add_argument("--max-f0", dest="max_f0_hz", type=float,
                   help=f"highest admissible F0 (default {d.max_f0_hz:g})")
    g = group("distance weights")
    g.add_argument("--cepstral-weights", dest="cepstral_weights", metavar="W1,..,W12",
                   help="override the Tokhura cepstral weight table")
    g.add_argument("--temporal-weights", dest="temporal_weights", metavar="W1,..,W4",
                   help="override the temporal distance weights (default all 1)")
    return parents


def build_parser() -> argparse.ArgumentParser:
    groups = _setting_groups()
    parser = _Parser(prog="psverify",
                     description="Pitch-synchronous speaker verification toolkit.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(subparsers, name, handler, n_groups, summary):
        p = subparsers.add_parser(name, parents=groups[:n_groups], help=summary)
        p.set_defaults(handler=handler)
        return p

    p = command(sub, "preprocess", _cmd_preprocess, 2,
                "DC-correct, normalize and silence-trim a signal")
    p.add_argument("input")
    p.add_argument("output")

    p = command(sub, "pitch-marks", _cmd_pitch_marks, 3,
                "print the polarity used and one mark index per line")
    p.add_argument("input")

    p = command(sub, "features", _cmd_features, 3, "print the 16 feature values on one line")
    p.add_argument("input")
    p.add_argument("--vowel", choices=VOWELS, default="a",
                   help="vowel label to attach (metadata only; default a)")

    p = command(sub, "enroll", _cmd_enroll, 3, "train models from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model file to write")

    p = command(sub, "identify", _cmd_identify, 4,
                "closed-set identification with the agree-or-reject rule")
    p.add_argument("input")
    p.add_argument("--models", required=True)
    p.add_argument("--vowel", choices=VOWELS, required=True)

    p = command(sub, "verify", _cmd_verify, 4,
                "check an identity claim; exits 0 verified, 2 impostor, 3 retry")
    p.add_argument("input")
    p.add_argument("--models", required=True)
    p.add_argument("--claim", required=True, metavar="SPEAKER")
    p.add_argument("--vowel", choices=VOWELS, required=True)

    p = command(sub, "evaluate", _cmd_evaluate, 4,
                "batch evaluation; prints tables and writes CSV reports")
    p.add_argument("--models", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", required=True, metavar="DIR")

    p = sub.add_parser("synth", help="generate synthetic fixtures")
    synth_sub = p.add_subparsers(metavar="WHAT", required=True)
    v = command(synth_sub, "vowel", _cmd_synth_vowel, 1, "one synthetic vowel file")
    v.add_argument("--out", required=True)
    v.add_argument("--f0", type=float, required=True)
    v.add_argument("--vowel", choices=VOWELS, default="a",
                   help="use this vowel's formant table (default a)")
    v.add_argument("--formants", metavar="F1:B1,F2:B2,..", help="override the formant table")
    v.add_argument("--duration", type=float, default=0.5)
    v.add_argument("--silence-pad", type=float, default=0.05)
    v.add_argument("--seed", type=int, default=0)
    c = command(synth_sub, "corpus", _cmd_synth_corpus, 1, "labeled multi-speaker corpus")
    c.add_argument("--out", required=True, metavar="DIR")
    c.add_argument("--speakers", type=int, default=10)
    c.add_argument("--train", type=int, default=20, help="train utterances per vowel")
    c.add_argument("--test", type=int, default=5, help="test utterances per vowel")
    c.add_argument("--seed", type=int, default=12345)
    c.add_argument("--duration", type=float, default=0.35)
    c.add_argument("--silence-pad", type=float, default=0.04)
    return parser


def _cmd_preprocess(args, cfg, weights) -> int:
    buffer = pipeline.preprocess_signal(pipeline.load_signal(args.input, cfg), cfg)
    signal_io.write_text_samples(buffer, args.output)
    return 0


def _cmd_pitch_marks(args, cfg, weights) -> int:
    buffer = pipeline.preprocess_signal(pipeline.load_signal(args.input, cfg), cfg)
    marks = pipeline.detect_marks(buffer, cfg)
    print(f"polarity {marks.polarity_used}")
    for index in marks.mark_indices:
        print(int(index))
    return 0


def _cmd_features(args, cfg, weights) -> int:
    features = pipeline.utterance_features_from_file(args.input, args.vowel, cfg)
    print(" ".join(format(v, ".9g") for v in features.vector))
    return 0


def _cmd_enroll(args, cfg, weights) -> int:
    entries = evaluation.load_manifest(args.manifest)
    failed = []
    model_set = evaluation.run_training(entries, cfg, failed)
    modeling.save_models(model_set, args.out)
    print(f"enrolled {len(model_set.models)} models to {args.out}")
    if failed:
        n_train = sum(entry.split == "train" for entry in entries)
        print(f"failed: {len(failed)} of {n_train} train files")
    return 0


def _score_input(args, cfg, weights):
    model_set = modeling.load_models(args.models)
    features = pipeline.utterance_features_from_file(args.input, args.vowel, cfg)
    return score_against_models(features, model_set, weights)


def _print_distance_table(report) -> None:
    print(f"{'speaker':<12} {'cepstral':>14} {'temporal':>14}")
    for sid in report.cepstral_distances:
        print(
            f"{sid:<12} {report.cepstral_distances[sid]:>14.6g} "
            f"{report.temporal_distances[sid]:>14.6g}"
        )
    print(f"nearest by cepstra:  {report.argmin_cepstral}")
    print(f"nearest by features: {report.argmin_temporal}")


def _cmd_identify(args, cfg, weights) -> int:
    report = _score_input(args, cfg, weights)
    _print_distance_table(report)
    outcome = identify_combined(report)
    if outcome.accepted:
        print(f"outcome: accepted {outcome.speaker_id}")
    else:
        print("outcome: rejected (nearest speakers disagree)")
    return 0


def _cmd_verify(args, cfg, weights) -> int:
    report = _score_input(args, cfg, weights)
    _print_distance_table(report)
    result = verify_claim(report, args.claim)
    print(f"claim {args.claim}: {result}")
    return {VERIFIED: 0, IMPOSTOR: 2, RETRY: 3}[result]


def _cmd_evaluate(args, cfg, weights) -> int:
    model_set = modeling.load_models(args.models)
    entries = evaluation.load_manifest(args.manifest)
    report = evaluation.run_evaluation(entries, model_set, cfg, weights)
    evaluation.write_report_csv(report, args.report)
    print(evaluation.format_report(report))
    return 0


def _cmd_synth_vowel(args, cfg, weights) -> int:
    formants = (
        _parse_formants(args.formants) if args.formants
        else evaluation.VOWEL_FORMANTS[args.vowel]
    )
    buffer = evaluation.synth_vowel(
        args.f0, formants, args.duration, cfg.sample_rate_hz,
        seed=args.seed, silence_pad_s=args.silence_pad,
    )
    signal_io.write_text_samples(buffer, args.out)
    print(f"wrote {len(buffer)} samples to {args.out}")
    return 0


def _cmd_synth_corpus(args, cfg, weights) -> int:
    manifest_path, entries = evaluation.make_synthetic_corpus(
        args.out, args.speakers, args.train, args.test, args.seed,
        cfg.sample_rate_hz, args.duration, args.silence_pad,
    )
    print(f"wrote {len(entries)} utterances, manifest at {manifest_path}")
    return 0


def parse_and_dispatch(argv) -> int:
    parser = build_parser()
    if argv[:1] == ["synth"]:  # argparse would call a setting's value an unknown sub-command
        settings = {f for g in _setting_groups() for a in g._actions for f in a.option_strings}
        for token in itertools.takewhile(lambda t: t not in ("vowel", "corpus"), argv[1:]):
            if (flag := token.partition("=")[0]) in settings:
                parser.error(f"{flag}: setting flags go after the sub-command (synth vowel|corpus ...)")
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        # every setting is read and checked here, before a handler opens a file
        values = _parse_config_file(args.config) if args.config else {}
        values |= {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None}
        cfg, weights = _build_config(values), _build_weights(values)
        return args.handler(args, cfg, weights)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    return parse_and_dispatch(sys.argv[1:] if argv is None else list(argv))


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
