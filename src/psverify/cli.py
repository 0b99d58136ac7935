"""Command-line entry point.

Subcommands: preprocess, pitch-marks, features, enroll, identify, verify,
evaluate, synth. Exit codes: 0 success, 1 usage error, 2 data error;
`verify` additionally exits 2 for an impostor and 3 for a retry.
"""

import argparse
import dataclasses
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

_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(pipeline.PipelineConfig))
_INT_FIELDS = {f.name for f in dataclasses.fields(pipeline.PipelineConfig) if f.type is int}


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
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _build_config(args) -> pipeline.PipelineConfig:
    kwargs = {}
    for name in _CONFIG_FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            kwargs[name] = flag_value
        elif name in args.config_values:
            caster = int if name in _INT_FIELDS else float
            kwargs[name] = caster(args.config_values[name])
    cfg = pipeline.PipelineConfig(**kwargs)
    return cfg


def _parse_weight_list(text, count, label) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != count:
        raise ValueError(f"{label} needs {count} values, got {len(parts)}")
    return np.array([float(p) for p in parts])


def _build_weights(args) -> DistanceWeights:
    kwargs = {}
    cep = args.cepstral_weights or args.config_values.get("cepstral_weights")
    tem = args.temporal_weights or args.config_values.get("temporal_weights")
    if cep:
        kwargs["cepstral_weights"] = _parse_weight_list(cep, 12, "cepstral weights")
    if tem:
        kwargs["temporal_weights"] = _parse_weight_list(tem, 4, "temporal weights")
    return DistanceWeights(**kwargs)


def _parse_formants(text):
    formants = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        centre, _, bandwidth = chunk.partition(":")
        formants.append((float(centre), float(bandwidth) if bandwidth else 60.0))
    return tuple(formants)


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("pipeline options")
    g.add_argument("--config", metavar="FILE", help="key=value config file; flags win")
    g.add_argument("--sample-rate", dest="sample_rate_hz", type=int, metavar="HZ",
                   help="rate for text inputs (default 16000)")
    g.add_argument("--frame-len", dest="frame_len", type=int, help="silence frame length (default 100)")
    g.add_argument("--frame-shift", dest="frame_shift", type=int, help="silence frame shift (default 50)")
    g.add_argument("--silence-multiplier", dest="silence_multiplier", type=float,
                   help="speech-energy factor over silence (default 1.10)")
    g.add_argument("--normalization-target", dest="normalization_target", type=float,
                   help="peak normalization value (default 10000)")
    g.add_argument("--silence-frames", dest="silence_frames", type=int,
                   help="lowest-energy frames averaged as silence (default 10)")
    g.add_argument("--min-f0", dest="min_f0_hz", type=float, help="lowest admissible F0 (default 50)")
    g.add_argument("--max-f0", dest="max_f0_hz", type=float, help="highest admissible F0 (default 500)")
    g.add_argument("--cepstral-weights", dest="cepstral_weights", metavar="W1,..,W12",
                   help="override the Tokhura cepstral weight table")
    g.add_argument("--temporal-weights", dest="temporal_weights", metavar="W1,..,W4",
                   help="override the temporal distance weights (default all 1)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_options()
    parser = _Parser(prog="psverify",
                     description="Pitch-synchronous speaker verification toolkit.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("preprocess", parents=[common],
                       help="DC-correct, normalize and silence-trim a signal")
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("pitch-marks", parents=[common],
                       help="print the polarity used and one mark index per line")
    p.add_argument("input")

    p = sub.add_parser("features", parents=[common],
                       help="print the 16 feature values on one line")
    p.add_argument("input")
    p.add_argument("--vowel", choices=VOWELS, default="a",
                   help="vowel label to attach (metadata only; default a)")

    p = sub.add_parser("enroll", parents=[common], help="train models from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model file to write")

    p = sub.add_parser("identify", parents=[common],
                       help="closed-set identification with the agree-or-reject rule")
    p.add_argument("input")
    p.add_argument("--models", required=True)
    p.add_argument("--vowel", choices=VOWELS, required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="check an identity claim; exits 0 verified, 2 impostor, 3 retry")
    p.add_argument("input")
    p.add_argument("--models", required=True)
    p.add_argument("--claim", required=True, metavar="SPEAKER")
    p.add_argument("--vowel", choices=VOWELS, required=True)

    p = sub.add_parser("evaluate", parents=[common],
                       help="batch evaluation; prints tables and writes CSV reports")
    p.add_argument("--models", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", required=True, metavar="DIR")

    p = sub.add_parser("synth", parents=[common], help="generate synthetic fixtures")
    synth_sub = p.add_subparsers(dest="synth_command", metavar="WHAT")
    v = synth_sub.add_parser("vowel", parents=[common], help="one synthetic vowel file")
    v.add_argument("--out", required=True)
    v.add_argument("--f0", type=float, required=True)
    v.add_argument("--vowel", choices=VOWELS, default="a",
                   help="use this vowel's formant table (default a)")
    v.add_argument("--formants", metavar="F1:B1,F2:B2,..", help="override the formant table")
    v.add_argument("--duration", type=float, default=0.5)
    v.add_argument("--silence-pad", type=float, default=0.05)
    v.add_argument("--seed", type=int, default=0)
    c = synth_sub.add_parser("corpus", parents=[common], help="labeled multi-speaker corpus")
    c.add_argument("--out", required=True, metavar="DIR")
    c.add_argument("--speakers", type=int, default=10)
    c.add_argument("--train", type=int, default=20, help="train utterances per vowel")
    c.add_argument("--test", type=int, default=5, help="test utterances per vowel")
    c.add_argument("--seed", type=int, default=12345)
    c.add_argument("--duration", type=float, default=0.35)
    c.add_argument("--silence-pad", type=float, default=0.04)
    return parser


def _cmd_preprocess(args) -> int:
    cfg = _build_config(args)
    buffer = pipeline.preprocess_signal(pipeline.load_signal(args.input, cfg), cfg)
    signal_io.write_text_samples(buffer, args.output)
    return 0


def _cmd_pitch_marks(args) -> int:
    cfg = _build_config(args)
    buffer = pipeline.preprocess_signal(pipeline.load_signal(args.input, cfg), cfg)
    marks = pipeline.detect_marks(buffer, cfg)
    print(f"polarity {marks.polarity_used}")
    for index in marks.mark_indices:
        print(int(index))
    return 0


def _cmd_features(args) -> int:
    cfg = _build_config(args)
    features = pipeline.utterance_features_from_file(args.input, args.vowel, cfg)
    print(" ".join(format(v, ".9g") for v in features.vector))
    return 0


def _cmd_enroll(args) -> int:
    cfg = _build_config(args)
    entries = evaluation.load_manifest(args.manifest)
    failed = []
    model_set = evaluation.run_training(entries, cfg, failed)
    modeling.save_models(model_set, args.out)
    print(f"enrolled {len(model_set.models)} models to {args.out}")
    if failed:
        n_train = sum(entry.split == "train" for entry in entries)
        print(f"failed: {len(failed)} of {n_train} train files")
    return 0


def _score_input(args):
    cfg = _build_config(args)
    weights = _build_weights(args)
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


def _cmd_identify(args) -> int:
    report = _score_input(args)
    _print_distance_table(report)
    outcome = identify_combined(report)
    if outcome.accepted:
        print(f"outcome: accepted {outcome.speaker_id}")
    else:
        print("outcome: rejected (nearest speakers disagree)")
    return 0


def _cmd_verify(args) -> int:
    report = _score_input(args)
    _print_distance_table(report)
    result = verify_claim(report, args.claim)
    print(f"claim {args.claim}: {result}")
    return {VERIFIED: 0, IMPOSTOR: 2, RETRY: 3}[result]


def _cmd_evaluate(args) -> int:
    cfg = _build_config(args)
    weights = _build_weights(args)
    model_set = modeling.load_models(args.models)
    entries = evaluation.load_manifest(args.manifest)
    report = evaluation.run_evaluation(entries, model_set, cfg, weights)
    evaluation.write_report_csv(report, args.report)
    print(evaluation.format_report(report))
    return 0


def _cmd_synth(args, parser) -> int:
    if args.synth_command == "vowel":
        formants = (
            _parse_formants(args.formants) if args.formants
            else evaluation.VOWEL_FORMANTS[args.vowel]
        )
        cfg = _build_config(args)
        buffer = evaluation.synth_vowel(
            args.f0, formants, args.duration, cfg.sample_rate_hz,
            seed=args.seed, silence_pad_s=args.silence_pad,
        )
        signal_io.write_text_samples(buffer, args.out)
        print(f"wrote {len(buffer)} samples to {args.out}")
        return 0
    if args.synth_command == "corpus":
        cfg = _build_config(args)
        manifest_path, entries = evaluation.make_synthetic_corpus(
            args.out, args.speakers, args.train, args.test, args.seed,
            cfg.sample_rate_hz, args.duration, args.silence_pad,
        )
        print(f"wrote {len(entries)} utterances, manifest at {manifest_path}")
        return 0
    parser.error("synth needs a sub-command: vowel or corpus")
    return USAGE_ERROR


def parse_and_dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    handlers = {
        "preprocess": _cmd_preprocess,
        "pitch-marks": _cmd_pitch_marks,
        "features": _cmd_features,
        "enroll": _cmd_enroll,
        "identify": _cmd_identify,
        "verify": _cmd_verify,
        "evaluate": _cmd_evaluate,
    }
    try:
        # read once here; _build_config and _build_weights both use it
        args.config_values = _parse_config_file(args.config) if args.config else {}
        if args.command == "synth":
            return _cmd_synth(args, parser)
        return handlers[args.command](args)
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
