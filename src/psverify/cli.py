"""Command-line entry point.

Subcommands: preprocess, pitch-marks, features, enroll, identify, verify,
evaluate, synth. Exit codes: 0 success, 1 usage error, 2 data error;
`verify` additionally exits 2 for an impostor and 3 for a retry.
"""

import argparse
import dataclasses
import inspect
import logging
import sys

from . import evaluation, modeling, pipeline, signal_io, synth
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


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)

    # a sub-command's parser refuses its own leftovers, so the usage printed is the sub-command's
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _formants(text):
    """A --formants value: at least one CENTRE[:BANDWIDTH], split by commas; bandwidths default to 60 Hz."""
    pairs = [chunk.strip().partition(":") for chunk in text.split(",") if chunk.strip()]
    try:
        if pairs:
            return tuple((float(centre), float(bandwidth) if bandwidth else 60.0) for centre, _, bandwidth in pairs)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected F1:B1,F2:B2,.. naming at least one formant, got {text!r}")


def _weights(text):
    """A weight list: numbers split by commas or whitespace; DistanceWeights checks the count."""
    try:
        return [float(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers split by commas or whitespace, got {text!r}") from None


def _seed(text):
    """A --seed value: numpy's generators take only non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


class _SettingBeforeCommand(argparse.Action):
    """Refuses a setting flag, or an abbreviation argparse matches to it, put before a sub-command."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string}: setting flags go after the sub-command that reads them")


def _setting_groups() -> list[argparse.ArgumentParser]:
    """Parent parsers for the pipeline settings and the distance weights; a
    command that reads weights also marks pitch, so takes a prefix."""
    d = pipeline.PipelineConfig()
    parents = []

    def group(title):
        parents.append(argparse.ArgumentParser(add_help=False))
        return parents[-1].add_argument_group(title)

    g = group("signal and pitch options")
    g.add_argument("--sample-rate", dest="sample_rate_hz", type=int, metavar="HZ",
                   help=f"rate of text inputs; a WAV file carries its own (default {d.sample_rate_hz})")
    g.add_argument("--min-f0", dest="min_f0_hz", type=float,
                   help=f"lowest admissible F0 (default {d.min_f0_hz:g})")
    g.add_argument("--max-f0", dest="max_f0_hz", type=float,
                   help=f"highest admissible F0 (default {d.max_f0_hz:g})")
    g = group("distance weights")
    g.add_argument("--cepstral-weights", dest="cepstral_weights", type=_weights, metavar="W1,..,W12",
                   help="override the Tokhura cepstral weight table")
    g.add_argument("--temporal-weights", dest="temporal_weights", type=_weights, metavar="W1,..,W4",
                   help="override the temporal distance weights (default all 1)")
    return parents


def build_parser() -> argparse.ArgumentParser:
    groups = _setting_groups()
    # "--m" starts two flags; spelled out, argparse no longer calls it ambiguous after a command
    setting_flags = ["--m", *(f for g in groups for a in g._actions for f in a.option_strings)]
    refused = dict(action=_SettingBeforeCommand, nargs="?", dest=argparse.SUPPRESS, help=argparse.SUPPRESS)
    parser = _Parser(prog="psverify",
                     description="Pitch-synchronous speaker verification toolkit.")
    parser.add_argument(*setting_flags, **refused)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(subparsers, name, handler, n_groups, summary):
        p = subparsers.add_parser(name, parents=groups[:n_groups], help=summary)
        # the handler takes what each of its groups' flags build, in group order
        p.set_defaults(handler=handler, settings=(pipeline.PipelineConfig, DistanceWeights)[:n_groups])
        return p

    p = command(sub, "preprocess", _cmd_preprocess, 0,
                "DC-correct, normalize and silence-trim a signal")
    p.add_argument("input")
    p.add_argument("output")

    p = command(sub, "pitch-marks", _cmd_pitch_marks, 1,
                "print the polarity used and one mark index per line")
    p.add_argument("input")

    p = command(sub, "features", _cmd_features, 1, "print the 16 feature values on one line")
    p.add_argument("input")

    p = command(sub, "enroll", _cmd_enroll, 1, "train models from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="model file to write")

    p = command(sub, "identify", _cmd_identify, 2,
                "closed-set identification with the agree-or-reject rule")
    p.add_argument("input")
    p.add_argument("--models", required=True)
    p.add_argument("--vowel", choices=VOWELS, required=True)

    p = command(sub, "verify", _cmd_verify, 2,
                "check an identity claim; exits 0 verified, 2 impostor, 3 retry")
    p.add_argument("input")
    p.add_argument("--models", required=True)
    p.add_argument("--claim", required=True, metavar="SPEAKER")
    p.add_argument("--vowel", choices=VOWELS, required=True)

    p = command(sub, "evaluate", _cmd_evaluate, 2,
                "batch evaluation; prints tables and writes CSV reports")
    p.add_argument("--models", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", required=True, metavar="DIR")

    p = sub.add_parser("synth", help="generate synthetic fixtures")
    p.add_argument(*setting_flags, **refused)
    synth_sub = p.add_subparsers(metavar="WHAT", required=True)
    v = command(synth_sub, "vowel", _cmd_synth_vowel, 0, "one synthetic vowel file")
    v.add_argument("--out", required=True)
    v.add_argument("--f0", type=float, required=True)
    v.add_argument("--vowel", choices=VOWELS, default="a",
                   help="use this vowel's formant table (default a)")
    v.add_argument("--formants", type=_formants, metavar="F1:B1,F2:B2,..", help="override the formant table")
    v.add_argument("--duration", type=float, default=0.5)
    v.add_argument("--silence-pad", type=float, default=0.05)
    v.add_argument("--seed", type=_seed, default=0)
    c = command(synth_sub, "corpus", _cmd_synth_corpus, 0, "labeled multi-speaker corpus")
    c.add_argument("--out", required=True, metavar="DIR")
    c.argument_default = argparse.SUPPRESS  # a flag not given is left out, so the library's default applies
    c.add_argument("--speakers", dest="n_speakers", metavar="SPEAKERS", type=int)
    c.add_argument("--train", dest="train_per_vowel", metavar="TRAIN", type=int, help="train utterances per vowel")
    c.add_argument("--test", dest="test_per_vowel", metavar="TEST", type=int, help="test utterances per vowel")
    c.add_argument("--seed", type=_seed)
    c.add_argument("--duration", dest="duration_s", metavar="DURATION", type=float)
    c.add_argument("--silence-pad", dest="silence_pad_s", metavar="SILENCE_PAD", type=float)
    for p in (v, c):
        p.add_argument("--sample-rate", dest="sample_rate_hz", type=int, default=signal_io.DEFAULT_SAMPLE_RATE_HZ,
                       metavar="HZ", help="output sample rate (default %(default)s)")
    return parser


def _cmd_preprocess(args) -> int:
    buffer = pipeline.preprocess_signal(pipeline.load_signal(args.input))
    signal_io.write_text_samples(buffer, args.output)
    return 0


def _cmd_pitch_marks(args, cfg) -> int:
    buffer = pipeline.preprocess_signal(pipeline.load_signal(args.input, cfg))
    marks = pipeline.detect_marks(buffer, cfg)
    print("polarity", "positive" if marks.polarity_used > 0 else "negative")
    for index in marks.mark_indices:
        print(int(index))
    return 0


def _cmd_features(args, cfg) -> int:
    # the vowel is only a label: it changes none of the 16 values
    features = pipeline.utterance_features_from_file(args.input, "a", cfg)
    print(" ".join(format(v, ".9g") for v in features.vector))
    return 0


def _cmd_enroll(args, cfg) -> int:
    entries = evaluation.load_manifest(args.manifest)
    failed = []
    model_set = evaluation.run_training(entries, cfg, failed)
    modeling.save_models(model_set, args.out)
    print(f"enrolled {len(model_set.models)} models to {args.out}")
    if failed:
        n_train = sum(entry.split == "train" for entry in entries)
        print(f"failed: {len(failed)} of {n_train} train files")
    return 0


def _score(args, cfg, weights, model_set):
    """Extract the input's features, score them against the vowel's models,
    print the distance table and return the DistanceReport."""
    features = pipeline.utterance_features_from_file(args.input, args.vowel, cfg)
    report = score_against_models(features, model_set, weights)
    rows = zip(report.ids, report.cepstral_distances.tolist(), report.temporal_distances.tolist())
    print("\n".join([
        f"{'speaker':<12} {'cepstral':>14} {'temporal':>14}",
        *(f"{sid:<12} {cep:>14.6g} {tem:>14.6g}" for sid, cep, tem in rows),
        f"nearest by cepstra:  {report.argmin_cepstral}",
        f"nearest by features: {report.argmin_temporal}",
    ]))
    return report


def _cmd_identify(args, cfg, weights) -> int:
    outcome = identify_combined(_score(args, cfg, weights, modeling.load_models(args.models)))
    if outcome.accepted:
        print(f"outcome: accepted {outcome.speaker_id}")
    else:
        print("outcome: rejected (nearest speakers disagree)")
    return 0


def _cmd_verify(args, cfg, weights) -> int:
    model_set = modeling.load_models(args.models)
    if (args.claim, args.vowel) not in model_set.models:  # refused before the input is read or a row printed
        raise ValueError(f"unknown claimed speaker {args.claim!r}")
    result = verify_claim(_score(args, cfg, weights, model_set), args.claim)
    print(f"claim {args.claim}: {result}")
    return {VERIFIED: 0, IMPOSTOR: 2, RETRY: 3}[result]


def _cmd_evaluate(args, cfg, weights) -> int:
    model_set = modeling.load_models(args.models)
    entries = evaluation.load_manifest(args.manifest)
    report = evaluation.run_evaluation(entries, model_set, cfg, weights)
    evaluation.write_report_csv(report, args.report)
    print(evaluation.format_report(report))
    return 0


def _cmd_synth_vowel(args) -> int:
    buffer = synth.synth_vowel(
        args.f0, args.formants or synth.VOWEL_FORMANTS[args.vowel], args.duration, args.sample_rate_hz,
        seed=args.seed, silence_pad_s=args.silence_pad,
    )
    signal_io.write_text_samples(buffer, args.out)
    print(f"wrote {len(buffer)} samples to {args.out}")
    return 0


def _cmd_synth_corpus(args) -> int:
    corpus = evaluation.make_synthetic_corpus
    given = {name: getattr(args, name) for name in inspect.signature(corpus).parameters if hasattr(args, name)}
    manifest_path, entries = corpus(args.out, **given)
    print(f"wrote {len(entries)} utterances, manifest at {manifest_path}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        # every setting is read and checked here, before a handler opens a file
        values = {k: v for k, v in vars(args).items() if v is not None}
        settings = [kind(**{f.name: values[f.name] for f in dataclasses.fields(kind) if f.name in values})
                    for kind in args.settings]
        return args.handler(args, *settings)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
