"""The benchmark workloads: study and identify_10k.

Every workload follows the same shape: preparation that is not measured,
a set-up repeated SETUP_REPEATS times whose median is `setup_s`, a closed
loop with one caller that runs operations until the time budget is spent,
and correctness checks of every answer against an independent reference.
With tracing on, the loop spends half the budget untraced and half
re-driving the same operations through the public stage functions, one span
per layer boundary (see README.md for the boundary table).
"""

import contextlib
import io
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from psverify import cli, decision, evaluation, features, modeling, pipeline, pitch
from psverify.evaluation import UtteranceOutcome

from calibration import LOCAL_PROBES, PROBE_EVERY_S, HostClock
from tracing import Tracer, traced_attributes

SETUP_REPEATS = 5
# one small corpus per set-up: 10 speakers x 5 vowels x (2 train + 1 test)
CORPUS = {"n_speakers": 10, "train_per_vowel": 2, "test_per_vowel": 1}
IDENTIFY_SPEAKERS = 10_000
# traced identify trials whose counts are reported; a fixed prefix, so the
# counts repeat exactly for a given seed
COUNTED_TRIALS = 10
CLI_PROBES = 2
IMPORTTIME_TOP = 10

CONFIG = pipeline.PipelineConfig()
WEIGHTS = decision.DistanceWeights()
EXIT_CODES = {decision.VERIFIED: 0, decision.IMPOSTOR: 2, decision.RETRY: 3}


class Context:
    """Inputs and scratch space of one run, plus the tracer when tracing."""

    def __init__(self, root: Path, seed: int, seconds: float, work: Path, trace: bool):
        self.root = root
        self.seconds = seconds
        self.work = work
        self.tracer = Tracer() if trace else None
        self.clock = HostClock()
        self.rng = np.random.default_rng(seed)

    def sub_seed(self) -> int:
        return int(self.rng.integers(0, 2**31))

    def budget(self) -> float:
        """Seconds for the untraced loop; tracing splits the budget in half."""
        return self.seconds / 2 if self.tracer else self.seconds

    def traced_setup(self):
        """While tracing, time the corpus writer and model-building call by name."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return traced_attributes(self.tracer, [
            (evaluation, "synth_vowel", "evaluation.synth"),
            (evaluation, "write_text_samples", "signal_io.write"),
            (evaluation, "build_model", "modeling.build"),
        ])

    def timed(self, name, fn, *args):
        """Call fn, inside a span of that name when tracing."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.call(name, fn, *args)

    def set_up(self, result, fn, *args):
        """One timed set-up, between host probes."""
        value, wall, reference = self.clock.timed(fn, *args)
        result.setup.append((wall, reference))
        return value

    def measure(self, result, step, min_steps=2):
        """Closed loop over the untraced budget; step(i) returns the ops it did.

        The host is probed between steps, in proportion to step time, so the
        probes take no op time; each step is rescaled by the probes before it.
        """
        self.clock.probe(LOCAL_PROBES)
        start = perf_counter()
        i = 0
        last = 0.0
        while i < min_steps or perf_counter() - start < self.budget():
            self.clock.probe(max(1, round(last / PROBE_EVERY_S)))
            step_start = perf_counter()
            n = step(i)
            last = perf_counter() - step_start
            result.steps.append((n, last, last * self.clock.scale()))
            i += 1


class Result:
    """What a workload hands back to the runner."""

    def __init__(self):
        self.setup = []          # (wall_s, reference_s) per set-up
        self.steps = []          # (ops, wall_s, reference_s) per timed step
        self.failed = 0
        self.gates = {}          # name -> bool, every one must hold
        self.quality = {}
        self.peak_rss_mb = 0.0
        self.traced = {}         # traced-run extras: ops, counts, layers, ...

    @property
    def ops(self) -> int:
        return sum(n for n, _, _ in self.steps)

    @property
    def wall_s(self) -> float:
        return sum(wall for _, wall, _ in self.steps)


def loop(seconds, step, min_steps=1):
    """Closed loop: call step(i) until `seconds` pass and min_steps are done."""
    start = perf_counter()
    i = 0
    while i < min_steps or perf_counter() - start < seconds:
        step(i)
        i += 1
    return perf_counter() - start


def write_corpus(directory: Path, seed: int):
    manifest, _ = evaluation.make_synthetic_corpus(directory, seed=seed, **CORPUS)
    return evaluation.load_manifest(manifest)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# references

def brute_tables(model_set):
    """Per vowel: ids in lexicographic order and the stacked (S, 16) matrix."""
    tables = {}
    for vowel in features.VOWELS:
        items = sorted((sid, m.mean_features) for (sid, v), m in model_set.models.items() if v == vowel)
        if items:
            tables[vowel] = ([sid for sid, _ in items], np.stack([x for _, x in items]))
    return tables


def brute_picks(tables, vowel, vector):
    """Nearest speaker per family by numpy argmin; ties go to the first, smallest id."""
    ids, matrix = tables[vowel]
    sq = (matrix - vector) ** 2
    cep = sq[:, 4:] @ WEIGHTS.cepstral_weights
    tem = sq[:, :4] @ WEIGHTS.temporal_weights
    return ids[int(np.argmin(cep))], ids[int(np.argmin(tem))]


def traced_features(tracer, path, vowel, counts=None):
    """utterance_features_from_file, composed stage by stage with one span each."""
    buffer = tracer.call("signal_io.load", pipeline.load_signal, path, CONFIG)
    trimmed = tracer.call("preprocess", pipeline.preprocess_signal, buffer, CONFIG)
    peaks = tracer.call("pitch.half_peaks", pitch.extract_half_peaks, trimmed)
    with tracer.span("pitch.mark_scan"):
        stats = pitch.compute_stats(peaks)
        polarity = pitch.choose_polarity(stats)
        min_period, max_period = CONFIG.period_bounds(trimmed.sample_rate_hz)
        marks = pitch.mark_pitch_periods(trimmed, peaks, stats, polarity, min_period, max_period)
    with tracer.span("features.region"):
        region = features.select_steady_state(trimmed, pitch.periods_from_marks(marks))
    temporal = tracer.call("features.temporal", features.temporal_features, trimmed, region)
    cepstral = tracer.call("features.cepstra", features.pitch_synchronous_cepstra, trimmed, region)
    if counts is not None:
        idx = marks.mark_indices
        counts["samples_read"] += len(buffer)
        counts["samples_kept"] += len(trimmed)
        counts["halves"] += len(peaks)
        counts["chosen_halves"] += sum(1 for p in peaks if p.polarity == polarity)
        counts["marks"] += idx.size
        counts.setdefault("coverage", []).append((idx[-1] - idx[0]) / len(trimmed))
        counts["region_periods"] += len(region)
        counts["frames"] += min(len(region) - 2, features.MAX_CEPSTRAL_FRAMES)
    return features.UtteranceFeatures(temporal, cepstral, vowel)


def count_metrics(counts) -> dict:
    coverage = counts.get("coverage") or [0.0]
    return {
        "signal_io.samples_read": counts["samples_read"],
        "preprocess.kept_frac": counts["samples_kept"] / max(counts["samples_read"], 1),
        "pitch.halves": counts["halves"],
        "pitch.mark_yield": counts["marks"] / max(counts["chosen_halves"], 1),
        "pitch.mark_coverage_mean": float(np.mean(coverage)),
        "pitch.mark_coverage_min": float(np.min(coverage)),
        "features.region_periods": counts["region_periods"],
        "features.frames": counts["frames"],
        "decision.models_scored": counts["models_scored"],
        "trace.count_ops": counts["ops"],
    }


def check_fidelity(result, traced_vectors):
    """Stage-by-stage vectors must equal utterance_features_from_file bit for bit."""
    result.gates["traced_features_bit_identical"] = bool(traced_vectors) and all(
        np.array_equal(vec, pipeline.utterance_features_from_file(path, vowel, CONFIG).vector)
        for path, vowel, vec in traced_vectors
    )


def finish_trace(ctx, result, traced_ops, failed, traced_wall, traced_start, counts):
    """Record the traced half: its ops, failures, spans summary and counts."""
    result.traced.update(
        ops=traced_ops,
        failed=failed,
        untraced_ops_per_s=result.ops / result.wall_s,
        traced_ops_per_s=traced_ops / traced_wall,
        unattributed_s=traced_wall - ctx.tracer.top_level_seconds(traced_start),
        traced_wall_s=traced_wall,
        counts=count_metrics(counts),
    )


# ---------------------------------------------------------------------------
# study: the paper's experiment, train then evaluate

def study(ctx: Context) -> Result:
    result = Result()
    corpora = []
    with ctx.traced_setup():
        for k in range(SETUP_REPEATS):
            corpora.append(ctx.set_up(result, write_corpus, ctx.work / f"corpus{k}", ctx.sub_seed()))
    tests = [[e for e in entries if e.split == "test"] for entries in corpora]
    refs = {}          # corpus -> (report, models) of its first pass
    failed_passes = Counter()

    def one_pass(i):
        k = i % len(corpora)
        models = evaluation.run_training(corpora[k])
        report = evaluation.run_evaluation(corpora[k], models)
        if refs.setdefault(k, (report, models))[0] != report:
            failed_passes[k] += 1
        return len(corpora[k])

    ctx.measure(result, one_pass, min_steps=len(corpora))

    # every report must match a brute-force decision over its corpus' models
    per_vowel = CORPUS["n_speakers"] * CORPUS["test_per_vowel"]
    for k, (report, models) in refs.items():
        tables = brute_tables(models)
        ok = (
            report.systems[evaluation.SYSTEM_COMBINED].total == len(tests[k])
            and all(row.total == per_vowel for row in report.vowel_rows)
            and len(report.vowel_rows) == len(features.VOWELS)
        )
        for entry, outcome in zip(tests[k], report.outcomes):
            vec = pipeline.utterance_features_from_file(entry.path, entry.vowel, CONFIG).vector
            ok = ok and outcome.speaker_id == entry.speaker_id and (
                (outcome.cepstral_pick, outcome.temporal_pick) == brute_picks(tables, entry.vowel, vec)
            )
        if not ok:
            failed_passes[k] += 1
    n_passes = Counter(i % len(corpora) for i in range(len(result.steps)))
    for k in failed_passes:
        # a wrong report fails every utterance of every pass over its corpus
        result.failed += len(corpora[k]) * n_passes[k]
    result.gates["reports_match_reference"] = not failed_passes

    pooled = evaluation.aggregate_outcomes(o for report, _ in refs.values() for o in report.outcomes)
    combined = pooled.systems[evaluation.SYSTEM_COMBINED]
    singles = [pooled.systems[s].accuracy for s in (evaluation.SYSTEM_CEPSTRAL, evaluation.SYSTEM_TEMPORAL)]
    result.gates["combined_at_least_single_systems"] = (
        combined.accepted > 0 and all(combined.accuracy >= a for a in singles)
    )
    result.quality = quality_of(pooled)
    result.peak_rss_mb = self_rss_mb()
    if ctx.tracer:
        traced_study(ctx, result, corpora, tests, refs)
    return result


def traced_study(ctx, result, corpora, tests, refs):
    tracer = ctx.tracer
    counts = Counter()
    traced_vectors = []
    state = {"ops": 0, "mismatch": 0}

    def traced_pass(i):
        k = i % len(corpora)
        counting = counts if i == 0 else None
        groups = {}
        for entry in corpora[k]:
            if entry.split == "train":
                groups.setdefault((entry.speaker_id, entry.vowel), []).append(entry)
        models = modeling.ModelSet()
        for (sid, vowel), group in sorted(groups.items()):
            vectors = []
            for entry in group:
                tracer.op_id = entry.path
                with tracer.span("op.train"):
                    vectors.append(traced_features(tracer, entry.path, vowel, counting))
            tracer.op_id = f"{k}:{sid}:{vowel}"
            models.add(tracer.call("modeling.build", modeling.build_model, sid, vowel, vectors))
            if counting is not None:
                traced_vectors.extend((e.path, vowel, f.vector) for e, f in zip(group, vectors))
        outcomes = []
        for entry in tests[k]:
            tracer.op_id = entry.path
            with tracer.span("op.evaluate"):
                feats = traced_features(tracer, entry.path, entry.vowel, counting)
                report = tracer.call("decision.score", decision.score_against_models, feats, models)
                tracer.call("decision.fuse", decision.identify_combined, report)
            if counting is not None:
                counts["models_scored"] += len(report.cepstral_distances)
                traced_vectors.append((entry.path, entry.vowel, feats.vector))
            outcomes.append(UtteranceOutcome(
                entry.path, entry.speaker_id, entry.vowel, report.argmin_cepstral, report.argmin_temporal))
        tracer.op_id = f"{k}:aggregate"
        if tracer.call("evaluation.aggregate", evaluation.aggregate_outcomes, outcomes) != refs[k][0]:
            state["mismatch"] += len(corpora[k])
        state["ops"] += len(corpora[k])
        if counting is not None:
            counts["ops"] = len(corpora[k])

    start = perf_counter()
    wall = loop(ctx.seconds / 2, traced_pass)
    result.gates["traced_report_equals_untraced"] = state["mismatch"] == 0
    check_fidelity(result, traced_vectors)
    finish_trace(ctx, result, state["ops"], state["mismatch"], wall, start, counts)
    # a user enrolls, then verifies from the shell against the saved models
    model_path = ctx.work / "models.txt"
    tracer.op_id = "save"
    tracer.call("modeling.save", modeling.save_models, refs[0][1], model_path)
    cli_probes(ctx, result, model_path, tests[0])


def quality_of(report) -> dict:
    combined = report.systems[evaluation.SYSTEM_COMBINED]
    return {
        "trials": combined.total,
        "accuracy_pct": None if combined.accuracy is None else 100.0 * combined.accuracy,
        "accept_pct": 100.0 * combined.accepted / combined.total,
        "cepstral_accuracy_pct": 100.0 * report.systems[evaluation.SYSTEM_CEPSTRAL].accuracy,
        "temporal_accuracy_pct": 100.0 * report.systems[evaluation.SYSTEM_TEMPORAL].accuracy,
    }


# ---------------------------------------------------------------------------
# the identify_10k population

def enrolled_population(ctx, n_speakers):
    """Train the 10 real speakers, then add seeded distractor speakers.

    Distractors are drawn per vowel from a normal distribution with the real
    models' per-dimension mean and spread, so their distances are realistic.
    Returns (population, test entries in seeded trial order).
    """
    with ctx.traced_setup():
        entries = write_corpus(ctx.work / "corpus", ctx.sub_seed())
        real = evaluation.run_training(entries, CONFIG)
    population = modeling.ModelSet()
    for model in real.models.values():
        population.add(model)
    n_extra = n_speakers - len(real.speakers())
    rng = np.random.default_rng(ctx.sub_seed())
    for vowel in features.VOWELS:
        stacked = np.stack([m.mean_features for m in real.for_vowel(vowel)])
        draws = stacked.mean(axis=0) + stacked.std(axis=0) * rng.standard_normal((n_extra, modeling.MODEL_DIM))
        for j, row in enumerate(draws):
            population.add(modeling.SpeakerModel(f"d{j:05d}", vowel, row, 1))
    tests = [e for e in entries if e.split == "test"]
    order = rng.permutation(len(tests))
    return population, [tests[i] for i in order]


def round_trip_error(original, loaded) -> float:
    if original.models.keys() != loaded.models.keys():
        return float("inf")
    return max(float(np.max(np.abs(loaded.models[k].mean_features - m.mean_features)))
               for k, m in original.models.items())


# ---------------------------------------------------------------------------
# identify_10k: a warm identification service

def identify_10k(ctx: Context) -> Result:
    result = Result()
    population, tests = enrolled_population(ctx, IDENTIFY_SPEAKERS)
    path = ctx.work / "models.txt"

    def save_and_load():
        ctx.timed("modeling.save", modeling.save_models, population, path)
        return ctx.timed("modeling.load", modeling.load_models, path)

    for _ in range(SETUP_REPEATS):
        models = ctx.set_up(result, save_and_load)
    result.gates["model_file_round_trip"] = round_trip_error(population, models) <= 1e-9
    del population
    trials = []

    def trial(i):
        entry = tests[i % len(tests)]
        feats = pipeline.utterance_features_from_file(entry.path, entry.vowel, CONFIG)
        report = decision.score_against_models(feats, models)
        outcome = decision.identify_combined(report)
        trials.append((entry, feats.vector, report.argmin_cepstral, report.argmin_temporal, outcome))
        return 1

    ctx.measure(result, trial)
    tables = brute_tables(models)
    for entry, vector, cep, tem, outcome in trials:
        expected = decision.VerificationOutcome(True, cep) if cep == tem else decision.VerificationOutcome(False)
        if (cep, tem) != brute_picks(tables, entry.vowel, vector) or outcome != expected:
            result.failed += 1
    result.gates["picks_match_brute_force"] = result.failed == 0
    report = evaluation.aggregate_outcomes(
        UtteranceOutcome(e.path, e.speaker_id, e.vowel, c, t) for e, _, c, t, _ in trials)
    result.quality = quality_of(report)
    result.peak_rss_mb = self_rss_mb()
    if ctx.tracer:
        traced_identify(ctx, result, tests, models, trials)
        cli_probes(ctx, result, path, tests)
    return result


def traced_identify(ctx, result, tests, models, trials):
    tracer = ctx.tracer
    counts = Counter()
    traced_vectors = []
    picks = {e.path: (c, t) for e, _, c, t, _ in trials}
    outcomes = []
    mismatches = 0

    def trial(i):
        nonlocal mismatches
        entry = tests[i % len(tests)]
        counting = counts if i < COUNTED_TRIALS else None
        tracer.op_id = i
        with tracer.span("op.identify"):
            feats = traced_features(tracer, entry.path, entry.vowel, counting)
            report = tracer.call("decision.score", decision.score_against_models, feats, models)
            tracer.call("decision.fuse", decision.identify_combined, report)
        pair = (report.argmin_cepstral, report.argmin_temporal)
        if picks.setdefault(entry.path, pair) != pair:
            mismatches += 1
        outcomes.append(UtteranceOutcome(entry.path, entry.speaker_id, entry.vowel, *pair))
        if counting is not None:
            counts["ops"] += 1
            counts["models_scored"] += len(report.cepstral_distances)
            traced_vectors.append((entry.path, entry.vowel, feats.vector))

    start = perf_counter()
    wall = loop(ctx.seconds / 2, trial, min_steps=COUNTED_TRIALS)
    tracer.op_id = "aggregate"
    tracer.call("evaluation.aggregate", evaluation.aggregate_outcomes, outcomes)
    result.gates["traced_picks_equal_untraced"] = mismatches == 0
    check_fidelity(result, traced_vectors)
    finish_trace(ctx, result, len(outcomes), mismatches, wall, start, counts)


# ---------------------------------------------------------------------------
# cold command-line decisions, decomposed in every traced run

def child_env(ctx) -> dict:
    env = dict(os.environ)
    src = str(ctx.root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(ctx, args, timeout=120):
    return subprocess.run([sys.executable, *args], cwd=ctx.root, env=child_env(ctx),
                          capture_output=True, text=True, timeout=timeout, check=False)


def cli_probes(ctx, result, model_path, entries):
    """Split `psverify verify` into interpreter start, package import,
    in-process main, and the stage functions main calls.

    Runs after the traced loop, so it adds nothing to the traced wall. Each
    probe claims the utterance's true speaker; main's exit code and claim
    line must equal verify_claim on the stage-by-stage result.
    """
    tracer = ctx.tracer
    mismatches = 0
    for i, entry in enumerate(entries[:CLI_PROBES]):
        claim = entry.speaker_id
        argv = ["verify", entry.path, "--models", str(model_path), "--claim", claim, "--vowel", entry.vowel]
        tracer.op_id = f"cli{i}"
        with tracer.span("op.cli"):
            with tracer.span("cli.interp"):
                interp = run_child(ctx, ["-c", "pass"])
            interp_s = tracer.spans[-1][2] - tracer.spans[-1][1]
            start = perf_counter()
            imported = run_child(ctx, ["-c", "import psverify.cli"])
            end = perf_counter()
            # the import's own cost: the import run minus this probe's bare interpreter start
            tracer.record("cli.import", min(start + interp_s, end), end)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = tracer.call("cli.main", cli.main, argv)
        with tracer.span("op.cli_stages"):
            models = tracer.call("modeling.load", modeling.load_models, model_path)
            feats = traced_features(tracer, entry.path, entry.vowel)
            report = tracer.call("decision.score", decision.score_against_models, feats, models)
            verdict = tracer.call("decision.fuse", decision.verify_claim, report, claim)
        line = next((x for x in out.getvalue().splitlines() if x.startswith(f"claim {claim}:")), None)
        if (interp.returncode, imported.returncode, code) != (0, 0, EXIT_CODES[verdict]) \
                or line != f"claim {claim}: {verdict}":
            mismatches += 1
    result.gates["cli_matches_in_process"] = mismatches == 0
    result.traced["importtime_top"] = import_attribution(ctx)


def import_attribution(ctx):
    """Top cumulative importers of `import psverify.cli`, from -X importtime."""
    proc = run_child(ctx, ["-X", "importtime", "-c", "import psverify.cli"])
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, _, cumulative_us, name = (part.strip() for part in line.replace("import time:", "|", 1).split("|"))
        rows.append((int(cumulative_us), name))
    rows.sort(reverse=True)
    return [{"module": name, "cumulative_ms": us / 1e3} for us, name in rows[:IMPORTTIME_TOP]]


WORKLOADS = {"study": study, "identify_10k": identify_10k}
