"""Pitch-synchronous speaker verification toolkit.

Intrapitch temporal features (positive/negative crest and trough counts per
pitch period) fused with pitch-synchronous LPC cepstra; closed-set
identification with an agree-or-reject decision rule and a batch evaluation
harness.
"""

from .decision import (
    DistanceReport,
    DistanceWeights,
    VerificationOutcome,
    identify_combined,
    score_against_models,
    verify_claim,
    weighted_distance,
)
from .evaluation import (
    EvalReport,
    ManifestEntry,
    UtteranceOutcome,
    aggregate_outcomes,
    load_manifest,
    make_synthetic_corpus,
    run_evaluation,
    run_training,
    synth_vowel,
)
from .features import (
    CepstralVector,
    SteadyStateRegion,
    TemporalFeatures,
    UtteranceFeatures,
    autocorrelation,
    count_extrema,
    extract_utterance_features,
    levinson_durbin,
    lpc_to_cepstral,
    pitch_synchronous_cepstra,
    select_steady_state,
    temporal_features,
)
from .modeling import ModelSet, SpeakerModel, build_model, load_models, save_models
from .pipeline import PipelineConfig, detect_marks, preprocess_signal, utterance_features_from_file
from .pitch import (
    HalfPeak,
    HalfPeaks,
    PitchMarks,
    PitchStats,
    choose_polarity,
    compute_stats,
    extract_half_peaks,
    mark_pitch_periods,
    periods_from_marks,
    threshold_for_peak,
)
from .preprocess import (
    EnergyProfile,
    FramePlan,
    energy_profile,
    normalize_peak,
    remove_dc,
    trim_silence,
)
from .signal_io import SampleBuffer, load_text_samples, load_wav_pcm16, write_text_samples

__version__ = "0.1.0"
