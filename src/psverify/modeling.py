"""Speaker models: per-(speaker, vowel) mean feature vectors and their
line-oriented persistence format."""

import sys
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .features import UtteranceFeatures, VOWELS

MODEL_DIM = 16
FORMAT_HEADER = "PSV-MODELS v1"


def _check_speaker_id(speaker_id: str) -> None:
    if not speaker_id or any(ch.isspace() for ch in speaker_id):
        raise ValueError(f"speaker id must be non-empty and contain no whitespace: {speaker_id!r}")


@dataclass(frozen=True, eq=False)
class SpeakerModel:
    speaker_id: str
    vowel: str
    mean_features: np.ndarray
    n_utterances: int

    def __post_init__(self):
        _check_speaker_id(self.speaker_id)
        if self.vowel not in VOWELS:
            raise ValueError(f"unknown vowel {self.vowel!r}")
        arr = np.array(self.mean_features, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(self, "mean_features", arr)
        if arr.shape != (MODEL_DIM,):
            raise ValueError(f"model must hold {MODEL_DIM} values, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("model values must be finite")
        if self.n_utterances < 1:
            raise ValueError("model needs at least one utterance")

    @property
    def temporal(self) -> np.ndarray:
        return self.mean_features[:4]

    @property
    def cepstral(self) -> np.ndarray:
        return self.mean_features[4:]


class ModelSet:
    """Speaker models keyed by (speaker id, vowel).

    `models` is a read-only view and `add` is the only way to write, so the
    per-vowel scoring tables that `add` invalidates can never go stale.
    """

    def __init__(self):
        self._models = {}
        self._tables = {}

    @property
    def models(self) -> MappingProxyType:
        """Read-only view of the models, keyed by (speaker id, vowel)."""
        return MappingProxyType(self._models)

    def add(self, model: SpeakerModel) -> None:
        # one shared id string per speaker keeps the per-trial distance
        # dicts, keyed by every vowel's table ids, in a small working set
        key = (sys.intern(model.speaker_id), model.vowel)
        if key in self._models:
            raise ValueError(f"duplicate model for {key}")
        self._models[key] = model
        self._tables.pop(model.vowel, None)

    def speakers(self) -> list[str]:
        return sorted({sid for sid, _ in self._models})

    def table(self, vowel: str) -> tuple[tuple[str, ...], np.ndarray]:
        """The vowel's speaker ids in lexicographic order and their models
        stacked as a read-only (S, 16) matrix; built on first use."""
        table = self._tables.get(vowel)
        if table is None:
            ids = tuple(sorted(sid for sid, v in self._models if v == vowel))
            rows = [self._models[sid, vowel].mean_features for sid in ids]
            matrix = np.array(rows, dtype=np.float64).reshape(len(ids), MODEL_DIM)
            matrix.flags.writeable = False
            table = self._tables[vowel] = (ids, matrix)
        return table

    def for_vowel(self, vowel: str) -> list[SpeakerModel]:
        ids, _ = self.table(vowel)
        return [self._models[sid, vowel] for sid in ids]


def build_model(speaker_id: str, vowel: str, features) -> SpeakerModel:
    """Coordinate-wise mean of the utterances' 16-value vectors."""
    features = list(features)
    if not features:
        raise ValueError("cannot build a model from zero utterances")
    for f in features:
        if not isinstance(f, UtteranceFeatures):
            raise TypeError("expected UtteranceFeatures")
        if f.vowel != vowel:
            raise ValueError(f"mixed vowels: model is {vowel!r}, utterance is {f.vowel!r}")
    mean = np.mean([f.vector for f in features], axis=0)
    return SpeakerModel(speaker_id, vowel, mean, len(features))


def save_models(model_set: ModelSet, path) -> None:
    """Write the v1 text format, one model per line, sorted by (speaker, vowel)."""
    lines = [FORMAT_HEADER]
    for (sid, vowel), model in sorted(model_set.models.items()):
        values = " ".join(format(v, ".12g") for v in model.mean_features)
        lines.append(f"{sid} {vowel} {model.n_utterances} {values}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_models(path) -> ModelSet:
    """Read the v1 text format back, validating layout and key uniqueness."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ValueError(f"{path}: expected header {FORMAT_HEADER!r}")
    model_set = ModelSet()
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 3 + MODEL_DIM:
            raise ValueError(
                f"{path}: line {lineno}: expected {3 + MODEL_DIM} fields, got {len(tokens)}"
            )
        sid, vowel, n_text = tokens[:3]
        try:
            n = int(n_text)
            values = np.array([float(t) for t in tokens[3:]])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed number") from None
        if (sid, vowel) in model_set.models:
            raise ValueError(f"{path}: line {lineno}: duplicate model for ({sid}, {vowel})")
        model_set.add(SpeakerModel(sid, vowel, values, n))
    return model_set
