"""Pitch-synchronous speaker verification toolkit.

Intrapitch temporal features (positive/negative crest and trough counts per
pitch period) fused with pitch-synchronous LPC cepstra; closed-set
identification with an agree-or-reject decision rule and a batch evaluation
harness. Import names from their submodules, e.g.
`from psverify.pipeline import utterance_features_from_file`.
"""

__version__ = "0.1.0"
