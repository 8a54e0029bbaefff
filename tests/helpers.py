"""Helpers shared by the test modules: ``anonymized`` drains
``anonymize_stream``, and ``token_error_rate`` is the per-utterance
reference that ``evaluation.utility_probes`` is checked against."""

import numpy as np

from anonflow.anonymizer import anonymize_stream
from anonflow.errors import InputError


def anonymized(backbone, anonymizer, dataset, strategy, steps, rng):
    """``anonymize_stream`` with the anonymized utterances in a list."""
    anon, mapping = anonymize_stream(backbone, anonymizer, dataset, strategy,
                                     steps, rng)
    anon.utterances = list(anon.utterances)
    return anon, mapping


def token_error_rate(recovered_frame_tokens, reference_tokens,
                     frames_per_token: int) -> float:
    """Fraction of frames whose recovered token differs from the aligned
    reference."""
    ref = np.repeat(np.asarray(reference_tokens, dtype=int), frames_per_token)
    rec = np.asarray(recovered_frame_tokens, dtype=int)
    if rec.shape != ref.shape:
        raise InputError(f"frame count mismatch: {rec.shape} vs {ref.shape}")
    return float(np.mean(rec != ref))
