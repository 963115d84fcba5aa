"""Positive semi-definiteness verdicts shared by the decision routines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import apply_full

PSD = "psd"
PSD_STRICT = "psd_strict"
NOT_PSD = "not_psd"
INCONCLUSIVE = "inconclusive"

# certificate tags
DIAG_DOMINANCE = "diag_dominance"
B0_CERT = "b0"
B_CERT = "b"
NONPOS_ASSOC = "nonpos_associated"
NEG_ALT = "negatively_alternative"
DIAG_ROOT = "diag_root"
DOUBLY_CIRCULANT = "doubly_circulant_reduction"
NUMERIC = "numeric_evidence"


@dataclass
class PsdVerdict:
    """Decision plus either a certificate tag or a refuting witness.

    A ``not_psd`` verdict always carries a witness x whose form value
    A x^m is negative (re-checked at construction by the emitters).
    Numeric evidence alone never yields ``psd``, only ``inconclusive``.
    """

    decision: str
    certificate: str | None = None
    witness: np.ndarray | None = None
    details: dict = field(default_factory=dict)

    @property
    def decided(self) -> bool:
        return self.decision != INCONCLUSIVE

    @property
    def is_psd(self) -> bool:
        return self.decision in (PSD, PSD_STRICT)


def psd_verdict(certificate: str, strict: bool = False, **details) -> PsdVerdict:
    return PsdVerdict(PSD_STRICT if strict else PSD, certificate, None, dict(details))


def inconclusive(**details) -> PsdVerdict:
    return PsdVerdict(INCONCLUSIVE, None, None, dict(details))


def not_psd_verdict(a, witness, certificate: str | None, details: dict,
                    exact=None) -> PsdVerdict | None:
    """The refutation of ``a`` by ``witness`` if its re-evaluated form value
    is negative, else None.  A rational value ``exact`` from the caller decides
    instead, since the float value can round to zero on hairline margins."""
    witness = np.asarray(witness, dtype=float)
    value = float(apply_full(a, witness))
    details = dict(details)
    if exact is not None:
        details["witness_value_exact"] = float(exact)
    if (value if exact is None else exact) >= 0:
        return None
    details["witness_value"] = value
    return PsdVerdict(NOT_PSD, certificate, witness, details)
