"""Positive semi-definiteness verdicts shared by the decision routines."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CirculantTensor, _exact_form, _form, _stored, apply_full

PSD = "psd"
PSD_STRICT = "psd_strict"
NOT_PSD = "not_psd"
INCONCLUSIVE = "inconclusive"

# certificate tags
DIAG_DOMINANCE = "diag_dominance"
B0_CERT = "b0"
B_CERT = "b"
DIAG_ROOT = "diag_root"
DOUBLY_CIRCULANT = "doubly_circulant_reduction"
NUMERIC = "numeric_evidence"


@dataclass
class PsdVerdict:
    """Decision plus either a certificate tag or a refuting witness.

    A ``not_psd`` verdict always carries a witness x whose form value A x^m
    is negative, exactly where the float value is within rounding of zero
    (``not_psd_verdict``).  ``psd`` comes only from a certificate decided
    exactly or from an exact route; numeric evidence alone never yields
    ``psd``, only ``inconclusive``.
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


def _rounding_band(a, w: np.ndarray, top) -> float:
    """A bound on |fl(A w^m) - A w^m| for ``apply_full``, top = max|w|.

    ``apply_full`` runs m contractions, each an n-term sum of products in any
    order, so a term a_{j1..jm} w_{j1}...w_{jm} meets K = mn roundings.  With
    fl(x op y) = (x op y)(1 + d) + e, |d| <= u = 2^-53, e = 0 for additions
    and |e| <= 2^-1075 for products (gradual underflow), the product and sum
    chain errs by at most g M + U (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1), with g = Ku / (1 - Ku) and
    M = |A|(|w|)^m.  U covers underflow: at most n + ... + n^m <= 2 n^m
    products, each e carried into the result by at most m factors w_j and a
    product of (1 + d) below 2, so U = n^m 2^-1073 max(1, |w|_max)^m.  The
    float M' of M has the same error bound, so M <= (M' + U) / (1 - g), and
    with g <= 1/3 the error is at most 1.5 g (M' + U) + U <= 2 (g M' + U),
    the value returned (the spare half of g M' covers its own rounding).
    """
    gamma, underflow = _band_terms(a, top)
    mag = float(_form(a, np.abs(w), np.abs(_stored(a))))
    return 2 * (gamma * mag + underflow)


def _band_terms(a, top) -> tuple[float, float]:
    """The floats g and U of ``_rounding_band``, for max|w| = ``top``, a
    numpy float: its power overflows to inf."""
    m, n = a.order, a.dim
    gamma = m * n * 2.0**-53 / (1 - m * n * 2.0**-53)
    return gamma, n**m * 2.0**-1073 * max(1.0, top) ** m


def _up(x: float) -> float:
    """The float after x: at least the exact result of the one operation
    that x is the rounded-to-nearest value of (within half a step of it,
    subnormal results included)."""
    return math.nextafter(x, math.inf)


def _coarse_band(a, top) -> float:
    """An upper bound on ``_rounding_band(a, w, top)`` without its
    contraction, from ``top`` = max|w| alone.

    Every term of M = |A|(|w|)^m is at most max|w|^m, so
    M <= B = max|w|^m * sum|A|, and sum|A| = n * sum|root| for a circulant
    tensor (each root entry appears once in every row).  A float sum of N
    nonnegative terms, in any order, is at least S (1 - gamma_(N-1)) (no
    addition underflows), so S <= fl(S) (1 + 2Nu) while Nu <= 1/4.  Every
    other operation here is rounded to nearest and stepped up (``_up``), so
    the float B and the floats g+, U+ bound B, g and U from above.
    ``_rounding_band`` evaluates 2 (g M' + U), with g and U as floats and M'
    the float value of M, and M' <= (1 + g) M + U by the error bound that
    gives the band.  So X = (1 + g+) B + U+ >= M', and the same expression
    with X in place of M' is at least the band: rounding is monotone.
    """
    gamma, underflow = _band_terms(a, top)
    top = float(top)
    stored = _stored(a)
    with np.errstate(over="ignore"):  # an infinite sum is still an upper bound
        total = _up(float(np.abs(stored).sum()) * _up(1 + stored.size * 2.0**-52))
    if isinstance(a, CirculantTensor):
        total = _up(a.dim * total)
    power, scale = 1.0, _up(float(a.dim**a.order))  # max|w|^m, n^m max(1, max|w|)^m
    for _ in range(a.order):
        power = _up(power * top)
        scale = _up(scale * max(1.0, top))
    bound = _up(_up(_up(1 + _up(gamma)) * _up(power * total)) + _up(scale * 2.0**-1073))
    return 2 * (gamma * bound + underflow)


# n^m max|a| max|w|^m bounds every partial sum of A w^m and of its band's
# contraction: below 2^_RANGE_EXP none comes near the float range
_RANGE_EXP = 1000


def _in_range(a, w: np.ndarray) -> tuple[np.ndarray, np.floating]:
    """``w`` times the power of two that brings n^m max|a| max|w|^m below
    2^_RANGE_EXP, or ``w`` itself where it is below already, and its max|w|
    as a numpy float.  The form is homogeneous of degree m, so the scaling
    keeps the sign of its value, and max|w| scales exactly."""
    top = np.max(np.abs(w))
    reach = (a.dim**a.order).bit_length() + math.frexp(a.max_abs)[1] + a.order * math.frexp(top)[1]
    if reach <= _RANGE_EXP:
        return w, top
    shift = (_RANGE_EXP - reach) // a.order
    return np.ldexp(w, shift), np.ldexp(top, shift)


def not_psd_verdict(a, witness, certificate: str | None, details: dict) -> PsdVerdict | None:
    """The refutation of ``a`` by ``witness`` if its form value is negative,
    else None.  The float value decides outside ``_rounding_band``; inside
    it the exact value (``core._exact_form``) decides and is recorded as
    ``witness_value_exact``.  The band's contraction runs only when the
    value lies within ``_coarse_band``, which bounds the band from above.
    A witness whose value could come near the float range is first scaled
    by a power of two (``_in_range``), so that no value or band overflows;
    the scaled witness is the one verified and returned."""
    witness, top = _in_range(a, np.asarray(witness, dtype=float))
    value = deciding = float(apply_full(a, witness))
    details = dict(details)
    if abs(value) <= _coarse_band(a, top) and abs(value) <= _rounding_band(a, witness, top):
        deciding = _exact_form(a, witness)
        details["witness_value_exact"] = float(deciding)
    if not deciding < 0:
        return None
    details["witness_value"] = value
    return PsdVerdict(NOT_PSD, certificate, witness, details)
