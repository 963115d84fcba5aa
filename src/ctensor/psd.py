"""Positive semi-definiteness decision chain for even-order circulant tensors.

The chain is data: ``_STAGES`` holds its stages in order, each a function
``(a, trail) -> PsdVerdict | None``, and ``check_psd`` runs them until one
decides.  Every route is sound, so the order picks the route that reports,
never the decision; numeric evidence can refute (with a verified witness)
but never certifies semi-definiteness.

The sign-structured associated tensors (non-positive, negatively
alternative) need no stage of their own.  A non-positive associated tensor
has lambda_0 = c0 - sum|off|, a negatively alternative one lambda_{n/2} =
c0 - sum|off|.  The necessary checks decide those signs exactly: they refute
every such input with a negative one, and diagonal dominance certifies the
rest, diagonal roots with a non-positive or 1-alternative tail included.
``tests/oracles.py`` keeps both decisions as the references the tests check
this against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .admm import AdmmParams, multi_start
from .core import CirculantTensor, _contract, materialize
from .diag_root import diag_root_vector, doubly_psd
from .exactsum import _fsum
from .spectral import alternative_native, first_native
from .structure import b_class, hat_one_k, is_doubly_circulant, is_k_alternative
from .verdict import (
    B0_CERT,
    B_CERT,
    DIAG_DOMINANCE,
    DIAG_ROOT,
    INCONCLUSIVE,
    NUMERIC,
    PsdVerdict,
    inconclusive,
    not_psd_verdict,
    psd_verdict,
)


def _require_even_circulant(a) -> None:
    if not isinstance(a, CirculantTensor):
        raise TypeError("semi-definiteness chain expects a circulant tensor")
    if a.order % 2:
        raise ValueError("positive semi-definiteness is defined for even order")


def necessary_checks(a: CirculantTensor):
    """The sign conditions every even-order PSD circulant tensor satisfies.

    Returns (checks, verdict): a (name, value, passed) triple per condition
    and, when one fails with a verifiable witness, the refuting verdict
    (witness 1_1, 1, or the alternating vector respectively).  The
    eigenvalues are exactly rounded sums, whose signs are exact: no nonzero
    float sum rounds to 0.
    """
    _require_even_circulant(a)
    n = a.dim
    conditions = [
        ("diagonal_entry", a.diagonal_entry, lambda: np.eye(1, n)[0]),
        ("first_native", first_native(a), lambda: np.ones(n)),
    ]
    if n % 2 == 0:
        conditions.append(("alternative_native", alternative_native(a), lambda: hat_one_k(n, 1)))
    checks, verdict = [], None
    for name, value, witness in conditions:
        checks.append((name, value, value >= 0))
        if value < 0 and verdict is None:
            verdict = not_psd_verdict(a, witness(), None, {"failed": name})
    return checks, verdict


def sufficient_diag_dominance(a: CirculantTensor) -> PsdVerdict | None:
    """Certificate: diagonal entry dominates the associated-tensor 1-norm.
    Rounding is monotone, so only a tie of c0 with the once-rounded radius
    needs the exact margin c0 - sum |off|, and a radius beyond the float
    range exceeds every c0."""
    _require_even_circulant(a)
    off = np.abs(a.off_diagonal)
    try:
        radius = _fsum(off)
    except OverflowError:
        return None
    c0 = a.diagonal_entry
    if c0 > radius or (c0 == radius and _fsum(np.append(c0, -off)) >= 0):
        return psd_verdict(DIAG_DOMINANCE, c0=c0, associated_abs_sum=radius)
    return None


def sufficient_b_class(a: CirculantTensor) -> PsdVerdict | None:
    """Certificate: circulant B0 tensors are PSD, circulant B tensors are PD."""
    _require_even_circulant(a)
    report = b_class(a)
    if report.is_b:
        return psd_verdict(B_CERT, strict=True, max_offdiag=report.max_offdiag)
    if report.is_b0:
        return psd_verdict(B0_CERT, max_offdiag=report.max_offdiag)
    return None


# The stages call the public routes by module-global name at call time, so a
# wrapper installed on this module's attributes sees every call.


def _necessary(a: CirculantTensor, trail: dict) -> PsdVerdict | None:
    checks, verdict = necessary_checks(a)
    trail["necessary"] = checks
    return verdict


def _diag_dominance(a: CirculantTensor, trail: dict) -> PsdVerdict | None:
    return sufficient_diag_dominance(a)


def _b_class(a: CirculantTensor, trail: dict) -> PsdVerdict | None:
    return sufficient_b_class(a)


def _diag_root_refutation(a: CirculantTensor, trail: dict) -> PsdVerdict | None:
    """Refute a diagonal root c whose tail is k-alternative (k >= 2, 2k | n):
    once dominance has failed, the form at the block sign vector is
    n * (c_0 - sum |c_j|) < 0.  Other diagonal roots are marked undecided."""
    c = diag_root_vector(a)
    if c is None:
        return None
    n = a.dim
    for k in range(2, n // 2 + 1):
        if n % (2 * k) == 0 and is_k_alternative(c[1:], k):
            details = {"route": f"block-alternating-k{k}"}
            return not_psd_verdict(a, hat_one_k(n, k) / math.sqrt(n), DIAG_ROOT, details)
    trail["diag_root"] = "undecided"
    return None


def _doubly(a: CirculantTensor, trail: dict) -> PsdVerdict | None:
    if a.order < 4 or not is_doubly_circulant(a):
        return None
    v = doubly_psd(a)
    if v.decided:
        return v
    trail["doubly_circulant"] = v.details.get("route", "undecided")
    return None


def _numeric(a: CirculantTensor, trail: dict, restarts: int, seed: int) -> PsdVerdict:
    """``multi_start`` with the default schedule: a refutation where the best
    point verifies, else its minimum is evidence only (inconclusive)."""
    best = multi_start(a, AdmmParams(seed=seed), restarts).best
    trail["numeric_best"] = best.value
    trail["numeric_converged"] = best.converged
    v = not_psd_verdict(a, best.point, NUMERIC, {}) if best.value < 0 else None
    return PsdVerdict(INCONCLUSIVE, NUMERIC) if v is None else v


# the decision chain in order; certificates_only stops before the last stage
_STAGES = (_necessary, _diag_dominance, _b_class, _diag_root_refutation, _doubly, _numeric)


def check_psd(
    a: CirculantTensor,
    mode: str = "with_numeric",
    restarts: int = 24,
    seed: int = 0,
) -> PsdVerdict:
    """Run ``_STAGES`` in order, the numeric stage only ``with_numeric``: the
    first verdict wins, with the trail merged into its details.  If no stage
    decides, the verdict is inconclusive."""
    if mode not in ("with_numeric", "certificates_only"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_even_circulant(a)
    stages = _STAGES[:-1]
    if mode == "with_numeric":
        stages += (functools.partial(_numeric, restarts=restarts, seed=seed),)
    trail: dict = {}
    for stage in stages:
        v = stage(a, trail)
        if v is not None:
            v.details.update(trail)
            return v
    return inconclusive(**trail)


def _circle_points(num: int) -> np.ndarray:
    theta = np.linspace(0.0, 2 * np.pi, num, endpoint=False)
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _fibonacci_sphere(num: int) -> np.ndarray:
    i = np.arange(num) + 0.5
    phi = np.arccos(1 - 2 * i / num)
    golden = np.pi * (1 + 5**0.5)
    theta = golden * i
    return np.column_stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
    )


def _tangent_frame(x: np.ndarray) -> np.ndarray:
    n = len(x)
    basis = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        v = e - np.dot(e, x) * x
        for b in basis:
            v -= np.dot(v, b) * b
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            basis.append(v / nv)
        if len(basis) == n - 1:
            break
    return np.array(basis)


# shrinking local grids around the incumbent in brute_force_min
_REFINE_ROUNDS = 8


@dataclass
class BruteResult:
    value: float
    argmin: np.ndarray
    details: dict


def brute_force_min(a) -> BruteResult:
    """Grid search for min A x^m over the unit sphere (n <= 4).

    Every evaluated point is feasible, so the returned value is an upper
    bound on the true minimum; the reported Lipschitz bound times the grid
    covering radius bounds the gap from below.  A shrinking local grid
    around the incumbent sharpens the value far beyond the base grid.
    """
    arr = materialize(a).array
    n = arr.shape[0]
    if n == 2:
        num = 2000
        pts = _circle_points(num)
        cover = np.pi / num
    elif n == 3:
        num = 10**4
        pts = _fibonacci_sphere(num)
        cover = 3.0 / math.sqrt(num)
    elif n == 4:
        # seeded uniform sphere sample; the coverage bound is heuristic here
        num = 4 * 10**4
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(num, 4))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        cover = 4.0 / num ** (1 / 3)
    else:
        raise ValueError("brute-force oracle supports n in {2, 3, 4} only")

    # the kernel's first product holds n^(m-1) values per point: evaluate in
    # chunks of about 2^16 of them, so a large grid needs no large buffer
    m = arr.ndim
    step = max(1, 2**16 // n ** (m - 1))

    def form(points):
        parts = range(0, len(points), step)
        return np.concatenate([_contract(arr, [points[i : i + step]] * m) for i in parts])

    vals = form(pts)
    best_i = int(np.argmin(vals))
    best_x = pts[best_i]
    best_v = float(vals[best_i])
    grid_min = best_v

    span = cover * 2
    for _ in range(_REFINE_ROUNDS):
        frame = _tangent_frame(best_x)
        steps = np.linspace(-span, span, 9)
        grids = np.meshgrid(*([steps] * (n - 1)))
        local = best_x[None, :] + sum(
            g.reshape(-1, 1) * frame[i][None, :] for i, g in enumerate(grids)
        )
        local /= np.linalg.norm(local, axis=1, keepdims=True)
        lv = form(local)
        i = int(np.argmin(lv))
        if lv[i] < best_v:
            best_v = float(lv[i])
            best_x = local[i]
        span *= 0.25

    lipschitz = arr.ndim * _fsum(np.abs(arr))
    details = {
        "grid_points": len(pts),
        "grid_min": grid_min,
        "lipschitz": lipschitz,
        "covering_radius": cover,
        "lower_bound": grid_min - lipschitz * cover,
    }
    return BruteResult(value=best_v, argmin=best_x, details=details)
