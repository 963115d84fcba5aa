"""Positive semi-definiteness decision chain for even-order circulant tensors.

Order of attack: cheap necessary sign checks, the sufficiency certificates
(diagonal dominance, B0/B class), the structural routes (diagonal root,
doubly circulant), and finally, when allowed, a multi-start sphere
minimization.  Every route is sound, so the order picks the route that
reports, never the decision; numeric evidence can refute (with a verified
witness) but never certifies semi-definiteness.

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


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    passed: bool


def _require_even_circulant(a) -> None:
    if not isinstance(a, CirculantTensor):
        raise TypeError("semi-definiteness chain expects a circulant tensor")
    if a.order % 2:
        raise ValueError("positive semi-definiteness is defined for even order")


def necessary_checks(a: CirculantTensor):
    """The sign conditions every even-order PSD circulant tensor satisfies.

    Returns (checks, verdict): the list of individual results and, when one
    fails with a verifiable witness, the refuting verdict (witness 1_1, 1,
    or the alternating vector respectively).  The eigenvalues are exactly
    rounded sums, whose signs are exact: no nonzero float sum rounds to 0.
    """
    _require_even_circulant(a)
    n = a.dim
    checks = []
    verdict = None

    c0 = a.diagonal_entry
    checks.append(CheckResult("diagonal_entry", c0, c0 >= 0))
    if c0 < 0 and verdict is None:
        verdict = not_psd_verdict(a, np.eye(1, n)[0], None, {"failed": "diagonal_entry"})

    lam0 = first_native(a)
    checks.append(CheckResult("first_native", lam0, lam0 >= 0))
    if lam0 < 0 and verdict is None:
        verdict = not_psd_verdict(a, np.ones(n), None, {"failed": "first_native"})

    if n % 2 == 0:
        lam_half = alternative_native(a)
        checks.append(CheckResult("alternative_native", lam_half, lam_half >= 0))
        if lam_half < 0 and verdict is None:
            verdict = not_psd_verdict(
                a, hat_one_k(n, 1), None, {"failed": "alternative_native"}
            )
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
            details = {"route": f"block-alternating-k{k}", **trail}
            return not_psd_verdict(a, hat_one_k(n, k) / math.sqrt(n), DIAG_ROOT, details)
    trail["diag_root"] = "undecided"
    return None


def check_psd(
    a: CirculantTensor,
    mode: str = "with_numeric",
    restarts: int = 24,
    seed: int = 0,
) -> PsdVerdict:
    """Run the full decision chain; the first firing route wins.

    The order: necessary checks, diagonal dominance, B0/B class, the
    diagonal-root refutation, ``doubly_psd`` and, unless
    ``certificates_only``, the numeric stage: ``multi_start`` with the
    default ``AdmmParams`` schedule, as ``minimize`` runs.  That refutes when
    the best value is negative and ``not_psd_verdict`` verifies the point;
    otherwise its minimum is evidence only (inconclusive).
    """
    if mode not in ("with_numeric", "certificates_only"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_even_circulant(a)
    trail: dict = {}

    checks, verdict = necessary_checks(a)
    trail["necessary"] = [(c.name, c.value, c.passed) for c in checks]
    if verdict is not None:
        verdict.details.update(trail)
        return verdict

    for route in (sufficient_diag_dominance, sufficient_b_class):
        v = route(a)
        if v is not None:
            v.details.update(trail)
            return v

    v = _diag_root_refutation(a, trail)
    if v is not None:
        return v

    if a.order >= 4 and is_doubly_circulant(a):
        v = doubly_psd(a)
        if v.decision != INCONCLUSIVE:
            v.details.update(trail)
            return v
        trail["doubly_circulant"] = v.details.get("route", "undecided")

    if mode == "certificates_only":
        return inconclusive(**trail)

    best = multi_start(a, AdmmParams(seed=seed), restarts).best
    trail["numeric_best"] = best.value
    trail["numeric_converged"] = best.converged
    if best.value < 0:
        v = not_psd_verdict(a, best.point, NUMERIC, trail)
        if v is not None:
            return v
    return PsdVerdict(INCONCLUSIVE, NUMERIC, None, trail)


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
