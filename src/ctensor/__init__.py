"""Circulant tensor toolkit.

Construction from root tensors, hypergraph generators, or periodic-process
samples; native eigenvalues and structural classification; and a positive
semi-definiteness decision chain with certificate, special-structure, and
multi-start numeric routes.
"""

from .admm import (
    AdmmParams,
    AdmmResult,
    MultiStartReport,
    minimize,
    multi_start,
    subproblem,
)
from .core import (
    BudgetError,
    CirculantTensor,
    DenseTensor,
    apply_full,
    apply_partial,
    as_circulant,
    circulant_from_root,
    entry,
    is_circulant,
    is_toeplitz,
    materialize,
    matrix_product,
    perm_matrix,
    row_tensor,
    symmetrize,
)
from .diag_root import (
    DiagRootSpec,
    diag_root_vector,
    doubly_psd,
    expand,
)
from .hypergraph import (
    Hypergraph,
    adjacency_tensor,
    degree_tensor,
    laplacian,
    orbit_closure,
    signless_laplacian,
)
from .io import as_tensor, load_tensor, tensor_from_dict, tensor_to_dict
from .moments import ProcessSample, fold_trajectories, moment_tensor
from .psd import (
    brute_force_min,
    check_psd,
    necessary_checks,
    sufficient_b_class,
    sufficient_diag_dominance,
)
from .spectral import (
    GershgorinDisc,
    NativeSpectrum,
    alternative_native,
    associated_coeffs,
    eigen_residual,
    extreme_h_eigenvalue,
    first_native,
    gershgorin,
    native_eigenvalues,
    native_eigenvector,
)
from .structure import (
    BClassReport,
    SignClass,
    b_class,
    classify_sign,
    hat_one_k,
    is_doubly_circulant,
    is_k_alternative,
)
from .verdict import PsdVerdict

__version__ = "0.1.0"
