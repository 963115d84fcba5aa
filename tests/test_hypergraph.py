import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ctensor.core import is_circulant, materialize, symmetrize
from ctensor.hypergraph import (
    Hypergraph,
    adjacency_tensor,
    degree_tensor,
    hypergraph_from_dict,
    laplacian,
    orbit_closure,
    signless_laplacian,
)
from ctensor.spectral import eigen_residual, extreme_h_eigenvalue, first_native
from ctensor.psd import check_psd
from ctensor.structure import b_class


def is_symmetric(arr):
    return all(
        np.allclose(arr, np.transpose(arr, p))
        for p in itertools.permutations(range(arr.ndim))
    )


class TestOrbitClosure:
    def test_cycle_graph(self):
        g = orbit_closure([(1, 2)], n=4)
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})
        assert g.degree == 2

    def test_full_length_orbit(self):
        g = orbit_closure([(1, 2, 4)], n=6)
        assert len(g.edges) == 6

    def test_short_orbit(self):
        g = orbit_closure([(1, 3)], n=4)
        assert g.edges == frozenset({(1, 3), (2, 4)})

    def test_directed_keeps_tail(self):
        g = orbit_closure([(2, 1, 3)], n=4, directed=True)
        assert (2, (1, 3)) in g.edges
        assert (3, (2, 4)) in g.edges
        assert len(g.edges) == 4

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError):
            orbit_closure([(1, 1, 2)], n=4)

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            orbit_closure([(1, 7)], n=4)

    def test_regularity(self):
        for gens, n, directed in [
            ([(1, 2, 3)], 5, False),
            ([(1, 2, 4), (1, 3, 5)], 6, False),
            ([(1, 2, 4, 5)], 6, True),
        ]:
            g = orbit_closure(gens, n=n, directed=directed)
            if directed:
                counts = [sum(1 for e in g.edges if e[0] == j) for j in range(1, n + 1)]
            else:
                counts = [sum(1 for e in g.edges if j in e) for j in range(1, n + 1)]
            assert len(set(counts)) == 1


class TestAdjacency:
    def test_cycle_matrix(self):
        g = orbit_closure([(1, 2)], n=4)
        arr = materialize(adjacency_tensor(g)).array
        expected = np.array(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=float
        )
        assert np.array_equal(arr, expected)

    def test_undirected_symmetric_circulant(self):
        g = orbit_closure([(1, 2, 4)], n=6)
        a = adjacency_tensor(g)
        arr = materialize(a).array
        assert is_circulant(materialize(a), 0.0)
        assert is_symmetric(arr)
        # row sums equal the degree
        assert math.fsum(arr[0].reshape(-1)) == pytest.approx(g.degree)

    def test_directed_not_symmetric_but_circulant(self):
        g = orbit_closure([(1, 2, 4)], n=6, directed=True)
        arr = materialize(adjacency_tensor(g)).array
        assert is_circulant(materialize(adjacency_tensor(g)), 0.0)
        assert not is_symmetric(arr)

    def test_entry_weight(self):
        g = orbit_closure([(1, 2, 3)], n=4)
        arr = materialize(adjacency_tensor(g)).array
        assert arr[0, 1, 2] == pytest.approx(1 / 2)  # 1/(m-1)!
        assert arr[0, 2, 1] == pytest.approx(1 / 2)
        assert arr[0, 0, 1] == 0.0


class TestLaplacians:
    def test_first_native_zero_with_ones_eigenvector(self):
        g = orbit_closure([(1, 2, 4, 5)], n=6, directed=True)
        lap = laplacian(g)
        assert abs(first_native(lap)) <= 1e-12
        assert eigen_residual(lap, 0.0, np.ones(6)) <= 1e-10

    def test_extremes(self):
        g = orbit_closure([(1, 2, 4, 5)], n=6, directed=True)
        d = g.degree
        assert extreme_h_eigenvalue(adjacency_tensor(g)).value == pytest.approx(d)
        assert extreme_h_eigenvalue(adjacency_tensor(g)).kind == "largest"
        ext_q = extreme_h_eigenvalue(signless_laplacian(g))
        assert ext_q.value == pytest.approx(2 * d)
        assert ext_q.kind == "largest"

    def test_degree_tensor_diagonal(self):
        g = orbit_closure([(1, 2, 3)], n=5)
        arr = materialize(degree_tensor(g)).array
        for j in range(5):
            assert arr[(j,) * 3] == g.degree
        assert math.fsum(np.abs(arr).reshape(-1)) == pytest.approx(5 * g.degree)

    def test_even_uniform_psd_by_certificates(self):
        g = orbit_closure([(1, 2, 4, 5)], n=6, directed=True)
        for build in (laplacian, signless_laplacian):
            v = check_psd(build(g), mode="certificates_only")
            assert v.is_psd
            assert v.certificate is not None

    def test_laplacian_is_b0_signless_is_not(self):
        # the B0 conditions hold for the Laplacian; for the signless
        # Laplacian the entry average 2d/n^m falls below the off-diagonal
        # maximum 1/(m-1)! at this scale, so the B0 route cannot fire
        g = orbit_closure([(1, 2, 4, 5)], n=6, directed=True)
        assert b_class(laplacian(g)).is_b0
        assert not b_class(signless_laplacian(g)).is_b0

    def test_symmetrized_laplacian_same_form(self):
        g = orbit_closure([(1, 2, 4)], n=6, directed=True)
        lap = laplacian(g)
        s = symmetrize(lap)
        rng = np.random.default_rng(0)
        from ctensor.core import apply_full

        for _ in range(5):
            x = rng.normal(size=6)
            assert apply_full(lap, x) == pytest.approx(apply_full(s, x), rel=1e-9, abs=1e-9)


class TestOneRootPass:
    @pytest.mark.parametrize("gens,n,directed", [
        ([(1, 2, 4)], 6, False), ([(1, 2, 4)], 6, True), ([(1, 2)], 5, False),
        ([(1, 2, 3, 5), (1, 3, 6, 10)], 12, False), ([(2, 1, 3, 5), (1, 4, 6, 7)], 9, True)])
    def test_degree_minus_plus_adjacency_bytes(self, gens, n, directed):
        # zeros stay +0.0: a -0.0 would print as -0 in the JSON output
        g = orbit_closure(gens, n=n, directed=directed)
        d, a = degree_tensor(g).root.array, adjacency_tensor(g).root.array
        assert laplacian(g).root.array.tobytes() == (d - a).tobytes()
        assert signless_laplacian(g).root.array.tobytes() == (d + a).tobytes()

    @pytest.mark.parametrize("build", [laplacian, signless_laplacian])
    def test_one_root_array(self, build):
        g = orbit_closure([(1, 2, 3, 5), (1, 3, 6, 10)], n=60)
        tracemalloc.start()
        try:
            build(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 60**3 * 8  # the root's bytes

    @pytest.mark.parametrize(
        "build", [adjacency_tensor, laplacian, signless_laplacian, degree_tensor]
    )
    def test_irregular_edge_set_rejected(self, build):
        # a directly built edge set need not be rotation-closed
        for g in (Hypergraph(5, 3, frozenset({(1, 2, 3), (2, 3, 4)}), False),
                  Hypergraph(4, 2, frozenset({(1, (2,)), (1, (3,))}), True)):
            with pytest.raises(AssertionError, match="regular"):
                build(g)


class TestSerialization:
    def test_from_dict(self):
        g = hypergraph_from_dict(
            {"n": 6, "m": 3, "directed": True, "generators": [[1, 2, 4]]}
        )
        assert g.n == 6 and g.m == 3 and g.directed
        assert len(g.edges) == 6

    def test_integer_fields(self):
        # numpy integers count as integers; floats and booleans are not
        # truncated into vertices or sizes
        g = orbit_closure([np.array([1, 2, 4])], np.int64(6))
        assert g == orbit_closure([[1, 2, 4]], 6) and type(g.n) is int
        for gens, n in (([[1, 2, 4.0]], 6), ([[1, 2, np.True_]], 6), ([[1, 2, 4]], 6.0),
                        ([[1, 2, 4]], True)):
            with pytest.raises(ValueError, match="must be an integer"):
                orbit_closure(gens, n)
