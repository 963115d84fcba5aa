import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctensor import presets
from ctensor.admm import AdmmParams, minimize, multi_start, subproblem
from ctensor.core import _normalized, apply_full, circulant_from_root, materialize, symmetrize
from ctensor.diag_root import expand
from ctensor.hypergraph import laplacian, orbit_closure, signless_laplacian
from ctensor.psd import brute_force_min

from oracles import (
    block_gradient,
    fd_block_gradient,
    naive_multi_form,
    random_circulant,
    reference_iterate,
    where_subproblem,
)


class TestParams:
    def test_defaults(self):
        p = AdmmParams()
        assert p.beta == 1.2 and p.epsilon == 1e-6 and p.max_iters == 1200

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmmParams(beta=0.0)
        with pytest.raises(ValueError):
            AdmmParams(epsilon=-1.0)
        with pytest.raises(ValueError):
            AdmmParams(max_iters=0)
        # a bool is not a budget, nor is a fraction of an iteration or a seed
        for bad in ({"max_iters": True}, {"max_iters": 2.5}, {"seed": 1.5}):
            with pytest.raises(ValueError, match="integer"):
                AdmmParams(**bad)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                AdmmParams(beta=bad)
            with pytest.raises(ValueError, match="finite"):
                AdmmParams(epsilon=bad)


class TestBlockGradient:
    def test_linearity_identity(self, rng):
        a = random_circulant(rng, 3, 3)
        arr = materialize(a).array
        blocks = np.tile(np.ones(3), (3, 1))
        g = block_gradient(arr, blocks, 0)
        f = naive_multi_form(arr, blocks)
        assert g @ blocks[0] == pytest.approx(f, rel=1e-10)
        assert f == pytest.approx(apply_full(a, np.ones(3)), rel=1e-10)

    def test_symmetric_slot_independence(self, rng):
        a = symmetrize(random_circulant(rng, 3, 3))
        arr = materialize(a).array
        x = rng.normal(size=3)
        blocks = np.tile(x, (3, 1))
        from ctensor.core import apply_partial

        expected = apply_partial(a, x)
        for slot in range(3):
            assert np.allclose(block_gradient(arr, blocks, slot), expected, atol=1e-10)

    def test_against_finite_differences(self, rng):
        for m, n in [(3, 2), (4, 3), (4, 4)]:
            arr = materialize(random_circulant(rng, m, n, scale=3.0)).array
            blocks = rng.normal(size=(m, n))
            for slot in range(m):
                g = block_gradient(arr, blocks, slot)
                fd = fd_block_gradient(arr, blocks, slot)
                assert np.max(np.abs(g - fd)) <= 1e-5


class TestSubproblem:
    def test_opposes_direction(self):
        out = subproblem(np.array([2.0, 0.0]), np.array([0.0, 1.0]))
        assert np.allclose(out, [-1.0, 0.0])

    def test_zero_keeps_previous(self):
        prev = np.array([0.6, 0.8])
        assert np.array_equal(subproblem(np.zeros(2), prev), prev)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31))
    def test_minimizes_over_sphere_samples(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=3)
        x = subproblem(b, np.array([1.0, 0.0, 0.0]))
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
        samples = rng.normal(size=(2000, 3))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        assert b @ x <= (samples @ b).min() + 1e-9

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("small_rows", [(), (3,), (0, 5, 11), tuple(range(12))])
    def test_matches_where_formula_bitwise(self, rng, small_rows, transposed):
        b = rng.normal(size=(12, 3)) * np.logspace(-8, 8, 12)[:, None]
        b[1] = [1e-14, 1e-15, 0.0]  # just above the threshold
        for i, r in enumerate(small_rows):
            b[r] = 0.0 if i % 2 else [9e-15, -1e-15, 2e-15]
        prev = rng.normal(size=(12, 3))
        if transposed:  # restarts on the contiguous axis, as in admm._iterate
            b, prev = np.ascontiguousarray(b.T).T, np.ascontiguousarray(prev.T).T
            assert not b.flags.c_contiguous
        out, ref = subproblem(b, prev), where_subproblem(b, prev)
        assert out.shape == ref.shape == (12, 3)
        assert out.tobytes() == ref.tobytes()


class TestRestartLayout:
    """``admm._iterate`` (restarts on the last axis, no second division by
    the norm) against the (R, m, n) iteration it replaced."""

    @staticmethod
    def _reference(a, seed, restarts=100):
        # the solve runs on the normalized tensor
        arr = materialize(symmetrize(_normalized(a)[0])).array
        starts = np.random.default_rng(seed).normal(size=(restarts, a.dim))
        starts /= np.sqrt((starts * starts).sum(axis=1, keepdims=True))
        return reference_iterate(arr, starts, AdmmParams(seed=seed))

    @pytest.mark.parametrize("seed", range(5))
    def test_same_iterations_example5(self, seed):
        a = expand(presets.by_name("example5"))
        rep = multi_start(a, AdmmParams(seed=seed), restarts=100)
        _, iterations, converged = self._reference(a, seed)
        assert [r.converged for r in rep.results] == converged.tolist()
        assert [r.iterations for r in rep.results] == iterations.tolist()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", ["example5", "example6"])
    def test_converged_values_and_unit_points(self, name, seed):
        a = expand(presets.by_name(name))
        rep = multi_start(a, AdmmParams(seed=seed), restarts=100)
        blocks, _, converged = self._reference(a, seed)
        both = [i for i, r in enumerate(rep.results) if r.converged and converged[i]]
        assert len(both) >= 95
        for i in both:
            point = rep.results[i].point
            assert abs(np.linalg.norm(point) - 1.0) <= 1e-15
            assert abs(rep.results[i].value - float(apply_full(a, blocks[i, 0]))) <= 1e-10


class TestKernelOrders:
    """``admm._iterate`` against ``oracles.reference_iterate`` at orders
    other than example5's 4, one restart and a batch, with and without
    penalty escalation."""

    @pytest.mark.parametrize("escalating", [False, True])
    @pytest.mark.parametrize("restarts", [1, 7])
    @pytest.mark.parametrize("m,n", [(2, 4), (3, 3), (6, 3)])
    def test_same_iterations_and_values(self, m, n, restarts, escalating):
        a = random_circulant(np.random.default_rng([m, n]), m, n)
        if escalating:
            params = AdmmParams(seed=0, max_iters=23)
        else:
            params = AdmmParams(seed=0)
        rep = multi_start(a, params, restarts=restarts)
        starts = np.random.default_rng(0).normal(size=(restarts, n))
        starts /= np.sqrt((starts * starts).sum(axis=1, keepdims=True))
        arr = materialize(symmetrize(_normalized(a)[0])).array
        blocks, iterations, converged = reference_iterate(arr, starts, params)
        assert [r.iterations for r in rep.results] == iterations.tolist()
        assert [r.converged for r in rep.results] == converged.tolist()
        for r, block in zip(rep.results, blocks):
            assert abs(r.value - float(apply_full(a, block[0]))) <= 1e-10
        if escalating:
            assert any(r.iterations > params.max_iters for r in rep.results)


class TestSeedingContract:
    """Restart i's start is row i of one draw seeded by ``params.seed``: it
    depends on (seed, i) alone, and restart 0 starts where ``minimize``
    does."""

    @staticmethod
    def _tensor(name):
        if name == "example5":
            return expand(presets.by_name(name))
        return random_circulant(np.random.default_rng([3, 3]), 3, 3)

    @pytest.mark.parametrize("name", ["example5", "circulant33"])
    def test_short_run_is_a_prefix(self, name):
        a, params = self._tensor(name), AdmmParams(seed=0)
        long = multi_start(a, params, restarts=100).results[:8]
        short = multi_start(a, params, restarts=8).results
        for r, s in zip(long, short):
            assert (r.iterations, r.converged) == (s.iterations, s.converged)
            # the batch width moves the GEMM's last bits
            assert abs(r.value - s.value) <= 1e-12

    @pytest.mark.parametrize("name", ["example5", "circulant33"])
    def test_one_restart_is_minimize(self, name):
        a, params = self._tensor(name), AdmmParams(seed=0)
        one = multi_start(a, params, restarts=1).results[0]
        alone = minimize(a, params)
        assert one.value == alone.value
        assert one.point.tobytes() == alone.point.tobytes()
        assert one.iterations == alone.iterations


class TestMinimize:
    def test_one_dense_array(self):
        # the symmetrized tensor serves every block's gradient: besides the
        # dense array and its build, no per-block copy of it
        a = random_circulant(np.random.default_rng(0), 4, 20)
        dense_bytes = 20**4 * 8
        tracemalloc.start()
        try:
            minimize(a, AdmmParams(seed=0, max_iters=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * dense_bytes

    def test_identity_min_half(self):
        root = np.zeros((2, 2, 2))
        root[0, 0, 0] = 1.0
        a = circulant_from_root(root)
        res = minimize(a, AdmmParams(seed=5))
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-4)
        assert brute_force_min(a).value == pytest.approx(0.5, abs=1e-6)

    def test_unit_blocks_and_consensus(self, rng):
        a = random_circulant(rng, 4, 3, scale=2.0)
        res = minimize(a, AdmmParams(seed=2))
        assert np.linalg.norm(res.point) == pytest.approx(1.0, abs=1e-9)
        if res.converged:
            assert res.consensus_gap <= 10 * 1e-6

    def test_value_matches_point(self, rng):
        a = random_circulant(rng, 4, 2)
        res = minimize(a, AdmmParams(seed=3))
        assert res.value == pytest.approx(float(apply_full(a, res.point)), abs=1e-12)

    def test_deterministic_given_seed(self):
        a = expand(presets.by_name("example5"))
        r1 = minimize(a, AdmmParams(seed=11))
        r2 = minimize(a, AdmmParams(seed=11))
        assert r1.value == r2.value
        assert np.array_equal(r1.point, r2.point)
        assert r1.iterations == r2.iterations

    @pytest.mark.parametrize("x0", [np.zeros(3), np.array([np.nan, 1.0, 0.0]), np.ones(2)])
    def test_bad_start_rejected(self, x0):
        a = expand(presets.by_name("example5"))
        with pytest.raises(ValueError):
            minimize(a, AdmmParams(seed=0), x0=x0)


class TestMultiStart:
    def test_benchmark_c43(self):
        rep = multi_start(
            expand(presets.by_name("example5")),
            AdmmParams(seed=0),
            restarts=40,
            reference=-6.39448,
        )
        assert rep.best.value == pytest.approx(-6.39448, abs=1e-4)
        assert rep.success_rate >= 0.9

    def test_benchmark_c44(self):
        rep = multi_start(
            expand(presets.by_name("example6")),
            AdmmParams(seed=0),
            restarts=40,
            reference=-1.79658,
        )
        assert rep.best.value == pytest.approx(-1.79658, abs=1e-4)
        assert rep.success_rate >= 0.9

    def test_single_restart_deterministic(self):
        a = expand(presets.by_name("example5"))
        r1 = multi_start(a, AdmmParams(seed=4), restarts=1)
        r2 = multi_start(a, AdmmParams(seed=4), restarts=1)
        assert r1.best.value == r2.best.value
        assert np.array_equal(r1.best.point, r2.best.point)

    @staticmethod
    def _assert_matches_one_at_a_time(a, params, restarts):
        batch = multi_start(a, params, restarts=restarts)
        assert len(batch.results) == restarts
        starts = np.random.default_rng(params.seed).normal(size=(restarts, a.dim))
        for i, r in enumerate(batch.results):
            alone = minimize(a, params, x0=starts[i])
            assert r.iterations == alone.iterations
            assert r.converged == alone.converged
            assert r.value == pytest.approx(alone.value, abs=1e-12)
            assert np.allclose(r.point, alone.point, atol=1e-9)
            assert batch.values[i] == r.value
        return batch

    def test_batch_matches_one_at_a_time(self):
        a = expand(presets.by_name("example5"))
        batch = self._assert_matches_one_at_a_time(a, AdmmParams(seed=0), 8)
        # the batch wall time is shared evenly
        assert len({r.time_s for r in batch.results}) == 1

    @pytest.mark.parametrize("max_iters", [26, 27])
    def test_escalation_inside_batch(self, max_iters):
        # at 27 iterations some restarts stop at the first penalty and the
        # others escalate and never stop (the second penalty needs 38-41); at
        # 26 those that stop do so on the attempt's last iteration
        a = expand(presets.by_name("example5"))
        params = AdmmParams(seed=0, max_iters=max_iters)
        batch = self._assert_matches_one_at_a_time(a, params, 8)
        outcomes = {(-(-r.iterations // max_iters), r.converged) for r in batch.results}
        assert len(outcomes) >= 2
        assert any(attempt > 1 for attempt, _ in outcomes)

    @pytest.mark.parametrize("name", ["signless", "example3"])
    def test_psd_forms_converge_on_the_schedule(self, name):
        # the signless Laplacian of the 4-uniform hypergraph on Z_6 generated
        # by (1, 2, 3, 5), and example3: forms with minimum 0 on which some
        # restarts do not converge at beta = 1.2, but every one converges at
        # 4 or 16 beta within the three attempts of 1200 iterations
        if name == "signless":
            a = signless_laplacian(orbit_closure([(1, 2, 3, 5)], n=6))
        else:
            a = expand(presets.by_name(name))
        rep = multi_start(a, AdmmParams(seed=0), restarts=8)
        assert all(r.converged and r.iterations <= 3 * 1200 for r in rep.results)
        assert abs(rep.best.value) <= 1e-10

    @pytest.mark.parametrize(
        "name,iterations_mean,success_rate",
        [("example5", 27.63, 1.0), ("example6", 53.43, 0.98)],
    )
    def test_seed0_table1_pinned(self, name, iterations_mean, success_rate):
        # read from oracles.reference_iterate on the normalized tensor, whose
        # summation order is not the kernel's; two example6 restarts (35 and
        # 96) converge to the critical value 0.884045, not the minimum
        rep = multi_start(
            expand(presets.by_name(name)),
            AdmmParams(seed=0),
            restarts=100,
            reference=presets.BENCHMARK_REFERENCES[name],
        )
        assert rep.iterations_mean == iterations_mean
        assert rep.success_rate == success_rate

    def test_tied_restarts_take_lowest_index(self):
        # seed 3: both restarts reach the example5 minimum at different
        # points of its symmetry family, their values a few ulps apart
        rep = multi_start(expand(presets.by_name("example5")), AdmmParams(seed=3), restarts=2)
        v0, v1 = rep.values
        assert not np.allclose(rep.results[0].point, rep.results[1].point)
        assert abs(v0 - v1) <= 1e-12 * max(1.0, abs(v1))
        assert rep.best is rep.results[0]

    def test_near_tie_rule(self, monkeypatch):
        from ctensor import admm
        from ctensor.admm import AdmmResult

        def fake_solve(a, params, starts):
            vals = [-5.0, -5.0 - 4e-12, -5.0 - 6e-12, -5.0 - 2e-11]
            vals = vals[: len(starts)]
            return [AdmmResult(v, np.ones(2), 1, True, 0.0) for v in vals], np.array(vals)

        monkeypatch.setattr(admm, "_solve", fake_solve)
        a = expand(presets.by_name("example5"))
        # within a relative 1e-12 of the minimum the lowest index wins
        assert multi_start(a, restarts=3).best.value == -5.0 - 4e-12
        assert multi_start(a, restarts=4).best.value == -5.0 - 2e-11

    def test_agreement_with_grid_oracle(self, rng):
        for _ in range(12):
            n = int(rng.integers(2, 4))
            a = random_circulant(rng, 4, n)
            ms = multi_start(a, AdmmParams(seed=1), restarts=12)
            bf = brute_force_min(a)
            assert ms.best.value >= bf.value - 1e-4
            assert ms.best.value <= bf.value + 1e-3

    def test_entries_near_float_range(self):
        # the solve runs on the root times 2^-1023 and scales values back:
        # the same iterations, points and values as that tensor's own solve
        root = np.zeros((2, 2, 2))
        root.flat[:3] = [1e308, 1e308, -1e308]
        small = multi_start(circulant_from_root(np.ldexp(root, -1023)), restarts=4)
        big = circulant_from_root(root)
        for a in (big, materialize(big)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = multi_start(a, restarts=4)
            for r, s in zip(rep.results, small.results):
                assert (r.iterations, r.converged) == (s.iterations, s.converged)
                assert np.array_equal(r.point, s.point)
                assert r.value == s.value * 2.0**1023

    @pytest.mark.parametrize(
        "signs, k",
        [(False, k) for k in (-400, -60, 20, 400, 1020)] + [(True, -1074)],
        ids=["2^-400", "2^-60", "2^20", "2^400", "2^1020", "signs-2^-1074"],
    )
    def test_entries_scaled_by_powers_of_two(self, signs, k):
        # every solve runs at one scale, the largest row 1-norm in [8, 16):
        # 2^k A gives the iterations, convergence flags and points of A, and
        # its values times 2^k exactly, down to a root of +-2^-1074 entries
        root = np.random.default_rng(5).uniform(-1.0, 1.0, size=(3, 3, 3))
        if signs:
            root = np.sign(root)
        unit = multi_start(circulant_from_root(root), restarts=4)
        scaled = circulant_from_root(np.ldexp(root, k))
        for a in (scaled, materialize(scaled)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = multi_start(a, restarts=4)
            for r, s in zip(rep.results, unit.results):
                assert (r.iterations, r.converged) == (s.iterations, s.converged)
                assert np.array_equal(r.point, s.point)
                assert r.value == np.ldexp(s.value, k)

    @pytest.mark.parametrize("draw", [1, 30])
    def test_best_is_scale_free(self, draw):
        # draws of default_rng(7)'s order-4, n = 3 loop at 2^-60, where every
        # value is far below 1: the near-tie tolerance is relative, so the
        # best restart is within 1e-12 of the minimum, not restart 0 by an
        # absolute tolerance wider than all the values
        rng = np.random.default_rng(7)
        for _ in range(draw + 1):
            root = rng.uniform(-1.0, 1.0, size=(3, 3, 3))
        a = circulant_from_root(np.ldexp(root, -60))
        rep = multi_start(a, AdmmParams(seed=0), restarts=8)
        low = rep.values.min()
        assert abs(rep.best.value - low) <= 1e-12 * abs(low)

    @pytest.mark.parametrize("k", [-60, 0, 60])
    def test_best_at_a_zero_minimum(self, k):
        # the Laplacian of the 4-uniform hypergraph on Z_8 generated by
        # {1, 2, 3, 4} has sphere minimum 0, which restarts reach as rounding
        # noise: the tolerance's floor at the solve's scale ties them all, so
        # at every scale the best is the lowest-index one, not the one whose
        # noise happens to be least
        lap = laplacian(orbit_closure([[1, 2, 3, 4]], 8))
        a = circulant_from_root(np.ldexp(lap.root.array, k))
        rep = multi_start(a, AdmmParams(seed=2), restarts=8)
        at_zero = np.abs(rep.values) <= np.ldexp(1e-12, k)
        assert at_zero.sum() > 1
        assert rep.best is rep.results[int(np.argmax(at_zero))]

    def test_minimum_beyond_float_range(self):
        # A x^4 = -4e308 at x = (1, 1)/sqrt(2): values scale back to -inf
        a = circulant_from_root(np.full((2, 2, 2), -1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = multi_start(a, restarts=4)
        assert rep.best is rep.results[0]
        assert np.all(rep.values == -math.inf)

    def test_restart_validation(self):
        with pytest.raises(ValueError):
            multi_start(expand(presets.by_name("example5")), restarts=0)
