"""Isotropy harness, Jacobian rank, and basis comparison."""

import itertools

import numpy as np
import pytest

from isotropykit.lin3 import (
    DegenerateConfigurationError,
    conjugate,
    haar_rotation,
    tensor_system,
)
from isotropykit.classical_bases import boehler_scalars
from isotropykit.analysis import (
    compare_bases,
    jacobian_rank,
    rotation_deviation,
    seeded_system,
    spectral_values_fn,
    verify_isotropy,
)
from isotropykit.spectral_frame import irreducible_count


class TestVerifyIsotropy:
    def test_trace_is_isotropic(self):
        sys0 = seeded_system(1, 0, 0, seed=5)
        dev = verify_isotropy(lambda s: np.trace(s.sym[0]), "scalar", sys0)
        assert dev <= 1e-12

    def test_raw_entry_is_not(self):
        sys0 = seeded_system(1, 0, 0, seed=5)
        dev = verify_isotropy(lambda s: s.sym[0][0, 0], "scalar", sys0)
        assert dev > 1e-3

    def test_commutator_sandwich(self):
        sys0 = seeded_system(2, 0, 2, seed=7)

        def fn(s):
            comm = s.sym[0] @ s.sym[1] - s.sym[1] @ s.sym[0]
            return float(s.vecs[0] @ comm @ s.vecs[1])

        assert verify_isotropy(fn, "scalar", sys0, trials=100) <= 1e-10

    def test_vector_equivariance(self):
        sys0 = seeded_system(1, 0, 1, seed=9)
        dev = verify_isotropy(lambda s: s.sym[0] @ s.vecs[0], "vector", sys0)
        assert dev <= 1e-12

    def test_tensor_equivariance(self):
        sys0 = seeded_system(2, 0, 0, seed=11)
        fn = lambda s: s.sym[0] @ s.sym[1] + s.sym[1] @ s.sym[0]
        assert verify_isotropy(fn, "sym_tensor", sys0) <= 1e-12

    @pytest.mark.parametrize("kind,fn,act", [
        ("scalar", lambda s: [np.trace(s.sym[0]), s.sym[0][0, 1]], lambda q, g: g),
        ("vector", lambda s: [s.sym[0] @ s.vecs[0], s.vecs[0]], lambda q, g: q @ g),
        ("sym_tensor", lambda s: [s.sym[0] @ s.sym[0], np.outer(s.vecs[0], s.vecs[0])],
         lambda q, g: q @ g @ q.T),
    ], ids=["scalar", "vector", "sym_tensor"])
    def test_batched_sweep_matches_loop(self, kind, fn, act):
        # the reference is one rotation and one item at a time; the batched
        # products and norms sum in another order, so equality is to a few
        # ulp of the normalized deviation
        sys0 = seeded_system(1, 0, 1, seed=3)
        rotations = np.array([haar_rotation(np.random.default_rng(k)) for k in range(30)])
        values = [fn(conjugate(q, sys0)) for q in rotations]
        base = fn(sys0)
        ref = [max(np.linalg.norm(np.asarray(v[i]) - act(q, np.asarray(base[i])))
                   / (1.0 + np.linalg.norm(base[i])) for q, v in zip(rotations, values))
               for i in range(len(base))]
        got = rotation_deviation(values, rotations, base, kind)
        eps = np.finfo(float).eps
        np.testing.assert_allclose(got, ref, rtol=4 * eps, atol=4 * eps)

    def test_zero_trials_rejected(self):
        # unchecked, no rotation is drawn and a raw coordinate reads 0.0:
        # perfectly isotropic
        sys0 = seeded_system(1, 0, 0, seed=5)
        with pytest.raises(ValueError, match="trials"):
            verify_isotropy(lambda s: s.sym[0][0, 0], "scalar", sys0, trials=0)

    @pytest.mark.parametrize("trials", [0, 5])
    def test_unknown_kind_rejected_before_any_work(self, trials):
        calls = []
        sys0 = seeded_system(1, 0, 0, seed=5)
        with pytest.raises(ValueError, match="unknown evaluator kind 'bogus'"):
            verify_isotropy(lambda s: calls.append(s) or 0.0, "bogus", sys0,
                            trials=trials)
        assert calls == []


class TestJacobianRank:
    def test_boehler_one_tensor_one_vector(self):
        sys0 = seeded_system(1, 0, 1, seed=13)
        report = jacobian_rank(boehler_scalars(1, 0, 1).items, sys0)
        assert report.ambient_dim == 9
        assert report.n_invariants == 6
        assert report.rank == 6
        assert report.expected_rank == 6

    def test_boehler_two_tensors_redundant(self):
        sys0 = seeded_system(2, 0, 0, seed=17)
        report = jacobian_rank(boehler_scalars(2, 0, 0).items, sys0)
        assert report.n_invariants == 10
        assert report.ambient_dim == 12
        assert report.rank == 9

    def test_spectral_two_tensors_two_vectors_full(self):
        sys0 = seeded_system(2, 0, 2, seed=19)
        report = jacobian_rank(spectral_values_fn(), sys0)
        assert report.n_invariants == 15
        assert report.ambient_dim == 18
        assert report.rank == 15

    def test_degenerate_base_point_rejected(self):
        sys0 = tensor_system(sym=[np.eye(3)])
        with pytest.raises(DegenerateConfigurationError):
            jacobian_rank(spectral_values_fn(), sys0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exhaustive_small_configurations(self, seed):
        # spectral rank equals the closed-form count wherever the frame is an
        # equivariant construction at a generic point (symmetric-tensor
        # frames) or a fixed gauge (vector-only frames); the gram frame's
        # list is complete but carries exactly a three-fold redundancy, and
        # skew-only systems have no generic gram frame at all
        for n, m, p in itertools.product(range(4), repeat=3):
            if not 1 <= n + m + p <= 3:
                continue
            for skew in ((False, True) if m else (False,)):
                for unit in ((False, True) if p else (False,)):
                    count = irreducible_count(n, m, p, skew_nonsym=skew,
                                              all_vectors_unit=unit)
                    sys0 = seeded_system(n, m, p, skew=skew, unit=unit,
                                         seed=seed)
                    if n == 0 and m >= 1 and skew:
                        with pytest.raises(DegenerateConfigurationError):
                            jacobian_rank(spectral_values_fn(), sys0, seed=seed)
                        continue
                    report = jacobian_rank(spectral_values_fn(), sys0, seed=seed)
                    if n == 0 and m >= 1:
                        expected = count - 3
                    else:
                        expected = count
                    if expected == 0:
                        assert report.rank == 0 or (
                            report.singular_values[0] <= 1e-6), (n, m, p)
                    else:
                        assert report.rank == expected, (n, m, p, skew, unit, report)

    def test_svd_variant_rank(self):
        sys0 = seeded_system(1, 1, 1, seed=23)
        report = jacobian_rank(spectral_values_fn(svd_variant=True), sys0)
        assert report.rank == irreducible_count(1, 1, 1, svd_variant=True)

    def test_gram_general_rank(self):
        sys0 = seeded_system(0, 2, 1, seed=29)
        report = jacobian_rank(spectral_values_fn(), sys0)
        assert report.n_invariants == 21
        assert report.rank == 18  # ambient 21 minus the rotation orbit


class TestCompareBases:
    def test_single_tensor(self):
        cmp = compare_bases(1, 0, 0, seed=3)
        assert cmp.classical_count == 3
        assert cmp.spectral_count == 3
        assert cmp.classical_rank == 3
        assert cmp.spectral_rank == 3
        assert cmp.spectral_full_rank
        assert cmp.classical_spans_orbit_space

    def test_viscoelastic_configuration(self):
        cmp = compare_bases(2, 0, 2, seed=3)
        assert cmp.classical_count == 28
        assert cmp.spectral_count == 15
        assert cmp.classical_rank == 15
        assert cmp.spectral_rank == 15

    def test_skew_mixed(self):
        cmp = compare_bases(1, 1, 0, skew=True, seed=3)
        assert cmp.spectral_count == 6
        assert cmp.spectral_rank == 6
        assert cmp.classical_rank == 6

    def test_general_nonsym_has_no_classical(self):
        cmp = compare_bases(1, 1, 0, seed=3)
        assert cmp.classical_count is None
        assert cmp.spectral_rank == cmp.spectral_count == 12
