"""Core 3x3 kernels checked against numpy.linalg and self-residuals."""

import re

import numpy as np
import pytest

from isotropykit import analysis, lin3, potentials
from isotropykit.analysis import jacobian_rank, seeded_system
from isotropykit.classical_bases import boehler_scalars
from isotropykit.lin3 import (
    _mirror_defect,
    _norm,
    conjugate,
    eig_sym,
    haar_rotation,
    rotation_matrix,
    skew_matrix,
    svd3,
    sym_matrix,
    tensor_system,
    vec3,
)


def random_sym(rng, scale=1.0):
    m = rng.standard_normal((3, 3)) * scale
    return 0.5 * (m + m.T)


class TestConstructors:
    def test_vec3_rejects_nan(self):
        with pytest.raises(ValueError):
            vec3([1.0, np.nan, 0.0])

    def test_sym_matrix_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sym_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])

    def test_skew_matrix_exact(self):
        w = skew_matrix([[0, 2, -1], [-2, 0, 3], [1, -3, 0]])
        assert np.array_equal(w, -w.T)
        assert np.array_equal(np.diag(w), np.zeros(3))

    def test_rotation_matrix_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            rotation_matrix(r)


class TestEigSym:
    def test_identity(self):
        lams, v, groups = eig_sym(np.eye(3))
        np.testing.assert_allclose(lams, [1.0, 1.0, 1.0], atol=1e-14)
        assert groups == ((0, 1, 2),)

    def test_diagonal(self):
        lams, v, groups = eig_sym(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(lams, [3.0, 2.0, 1.0], atol=1e-14)
        # coordinate axes up to the sign convention (largest component positive)
        np.testing.assert_allclose(np.abs(v), np.eye(3), atol=1e-14)
        assert groups == ((0,), (1,), (2,))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = random_sym(rng, scale=rng.uniform(0.1, 10.0))
            lams, v, _ = eig_sym(a)
            rebuilt = sum(lams[i] * np.outer(v[i], v[i]) for i in range(3))
            assert np.linalg.norm(a - rebuilt) <= 1e-12 * (1.0 + np.linalg.norm(a))

    def test_orthonormal_and_right_handed(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            _, v, _ = eig_sym(random_sym(rng))
            np.testing.assert_allclose(v @ v.T, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(np.cross(v[0], v[1]), v[2], atol=1e-12)

    def test_values_match_numpy(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = random_sym(rng)
            lams, _, _ = eig_sym(a)
            ref = np.linalg.eigvalsh(a)[::-1]
            np.testing.assert_allclose(lams, ref, atol=1e-12)

    def test_sorted_descending(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lams, _, _ = eig_sym(random_sym(rng))
            assert lams[0] >= lams[1] >= lams[2]

    def test_near_degenerate_pair(self):
        # tiny gap: reconstruction must still be machine accurate
        rng = np.random.default_rng(2)
        q = haar_rotation(rng)
        a = q @ np.diag([2.0, 2.0 + 1e-13, -1.0]) @ q.T
        a = 0.5 * (a + a.T)
        lams, v, groups = eig_sym(a)
        rebuilt = sum(lams[i] * np.outer(v[i], v[i]) for i in range(3))
        assert np.linalg.norm(a - rebuilt) <= 1e-12 * (1.0 + np.linalg.norm(a))
        assert groups == ((0, 1), (2,))

    def test_spectrum_invariant_under_rotation(self):
        rng = np.random.default_rng(17)
        a = random_sym(rng)
        lams, _, _ = eig_sym(a)
        for _ in range(100):
            q = haar_rotation(rng)
            b = 0.5 * ((q @ a @ q.T) + (q @ a @ q.T).T)
            lams_rot, _, _ = eig_sym(b)
            np.testing.assert_allclose(lams_rot, lams, atol=1e-10)

    def test_rejects_nonfinite(self):
        a = np.full((3, 3), np.inf)
        with pytest.raises(ValueError):
            eig_sym(a)


class TestSvd3:
    def test_identity(self):
        sv, v, u = svd3(np.eye(3))
        np.testing.assert_allclose(sv, [1.0, 1.0, 1.0], atol=1e-14)

    def test_rank_deficient_diagonal(self):
        sv, v, u = svd3(np.diag([2.0, 1.0, 0.0]))
        np.testing.assert_allclose(sv, [2.0, 1.0, 0.0], atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            f = rng.standard_normal((3, 3)) * rng.uniform(0.1, 5.0)
            sv, v, u = svd3(f)
            rebuilt = sum(sv[i] * np.outer(v[i], u[i]) for i in range(3))
            assert np.linalg.norm(f - rebuilt) <= 1e-12 * (1.0 + np.linalg.norm(f))
            assert sv[0] >= sv[1] >= sv[2] >= 0.0
            np.testing.assert_allclose(v @ v.T, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(u @ u.T, np.eye(3), atol=1e-12)

    def test_values_match_numpy(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            f = rng.standard_normal((3, 3))
            sv, _, _ = svd3(f)
            np.testing.assert_allclose(sv, np.linalg.svd(f, compute_uv=False), atol=1e-12)

    def test_negative_determinant(self):
        rng = np.random.default_rng(31)
        f = rng.standard_normal((3, 3))
        if np.linalg.det(f) > 0:
            f[0] = -f[0]
        sv, v, u = svd3(f)
        rebuilt = sum(sv[i] * np.outer(v[i], u[i]) for i in range(3))
        assert np.linalg.norm(f - rebuilt) <= 1e-12 * (1.0 + np.linalg.norm(f))
        assert all(s >= 0.0 for s in sv)

    def test_singular_values_rotation_invariant(self):
        rng = np.random.default_rng(37)
        f = rng.standard_normal((3, 3))
        sv, _, _ = svd3(f)
        for _ in range(50):
            q1, q2 = haar_rotation(rng), haar_rotation(rng)
            sv_rot, _, _ = svd3(q1 @ f @ q2.T)
            np.testing.assert_allclose(sv_rot, sv, atol=1e-10)

    def test_zero_matrix(self):
        sv, v, u = svd3(np.zeros((3, 3)))
        np.testing.assert_allclose(sv, np.zeros(3), atol=0)
        np.testing.assert_allclose(v @ v.T, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(u @ u.T, np.eye(3), atol=1e-14)


SCALES = [10.0**k for k in range(-150, 151)]


def triad_defect(t, right_handed):
    """Largest deviation from an orthonormal (right-handed) triad; NaN-safe."""
    defect = np.abs(t @ t.T - np.eye(3)).max()
    if right_handed:
        defect = max(defect, np.abs(np.cross(t[0], t[1]) - t[2]).max())
    return defect if np.all(np.isfinite(t)) else np.inf


class TestScaleRobustness:
    """Residuals are relative to ||A|| itself, so no absolute floor can hide
    a wrong factorization at tiny scales or an overflow at huge ones."""

    def test_eig_sym_over_double_range(self):
        rng = np.random.default_rng(61)
        mats = [random_sym(rng) for _ in range(3)]
        bad = []
        for c in SCALES:
            for m in mats:
                a = c * m
                lams, v, _ = eig_sym(a)
                rebuilt = sum(lams[i] * np.outer(v[i], v[i]) for i in range(3))
                res = np.linalg.norm(a - rebuilt) / np.linalg.norm(a)
                ok = (np.all(np.isfinite(lams)) and lams[0] >= lams[1] >= lams[2]
                      and res <= 1e-14 and triad_defect(v, True) <= 1e-14)
                if not ok:
                    bad.append((c, res))
        assert not bad, f"failing scales (scale, relative residual): {bad[:5]}"

    def test_svd3_over_double_range(self):
        rng = np.random.default_rng(67)
        mats = [rng.standard_normal((3, 3)) for _ in range(3)]
        if np.linalg.det(mats[0]) > 0:
            mats[0][0] = -mats[0][0]  # one reflection: u is left-handed
        bad = []
        for c in SCALES:
            for m in mats:
                f = c * m
                sv, v, u = svd3(f)
                rebuilt = sum(sv[i] * np.outer(v[i], u[i]) for i in range(3))
                res = np.linalg.norm(f - rebuilt) / np.linalg.norm(f)
                ok = (np.all(np.isfinite(sv)) and sv[0] >= sv[1] >= sv[2] >= 0.0
                      and res <= 1e-14 and triad_defect(v, True) <= 1e-14
                      and triad_defect(u, False) <= 1e-14)
                if not ok:
                    bad.append((c, res))
        assert not bad, f"failing scales (scale, relative residual): {bad[:5]}"

    # entries near the top of the double range: a + a^T overflowed to inf
    HUGE = np.diag([1.7e308, 1.0, -1.0])

    def test_sym_matrix_near_overflow(self):
        big = np.array([[1.7e308, 1.5e308, 0.0], [1.5e308, -1.7e308, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(sym_matrix(big), big)
        np.testing.assert_array_equal(tensor_system(sym=[self.HUGE]).sym[0], self.HUGE)

    def test_eig_sym_near_overflow(self):
        lams, v, _ = eig_sym(self.HUGE)
        np.testing.assert_array_equal(lams, [1.7e308, 1.0, -1.0])
        np.testing.assert_array_equal(v, np.eye(3))

    def test_skew_matrix_near_overflow(self):
        w = np.array([[0.0, 1.7e308, 0.0], [-1.7e308, 0.0, 2.0], [0.0, -2.0, 0.0]])
        np.testing.assert_array_equal(skew_matrix(w), w)

    def test_conjugate_near_overflow_stays_finite(self):
        # re-symmetrizing through 0.5 * (m + m.T) overflowed to inf here
        sys1 = conjugate(haar_rotation(np.random.default_rng(0)),
                         tensor_system(sym=[self.HUGE]))
        assert np.isfinite(sys1.sym[0]).all()
        assert np.array_equal(sys1.sym[0], sys1.sym[0].T)

    @pytest.mark.parametrize("system", [
        tensor_system(nonsym=[np.full((3, 3), 1.5e308)]),
        tensor_system(nonsym=[np.triu(np.full((3, 3), 1.7e308), 1)
                              - np.tril(np.full((3, 3), 1.7e308), -1)], skew=[True]),
        tensor_system(vecs=[[1.7e308] * 3]),
    ], ids=["nonsym", "skew", "vector"])
    def test_conjugate_overflow_is_one_error_and_no_warning(self, system):
        # the one-line error, with no numpy overflow or invalid-value warning
        # first (a RuntimeWarning is an error here); the symmetric case is
        # the test below
        with pytest.raises(ValueError, match=r"^a rotated member is not finite$"):
            conjugate(haar_rotation(np.random.default_rng(0)), system)

    def test_conjugate_rejects_an_overflowing_rotation(self):
        sys0 = tensor_system(sym=[np.full((3, 3), 1.7e308)])
        with pytest.raises(ValueError, match=r"^a rotated member is not finite$"):
            conjugate(haar_rotation(np.random.default_rng(0)), sys0)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_norm_rescales_where_the_squares_overflow(self):
        for scale in (1e160, 1e200, 1e300):
            for x in (np.array([3.0, -4.0, 0.0]), np.array([[0.0, 3.0, 0.0]] * 3)):
                want = scale * np.linalg.norm(x)
                assert abs(_norm(scale * x) - want) <= 1e-15 * want

    @pytest.mark.parametrize("c", [1e-160, 1e-163])
    def test_norm_rescales_where_the_squares_underflow(self, c):
        # the squares of c (1, 2, -2) leave the normal range (1e-160: 6e-6
        # relative error, 1e-162: 5 %) or vanish (1e-163); m = 2c rescales
        # them to (0.5, 1, -1) exactly
        assert _norm(c * np.array([1.0, 2.0, -2.0])) == 3.0 * c
        assert _norm(c * np.array([[0.0, 3.0, 0.0], [0.0, 0.0, 4.0], [0.0] * 3])) == 5.0 * c

    def test_norm_of_zero_is_zero(self):
        assert _norm(np.zeros(3)) == 0.0
        assert _norm(np.zeros((3, 3))) == 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
    def test_norm_of_an_infinite_entry_is_inf(self):
        assert _norm(np.array([np.inf, 0.0, 0.0])) == np.inf
        assert _norm(np.array([-np.inf, 1e200, 1.0])) == np.inf

    def test_rotation_matrix_rejects_a_q_whose_gram_overflows(self):
        # q q^T - I would be diag(inf, -1, 0), and det(q) rounds to about 1
        with pytest.raises(ValueError, match="matrix is not orthogonal"):
            rotation_matrix(np.diag([1e200, 1e-200, 1.0]))

    def test_rotation_check_raises_without_a_warning(self):
        # a q whose q q^T overflows is refused by its norm before the product
        # is formed: the one error, and no numpy warning first (a
        # RuntimeWarning is an error here)
        q = np.full((3, 3), 1e200)
        with pytest.raises(ValueError, match=r"^matrix is not orthogonal$"):
            rotation_matrix(q)
        with pytest.raises(ValueError, match=r"^matrix is not orthogonal$"):
            conjugate(q, tensor_system(sym=[np.eye(3)]))


class TestHaarRotation:
    def test_is_rotation(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            q = haar_rotation(rng)
            assert np.linalg.norm(q @ q.T - np.eye(3)) <= 1e-12
            assert abs(np.linalg.det(q) - 1.0) <= 1e-12

    def test_deterministic_given_seed(self):
        q1 = haar_rotation(np.random.default_rng(99))
        q2 = haar_rotation(np.random.default_rng(99))
        assert np.array_equal(q1, q2)

    def test_mean_near_zero(self):
        # Haar mean of Q is the zero matrix
        rng = np.random.default_rng(43)
        acc = np.zeros((3, 3))
        n = 100_000
        for _ in range(n):
            acc += haar_rotation(rng)
        assert np.linalg.norm(acc / n) <= 0.02


class TestConjugate:
    def test_identity_rotation(self):
        rng = np.random.default_rng(47)
        sys0 = tensor_system(
            sym=[random_sym(rng)],
            nonsym=[rng.standard_normal((3, 3))],
            vecs=[rng.standard_normal(3)],
        )
        sys1 = conjugate(np.eye(3), sys0)
        np.testing.assert_allclose(sys1.sym[0], sys0.sym[0], atol=1e-15)
        np.testing.assert_allclose(sys1.nonsym[0], sys0.nonsym[0], atol=1e-15)
        np.testing.assert_allclose(sys1.vecs[0], sys0.vecs[0], atol=1e-15)

    def test_half_turn_about_z(self):
        q = np.diag([-1.0, -1.0, 1.0])
        sys0 = tensor_system(vecs=[[1.0, 0.0, 0.0]])
        sys1 = conjugate(q, sys0)
        np.testing.assert_allclose(sys1.vecs[0], [-1.0, 0.0, 0.0], atol=0)

    def test_preserves_symmetry_class_exactly(self):
        rng = np.random.default_rng(53)
        w = rng.standard_normal((3, 3))
        sys0 = tensor_system(sym=[random_sym(rng)], nonsym=[0.5 * (w - w.T)], skew=[True])
        sys1 = conjugate(haar_rotation(rng), sys0)
        assert np.array_equal(sys1.sym[0], sys1.sym[0].T)
        assert np.array_equal(sys1.nonsym[0], -sys1.nonsym[0].T)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(59)
        a = random_sym(rng)
        sys0 = tensor_system(sym=[a])
        lams, _, _ = eig_sym(a)
        for _ in range(100):
            sys1 = conjugate(haar_rotation(rng), sys0)
            lams_rot, _, _ = eig_sym(sys1.sym[0])
            np.testing.assert_allclose(lams_rot, lams, atol=1e-10)


class TestTensorSystem:
    def test_requires_argument(self):
        with pytest.raises(ValueError):
            tensor_system()

    def test_unit_flag_renormalizes(self):
        sys0 = tensor_system(vecs=[[1.0 + 5e-10, 0.0, 0.0]], unit=[True])
        assert np.linalg.norm(sys0.vecs[0]) == 1.0

    def test_unit_flag_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            tensor_system(vecs=[[2.0, 0.0, 0.0]], unit=[True])

    def test_arrays_read_only(self):
        sys0 = tensor_system(sym=[np.eye(3)])
        with pytest.raises(ValueError):
            sys0.sym[0][0, 0] = 5.0

    @pytest.mark.parametrize("caller", [
        "jacobian_rank", "grad_vector", "grad_sym_tensor", "grad_nonsym_tensor",
        "fd_grad_vector", "fd_grad_sym_tensor", "fd_grad_nonsym_tensor"])
    def test_internal_systems_are_read_only(self, caller, monkeypatch):
        # the systems the package builds itself (the rank check's scaled base
        # and the jet its classical list runs on, the gradients' moved
        # systems) keep the contract too
        writable = []

        def seen(s):
            writable.append(any(x.flags.writeable for x in s.sym + s.nonsym + s.vecs))
            return s

        if caller == "jacobian_rank":
            basis = boehler_scalars(1, 1, 1)
            build, check = analysis.build_frame, basis.check_system
            monkeypatch.setattr(analysis, "build_frame", lambda s: build(seen(s)))
            monkeypatch.setattr(basis, "check_system", lambda s: check(seen(s)))
            jacobian_rank(basis, seeded_system(1, 1, 1, skew=True, seed=5))
            assert len(writable) == 2
        else:
            def energy(s):
                seen(s)
                return float(np.sum(s.sym[0] @ s.sym[0] @ s.nonsym[0]) + s.vecs[0] @ s.vecs[0])
            getattr(potentials, caller)(energy, seeded_system(1, 1, 1, seed=5))
        assert writable and not any(writable)


class TestValidationBoundary:
    """What the public entry points reject, now that the kernels behind a
    :class:`TensorSystem` no longer re-validate its members."""

    def test_eig_sym_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="^matrix is not symmetric$"):
            eig_sym([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def test_eig_sym_rejects_nan(self):
        a = np.eye(3)
        a[1, 2] = a[2, 1] = np.nan
        with pytest.raises(ValueError, match="^tensor has non-finite entries$"):
            eig_sym(a)

    def test_svd3_rejects_wrong_shape(self):
        with pytest.raises(ValueError,
                           match=r"^tensor must have shape \(3, 3\), got \(3, 2\)$"):
            svd3(np.ones((3, 2)))

    def test_svd3_rejects_nan(self):
        f = np.eye(3)
        f[0, 1] = np.nan
        with pytest.raises(ValueError, match="^tensor has non-finite entries$"):
            svd3(f)

    def test_tensor_system_rejects_asymmetric_sym_entry(self):
        with pytest.raises(ValueError, match="^matrix is not symmetric$"):
            tensor_system(sym=[[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])

    def test_tensor_system_rejects_non_unit_vector(self):
        with pytest.raises(ValueError, match="^unit-flagged vector has norm 1.5$"):
            tensor_system(vecs=[[1.5, 0.0, 0.0]], unit=[True])

    def test_tensor_system_rejects_non_skew_entry(self):
        with pytest.raises(ValueError, match="^matrix is not skew-symmetric$"):
            tensor_system(nonsym=[np.eye(3)], skew=[True])

    def test_mirror_defect_is_the_numpy_reductions(self):
        rng = np.random.default_rng(809)
        for _ in range(500):
            a = 10.0 ** rng.uniform(-150.0, 150.0) * rng.standard_normal((3, 3))
            for sign in (1.0, -1.0):
                assert _mirror_defect(a, sign) == (np.abs(a - sign * a.T).max(),
                                                   np.abs(a).max())

    def test_conjugate_rejects_reflection(self):
        sys0 = tensor_system(sym=[np.eye(3)])
        with pytest.raises(ValueError,
                           match=r"^matrix is not a proper rotation \(det != 1\)$"):
            conjugate(np.diag([1.0, 1.0, -1.0]), sys0)

    def test_norm_is_numpy_norm_bit_for_bit(self):
        rng = np.random.default_rng(811)
        for _ in range(2000):
            scale = 10.0 ** rng.uniform(-150.0, 150.0)
            for x in (scale * rng.standard_normal(3), scale * rng.standard_normal((3, 3))):
                for y in (x, x.T, x[::-1]):
                    assert _norm(y) == np.linalg.norm(y)


class TestStackedKernels:
    # the stacked kernels of the verify sweeps against the single-system
    # functions, bit for bit; batched matmul may round differently by stack
    # size, hence several sizes
    SIZES = (1, 2, 7, 100)

    @staticmethod
    def draws(rng, size):
        # general tensors over the double range, with small-integer ties
        scale = 10.0 ** rng.uniform(-150.0, 150.0, (size, 1, 1))
        m = rng.standard_normal((size, 3, 3))
        return np.where(rng.random((size, 1, 1)) < 0.3, np.round(2.0 * m), m * scale)

    def test_eighs_and_svds_equal_the_single_calls(self):
        rng = np.random.default_rng(401)
        for size in self.SIZES:
            for _ in range(5):
                f = self.draws(rng, size)
                a = f + f.swapaxes(1, 2)
                lams, v = lin3._eighs(a)
                sv, vv, uu = lin3._svds(f)
                for k in range(size):
                    want = eig_sym(a[k])
                    assert (lams[k].tobytes(), v[k].tobytes()) == \
                        (want[0].tobytes(), want[1].tobytes())
                    assert b"".join(x.tobytes() for x in (sv[k], vv[k], uu[k])) == \
                        b"".join(x.tobytes() for x in svd3(f[k]))

    def test_row_norms_equal_norm(self):
        rng = np.random.default_rng(409)
        x = rng.standard_normal((200, 9)) * 10.0 ** rng.integers(-320, 308, (200, 1))
        x[:3] = np.array([[0.0], [np.inf], [1e-320]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = lin3._row_norms(x)
            assert [float(r) for r in got] == [_norm(row) for row in x]

    def test_conjugates_equal_conjugate(self):
        rng = np.random.default_rng(419)
        w = rng.standard_normal((3, 3))
        system = tensor_system(sym=[random_sym(rng)], nonsym=[w, w - w.T],
                               skew=[False, True], vecs=[rng.standard_normal(3)])
        for size in self.SIZES:
            rotations = np.array([haar_rotation(rng) for _ in range(size)])
            for row, q in zip(lin3._rows(lin3._conjugates(rotations, system)), rotations):
                one = conjugate(q, system)
                assert row.shape() == one.shape()
                for x, y in zip(row.sym + row.nonsym + row.vecs, one.sym + one.nonsym + one.vecs):
                    assert x.tobytes() == y.tobytes() and not x.flags.writeable

    @pytest.mark.parametrize("bad,system", [
        (2.0 * np.eye(3), tensor_system(sym=[np.eye(3)])),
        (np.diag([1.0, 1.0, -1.0]), tensor_system(sym=[np.eye(3)])),
        (np.diag([1e200, 1e-200, 1.0]), tensor_system(sym=[np.eye(3)])),
        (np.full((3, 3), np.nan), tensor_system(sym=[np.eye(3)])),
        (None, tensor_system(nonsym=[np.full((3, 3), 1.5e308)])),
        (None, tensor_system(vecs=[[1.7e308] * 3])),
    ], ids=["scaled", "reflection", "overflowing-gram", "nan", "overflow", "vector-overflow"])
    def test_conjugates_raise_the_errors_of_conjugate(self, bad, system):
        rotations = [haar_rotation(np.random.default_rng(k)) for k in range(5)]
        if bad is not None:
            rotations[3] = bad
        with pytest.raises(ValueError) as one:
            for q in rotations:
                conjugate(q, system)
        with pytest.raises(ValueError, match=f"^{re.escape(str(one.value))}$"):
            lin3._conjugates(np.array(rotations), system)
