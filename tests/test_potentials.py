"""Spectral gradient formulas against entry-wise finite-difference oracles."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from isotropykit import spectral_frame
from isotropykit.analysis import seeded_system
from isotropykit.lin3 import (
    DegenerateConfigurationError,
    conjugate,
    eig_sym,
    haar_rotation,
    tensor_system,
)
from isotropykit.potentials import (
    HyperelasticModel,
    degeneracy_sensitivity,
    fd_grad_nonsym_tensor,
    fd_grad_sym_tensor,
    fd_grad_vector,
    grad_nonsym_tensor,
    grad_sym_tensor,
    grad_vector,
    hyperelastic_stress,
    polynomial_ti_model,
    ti_invariants,
)


def rel_err(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return np.abs(got - ref).max() / (1.0 + np.abs(ref).max())


def random_spd(rng, spread=1.0):
    m = rng.standard_normal((3, 3))
    return m @ m.T + spread * np.eye(3)


class TestGradVector:
    def test_squared_norm_exact(self):
        rng = np.random.default_rng(307)
        sys0 = tensor_system(vecs=[rng.standard_normal(3)])
        w = lambda s: float(s.vecs[0] @ s.vecs[0])
        g = grad_vector(w, sys0, partials=lambda lam, v1: (2.0 * lam, np.zeros(3)))
        assert rel_err(g, 2.0 * sys0.vecs[0]) <= 1e-12

    def test_linear_form(self):
        rng = np.random.default_rng(311)
        k = rng.standard_normal(3)
        sys0 = tensor_system(vecs=[rng.standard_normal(3)])
        w = lambda s: float(k @ s.vecs[0])
        g = grad_vector(w, sys0, partials=lambda lam, v1: (float(k @ v1), lam * k))
        assert rel_err(g, k) <= 1e-12
        g_fd = grad_vector(w, sys0)
        assert rel_err(g_fd, k) <= 1e-6

    def test_quartic_against_oracle(self):
        rng = np.random.default_rng(313)
        for _ in range(10):
            a_mat = random_spd(rng)
            sys0 = tensor_system(sym=[a_mat], vecs=[rng.standard_normal(3)])
            w = lambda s: float(s.vecs[0] @ s.sym[0] @ s.vecs[0]) ** 2
            g = grad_vector(w, sys0)
            ref = fd_grad_vector(w, sys0)
            assert rel_err(g, ref) <= 1e-6

    def test_zero_vector_rejected(self):
        sys0 = tensor_system(vecs=[[0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateConfigurationError):
            grad_vector(lambda s: 0.0, sys0)

    def test_above_the_squared_norm_range(self):
        # |a|^2 overflows; |a| and the gradient do not
        k = np.array([0.5, -1.0, 2.0])
        sys0 = tensor_system(vecs=[np.array([1.0, 2.0, -2.0]) * 1e160])
        w = lambda s: float(k @ s.vecs[0])
        # lin3._norm rescales the square without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            g = grad_vector(w, sys0, partials=lambda lam, v1: (float(k @ v1), lam * k))
            fd = fd_grad_vector(w, sys0)
        assert rel_err(g, k) <= 1e-12
        assert rel_err(fd, k) <= 1e-6


class TestGradSymTensor:
    def test_trace_square_exact(self):
        rng = np.random.default_rng(317)
        v_mat = random_spd(rng)
        sys0 = tensor_system(sym=[v_mat])
        w = lambda s: float(np.trace(s.sym[0] @ s.sym[0]))
        g = grad_sym_tensor(w, sys0,
                            partials=lambda lams, v: (2.0 * lams, np.zeros((3, 3))))
        assert rel_err(g, 2.0 * v_mat) <= 1e-12
        assert np.array_equal(g, g.T)

    def test_trace_gives_identity(self):
        rng = np.random.default_rng(331)
        sys0 = tensor_system(sym=[random_spd(rng)])
        w = lambda s: float(np.trace(s.sym[0]))
        g = grad_sym_tensor(w, sys0)
        assert rel_err(g, np.eye(3)) <= 1e-6

    def test_weighted_square_against_oracle(self):
        rng = np.random.default_rng(337)
        for _ in range(10):
            b = rng.standard_normal((3, 3))
            b = 0.5 * (b + b.T)
            sys0 = tensor_system(sym=[random_spd(rng)])
            w = lambda s: float(np.trace(s.sym[0] @ s.sym[0] @ b))
            g = grad_sym_tensor(w, sys0)
            ref = fd_grad_sym_tensor(w, sys0)
            assert rel_err(g, ref) <= 1e-6
            # analytic check: d tr(V^2 B) / dV = VB + BV for symmetric B
            vb = sys0.sym[0] @ b
            assert rel_err(g, vb + vb.T) <= 1e-6

    def test_coalescent_eigenvalues_rejected(self):
        sys0 = tensor_system(sym=[np.diag([2.0, 2.0, 1.0])])
        with pytest.raises(DegenerateConfigurationError) as err:
            grad_sym_tensor(lambda s: 0.0, sys0)
        assert "1 and 2" in str(err.value)

    def test_gap_check_above_the_squared_norm_range(self):
        # the gaps are 1e160 apart; the oracle's step comes from a norm whose
        # square overflows
        sys0 = tensor_system(sym=[np.diag([3.0, 2.0, 1.0]) * 1e160])
        w = lambda s: float(np.trace(s.sym[0]))
        assert rel_err(grad_sym_tensor(w, sys0), np.eye(3)) <= 1e-6
        # lin3._norm rescales the square without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fd = fd_grad_sym_tensor(w, sys0)
        assert rel_err(fd, np.eye(3)) <= 1e-6

    def test_depends_on_other_arguments(self):
        rng = np.random.default_rng(347)
        sys0 = tensor_system(sym=[random_spd(rng)], vecs=[rng.standard_normal(3)])
        w = lambda s: float(s.vecs[0] @ s.sym[0] @ s.vecs[0])
        g = grad_sym_tensor(w, sys0)
        ref = np.outer(sys0.vecs[0], sys0.vecs[0])
        assert rel_err(g, ref) <= 1e-6


class TestGradNonsymTensor:
    def test_frobenius_square_exact(self):
        rng = np.random.default_rng(349)
        f = rng.standard_normal((3, 3))
        sys0 = tensor_system(nonsym=[f])
        w = lambda s: float(np.sum(s.nonsym[0] * s.nonsym[0]))
        g = grad_nonsym_tensor(w, sys0,
                               partials=lambda sv, v, u: (2.0 * sv, np.zeros((3, 3)),
                                                          np.zeros((3, 3))))
        assert rel_err(g, 2.0 * f) <= 1e-12

    def test_determinant_identity(self):
        sys0 = tensor_system(nonsym=[np.diag([3.0, 2.0, 1.0])])
        w = lambda s: float(np.linalg.det(s.nonsym[0]))
        g = grad_nonsym_tensor(w, sys0)
        np.testing.assert_allclose(g, np.diag([2.0, 3.0, 6.0]), atol=1e-9)

    def test_weighted_gram_against_oracle(self):
        rng = np.random.default_rng(353)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            a = 0.5 * (a + a.T)
            sys0 = tensor_system(nonsym=[rng.standard_normal((3, 3))])
            w = lambda s: float(np.trace(s.nonsym[0] @ s.nonsym[0].T @ a))
            g = grad_nonsym_tensor(w, sys0)
            ref = fd_grad_nonsym_tensor(w, sys0)
            assert rel_err(g, ref) <= 1e-6

    def test_coalescent_singular_values_rejected(self):
        # one gap check serves both tensor gradients, each with its own word
        sys0 = tensor_system(nonsym=[np.eye(3)])
        with pytest.raises(DegenerateConfigurationError,
                           match=r"^singular values 1 and 2 coalesce \(gap 0\.000e\+00 <= "):
            grad_nonsym_tensor(lambda s: 0.0, sys0)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_above_the_squared_norm_range(self, rotated):
        # the squared singular values and the oracle's squared norm overflow
        # at this size
        rng = np.random.default_rng(359)
        q1, q2 = (haar_rotation(rng) if rotated else np.eye(3) for _ in range(2))
        sys0 = tensor_system(nonsym=[q1 @ np.diag([3.0, 2.0, 1.0]) @ q2.T * 1e160])
        w = lambda s: float(np.trace(s.nonsym[0]))
        # W = sum sv_i v_i . u_i
        partials = lambda sv, v, u: (np.einsum("ij,ij->i", v, u), sv[:, None] * (u @ v.T),
                                     sv[:, None] * (v @ u.T))
        g = grad_nonsym_tensor(w, sys0, partials=partials)
        assert rel_err(g, np.eye(3)) <= 1e-12
        # lin3._norm rescales the square without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fd = fd_grad_nonsym_tensor(w, sys0)
        assert rel_err(fd, np.eye(3)) <= 1e-6


def _near_overflow(cls, seed, spectrum):
    # Q diag(spectrum) Q^T (Q diag(spectrum) R^T for a non-symmetric tensor),
    # Haar Q and R, with the linear W = sum X o B, B standard normal, whose
    # gradient is B (its symmetric part for a symmetric tensor); W's own
    # products overflow at some probes, which it reports as inf
    rng = np.random.default_rng(seed)
    q, r, b = haar_rotation(rng), haar_rotation(rng), rng.standard_normal((3, 3))
    x = q @ np.diag(spectrum) @ (q if cls == "sym" else r).T

    def w(s):
        with np.errstate(over="ignore", invalid="ignore"):
            return float((getattr(s, cls)[0] * b).sum())
    return tensor_system(**{cls: [x]}), w, 0.5 * (b + b.T) if cls == "sym" else b


class TestNearOverflow:
    # each gradient is right or a ValueError, with no numpy warning before it
    def test_sym_doubled_gap_overflows(self):
        # 2 (lam_1 - lam_3) overflowed: the (1,3) coefficient read 0, 0.11 off
        sys0, w, want = _near_overflow("sym", 0, [6e307, 1.8e307, -6e307])
        assert rel_err(grad_sym_tensor(w, sys0), want) <= 1e-9

    def test_nonsym_summed_partials_overflow(self):
        # the sum of two weighted partials overflowed: the gradient read inf
        sys0, w, want = _near_overflow("nonsym", 2, [1.2e308, 3.6e307, 1.2e307])
        assert rel_err(grad_nonsym_tensor(w, sys0), want) <= 1e-9

    @pytest.mark.parametrize("cls,seed,spectrum", [
        ("sym", 2, [1.2e308, 3.6e307, -1.2e308]),
        ("nonsym", 0, [1.2e308, 3.6e307, 1.2e307]),
    ], ids=["sym", "nonsym"])
    def test_partials_beyond_the_double_range(self, cls, seed, spectrum):
        # a rotation partial of W is beyond the double range: the gradient read nan
        sys0, w, _ = _near_overflow(cls, seed, spectrum)
        grad = grad_sym_tensor if cls == "sym" else grad_nonsym_tensor
        with pytest.raises(ValueError, match=f"^{grad.__name__}: a partial or the gradient "
                                             "overflows the double range$"):
            grad(w, sys0)


# the entry-wise oracles as three loops over the entries, without the codec:
# the reference the one shared oracle must reproduce bit for bit


def _at(system, cls, x):
    return replace(system, **{cls: (x,) + getattr(system, cls)[1:]})


def _loop_grad_vector(W, system):
    a = system.vecs[0]
    h = 1e-5 * (1.0 + np.linalg.norm(a))
    g = np.empty(3)
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        g[k] = (float(W(_at(system, "vecs", a + step)))
                - float(W(_at(system, "vecs", a - step)))) / (2.0 * h)
    return g


def _loop_grad_sym_tensor(W, system, h=None):
    v_arg = system.sym[0]
    if h is None:
        h = 1e-5 * (1.0 + np.linalg.norm(v_arg))
    g = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            e = np.zeros((3, 3))
            e[i, j] = e[j, i] = 1.0
            d = (float(W(_at(system, "sym", v_arg + h * e)))
                 - float(W(_at(system, "sym", v_arg - h * e)))) / (2.0 * h)
            # dW = tr(G dV): a symmetric off-diagonal probe picks up 2 G_ij
            if i == j:
                g[i, i] = d
            else:
                g[i, j] = g[j, i] = 0.5 * d
    return g


def _loop_grad_nonsym_tensor(W, system):
    f_arg = system.nonsym[0]
    h = 1e-5 * (1.0 + np.linalg.norm(f_arg))
    g = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3))
            e[i, j] = 1.0
            g[i, j] = (float(W(_at(system, "nonsym", f_arg + h * e)))
                       - float(W(_at(system, "nonsym", f_arg - h * e)))) / (2.0 * h)
    return g


class TestEntrywiseOracles:
    @pytest.mark.parametrize("seed", range(20))
    def test_equal_to_entry_loops(self, seed):
        rng = np.random.default_rng(seed)
        b, k = rng.standard_normal((3, 3)), rng.standard_normal(3)
        b = 0.5 * (b + b.T)
        sys0 = tensor_system(sym=[random_spd(rng, 0.5), b],
                             nonsym=[rng.standard_normal((3, 3))],
                             vecs=[rng.standard_normal(3), k])

        def w(s):
            v, f, x = s.sym[0], s.nonsym[0], s.vecs[0]
            return float(np.trace(v @ v @ b) + (x @ v @ x) * (x @ k)
                         + np.trace(f @ f.T @ b) + np.linalg.det(f) * np.trace(v)
                         + (x @ f @ k) ** 2)

        assert np.array_equal(fd_grad_vector(w, sys0), _loop_grad_vector(w, sys0))
        assert np.array_equal(fd_grad_sym_tensor(w, sys0), _loop_grad_sym_tensor(w, sys0))
        assert np.array_equal(fd_grad_sym_tensor(w, sys0, h=2e-6),
                              _loop_grad_sym_tensor(w, sys0, h=2e-6))
        assert np.array_equal(fd_grad_nonsym_tensor(w, sys0),
                              _loop_grad_nonsym_tensor(w, sys0))


class TestFlaggedArguments:
    @staticmethod
    def _recording(seen):
        # an energy of every argument that records how far each system it is
        # handed strays from its flags: a skew-flagged tensor from skew, a
        # unit-flagged vector from the unit sphere
        def w(s):
            seen.append(max([np.abs(h + h.T).max()
                             for h, skew in zip(s.nonsym, s.nonsym_skew) if skew]
                            + [abs(np.linalg.norm(a) - 1.0)
                               for a, unit in zip(s.vecs, s.vec_unit) if unit], default=0.0))
            a, x = s.sym[0], s.vecs[0]
            h = s.nonsym[0] if s.nonsym else a
            return float(np.trace(h @ h.T @ a) + (x @ a @ h @ x) + (x @ a @ x) ** 2)
        return w

    def test_moves_keep_every_flag(self):
        seen = []
        w = self._recording(seen)
        fd_grad_nonsym_tensor(w, seeded_system(1, 1, 1, skew=True, seed=3))
        unit = seeded_system(1, 0, 1, unit=True, seed=3)
        fd_grad_vector(w, unit)
        grad_vector(w, unit)
        assert len(seen) == 6 + 4 + 4  # 3 skew dyads, 2 tangents and 2 tilts, no length
        assert max(seen) <= 1e-15

    def test_flagged_gradient_is_the_projected_one(self):
        # a skew tensor's gradient is the skew part of the free gradient, a
        # unit vector's its part normal to the vector
        w = self._recording([])
        skew = seeded_system(1, 1, 1, skew=True, seed=3)
        free = tensor_system(sym=skew.sym, nonsym=skew.nonsym, vecs=skew.vecs)
        g = fd_grad_nonsym_tensor(w, free)
        assert rel_err(fd_grad_nonsym_tensor(w, skew), 0.5 * (g - g.T)) <= 1e-8
        unit = seeded_system(1, 0, 1, unit=True, seed=3)
        a = unit.vecs[0]
        g = fd_grad_vector(w, tensor_system(sym=unit.sym, vecs=unit.vecs))
        tangential = g - (g @ a) * a
        assert rel_err(fd_grad_vector(w, unit), tangential) <= 1e-8
        assert rel_err(grad_vector(w, unit), tangential) <= 1e-8
        exact = grad_vector(w, unit, partials=lambda lam, v1: (1.0e3, np.zeros(3)))
        assert np.array_equal(exact, np.zeros(3))  # the radial partial is dropped


class TestEquivariance:
    def test_vector_gradient(self):
        rng = np.random.default_rng(359)
        sys0 = tensor_system(sym=[random_spd(rng)], vecs=[rng.standard_normal(3)])
        w = lambda s: float(s.vecs[0] @ s.sym[0] @ s.vecs[0]) ** 2
        g = grad_vector(w, sys0)
        for _ in range(20):
            q = haar_rotation(rng)
            g_rot = grad_vector(w, conjugate(q, sys0))
            assert np.linalg.norm(g_rot - q @ g) <= 1e-8 * (1.0 + np.linalg.norm(g))

    def test_sym_gradient(self):
        rng = np.random.default_rng(367)
        sys0 = tensor_system(sym=[random_spd(rng)], vecs=[rng.standard_normal(3)])
        w = lambda s: float(np.trace(s.sym[0] @ s.sym[0])) \
            + float(s.vecs[0] @ s.sym[0] @ s.vecs[0])
        g = grad_sym_tensor(w, sys0)
        for _ in range(20):
            q = haar_rotation(rng)
            g_rot = grad_sym_tensor(w, conjugate(q, sys0))
            scale = 1.0 + np.linalg.norm(g)
            assert np.linalg.norm(g_rot - q @ g @ q.T) <= 1e-8 * scale

    def test_nonsym_gradient(self):
        rng = np.random.default_rng(373)
        sys0 = tensor_system(nonsym=[rng.standard_normal((3, 3))])
        w = lambda s: float(np.trace(s.nonsym[0] @ s.nonsym[0].T)) ** 2 \
            + float(np.linalg.det(s.nonsym[0]))
        g = grad_nonsym_tensor(w, sys0)
        for _ in range(20):
            q = haar_rotation(rng)
            g_rot = grad_nonsym_tensor(w, conjugate(q, sys0))
            scale = 1.0 + np.linalg.norm(g)
            assert np.linalg.norm(g_rot - q @ g @ q.T) <= 1e-8 * scale


class TestSpectralChain:
    def test_vector_gradient_projections(self):
        # the oracle gradient projects onto (dW/dlam, dW/dv1 . v_k / lam)
        rng = np.random.default_rng(379)
        b = random_spd(rng)
        sys0 = tensor_system(vecs=[rng.standard_normal(3)])
        w = lambda s: float(s.vecs[0] @ b @ s.vecs[0]) ** 2
        a = sys0.vecs[0]
        lam = np.linalg.norm(a)
        v1 = a / lam
        from isotropykit.spectral_frame import _frame_completion
        v2, v3 = _frame_completion(v1)
        g_ref = fd_grad_vector(w, sys0)
        h = 1e-5 * (1.0 + lam)

        def w_s(lam_, v1_):
            sys1 = tensor_system(vecs=[lam_ * v1_])
            return w(sys1)

        d_lam = (w_s(lam + h, v1) - w_s(lam - h, v1)) / (2 * h)
        assert abs(g_ref @ v1 - d_lam) <= 1e-8 * (1.0 + abs(d_lam))
        for t in (v2, v3):
            p = (v1 + h * t) / np.linalg.norm(v1 + h * t)
            m = (v1 - h * t) / np.linalg.norm(v1 - h * t)
            d_t = (w_s(lam, p) - w_s(lam, m)) / (2 * h)
            assert abs(g_ref @ t - d_t / lam) <= 1e-8 * (1.0 + abs(d_t))


class TestDegeneracySensitivity:
    def test_diagnostic_curve(self):
        rng = np.random.default_rng(383)
        b = random_spd(rng)
        q = haar_rotation(rng)

        def factory(delta):
            m = q @ np.diag([1.0 + delta, 1.0, 3.0]) @ q.T
            return tensor_system(sym=[0.5 * (m + m.T)])

        w = lambda s: float(np.trace(s.sym[0] @ s.sym[0] @ b))
        curve = degeneracy_sensitivity(w, factory, [1e-1, 1e-2, 1e-3, 1e-4])
        assert len(curve) == 4
        assert all(np.isfinite(dev) for _, dev in curve)
        # well-separated case stays accurate even near the formula's limit
        assert curve[0][1] <= 1e-6


class TestHyperelastic:
    def test_neo_hookean_like(self):
        rng = np.random.default_rng(389)
        model = HyperelasticModel(
            "half-I1", lambda i: 0.5 * (i[0] - 3.0),
            lambda i: np.array([0.5, 0.0, 0.0, 0.0, 0.0]))
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        res = hyperelastic_stress(model, random_spd(rng), a)
        np.testing.assert_allclose(res.s_potential, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(res.s_representation, np.eye(3), atol=1e-14)
        assert res.residual <= 1e-14

    def test_fiber_invariant_only(self):
        rng = np.random.default_rng(397)
        model = HyperelasticModel(
            "I4", lambda i: i[3], lambda i: np.array([0.0, 0.0, 0.0, 1.0, 0.0]))
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        res = hyperelastic_stress(model, random_spd(rng), a)
        np.testing.assert_allclose(res.s_potential, 2.0 * np.outer(a, a), atol=1e-13)
        assert res.residual <= 1e-13

    @staticmethod
    def fd_stress(model, c_mat, l_mat, h=1e-6):
        # oracle: central differences of W through the invariant chain,
        # with respect to E = (C - I)/2, so dC = 2 dE
        s = np.empty((3, 3))
        for i in range(3):
            for j in range(i, 3):
                e = np.zeros((3, 3))
                e[i, j] = e[j, i] = 1.0
                wp = model.energy(ti_invariants(c_mat + 2.0 * h * e, l_mat))
                wm = model.energy(ti_invariants(c_mat - 2.0 * h * e, l_mat))
                d = (wp - wm) / (2.0 * h)
                if i == j:
                    s[i, i] = d
                else:
                    s[i, j] = s[j, i] = 0.5 * d
        return s

    def test_quadratic_fiber_model_matches_energy_derivative(self):
        rng = np.random.default_rng(401)
        model = HyperelasticModel(
            "I1+I5^2", lambda i: i[0] + i[4] ** 2,
            lambda i: np.array([1.0, 0.0, 0.0, 0.0, 2.0 * i[4]]))
        c = random_spd(rng)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        res = hyperelastic_stress(model, c, a)
        assert res.residual <= 1e-10 * (1.0 + np.linalg.norm(res.s_potential))
        ref = self.fd_stress(model, c, np.outer(a, a))
        assert rel_err(res.s_potential, ref) <= 1e-6

    def test_seeded_polynomial_models(self):
        rng = np.random.default_rng(409)
        for _ in range(20):
            model = polynomial_ti_model(0.3 * rng.standard_normal(8))
            inv0 = ti_invariants(random_spd(rng), np.eye(3) / 3.0)
            # partials consistent with the energy itself
            h = 1e-5
            for k in range(5):
                ip, im = inv0.copy(), inv0.copy()
                ip[k] += h
                im[k] -= h
                fd = (model.energy(ip) - model.energy(im)) / (2 * h)
                assert abs(model.partials(inv0)[k] - fd) <= 1e-6 * (1.0 + abs(fd))
            c = random_spd(rng)
            a = rng.standard_normal(3)
            a /= np.linalg.norm(a)
            res = hyperelastic_stress(model, c, a)
            scale = 1.0 + np.linalg.norm(res.s_potential)
            assert res.residual <= 1e-10 * scale
            assert res.coeff_max_diff <= 1e-10 * scale
            ref = self.fd_stress(model, c, np.outer(a, a))
            assert rel_err(res.s_potential, ref) <= 1e-6

    def test_rejects_non_spd(self):
        model = polynomial_ti_model([1.0] + [0.0] * 7)
        with pytest.raises(ValueError):
            hyperelastic_stress(model, np.diag([1.0, 1.0, -1.0]), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("a, message", [
        ([np.nan, 0.0, 0.0], "vector has non-finite entries"),
        ([[1.0, 0.0, 0.0]], r"vector must have shape \(3,\), got \(1, 3\)"),
        ([1.0, 0.0, 0.0, 0.0], r"vector must have shape \(3,\), got \(4,\)"),
        ([1.5, 0.0, 0.0], r"^unit-flagged vector has norm 1\.5$"),
    ])
    def test_rejects_malformed_direction(self, a, message):
        model = polynomial_ti_model([1.0] + [0.0] * 7)
        with pytest.raises(ValueError, match=message):
            hyperelastic_stress(model, np.eye(3), a)

    @pytest.mark.parametrize("c_mat, a, message", [
        (np.diag([1.0, 1.0, -1.0]), [1.0, 0.0, 0.0], "^C must be symmetric positive-definite$"),
        (np.eye(3), [1.5, 0.0, 0.0], r"^unit-flagged vector has norm 1\.5$"),
        (np.eye(3), [np.nan, 0.0, 0.0], "^vector has non-finite entries$"),
    ])
    def test_rejects_bad_input_after_its_frame_was_built(self, monkeypatch, c_mat, a,
                                                         message):
        # the frame memo holds this C with a unit fibre (the very system, for
        # the indefinite C): the stress still sees every check
        calls = []
        monkeypatch.setattr(spectral_frame, "eig_sym",
                            lambda x: calls.append(x) or eig_sym(x))
        primed = spectral_frame.build_frame(
            tensor_system(sym=[c_mat], vecs=[[1.0, 0.0, 0.0]], unit=[True]))
        calls.clear()
        model = polynomial_ti_model([1.0] + [0.0] * 7)
        with pytest.raises(ValueError, match=message):
            hyperelastic_stress(model, c_mat, a)
        assert spectral_frame._last_frame[1] is primed and calls == []

    def test_rejects_nonfinite_c(self):
        model = polynomial_ti_model([1.0] + [0.0] * 7)
        c = np.eye(3)
        c[0, 0] = np.inf
        with pytest.raises(ValueError, match="tensor has non-finite entries"):
            hyperelastic_stress(model, c, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("call,message", [
    (lambda: polynomial_ti_model([1.0] * 7), "polynomial model takes 8 coefficients"),
], ids=["polynomial-seven-coefficients"])
def test_public_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
