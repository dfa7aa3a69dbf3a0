"""Projection round trips, spectral expansion, coaxiality, coalescence,
and eigenvector-gauge independence."""

import re

import numpy as np
import pytest

from isotropykit.lin3 import (
    conjugate,
    haar_rotation,
    skew_matrix,
    sym_matrix,
    tensor_system,
)
from isotropykit.classical_bases import boehler_scalars, smith_sym_tensors, smith_vectors
from isotropykit.representation import (
    Coefficients,
    check_coaxiality,
    check_p_property,
    coalescence_structure,
    example2_invariants,
    expand_classical,
    generator_basis,
    permute_frame,
    project_tensor,
    project_vector,
    reconstruct_tensor,
    reconstruct_vector,
    regauge_frame,
)
from isotropykit.spectral_frame import build_frame, build_svd_frame, extract_invariants


def random_system(rng, n_sym, n_skew, n_vec):
    sym = [0.5 * (m + m.T) for m in rng.standard_normal((n_sym, 3, 3))]
    skw = [0.5 * (m - m.T) for m in rng.standard_normal((n_skew, 3, 3))]
    vecs = list(rng.standard_normal((n_vec, 3)))
    return tensor_system(sym=sym, nonsym=skw, skew=[True] * n_skew, vecs=vecs)


def expm_series(m, terms=40):
    # scaling-and-squaring Taylor series, independent of any eigen machinery
    k = max(0, int(np.ceil(np.log2(max(1.0, np.linalg.norm(m))))) + 2)
    x = m / 2.0**k
    out = np.eye(3)
    term = np.eye(3)
    for n in range(1, terms):
        term = term @ x / n
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


class TestProjections:
    def test_vector_unit_coefficients(self):
        rng = np.random.default_rng(151)
        fr = build_frame(random_system(rng, 1, 0, 0))
        c = project_vector(fr.v[0], fr)
        np.testing.assert_allclose(c.values, [1.0, 0.0, 0.0], atol=1e-15)
        c0 = project_vector(np.zeros(3), fr)
        assert c0.values == (0.0, 0.0, 0.0)

    def test_vector_round_trip(self):
        rng = np.random.default_rng(157)
        for _ in range(50):
            fr = build_frame(random_system(rng, 1, 0, 0))
            g = rng.standard_normal(3)
            back = reconstruct_vector(project_vector(g, fr), fr)
            assert np.linalg.norm(back - g) <= 1e-14 * (1.0 + np.linalg.norm(g))

    def test_sym6_identity(self):
        rng = np.random.default_rng(163)
        fr = build_frame(random_system(rng, 1, 0, 0))
        c = project_tensor(np.eye(3), fr, "sym6")
        np.testing.assert_allclose(c.values, [1, 1, 1, 0, 0, 0], atol=1e-14)

    def test_skew3_unit_coefficient(self):
        rng = np.random.default_rng(167)
        fr = build_frame(random_system(rng, 1, 0, 0))
        g = np.outer(fr.v[0], fr.v[1]) - np.outer(fr.v[1], fr.v[0])
        c = project_tensor(g, fr, "skew3")
        np.testing.assert_allclose(c.values, [1.0, 0.0, 0.0], atol=1e-14)

    @pytest.mark.parametrize("kind,make", [
        ("sym6", lambda rng: (lambda m: 0.5 * (m + m.T))(rng.standard_normal((3, 3)))),
        ("full9", lambda rng: rng.standard_normal((3, 3))),
        ("skew3", lambda rng: (lambda m: 0.5 * (m - m.T))(rng.standard_normal((3, 3)))),
    ])
    def test_round_trip(self, kind, make):
        rng = np.random.default_rng(173)
        for _ in range(50):
            fr = build_frame(random_system(rng, 1, 0, 0))
            g = make(rng)
            back = reconstruct_tensor(project_tensor(g, fr, kind), fr)
            tol = 1e-14 if kind == "skew3" else 1e-13
            assert np.linalg.norm(back - g) <= tol * (1.0 + np.linalg.norm(g))

    def test_class_errors(self):
        rng = np.random.default_rng(179)
        fr = build_frame(random_system(rng, 1, 0, 0))
        g = rng.standard_normal((3, 3))
        with pytest.raises(ValueError):
            project_tensor(g, fr, "sym6")
        with pytest.raises(ValueError):
            project_tensor(np.eye(3), fr, "skew3")

    def test_sym6_rejects_asymmetric_with_message(self):
        fr = build_frame(random_system(np.random.default_rng(181), 1, 0, 0))
        g = np.eye(3)
        g[0, 1] = 1.0
        with pytest.raises(ValueError, match="^sym6 projection needs a symmetric tensor$"):
            project_tensor(g, fr, "sym6")

    @pytest.mark.parametrize("kind,check", [("sym6", sym_matrix), ("skew3", skew_matrix)])
    def test_class_check_is_the_constructors(self, kind, check):
        # mirror defects straddling the 1e-12 * max|g| threshold
        fr = build_frame(random_system(np.random.default_rng(193), 1, 0, 0))
        sign = 1.0 if kind == "sym6" else -1.0
        accepted = []
        for scale in (1e-6, 1.0, 3.0, 1e6):
            for ratio in (0.5, 0.99, 0.999999, 1.0, 1.000001, 1.01, 2.0):
                g = scale * np.array([[0.0, 0.7, -0.2], [0.0, 0.0, 0.4], [0.0, 0.0, 0.0]])
                g = g + sign * g.T + (np.diag([1.0, -0.5, 0.25]) if sign > 0 else 0.0)
                g[0, 1] += ratio * 1e-12 * np.abs(g).max()
                results = []
                for call in (lambda: project_tensor(g, fr, kind), lambda: check(g)):
                    try:
                        call()
                        results.append(True)
                    except ValueError:
                        results.append(False)
                assert results[0] == results[1], (scale, ratio)
                accepted.append(results[0])
        assert any(accepted) and not all(accepted)

    @pytest.mark.parametrize("call,message", [
        (lambda fr: project_tensor(np.diag([1.0, np.nan, 1.0]), fr, "sym6"),
         "^tensor has non-finite entries$"),
        (lambda fr: project_tensor(np.full((3, 3), np.inf), fr, "full9"),
         "^tensor has non-finite entries$"),
        (lambda fr: project_tensor(np.eye(2), fr, "full9"),
         r"^tensor must have shape \(3, 3\), got \(2, 2\)$"),
        (lambda fr: project_vector([np.inf, 0.0, 0.0], fr),
         "^vector has non-finite entries$"),
        (lambda fr: project_vector([1.0, 0.0], fr),
         r"^vector must have shape \(3,\), got \(2,\)$"),
    ], ids=["nan-sym6", "inf-full9", "2x2-tensor", "inf-vector", "2-vector"])
    def test_invalid_argument_rejected(self, call, message):
        # unchecked, these give NaN/inf coefficients or fail inside matmul
        fr = build_frame(random_system(np.random.default_rng(191), 1, 0, 0))
        with pytest.raises(ValueError, match=message):
            call(fr)

    def test_generator_bases_full_rank(self):
        rng = np.random.default_rng(181)
        fr = build_frame(random_system(rng, 1, 0, 0))
        for kind, n in (("vector3", 3), ("sym6", 6), ("full9", 9), ("skew3", 3)):
            basis = generator_basis(fr, kind)
            gram = basis.gram_matrix()
            assert gram.shape == (n, n)
            sv = np.linalg.svd(gram, compute_uv=False)
            assert sv[-1] > 1e-8 * sv[0]


class TestRepresentationTheorems:
    def test_vector_maps_span_three_vectors(self):
        rng = np.random.default_rng(191)
        scalars = boehler_scalars(2, 0, 2)
        vectors = smith_vectors(2, 0, 2)
        for _ in range(100):
            sys0 = random_system(rng, 2, 0, 2)
            svals = scalars.evaluate(sys0)
            coeffs = rng.standard_normal((len(vectors), len(svals))) @ svals
            coeffs /= 1.0 + np.abs(coeffs).max()
            g = sum(c * item for c, item in zip(coeffs, vectors.evaluate(sys0)))
            fr = build_frame(sys0)
            back = reconstruct_vector(project_vector(g, fr), fr)
            assert np.linalg.norm(back - g) <= 1e-12

    def test_tensor_maps_span_six_tensors(self):
        rng = np.random.default_rng(193)
        scalars = boehler_scalars(2, 0, 2)
        tensors = smith_sym_tensors(2, 0, 2)
        for _ in range(100):
            sys0 = random_system(rng, 2, 0, 2)
            svals = scalars.evaluate(sys0)
            coeffs = rng.standard_normal((len(tensors), len(svals))) @ svals
            coeffs /= 1.0 + np.abs(coeffs).max()
            g = sum(c * item for c, item in zip(coeffs, tensors.evaluate(sys0)))
            fr = build_frame(sys0)
            back = reconstruct_tensor(project_tensor(g, fr, "sym6"), fr)
            assert np.linalg.norm(back - g) <= 1e-12

    def test_skew_maps_span_three_skew_tensors(self):
        rng = np.random.default_rng(197)
        for _ in range(100):
            sys0 = random_system(rng, 2, 0, 2)
            a1, a2 = sys0.sym
            x1, x2 = sys0.vecs
            parts = [a1 @ a2 - a2 @ a1,
                     np.outer(x1, x2) - np.outer(x2, x1),
                     np.outer(x1, a1 @ x1) - np.outer(a1 @ x1, x1)]
            coeffs = np.tanh([np.trace(a1), x1 @ x2, np.trace(a1 @ a2)])
            g = sum(c * p for c, p in zip(coeffs, parts))
            fr = build_frame(sys0)
            back = reconstruct_tensor(project_tensor(g, fr, "skew3"), fr)
            assert np.linalg.norm(back - g) <= 1e-12

    def test_nonsym_maps_span_nine_tensors(self):
        rng = np.random.default_rng(199)
        for _ in range(100):
            sys0 = random_system(rng, 2, 0, 2)
            a1, a2 = sys0.sym
            x1, x2 = sys0.vecs
            parts = [a1 @ a2, np.outer(x1, x2), np.outer(a1 @ x1, x2)]
            coeffs = np.tanh([np.trace(a1), x1 @ x1, np.trace(a2)])
            g = sum(c * p for c, p in zip(coeffs, parts))
            fr = build_frame(sys0)
            back = reconstruct_tensor(project_tensor(g, fr, "full9"), fr)
            assert np.linalg.norm(back - g) <= 1e-12

    def test_coefficient_isotropy(self):
        rng = np.random.default_rng(211)
        sys0 = random_system(rng, 2, 0, 2)
        g_fn = lambda s: (s.sym[0] @ s.vecs[0]) * (s.vecs[0] @ s.vecs[1])
        fr = build_frame(sys0)
        base = project_vector(g_fn(sys0), fr).values
        t_fn = lambda s: s.sym[0] @ s.sym[1] + s.sym[1] @ s.sym[0]
        base_t = project_tensor(t_fn(sys0), fr, "sym6").values
        for _ in range(100):
            q = haar_rotation(rng)
            rot = conjugate(q, sys0)
            fr_rot = build_frame(rot)
            vals = project_vector(g_fn(rot), fr_rot).values
            assert np.abs(np.array(vals) - np.array(base)).max() <= 1e-10
            vals_t = project_tensor(t_fn(rot), fr_rot, "sym6").values
            assert np.abs(np.array(vals_t) - np.array(base_t)).max() <= 1e-10


class TestExpandClassical:
    def test_trace_from_eigenvalues(self):
        sys0 = tensor_system(sym=[np.diag([3.0, 2.0, 1.0])])
        fr = build_frame(sys0)
        assert expand_classical("tr(A1)", sys0, fr) == pytest.approx(6.0)

    def test_sandwich_closed_form(self):
        # a . A a equals sum_i lam_i (a . v_i)^2
        sys0 = tensor_system(sym=[np.diag([2.0, 1.0, 0.0])], vecs=[[1.0, 0.0, 0.0]])
        fr = build_frame(sys0)
        assert expand_classical("a1.A1.a1", sys0, fr) == pytest.approx(2.0)
        inv = extract_invariants(sys0, fr)
        by_hand = sum(inv[f"lam{i}"] * inv[f"a1[{i}]"] ** 2 for i in (1, 2, 3))
        assert by_hand == pytest.approx(2.0)

    def test_all_items_match_direct_evaluation(self):
        rng = np.random.default_rng(223)
        sys0 = random_system(rng, 2, 1, 2)
        fr = build_frame(sys0)
        scalars = boehler_scalars(2, 1, 2)
        for label, direct in zip(scalars.labels(), scalars.evaluate(sys0)):
            spectral = expand_classical(label, sys0, fr)
            assert abs(spectral - direct) <= 1e-10 * (1.0 + abs(direct)), label
        for basis, reconstruct in ((smith_vectors(2, 1, 2), reconstruct_vector),
                                   (smith_sym_tensors(2, 1, 2), reconstruct_tensor)):
            for label, direct in zip(basis.labels(), basis.evaluate(sys0)):
                back = reconstruct(expand_classical(label, sys0, fr), fr)
                scale = 1.0 + np.linalg.norm(direct)
                assert np.linalg.norm(back - direct) <= 1e-10 * scale, label

    def test_unknown_label(self):
        sys0 = tensor_system(sym=[np.eye(3)])
        with pytest.raises(KeyError):
            expand_classical("tr(B9)", sys0, build_frame(sys0))

    def test_general_tensor_rejected(self):
        # no classical list covers a general non-symmetric tensor
        rng = np.random.default_rng(241)
        sys0 = tensor_system(sym=[np.diag([3.0, 2.0, 1.0])],
                             nonsym=[rng.standard_normal((3, 3))])
        with pytest.raises(ValueError, match="^classical bases cover skew tensors only$"):
            expand_classical("tr(A1)", sys0, build_frame(sys0))


class TestCoaxiality:
    def test_square_map(self):
        rng = np.random.default_rng(227)
        v = random_system(rng, 1, 0, 0).sym[0]
        check = check_coaxiality(lambda m: m @ m, v)
        assert check.commutator_residual <= 1e-13
        assert check.passed

    def test_polynomial_map_with_invariant_coefficients(self):
        rng = np.random.default_rng(229)
        for _ in range(20):
            v = random_system(rng, 1, 0, 0).sym[0]

            def g_fn(m):
                i1, i2, i3 = np.trace(m), np.trace(m @ m), np.trace(m @ m @ m)
                phi0 = 1.0 + 0.3 * i1 - 0.05 * i2
                phi1 = 0.5 - 0.1 * i3
                phi2 = 0.2 + 0.07 * i1
                return phi0 * np.eye(3) + phi1 * m + phi2 * (m @ m)

            check = check_coaxiality(g_fn, v, tol=1e-12)
            assert check.commutator_residual <= 1e-12
            assert check.offdiag_max <= 1e-12

    def test_matrix_exponential(self):
        rng = np.random.default_rng(233)
        v = random_system(rng, 1, 0, 0).sym[0]
        check = check_coaxiality(expm_series, v, tol=1e-10)
        assert check.commutator_residual <= 1e-10
        assert check.offdiag_max <= 1e-10

    def test_nonsymmetric_argument_rejected_before_the_map_runs(self):
        # unchecked, the commutator was taken on the raw V and the frame on
        # 0.5 (V + V^T): V^2 of this V read a residual of 0.0
        calls = []
        v = [[1.0, 2.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 5.0]]
        with pytest.raises(ValueError, match="not symmetric"):
            check_coaxiality(lambda m: calls.append(m) or m @ m, v)
        assert not calls

    @pytest.mark.parametrize("g_fn", [np.trace, lambda m: np.full((3, 3), np.nan)],
                             ids=["scalar", "nan"])
    def test_map_value_must_be_a_finite_tensor(self, g_fn):
        with pytest.raises(ValueError, match="shape|non-finite"):
            check_coaxiality(g_fn, np.diag([3.0, 2.0, 1.0]))


class TestCoalescence:
    @staticmethod
    def t_quadratic(lams, phi=(0.7, -0.3, 0.25)):
        phi0, phi1, phi2 = phi
        return phi0 + phi1 * lams + phi2 * lams**2

    def test_pair_equal_at_coalescence(self):
        rep = coalescence_structure(self.t_quadratic, "pair", [2.0, 2.0, 1.0])
        assert rep.limit_gap == 0.0
        assert rep.canonical_ok

    def test_triple_scalar_multiple_of_identity(self):
        rep = coalescence_structure(self.t_quadratic, "triple", [1.5, 1.5, 1.5])
        assert rep.limit_gap == 0.0
        assert rep.limit_residual <= 1e-14
        assert rep.canonical_ok

    def test_linear_convergence_along_sequence(self):
        eps = [10.0**-k for k in range(2, 9)]
        rep = coalescence_structure(self.t_quadratic, "pair", [1.0, 1.0, 3.0],
                                    eps_sequence=eps)
        assert rep.converged
        # analytic rate: |t1 - t2| = |phi1 + phi2 (lam1 + lam2)| * eps + O(eps^2)
        expected_c = abs(-0.3 + 0.25 * 2.0)
        assert rep.max_ratio <= expected_c * 1.2
        assert all(g <= rep.max_ratio * e for g, e in zip(rep.gaps, rep.eps))

    def test_nonconvergent_reported_not_raised(self):
        t_bad = lambda lams: np.array([1.0, 2.0, 3.0])
        rep = coalescence_structure(t_bad, "pair", [1.0, 1.0, 3.0],
                                    eps_sequence=[1e-2, 1e-4])
        assert not rep.converged
        assert not rep.canonical_ok

    def test_random_frame_canonical_form(self):
        rng = np.random.default_rng(239)
        q = haar_rotation(rng)
        rep = coalescence_structure(self.t_quadratic, "pair", [2.0, 2.0, -1.0],
                                    frame_vectors=q)
        assert rep.canonical_ok

    @pytest.mark.parametrize("eps", [[1e-2, 0.0], [-1e-2], [np.nan], [1e-2, np.inf]],
                             ids=["zero", "negative", "nan", "inf"])
    def test_bad_step_rejected(self, eps):
        # unchecked, a zero step ended in ZeroDivisionError and a negative
        # one reported negative ratios
        with pytest.raises(ValueError, match="steps must be finite and positive"):
            coalescence_structure(self.t_quadratic, "pair", [1.0, 1.0, 3.0],
                                  eps_sequence=eps)

    def test_short_base_rejected(self):
        # unchecked, a 2-vector ended in an IndexError
        with pytest.raises(ValueError, match="shape"):
            coalescence_structure(self.t_quadratic, "pair", [1.0, 1.0])


class TestFrameSlots:
    @staticmethod
    def frame():
        return build_frame(tensor_system(sym=[np.diag([3.0, 2.0, 1.0])]))

    @pytest.mark.parametrize("perm", [(0, 0, 1), (0, 1), (0, 1, 3), (0, 1, 2, 0)])
    def test_permute_frame_needs_a_permutation(self, perm):
        # unchecked, (0, 0, 1) failed inside tuple.index
        with pytest.raises(ValueError, match="distinct slots") as err:
            permute_frame(self.frame(), perm)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("group", [(0, 0), (1,), (0, 3), (0, 1, 2, 1)])
    def test_regauge_frame_needs_distinct_slots(self, group):
        # unchecked, (0, 0) returned a frame whose first vector had length 1.41
        with pytest.raises(ValueError, match="distinct slots") as err:
            regauge_frame(self.frame(), group, np.random.default_rng(0))
        assert "\n" not in str(err.value)

    def test_regauged_svd_frame_still_factors_its_tensor(self):
        # u turns with v: with v alone turned the relative factor residual
        # of H1 = q diag(2, 2, 0.5) r^T went from 1.4e-15 to 0.52
        rng = np.random.default_rng(0)
        q, r = haar_rotation(rng), haar_rotation(rng)
        h = q @ np.diag([2.0, 2.0, 0.5]) @ r.T
        frame = build_svd_frame(tensor_system(nonsym=[h]))
        assert frame.degeneracy == ((0, 1), (2,))
        gauged = regauge_frame(frame, (0, 1), np.random.default_rng(3))
        assert not np.allclose(gauged.v, frame.v)
        rebuilt = sum(s * np.outer(v, u) for s, v, u in zip(gauged.lambdas, gauged.v, gauged.u))
        assert np.linalg.norm(rebuilt - h) <= 1e-14 * np.linalg.norm(h)
        np.testing.assert_array_equal(gauged.u[2], frame.u[2])

    def test_distinct_slots_keep_the_frame_orthonormal(self):
        rng = np.random.default_rng(5)
        for group in ((0, 1), (2, 0), (0, 1, 2)):
            v = regauge_frame(self.frame(), group, rng).v
            np.testing.assert_allclose(v @ v.T, np.eye(3), atol=1e-14)
        permuted = permute_frame(self.frame(), (2, 0, 1))
        np.testing.assert_array_equal(permuted.lambdas, [1.0, 3.0, 2.0])
        assert permuted.degeneracy == ((1,), (2,), (0,))


def dyad_energy(inv):
    # a . A1 a in spectral form: sum_i lam_i (a . v_i)^2
    return sum(inv[f"lam{i}"] * inv[f"a1[{i}]"] ** 2 for i in (1, 2, 3))


class TestPProperty:
    @staticmethod
    def pair_template(rng, lam=2.0, lam3=0.5):
        q = haar_rotation(rng)
        a1 = q @ np.diag([lam, lam, lam3]) @ q.T
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        return tensor_system(sym=[0.5 * (a1 + a1.T)], vecs=[a], unit=[True])

    def test_dyad_energy_passes_pair(self):
        rng = np.random.default_rng(241)
        sys0 = self.pair_template(rng)
        rep = check_p_property(dyad_energy, sys0, "pair", trials=50,
                               rng=np.random.default_rng(1), tol=1e-10)
        assert rep.passed, rep

    def test_dyad_energy_pair_closed_form(self):
        # at lam1 = lam2 = lam the value reduces to lam + (lam3 - lam)(a.v3)^2
        rng = np.random.default_rng(251)
        sys0 = self.pair_template(rng, lam=2.0, lam3=0.5)
        fr = build_frame(sys0)
        inv = extract_invariants(sys0, fr)
        a = sys0.vecs[0]
        v3 = fr.v[2]
        expected = 2.0 + (0.5 - 2.0) * (a @ v3) ** 2
        assert dyad_energy(inv) == pytest.approx(expected, abs=1e-12)

    def test_dyad_energy_passes_triple(self):
        rng = np.random.default_rng(257)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        sys0 = tensor_system(sym=[1.7 * np.eye(3)], vecs=[a], unit=[True])
        rep = check_p_property(dyad_energy, sys0, "triple", trials=50,
                               rng=np.random.default_rng(2), tol=1e-10)
        assert rep.passed
        inv = extract_invariants(sys0, build_frame(sys0))
        assert dyad_energy(inv) == pytest.approx(1.7, abs=1e-12)

    def test_raw_component_fails(self):
        rng = np.random.default_rng(263)
        sys0 = self.pair_template(rng)
        raw = lambda inv: inv["a1[1]"]
        rep = check_p_property(raw, sys0, "pair", trials=50,
                               rng=np.random.default_rng(3))
        assert not rep.passed
        assert rep.gauge_deviation >= 1e-3

    def test_zero_trials_rejected(self):
        # unchecked, no gauge is drawn and a raw frame component reads a
        # gauge deviation of 0.0
        sys0 = self.pair_template(np.random.default_rng(263))
        with pytest.raises(ValueError, match="trials"):
            check_p_property(lambda inv: inv["a1[1]"], sys0, "pair", trials=0)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        # unchecked, NaN or -1 silently gave a failing report
        sys0 = self.pair_template(np.random.default_rng(263))
        with pytest.raises(ValueError, match="^tol must be finite and positive") as err:
            check_p_property(dyad_energy, sys0, "pair", tol=tol)
        assert "\n" not in str(err.value)

    def test_template_without_degeneracy_rejected(self):
        sys0 = tensor_system(sym=[np.diag([3.0, 2.0, 1.0])], vecs=[[1.0, 0, 0]],
                             unit=[True])
        with pytest.raises(ValueError):
            check_p_property(dyad_energy, sys0, "pair")


class TestExampleTwo:
    @staticmethod
    def resolve(u, a):
        # the five invariants of (a (x) a, U), read in the system's own frame
        system = tensor_system(sym=[np.outer(a, a), u])
        inv = extract_invariants(system, build_frame(system))
        return np.array([fn(inv) for _, fn in example2_invariants()])

    def test_identity(self):
        vals = self.resolve(np.eye(3), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(vals, [3.0, 3.0, 3.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        vals = self.resolve(np.diag([2.0, 1.0, 1.0]), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(vals, [4.0, 6.0, 10.0, 2.0, 4.0], atol=1e-12)

    def test_gauge_independent(self):
        rng = np.random.default_rng(269)
        m = rng.standard_normal((3, 3))
        u = 0.5 * (m + m.T)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        sys0 = tensor_system(sym=[np.outer(a, a), u])
        for name, fn in example2_invariants():
            rep = check_p_property(fn, sys0, "pair", trials=50,
                                   rng=np.random.default_rng(4), tol=1e-10)
            assert rep.passed, (name, rep)

    def test_matches_direct_invariants(self):
        rng = np.random.default_rng(271)
        m = rng.standard_normal((3, 3))
        u = 0.5 * (m + m.T)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        vals = self.resolve(u, a)
        assert vals[0] == pytest.approx(np.trace(u), abs=1e-12)
        assert vals[1] == pytest.approx(np.sum(u * u), abs=1e-12)
        assert vals[2] == pytest.approx(np.trace(u @ u @ u), abs=1e-12)
        assert vals[3] == pytest.approx(a @ u @ a, abs=1e-12)
        assert vals[4] == pytest.approx(a @ u @ u @ a, abs=1e-12)


# ---------------------------------------------------------------------------
# public errors


def _frame():
    return build_frame(tensor_system(sym=[np.diag([3.0, 2.0, 1.0])]))


def _svd_case():
    system = tensor_system(nonsym=[[[2.0, 1.0, 0.0], [0.0, 1.5, 0.5], [1.0, 0.0, 1.0]]])
    return system, build_svd_frame(system)


@pytest.mark.parametrize("call,message", [
    (lambda: project_tensor(np.eye(3), _frame(), "vector3"), "unknown projection kind 'vector3'"),
    (lambda: project_tensor(np.eye(3), _frame(), "bogus"), "unknown projection kind 'bogus'"),
    (lambda: reconstruct_tensor(Coefficients("bogus", (1.0,) * 6), _frame()),
     "unknown basis kind 'bogus'"),
    (lambda: generator_basis(_frame(), "bogus"), "unknown basis kind 'bogus'"),
    (lambda: expand_classical("tr(A1)", *_svd_case()),
     "classical items are expanded in non-SVD frames"),
    (lambda: coalescence_structure(lambda lams: lams, "quad", [1.0, 1.0, 3.0]),
     "unknown case 'quad'"),
    (lambda: check_p_property(lambda inv: 0.0, tensor_system(sym=[np.diag([3.0, 2.0, 1.0])]),
                              "pair"),
     "template does not have exactly one double eigenvalue"),
    (lambda: check_p_property(lambda inv: 0.0, tensor_system(sym=[np.diag([2.0, 2.0, 1.0])]),
                              "triple"),
     "template does not have a triple eigenvalue"),
], ids=["project-vector3", "project-unknown", "reconstruct-unknown", "basis-unknown",
        "expand-svd-frame", "coalescence-unknown-case", "p-property-no-pair",
        "p-property-no-triple"])
def test_public_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
