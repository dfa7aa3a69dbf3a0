"""Frame construction, invariant extraction, counting, reconstruction."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from isotropykit.analysis import seeded_system
from isotropykit.lin3 import (
    DegenerateInputError,
    conjugate,
    eig_sym,
    haar_rotation,
    svd3,
    tensor_system,
)
from isotropykit.spectral_frame import (
    SpectralFrame,
    build_frame,
    build_svd_frame,
    extract_invariants,
    irreducible_count,
    rebuild_system,
)


def random_system(rng, n_sym, n_nonsym, n_vec, skew=False, unit=False):
    sym = [0.5 * (m + m.T) for m in rng.standard_normal((n_sym, 3, 3))]
    nonsym = []
    for m in rng.standard_normal((n_nonsym, 3, 3)):
        nonsym.append(0.5 * (m - m.T) if skew else m)
    vecs = list(rng.standard_normal((n_vec, 3)))
    if unit:
        vecs = [x / np.linalg.norm(x) for x in vecs]
    return tensor_system(sym=sym, nonsym=nonsym, skew=[skew] * n_nonsym,
                         vecs=vecs, unit=[unit] * n_vec)


class TestBuildFrame:
    def test_sym_tensor_frame_diagonal(self):
        sys0 = tensor_system(sym=[np.diag([5.0, 2.0, 1.0])])
        fr = build_frame(sys0)
        assert fr.kind == "sym_tensor"
        np.testing.assert_allclose(fr.lambdas, [5.0, 2.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(fr.v), np.eye(3), atol=1e-14)

    def test_vector_frame(self):
        sys0 = tensor_system(vecs=[[0.0, 3.0, 0.0]])
        fr = build_frame(sys0)
        assert fr.kind == "vector"
        assert fr.lambdas[0] == pytest.approx(9.0)
        np.testing.assert_allclose(fr.v[0], [0.0, 1.0, 0.0], atol=0)
        np.testing.assert_allclose(fr.v @ fr.v.T, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(np.cross(fr.v[0], fr.v[1]), fr.v[2], atol=1e-15)
        assert fr.degeneracy == ((0,), (1, 2))

    def test_gram_frame_matches_svd_squares(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            sys0 = random_system(rng, 0, 1, 0)
            fr = build_frame(sys0)
            assert fr.kind == "gram"
            sv, _, _ = svd3(sys0.nonsym[0])
            np.testing.assert_allclose(fr.lambdas, sv**2, atol=1e-10)

    def test_zero_vector_rejected(self):
        sys0 = tensor_system(vecs=[[0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateInputError):
            build_frame(sys0)

    def test_zero_gram_tensor_rejected(self):
        sys0 = tensor_system(nonsym=[np.zeros((3, 3))])
        with pytest.raises(DegenerateInputError):
            build_frame(sys0)


class TestSvdFrame:
    def test_identity(self):
        sys0 = tensor_system(nonsym=[np.eye(3)])
        fr = build_svd_frame(sys0)
        np.testing.assert_allclose(fr.lambdas, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal(self):
        sys0 = tensor_system(nonsym=[np.diag([2.0, 1.0, 0.0])])
        fr = build_svd_frame(sys0)
        np.testing.assert_allclose(fr.lambdas, [2.0, 1.0, 0.0], atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            sys0 = random_system(rng, 0, 1, 0)
            fr = build_svd_frame(sys0)
            h = sys0.nonsym[0]
            rebuilt = sum(fr.lambdas[i] * np.outer(fr.v[i], fr.u[i]) for i in range(3))
            assert np.linalg.norm(h - rebuilt) <= 1e-12 * (1.0 + np.linalg.norm(h))

    def test_requires_nonsym(self):
        sys0 = tensor_system(sym=[np.eye(3)])
        with pytest.raises(ValueError):
            build_svd_frame(sys0)


class TestExtraction:
    def test_two_sym_tensors_identity_second(self):
        sys0 = tensor_system(sym=[np.diag([3.0, 2.0, 1.0]), np.eye(3)])
        inv = extract_invariants(sys0, build_frame(sys0))
        assert inv["lam1"] == pytest.approx(3.0)
        assert inv["lam2"] == pytest.approx(2.0)
        assert inv["lam3"] == pytest.approx(1.0)
        for i, j in ((1, 1), (2, 2), (3, 3)):
            assert inv[f"A2[{i},{j}]"] == pytest.approx(1.0)
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert inv[f"A2[{i},{j}]"] == pytest.approx(0.0, abs=1e-14)

    def test_dyad_plus_stretch_configuration(self):
        # frame tensor a (x) a: eigenvalues are the fixed constants (1, 0, 0)
        # and the six components of the second tensor are the only varying
        # invariants -- six of them, one more than the five-invariant basis
        # this configuration admits
        rng = np.random.default_rng(71)
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        m = rng.standard_normal((3, 3))
        u = 0.5 * (m + m.T)
        sys0 = tensor_system(sym=[np.outer(a, a), u])
        fr = build_frame(sys0)
        inv = extract_invariants(sys0, fr)
        np.testing.assert_allclose(fr.lambdas, [1.0, 0.0, 0.0], atol=1e-12)
        assert abs(abs(fr.v[0] @ a) - 1.0) <= 1e-12
        u_labels = [lab for lab in inv.labels() if lab.startswith("A2")]
        assert len(u_labels) == 6
        for i, j in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
            expected = fr.v[i] @ u @ fr.v[j]
            assert inv[f"A2[{i + 1},{j + 1}]"] == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("config", [
        (1, 0, 1, False), (2, 0, 2, False), (1, 1, 0, False), (1, 1, 1, True),
        (0, 1, 1, False), (0, 2, 0, False),
    ])
    def test_rotation_invariance(self, config):
        n, m, p, skew = config
        rng = np.random.default_rng(73)
        sys0 = random_system(rng, n, m, p, skew=skew)
        fr = build_frame(sys0)
        assert not fr.is_degenerate
        base = extract_invariants(sys0, fr).values()
        for _ in range(100):
            q = haar_rotation(rng)
            rot = conjugate(q, sys0)
            rotated = extract_invariants(rot, build_frame(rot)).values()
            assert np.abs(rotated - base).max() <= 1e-10

    def test_rotation_invariance_svd(self):
        rng = np.random.default_rng(79)
        sys0 = random_system(rng, 1, 1, 1)
        fr = build_svd_frame(sys0)
        assert not fr.is_degenerate
        base = extract_invariants(sys0, fr).values()
        for _ in range(100):
            q = haar_rotation(rng)
            rot = conjugate(q, sys0)
            rotated = extract_invariants(rot, build_svd_frame(rot)).values()
            assert np.abs(rotated - base).max() <= 1e-10

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_rotation_invariance_above_the_squared_norm_range(self, scale):
        # the gauge probes are scaled by 1 + |x|; once |x|^2 overflowed, no
        # probe cleared its threshold and both signs stayed +1
        sys1 = seeded_system(1, 0, 1, seed=0)
        sys0 = tensor_system(sym=[scale * sys1.sym[0]], vecs=[scale * sys1.vecs[0]])
        base = extract_invariants(sys0, build_frame(sys0)).values()
        rng = np.random.default_rng(0)
        for _ in range(10):
            rot = conjugate(haar_rotation(rng), sys0)
            rotated = extract_invariants(rot, build_frame(rot)).values()
            assert np.abs(rotated - base).max() <= 1e-12 * np.abs(base).max()

    def test_ambient_gauge_is_not_invariant(self):
        # negative control for the equivariant gauge: the raw
        # largest-component sign convention of eig_sym's triad flips
        # component signs under some rotations
        def ambient_frame(system):
            lams, v, groups = eig_sym(system.sym[0])
            return SpectralFrame("sym_tensor", lams, v, degeneracy=groups)

        rng = np.random.default_rng(83)
        sys0 = random_system(rng, 1, 0, 1)
        base = extract_invariants(sys0, ambient_frame(sys0)).values()
        worst = 0.0
        for _ in range(100):
            q = haar_rotation(rng)
            rot = conjugate(q, sys0)
            vals = extract_invariants(rot, ambient_frame(rot)).values()
            worst = max(worst, np.abs(vals - base).max())
        assert worst > 1e-3


class TestCounts:
    def test_quoted_counting_table(self):
        assert irreducible_count(2, 0, 2) == 15
        assert irreducible_count(1, 0, 1, all_vectors_unit=True) == 5
        assert irreducible_count(0, 0, 1) == 1
        assert irreducible_count(0, 0, 3) == 7
        assert irreducible_count(0, 0, 3, all_vectors_unit=True) == 4
        assert irreducible_count(1, 2, 1) == 3 + 18 + 6 - 3
        assert irreducible_count(1, 2, 1, skew_nonsym=True) == 3 + 6 + 6 - 3
        assert irreducible_count(0, 2, 1) == 21
        assert irreducible_count(1, 1, 1, svd_variant=True) == 9 + 6 + 3 - 3
        assert irreducible_count(1, 0, 0) == 3

    def test_rejects_empty_and_inconsistent(self):
        with pytest.raises(ValueError):
            irreducible_count(0, 0, 0)
        with pytest.raises(ValueError):
            irreducible_count(1, 0, 0, skew_nonsym=True)

    def test_count_law_exhaustive(self):
        # list length equals the closed-form count for every configuration
        # with N + M + P <= 4 (free vectors; skew and general tensor variants)
        rng = np.random.default_rng(89)
        for n, m, p in itertools.product(range(5), repeat=3):
            if not 1 <= n + m + p <= 4:
                continue
            for skew in ((False, True) if m else (False,)):
                sys0 = random_system(rng, n, m, p, skew=skew)
                inv = extract_invariants(sys0, build_frame(sys0))
                expected = irreducible_count(n, m, p, skew_nonsym=skew)
                assert len(inv.entries) == expected, (n, m, p, skew)
                assert inv.count == expected
                assert len(set(inv.labels())) == len(inv.entries)

    def test_unit_vectors_reduce_effective_count(self):
        rng = np.random.default_rng(97)
        sys0 = random_system(rng, 1, 0, 2, unit=True)
        inv = extract_invariants(sys0, build_frame(sys0))
        assert len(inv.entries) == 3 + 6
        assert inv.count == irreducible_count(1, 0, 2, all_vectors_unit=True)
        # the dropped degrees of freedom are the unit-norm constraints
        for s in (1, 2):
            total = sum(inv[f"a{s}[{i}]"] ** 2 for i in (1, 2, 3))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_svd_count_discounts_symmetric_redundancy(self):
        rng = np.random.default_rng(101)
        sys0 = random_system(rng, 2, 2, 1)
        inv = extract_invariants(sys0, build_svd_frame(sys0))
        assert len(inv.entries) == 6 + 9 * 2 + 9 * 1 + 3
        assert inv.count == irreducible_count(2, 2, 1, svd_variant=True)


class TestRebuild:
    @pytest.mark.parametrize("config", [
        (2, 1, 2, False), (1, 2, 1, True), (0, 2, 2, False), (0, 1, 0, True),
        (0, 0, 3, False),
    ])
    def test_completeness_witness(self, config):
        n, m, p, skew = config
        rng = np.random.default_rng(103)
        sys0 = random_system(rng, n, m, p, skew=skew)
        fr = build_frame(sys0)
        inv = extract_invariants(sys0, fr)
        back = rebuild_system(inv, fr)
        for orig, new in zip(sys0.sym + sys0.nonsym + sys0.vecs,
                             back.sym + back.nonsym + back.vecs):
            scale = 1.0 + np.linalg.norm(orig)
            assert np.linalg.norm(orig - new) <= 1e-12 * scale

    def test_completeness_witness_svd(self):
        rng = np.random.default_rng(107)
        sys0 = random_system(rng, 1, 2, 1)
        fr = build_svd_frame(sys0)
        inv = extract_invariants(sys0, fr)
        back = rebuild_system(inv, fr)
        for orig, new in zip(sys0.sym + sys0.nonsym + sys0.vecs,
                             back.sym + back.nonsym + back.vecs):
            assert np.linalg.norm(orig - new) <= 1e-12 * (1.0 + np.linalg.norm(orig))

    def test_component_system_is_frame_aligned(self):
        rng = np.random.default_rng(109)
        sys0 = random_system(rng, 2, 0, 1)
        fr = build_frame(sys0)
        comp = rebuild_system(extract_invariants(sys0, fr))
        np.testing.assert_allclose(comp.sym[0], np.diag(fr.lambdas), atol=1e-12)
        np.testing.assert_allclose(comp.vecs[0], fr.v @ sys0.vecs[0], atol=1e-12)


# extract_invariants on one seeded system per frame kind (a skew and a
# general non-symmetric tensor in the sym_tensor, gram and svd systems, a
# unit vector in the vector system) and the relative residuals of
# rebuild_system, recorded from the per-kind extraction and reconstruction
# code that the frame-component codec replaced
GOLDEN = json.loads((Path(__file__).parent / "data" / "invariants_golden.json").read_text())


class TestGoldenInvariants:
    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["kind"])
    def test_labels_and_values_exact(self, case):
        sys0 = tensor_system(**case["system"])
        fr = build_svd_frame(sys0) if case["kind"] == "svd" else build_frame(sys0)
        assert fr.kind == case["kind"]
        inv = extract_invariants(sys0, fr)
        assert list(inv.labels()) == case["labels"]
        assert inv.values().tolist() == case["values"]
        assert inv.count == case["count"]

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: c["kind"])
    def test_rebuild_residuals(self, case):
        sys0 = tensor_system(**case["system"])
        fr = build_svd_frame(sys0) if case["kind"] == "svd" else build_frame(sys0)
        back = rebuild_system(extract_invariants(sys0, fr), fr)
        args = sys0.sym + sys0.nonsym + sys0.vecs
        assert len(args) == len(case["rebuild_residuals"])
        for orig, new in zip(args, back.sym + back.nonsym + back.vecs):
            assert np.linalg.norm(orig - new) <= 1e-14 * np.linalg.norm(orig)
