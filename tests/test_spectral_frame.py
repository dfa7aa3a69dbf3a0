"""Frame construction, invariant extraction, counting, reconstruction."""

import gc
import inspect
import itertools
import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from isotropykit import lin3, spectral_frame
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

    def test_overflowing_gram_source_is_one_error(self):
        # H H^T overflows: the one ValueError, and no overflow warning first
        # (the suite turns a RuntimeWarning into an error)
        h = 1e300 * np.random.default_rng(0).standard_normal((3, 3))
        with pytest.raises(ValueError, match="^tensor has non-finite entries$"):
            build_frame(tensor_system(nonsym=[h]))


def _hex(frame):
    arrays = (frame.lambdas, frame.v) + (() if frame.u is None else (frame.u,))
    return (frame.kind, frame.degeneracy, frame.u is None,
            [float.hex(x) for a in arrays for x in a.ravel().tolist()])


def _moved(system, cls, index, entry, value):
    # ``system`` with one entry of one member set to ``value`` (both mirror
    # entries of a symmetric tensor), through the validation boundary
    args = {"sym": list(system.sym), "nonsym": list(system.nonsym),
            "vecs": list(system.vecs)}
    x = args[cls][index].copy()
    x[entry] = value
    if cls == "sym":
        x[entry[::-1]] = value
    args[cls][index] = x
    return tensor_system(sym=args["sym"], nonsym=args["nonsym"], skew=system.nonsym_skew,
                         vecs=args["vecs"], unit=system.vec_unit)


class TestFrameMemo:
    @pytest.fixture(autouse=True)
    def eig_calls(self, monkeypatch):
        """Calls of the eigensolver behind ``build_frame``, from an empty memo."""
        calls = []
        monkeypatch.setattr(spectral_frame, "_last_frame", (None, None))
        monkeypatch.setattr(spectral_frame, "eig_sym",
                            lambda a: calls.append(a) or eig_sym(a))
        return calls

    def test_hit_is_the_same_frame_as_a_fresh_build(self, eig_calls, monkeypatch):
        sys0 = seeded_system(2, 1, 1, seed=3)
        first = build_frame(sys0)
        # equal content, other arrays
        again = build_frame(_moved(sys0, "vecs", 0, 0, sys0.vecs[0][0]))
        assert again is first and len(eig_calls) == 1
        monkeypatch.setattr(spectral_frame, "_last_frame", (None, None))
        fresh = build_frame(sys0)
        assert fresh is not first and _hex(fresh) == _hex(first)

    @pytest.mark.parametrize("change", ["ulp", "skew", "unit", "zero-sign", "class"])
    def test_any_content_change_misses(self, eig_calls, monkeypatch, change):
        a = np.diag([3.0, 2.0, 1.0])
        a[0, 1] = a[1, 0] = 0.5
        w = np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 3.0], [2.0, -3.0, 0.0]])
        b = np.array([[1.0, 0.25, 0.0], [0.25, -1.0, 0.5], [0.0, 0.5, 2.0]])
        vec = [0.6, 0.0, 0.8]
        base = tensor_system(sym=[a, b], nonsym=[w], skew=[True], vecs=[vec],
                             unit=[True])
        other = {
            # the last bit of a member that is not the frame source
            "ulp": _moved(base, "sym", 1, (2, 2), np.nextafter(2.0, 3.0)),
            "skew": tensor_system(sym=[a, b], nonsym=[w], skew=[False], vecs=[vec],
                                  unit=[True]),
            "unit": tensor_system(sym=[a, b], nonsym=[w], skew=[True], vecs=[vec],
                                  unit=[False]),
            "zero-sign": _moved(base, "vecs", 0, 1, -0.0),
            # the same bytes in the same order, one member in another class
            "class": tensor_system(sym=[a], nonsym=[b, w], skew=[False, True],
                                   vecs=[vec], unit=[True]),
        }[change]
        build_frame(base)
        frame = build_frame(other)
        assert len(eig_calls) == 2
        monkeypatch.setattr(spectral_frame, "_last_frame", (None, None))
        assert _hex(frame) == _hex(build_frame(other))

    def test_alternating_systems_get_their_own_frames(self, eig_calls, monkeypatch):
        sys_a, sys_b = seeded_system(1, 0, 2, seed=1), seeded_system(1, 0, 2, seed=2)
        frame_a, frame_b, frame_a2 = map(build_frame, (sys_a, sys_b, sys_a))
        assert len(eig_calls) == 3
        for system, frame in ((sys_a, frame_a2), (sys_b, frame_b)):
            monkeypatch.setattr(spectral_frame, "_last_frame", (None, None))
            assert _hex(frame) == _hex(build_frame(system))
        assert _hex(frame_a) == _hex(frame_a2)

    def test_failed_build_is_not_remembered(self, eig_calls):
        zero = tensor_system(nonsym=[np.zeros((3, 3))])
        for _ in range(2):
            with pytest.raises(DegenerateInputError):
                build_frame(zero)
        assert spectral_frame._last_frame == (None, None)


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

    @pytest.mark.parametrize("n,m,p", [(1, 1, 0), (0, 1, 0), (1, 1, 1), (2, 2, 1)])
    def test_svd_variant_rejects_skew_tensors(self, n, m, p):
        # a skew tensor's singular values are (s, s, 0): its SVD frame is
        # never generic, so the SVD count has no skew case
        with pytest.raises(ValueError, match="skew tensor's singular values"):
            irreducible_count(n, m, p, skew_nonsym=True, svd_variant=True)

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


# (N, M, P) of one system per frame kind, and whether it takes the SVD frame
FRAME_KINDS = {"sym_tensor": ((2, 1, 1), False), "gram": ((0, 2, 1), False),
               "vector": ((0, 0, 3), False), "svd": ((1, 2, 1), True)}


def kind_system(kind, seed):
    (n, m, p), svd = FRAME_KINDS[kind]
    sys0 = random_system(np.random.default_rng(seed), n, m, p)
    return sys0, build_svd_frame(sys0) if svd else build_frame(sys0)


def retained_bytes(make, n=100):
    """Bytes per object that ``n`` objects ``make()`` returns keep allocated,
    by tracemalloc, after one warm-up call has filled every cache.  A full
    collection first empties the free lists, whose reuse tracemalloc does not
    see; the other allocations in the window are spread over ``n``."""
    make()
    gc.collect()
    tracemalloc.start()
    try:
        kept = [make() for _ in range(n)]
        return tracemalloc.get_traced_memory()[0] / n, kept[0]
    finally:
        tracemalloc.stop()


class TestListStorage:
    @pytest.mark.parametrize("kind", ["sym_tensor", "svd"])
    def test_a_list_retains_little_more_than_its_values(self, kind):
        # 12 entries: 3 heads + 6 + 3 (sym frame), 3 + 3 + 2 * 3 (SVD frame);
        # one array keeps ~320 bytes (96 of values, the array, the list), a
        # tuple of (label, float) pairs over 1.2 KB
        rng = np.random.default_rng(31)
        n, m, p = (2, 0, 1) if kind == "sym_tensor" else (0, 1, 2)
        sys0 = random_system(rng, n, m, p)
        fr = build_svd_frame(sys0) if kind == "svd" else build_frame(sys0)
        size, inv = retained_bytes(lambda: extract_invariants(sys0, fr))
        assert len(inv.entries) == 12
        assert size <= 128 + 32 * 12, size

    @pytest.mark.parametrize("kind", sorted(FRAME_KINDS))
    def test_lists_of_one_layout_share_their_labels(self, kind):
        (sys_a, fr_a), (sys_b, fr_b) = kind_system(kind, 41), kind_system(kind, 43)
        inv_a, inv_b = extract_invariants(sys_a, fr_a), extract_invariants(sys_b, fr_b)
        assert inv_a.values().tolist() != inv_b.values().tolist()
        assert inv_a.labels() is inv_b.labels()

    @pytest.mark.parametrize("lams,other,groups", [
        ([3.0, 2.0, 1.0], [-1.0, -2.0, -5.0], ((0,), (1,), (2,))),
        ([2.0, 2.0, 1.0], [7.0, 7.0, -7.0], ((0, 1), (2,))),
        ([2.0, 1.0, 1.0], [1e-9, 0.0, 0.0], ((0,), (1, 2))),
        ([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], ((0, 1, 2),)),
    ], ids=["simple", "top-pair", "bottom-pair", "triple"])
    def test_degeneracy_partitions_are_shared(self, lams, other, groups):
        first = lin3._degeneracy_groups(lams, lin3._TOL_REL)
        assert first == groups
        assert lin3._degeneracy_groups(other, lin3._TOL_REL) is first


class TestListContract:
    @pytest.mark.parametrize("kind", sorted(FRAME_KINDS))
    def test_entries_lookup_and_as_dict_agree(self, kind):
        sys0, fr = kind_system(kind, 47)
        inv = extract_invariants(sys0, fr)
        assert [label for label, _ in inv.entries] == list(inv.labels())
        assert all(type(value) is float for _, value in inv.entries)
        assert [value for _, value in inv.entries] == inv.values().tolist()
        data = inv.as_dict()
        for label in inv.labels():
            assert type(inv[label]) is float
            assert inv[label] == data[label]
        with pytest.raises(KeyError):
            inv["nope"]

    @pytest.mark.parametrize("kind", sorted(FRAME_KINDS))
    def test_values_is_a_copy(self, kind):
        sys0, fr = kind_system(kind, 53)
        inv = extract_invariants(sys0, fr)
        before = inv.values().tolist()
        values = inv.values()
        values[:] = 0.0
        assert inv.values().tolist() == before
        assert inv.values() is not inv.values()

    @pytest.mark.parametrize("kind", sorted(FRAME_KINDS))
    def test_equality_and_hash_by_value(self, kind):
        sys0, fr = kind_system(kind, 59)
        inv = extract_invariants(sys0, fr)
        twin = extract_invariants(*kind_system(kind, 59))
        assert twin is not inv
        assert twin == inv and hash(twin) == hash(inv)
        # the same list with its last value moved by one ulp
        values = inv.values()
        values[-1] = np.nextafter(values[-1], np.inf)
        changed = replace(inv, _values=lin3._freeze(values))
        assert changed != inv
        assert inv != inv.entries


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


# ---------------------------------------------------------------------------
# the sign gauge reads the codec's masks


CODES = {name: code for name, code in vars(spectral_frame).items()
         if isinstance(code, spectral_frame._Code)}
# a flip set by its mask: the frame vectors it negates (s0 negates v1 and v3,
# s1 negates v2 and v3, both negate v1 and v2)
FLIPS = {1: (-1.0, 1.0, -1.0), 2: (1.0, -1.0, -1.0), 3: (-1.0, -1.0, 1.0)}


class TestGaugeMasks:
    def test_every_code_carries_its_masks(self):
        assert set(CODES) >= {"_VEC", "_SYM", "_SKEW", "_FULL", "_MIXED", "_DIAG"}
        assert spectral_frame._VEC.odd == (1, 2, 3)
        assert spectral_frame._SKEW.odd == (3, 2, 1)
        for code in CODES.values():
            assert len(code.odd) == code.size

    @pytest.mark.parametrize("name", sorted(CODES))
    @pytest.mark.parametrize("flip", sorted(FLIPS))
    def test_a_flip_negates_the_slots_it_overlaps_oddly(self, name, flip):
        code = CODES[name]
        rng = np.random.default_rng(307)
        x = rng.standard_normal(3 if code is spectral_frame._VEC else (3, 3))
        v, u = haar_rotation(rng), haar_rotation(rng)
        r = u if code is spectral_frame._MIXED else None
        signs = np.array(FLIPS[flip])[:, None]
        base = spectral_frame._encode(x, code, v, r)
        flipped = spectral_frame._encode(x, code, signs * v, None if r is None else signs * r)
        odd = np.array([bin(mask & flip).count("1") % 2 for mask in code.odd])
        np.testing.assert_array_equal(flipped, np.where(odd == 1, -base, base))


def _reference_probes(system, v, u, kind, slot):
    # the probe walk the mask rule replaced: vector projections, then per
    # tensor the components (1, 2) and (2, 1) for slot 0, (0, 2) and (2, 0)
    # for slot 1, the second skipped for a skew tensor; slot 2, the sign
    # s0 s1 of v[2], reads (0, 1) and (1, 0)
    i, j = ((1, 2), (0, 2), (0, 1))[slot]
    for a in system.vecs:
        yield a @ v[slot], lin3._norm(a)
    right = v if u is None else u
    for _, cls, index, code in spectral_frame._layout(kind, system.n_sym,
                                                      system.nonsym_skew, system.n_vec):
        if code is spectral_frame._VEC:
            continue
        x = getattr(system, cls)[index]
        size = lin3._norm(x)
        yield v[i] @ x @ right[j], size
        if code is not spectral_frame._SKEW:
            yield v[j] @ x @ right[i], size


def _reference_gauge(system, kind, v, u=None, fallback=True):
    # per slot the sign of its first probe that clears the threshold; with
    # ``fallback``, a free s1 (else a free s0) is taken from slot 2's sign
    # s0 s1, and a sign still free is +1
    signs = [None, None, None]
    for slot in (0, 1, 2) if fallback else (0, 1):
        for value, size in _reference_probes(system, v, u, kind, slot):
            if abs(value) > lin3._thr(lin3._TOL_REL, size):
                signs[slot] = 1.0 if value > 0.0 else -1.0
                break
    s0, s1, s01 = signs
    if s01 is not None and s1 is None:
        s1 = s01 * (1.0 if s0 is None else s0)
    elif s01 is not None and s0 is None:
        s0 = s01 * s1
    s0, s1 = (1.0 if s is None else s for s in (s0, s1))
    full = np.array([[s0], [s1], [s0 * s1]])
    return v * full, None if u is None else u * full


def _random_members(rng, n, m, p):
    return rng.standard_normal((n, 3, 3)), rng.standard_normal((m, 3, 3)), \
        rng.standard_normal((p, 3))


def _zeroed(rng, n, m, p):
    # random members with about half their entries zero, so that many probes
    # read nothing and the rule falls through to later entries
    return tuple(x * (rng.random(x.shape) < 0.5) for x in _random_members(rng, n, m, p))


def _snapped(rng, n, m, p):
    # small integers: exact zeros, ties and repeated eigenvalues
    return tuple(np.round(2.0 * x) for x in _random_members(rng, n, m, p))


def _diagonal_source(rng, n, m, p):
    # the frame source diagonal, so that its frame is the coordinate axes
    sym, nonsym, vecs = _random_members(rng, n, m, p)
    source = sym if n else nonsym
    source[0] = np.diag(rng.standard_normal(3))
    return sym, nonsym, vecs


GAUGE_BUILDERS = {"random": _random_members, "zeroed": _zeroed, "snapped": _snapped,
                  "diagonal-source": _diagonal_source}
GAUGE_SHAPES = [(n, m, p, skew) for n, m, p in itertools.product(range(3), repeat=3)
                if n + m >= 1 and n + m + p <= 4 for skew in ((False, True) if m else (False,))]


def _gauge_system(builder, rng, n, m, p, skew):
    sym, nonsym, vecs = GAUGE_BUILDERS[builder](rng, n, m, p)
    return tensor_system(sym=[x + x.T for x in sym],
                         nonsym=[x - x.T if skew else x for x in nonsym],
                         skew=[skew] * m, vecs=vecs)


class TestGaugeReference:
    @pytest.mark.parametrize("builder", sorted(GAUGE_BUILDERS))
    def test_frames_equal_the_probe_rule_bit_for_bit(self, builder):
        rng = np.random.default_rng(311)
        frames = 0
        for _ in range(20):
            for n, m, p, skew in GAUGE_SHAPES:
                sys0 = _gauge_system(builder, rng, n, m, p, skew)
                cases = []
                if n:
                    cases.append(("sym_tensor", build_frame, eig_sym(sys0.sym[0])[1], None))
                elif np.abs(sys0.nonsym[0]).max() > 0.0:
                    h = sys0.nonsym[0]
                    cases.append(("gram", build_frame, eig_sym(h @ h.T)[1], None))
                if m and np.abs(sys0.nonsym[0]).max() > 0.0:
                    cases.append(("svd", build_svd_frame, *svd3(sys0.nonsym[0])[1:]))
                for kind, build, v, u in cases:
                    frame = build(sys0)
                    ref_v, ref_u = _reference_gauge(sys0, kind, v, u)
                    assert frame.kind == kind
                    assert frame.v.tobytes() == ref_v.tobytes(), (builder, kind, n, m, p)
                    if u is not None:
                        assert frame.u.tobytes() == ref_u.tobytes(), (builder, n, m, p)
                    frames += 1
        assert frames >= 1000


SWITCHING_CASES = {"sym-N2P1": ("sym_tensor", (2, 0, 1)), "sym-N1M1P1": ("sym_tensor", (1, 1, 1)),
                   "gram-N0M2P1": ("gram", (0, 2, 1)), "svd-N0M2P1": ("svd", (0, 2, 1)),
                   "svd-N0M2P0": ("svd", (0, 2, 0))}


def _switching_system(kind, shape, masks):
    # a seeded system with each coded entry whose mask is neither 0 nor in
    # ``masks`` zeroed in its frame; a gram source becomes v^T D R v, R a
    # turn in the (0, 1) plane, whose entries have masks 0 and 3 and whose
    # gram frame is still v
    sys0 = seeded_system(*shape, seed=0)
    frame = (build_svd_frame if kind == "svd" else build_frame)(sys0)
    v, u = frame.v, frame.u
    args = {"sym": list(sys0.sym), "nonsym": list(sys0.nonsym), "vecs": list(sys0.vecs)}
    for _, cls, index, code in spectral_frame._layout(kind, sys0.n_sym, sys0.nonsym_skew,
                                                      sys0.n_vec):
        keep = [mask == 0 or mask in masks for mask in code.odd]
        values = spectral_frame._encode(args[cls][index], code, v, u) * keep
        args[cls][index] = spectral_frame._decode(values, code, v, u)
    if kind == "gram":
        c, s = np.cos(0.7), np.sin(0.7)
        turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        args["nonsym"][0] = v.T @ np.diag([3.0, 2.0, 1.0]) @ turn @ v
    return tensor_system(sym=args["sym"], nonsym=args["nonsym"], vecs=args["vecs"])


def _switching_deviation(kind, system):
    # the largest change of the list over 40 rotations, against its largest entry
    build = build_svd_frame if kind == "svd" else build_frame
    base = extract_invariants(system, build(system)).values()
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(40):
        rot = conjugate(haar_rotation(rng), system)
        worst = max(worst, np.abs(extract_invariants(rot, build(rot)).values() - base).max())
    return worst / np.abs(base).max()


class TestGaugeSwitchingSets:
    # a system whose frame entries of mask 1 or 2 all vanish leaves s0 or s1
    # to the entries of mask 3, which carry the sign s0 s1: the per-slot rule
    # left that sign +1 and the list flipped under rotations
    @pytest.mark.parametrize("masks", [(3,), (1, 3), (2, 3)], ids=["3", "1-3", "2-3"])
    @pytest.mark.parametrize("case", sorted(SWITCHING_CASES))
    def test_lists_are_invariant_on_a_switching_set(self, monkeypatch, case, masks):
        kind, shape = SWITCHING_CASES[case]
        system = _switching_system(kind, shape, masks)
        assert build_frame(system).kind == ("sym_tensor" if shape[0] else "gram")
        assert _switching_deviation(kind, system) <= 1e-12
        # a copy of the per-slot rule fails the same check
        monkeypatch.setattr(spectral_frame, "_last_frame", (None, None))
        monkeypatch.setattr(spectral_frame, "_gauge",
                            lambda *args: _reference_gauge(*args, fallback=False))
        assert _switching_deviation(kind, system) > 1e-2


def _stacked_lists(system):
    # the frames and lists of a stacked system through the stacked kernels
    kind, lams, v = spectral_frame._frames(system)
    return kind, lams, v, spectral_frame._values(system, kind, lams, v)


def _single_bits(system):
    # the kind and the bytes of the eigenvalues, triad and list of one system
    frame = build_frame(system)
    return (frame.kind, frame.lambdas.tobytes(), frame.v.tobytes(),
            extract_invariants(system, frame).values().tobytes())


def _assert_stack_matches(systems, want=None):
    # the stacked frames and lists of ``systems`` equal, row by row and bit
    # for bit, build_frame's and extract_invariants' on each system (or
    # their recorded ``want``)
    kind, lams, v, values = _stacked_lists(lin3._stack(systems))
    got = [(kind, *(x.tobytes() for x in row)) for row in zip(lams, v, values)]
    assert got == (want or list(map(_single_bits, systems)))


class TestStackedPath:
    # the sweeps' stacked kernels against the single-system path, bit for
    # bit: batched matmul may round differently by stack size, hence sizes 1,
    # 2, 7 and 100
    SIZES = (1, 2, 7, 100)

    def test_gauge_corpus_stacks_equal_single_frames(self):
        rng = np.random.default_rng(311)
        corpus = {}
        for builder in sorted(GAUGE_BUILDERS):
            for _ in range(20):
                for n, m, p, skew in GAUGE_SHAPES:
                    system = _gauge_system(builder, rng, n, m, p, skew)
                    if n or np.abs(system.nonsym[0]).max() > 0.0:
                        corpus.setdefault((n, m, p, skew), []).append(system)
        assert sum(map(len, corpus.values())) >= 1000
        for systems in corpus.values():
            want = list(map(_single_bits, systems))
            for size in self.SIZES:
                cycle = 1 + size // len(systems)
                for start in range(0, len(systems), size):
                    _assert_stack_matches((systems * cycle)[start:start + size],
                                          (want * cycle)[start:start + size])

    @pytest.mark.parametrize("k", [-300, -150, 0, 150, 300])
    def test_scaled_stacks_equal_single_frames(self, k):
        # scaled by 10^k: a gram source's H H^T overflows at 10^300 and both
        # paths raise the one error; vector norms take _norm's rescale
        rng = np.random.default_rng(331)
        for n, m, p, skew in GAUGE_SHAPES:
            sym, nonsym, vecs = _random_members(rng, n, m, p)
            system = tensor_system(sym=[10.0 ** k * (x + x.T) for x in sym],
                                   nonsym=[10.0 ** k * (x - x.T if skew else x) for x in nonsym],
                                   skew=[skew] * m, vecs=[10.0 ** k * x for x in vecs])
            rotations = np.array([haar_rotation(rng) for _ in range(7)])
            stack = lin3._conjugated(rotations, system)
            systems = [conjugate(q, system) for q in rotations]
            assert all(x.tobytes() == y.tobytes()
                       for s, t in zip(lin3._rows(stack), systems)
                       for x, y in zip(s.sym + s.nonsym + s.vecs, t.sym + t.nonsym + t.vecs))
            try:
                build_frame(systems[0])
            except ValueError as err:
                with pytest.raises(ValueError, match=f"^{err}$"):
                    spectral_frame._frames(stack)
                continue
            _assert_stack_matches(systems)

    @pytest.mark.parametrize("masks", [(3,), (1, 3), (2, 3)], ids=["3", "1-3", "2-3"])
    @pytest.mark.parametrize("case", ["sym-N2P1", "sym-N1M1P1", "gram-N0M2P1"])
    def test_switching_sets_under_rotation(self, monkeypatch, case, masks):
        kind, shape = SWITCHING_CASES[case]
        system = _switching_system(kind, shape, masks)
        rng = np.random.default_rng(17)
        rotations = np.array([haar_rotation(rng) for _ in range(40)])
        stack = lin3._conjugated(rotations, system)
        _assert_stack_matches(lin3._rows(stack))
        base = extract_invariants(system, build_frame(system)).values()

        def deviation():
            return np.abs(_stacked_lists(stack)[3] - base).max() / np.abs(base).max()
        assert deviation() <= 1e-12
        # a mutant of the gauge without the mask-3 fallback fails it
        source = inspect.getsource(spectral_frame._gauge)
        assert source.count("s01 *") == 2
        scope = dict(vars(spectral_frame))
        exec(source.replace("s01 *", "0.0 *"), scope)
        monkeypatch.setattr(spectral_frame, "_gauge", scope["_gauge"])
        assert deviation() > 1e-2

    def test_a_zero_gram_source_in_a_stack_is_the_single_error(self):
        h = seeded_system(0, 1, 1, seed=0)
        zero = tensor_system(nonsym=[np.zeros((3, 3))], vecs=[h.vecs[0]])
        with pytest.raises(DegenerateInputError, match="^frame tensor is zero$"):
            spectral_frame._frames(lin3._stack([h, zero]))


# ---------------------------------------------------------------------------
# public errors


def _frame(kind):
    # a frame of ``kind`` with no source behind it, for the layout checks
    return SpectralFrame(kind, np.array([3.0, 2.0, 1.0]), np.eye(3),
                         np.eye(3) if kind == "svd" else None)


def _sym_system():
    return tensor_system(sym=[np.diag([3.0, 2.0, 1.0])], vecs=[[1.0, 2.0, 3.0]])


def _nonsym_system():
    return tensor_system(nonsym=[[[2.0, 1.0, 0.0], [0.0, 1.5, 0.5], [1.0, 0.0, 1.0]]],
                         vecs=[[1.0, 2.0, 3.0]])


@pytest.mark.parametrize("call,message", [
    (lambda: extract_invariants(tensor_system(vecs=[[1.0, 2.0, 3.0]]), _frame("sym_tensor")),
     "sym_tensor frame requires a symmetric argument"),
    (lambda: extract_invariants(_sym_system(), _frame("gram")),
     "gram frame applies to systems with no symmetric tensor"),
    (lambda: extract_invariants(_nonsym_system(), _frame("vector")),
     "vector frame applies to vector-only systems"),
    (lambda: extract_invariants(_sym_system(), _frame("svd")),
     "svd frame requires a non-symmetric argument"),
    (lambda: extract_invariants(_sym_system(), _frame("bogus")), "unknown frame kind 'bogus'"),
    (lambda: rebuild_system(extract_invariants(_sym_system(), build_frame(_sym_system())),
                            build_svd_frame(_nonsym_system())),
     "frame kind 'svd' does not match invariants ('sym_tensor')"),
    (lambda: rebuild_system(extract_invariants(_nonsym_system(),
                                               build_svd_frame(_nonsym_system()))),
     "svd invariants need their frame to rebuild the system"),
    (lambda: build_svd_frame(_sym_system()),
     "SVD frame needs at least one non-symmetric tensor"),
    (lambda: irreducible_count(1, 0, 0, svd_variant=True), "svd_variant requires M >= 1"),
], ids=["extract-sym_tensor", "extract-gram", "extract-vector", "extract-svd",
        "extract-unknown", "rebuild-other-kind", "rebuild-svd-no-frame",
        "svd-frame-no-nonsym", "count-svd-no-m"])
def test_public_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
