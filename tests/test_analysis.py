"""Isotropy harness and Jacobian rank."""

import dataclasses
import inspect
import itertools

import numpy as np
import pytest

from isotropykit import analysis, classical_bases, spectral_frame
from isotropykit.lin3 import (
    _OFF_PAIRS,
    _SYM_PAIRS,
    DegenerateConfigurationError,
    conjugate,
    haar_rotation,
    tensor_system,
)
from isotropykit.classical_bases import boehler_scalars, smith_sym_tensors, smith_vectors
from isotropykit.analysis import (
    _jacobian,
    jacobian_rank,
    rotation_deviation,
    seeded_system,
    verify_isotropy,
)
from isotropykit.cli import _rank_configs
from isotropykit.potentials import grad_sym_tensor
from isotropykit.spectral_frame import (
    _SYM,
    build_frame,
    build_svd_frame,
    extract_invariants,
    frame_completion,
    irreducible_count,
)


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
        report = jacobian_rank(boehler_scalars(1, 0, 1), sys0)
        assert report.ambient_dim == 9
        assert report.n_invariants == 6
        assert report.rank == 6

    def test_boehler_two_tensors_redundant(self):
        sys0 = seeded_system(2, 0, 0, seed=17)
        report = jacobian_rank(boehler_scalars(2, 0, 0), sys0)
        assert report.n_invariants == 10
        assert report.ambient_dim == 12
        assert report.rank == 9

    def test_spectral_two_tensors_two_vectors_full(self):
        sys0 = seeded_system(2, 0, 2, seed=19)
        report = jacobian_rank(build_frame, sys0)
        assert report.n_invariants == 15
        assert report.ambient_dim == 18
        assert report.rank == 15

    def test_constant_list_has_rank_zero(self):
        # a1.a1 of a unit vector is the constant 1, yet its exact column is
        # not 0: the chart's tangents at a1 are orthogonal to it only to
        # round-off (~1e-16).  The rank's round-off floor keeps that column
        # out; without it the rank reads 1
        sys0 = seeded_system(0, 0, 1, unit=True, seed=0)
        report = jacobian_rank(boehler_scalars(0, 0, 1), sys0)
        assert report.n_invariants == 1 and report.ambient_dim == 2
        assert 0.0 < report.singular_values[0] <= 1e-6 * report.threshold
        assert report.rank == 0

    @pytest.mark.parametrize("fn", [
        lambda s: np.array([np.trace(s.sym[0])]),
        boehler_scalars(1, 0, 0).evaluate,
        lambda s: extract_invariants(s, build_frame(s)).values(),
        lambda s: None,
    ], ids=["lambda", "other-basis-method", "values-callable", "no-frame"])
    def test_other_callable_rejected(self, fn):
        # a rank has two exact routes, a frame builder's and a classical
        # basis's; a values callable, a basis's method and a callable that
        # builds no frame are refused
        with pytest.raises(TypeError, match="frame builder .* or a classical scalar basis"):
            jacobian_rank(fn, seeded_system(1, 0, 0, seed=0))

    @pytest.mark.parametrize("skew,fn", [
        (False, build_frame), (False, build_svd_frame), (True, boehler_scalars(1, 1, 1)),
    ], ids=["False-values0", "False-values1", "True-evaluate"])
    def test_power_of_two_scaling_leaves_report(self, skew, fn):
        # every list is homogeneous in each argument: the report at a system
        # whose arguments are scaled by powers of two is the same, bit for bit
        sys0 = seeded_system(1, 1, 1, skew=skew, seed=5)
        scaled = tensor_system(sym=[2.0 ** 80 * a for a in sys0.sym],
                               nonsym=[2.0 ** -70 * h for h in sys0.nonsym],
                               skew=[skew], vecs=[2.0 ** 300 * x for x in sys0.vecs])
        assert jacobian_rank(fn, scaled) == jacobian_rank(fn, sys0)

    def test_degenerate_base_point_rejected(self):
        sys0 = tensor_system(sym=[np.eye(3)])
        with pytest.raises(DegenerateConfigurationError):
            jacobian_rank(build_frame, sys0)

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
                            jacobian_rank(build_frame, sys0)
                        continue
                    report = jacobian_rank(build_frame, sys0)
                    if n == 0 and m >= 1:
                        expected = count - 3
                    else:
                        expected = count
                    assert report.rank == expected, (n, m, p, skew, unit, report)

    @pytest.mark.parametrize("n,m,p,skew,items,rank", [
        (1, 0, 0, False, 3, 3), (2, 0, 2, False, 28, 15), (1, 1, 0, True, 7, 6),
    ], ids=["N1", "N2P2", "N1M1-skew"])
    def test_classical_rank_equals_spectral(self, n, m, p, skew, items, rank):
        # the classical list spans the orbit space the spectral list counts
        sys0 = seeded_system(n, m, p, skew=skew, seed=3)
        basis = boehler_scalars(n, m, p)
        assert len(basis) == items
        assert jacobian_rank(basis, sys0).rank == rank
        assert jacobian_rank(build_frame, sys0).rank == rank \
            == irreducible_count(n, m, p, skew_nonsym=skew)

    @pytest.mark.parametrize("sym,vecs,rank,items", [
        ([np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 5.0, 2.0])], [], 6, 10),
        ([np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 5.0, 2.0]) + 1e-6 * (1.0 - np.eye(3))],
         [], 6, 10),
        ([np.diag([3.0, 2.0, 1.0])], [[1.0, 2.0, 0.0]], 5, 6),
        ([], [[1.0, 2.0, 0.0], [0.5, -1.0, 0.0], [2.0, 0.3, 0.0]], 5, 6),
        ([np.diag([3.0, 2.0, 1.0])], [[1.0, 2.0, 0.5]], 6, 6),
    ], ids=["commuting", "near-commuting", "vector-in-a-mirror-plane", "coplanar-vectors",
            "generic-twin"])
    def test_classical_rank_off_the_generic_set(self, sym, vecs, rank, items):
        # points fixed by a pi-rotation or a reflection fold the classical
        # quotient, and the near-commuting pair's folded singular values
        # (~1e-7) fall under the threshold: the exact route reads the ranks
        # that central differences read
        sys0 = tensor_system(sym=sym, vecs=vecs)
        report = jacobian_rank(boehler_scalars(*sys0.shape()), sys0)
        assert (report.rank, report.n_invariants) == (rank, items)

    def test_general_nonsym_spectral_rank(self):
        sys0 = seeded_system(1, 1, 0, seed=3)
        assert jacobian_rank(build_frame, sys0).rank == 12 \
            == irreducible_count(1, 1, 0)

    def test_svd_variant_rank(self):
        sys0 = seeded_system(1, 1, 1, seed=23)
        report = jacobian_rank(build_svd_frame, sys0)
        assert report.rank == irreducible_count(1, 1, 1, svd_variant=True)

    def test_svd_variant_judges_its_own_source(self):
        # the SVD frame is generic although the symmetric tensor is the
        # identity; the check judged A1 and refused
        rng = np.random.default_rng(5)
        sys0 = tensor_system(sym=[np.eye(3)], nonsym=[rng.standard_normal((3, 3))],
                             vecs=[rng.standard_normal(3)])
        report = jacobian_rank(build_svd_frame, sys0)
        assert report.rank == 15 == irreducible_count(1, 1, 1, svd_variant=True)

    def test_svd_variant_coalescent_source_rejected(self):
        # singular values (2, 2, 1) with a generic A1: the check judged A1,
        # passed, and the FD Jacobian returned an arbitrary rank
        rng = np.random.default_rng(5)
        h = haar_rotation(rng) @ np.diag([2.0, 2.0, 1.0]) @ haar_rotation(rng).T
        a = rng.standard_normal((3, 3))
        sys0 = tensor_system(sym=[0.5 * (a + a.T)], nonsym=[h])
        with pytest.raises(DegenerateConfigurationError,
                           match=r"^the svd frame's source values 1 and 2 coalesce \(gap "):
            jacobian_rank(build_svd_frame, sys0)

    @pytest.mark.parametrize("g,refused", [(1e-7, True), (1e-5, False)])
    def test_rank_and_gradient_share_one_coalescence_rule(self, g, refused):
        # eigenvalues (3, 1 + g, 1): the rank check and the symmetric
        # gradient refuse the same pair at the same relative gap
        rng = np.random.default_rng(61)
        q = haar_rotation(rng)
        sys0 = tensor_system(sym=[q @ np.diag([3.0, 1.0 + g, 1.0]) @ q.T],
                             vecs=[rng.standard_normal(3)])
        calls = (lambda: jacobian_rank(build_frame, sys0),
                 lambda: grad_sym_tensor(lambda s: float(np.trace(s.sym[0])), sys0))
        for call in calls:
            if refused:
                with pytest.raises(DegenerateConfigurationError,
                                   match=r"values 2 and 3 coalesce \(gap .* <= .*\)$"):
                    call()
            else:
                call()
        assert not build_frame(sys0).is_degenerate  # the frames' grouping is finer

    def test_gram_general_rank(self):
        sys0 = seeded_system(0, 2, 1, seed=29)
        report = jacobian_rank(build_frame, sys0)
        assert report.n_invariants == 21
        assert report.rank == 18  # ambient 21 minus the rotation orbit


# ---------------------------------------------------------------------------
# exact columns (in the fixed frame, or forward mode through the classical
# program) against the central-difference Jacobian


def _unit_dyads(pairs, mirror):
    out = []
    for i, j in pairs:
        d = np.zeros((3, 3))
        d[i, j] = 1.0
        if mirror and i != j:
            d[j, i] = mirror
        out.append(d)
    return out


def _fd_oracle(values, system0, h=1e-6):
    """Central differences of the whole list along the chart directions,
    built here without the codec: the unit symmetric, skew and full dyads in
    slot order, the axes, and the completion tangents of a unit vector."""
    moves = [("sym", r, d) for r in range(system0.n_sym)
             for d in _unit_dyads(_SYM_PAIRS, 1.0)]
    for t, skew in enumerate(system0.nonsym_skew):
        pairs = _OFF_PAIRS if skew else list(itertools.product(range(3), repeat=2))
        moves += [("nonsym", t, d) for d in _unit_dyads(pairs, -1.0 if skew else None)]
    for k, (x, unit) in enumerate(zip(system0.vecs, system0.vec_unit)):
        moves += [("vecs", k, d) for d in (frame_completion(x) if unit else np.eye(3))]

    def at(cls, index, step):
        args = {"sym": list(system0.sym), "nonsym": list(system0.nonsym),
                "vecs": list(system0.vecs)}
        x = args[cls][index] + step
        if cls == "vecs" and system0.vec_unit[index]:
            x = x / np.linalg.norm(x)
        args[cls][index] = x
        return values(tensor_system(sym=args["sym"], nonsym=args["nonsym"],
                                    skew=system0.nonsym_skew, vecs=args["vecs"],
                                    unit=system0.vec_unit))

    return np.transpose([(at(c, i, h * d) - at(c, i, -h * d)) / (2.0 * h)
                         for c, i, d in moves])


def _column_gaps(jac, fd):
    """Largest relative gap between an exactly written column and the
    oracle's, and the largest gap anywhere against the oracle's scale.  A
    column the oracle reads as round-off (each of an N0M0P1-unit list,
    whose one scalar item is the constant ``|a|^2 = 1``) has no relative
    gap; the second number still covers it, and an empty list has none."""
    norms = np.linalg.norm(fd, axis=0)
    exact = [k for k in range(jac.shape[1]) if norms[k] > analysis._ROUND_OFF]
    gaps = np.linalg.norm(jac[:, exact] - fd[:, exact], axis=0) / norms[exact]
    return (gaps.max() if exact else 0.0,
            np.abs(jac - fd).max(initial=0.0) / (1.0 + np.abs(fd).max(initial=0.0)))


def _exact_column_gap(system0, svd=False):
    build = build_svd_frame if svd else build_frame
    jac, _ = _jacobian(build, system0)
    return _column_gaps(jac, _fd_oracle(lambda s: extract_invariants(s, build(s)).values(),
                                        system0))


def _classical_column_gap(basis, system0):
    # of every entry of every item, a vector's or a tensor's flattened
    jet = analysis._forward(basis, system0)
    jac = jet[1:].reshape(len(jet) - 1, -1).T
    return _column_gaps(jac, _fd_oracle(lambda s: np.ravel(basis.evaluate(s)), system0))


def _classical_cases():
    # every default-sweep configuration a classical list covers: no
    # general tensor
    return [(n, m, p, skew, unit) for n, m, p, skew, unit in _rank_configs()
            if skew or not m]


def _sweep_cases():
    # every default-sweep configuration with a generic frame, and its SVD
    # variant where a general tensor can carry one
    for n, m, p, skew, unit in _rank_configs():
        if n == 0 and m >= 1 and skew:
            continue
        yield n, m, p, skew, unit, False
        if m and not skew:
            yield n, m, p, skew, unit, True


class TestExactColumns:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_match_central_differences(self, seed):
        # every column, the frame sources' included (the sym, gram and SVD
        # tensors and N0M0P1-3, free and unit), against the oracle
        checked = 0
        for n, m, p, skew, unit, svd in _sweep_cases():
            sys0 = seeded_system(n, m, p, skew=skew, unit=unit, seed=seed)
            exact_gap, gap = _exact_column_gap(sys0, svd)
            assert exact_gap <= 1e-7, (n, m, p, skew, unit, svd, exact_gap)
            assert gap <= 1e-7, (n, m, p, skew, unit, svd, gap)
            checked += 1
        assert checked == 48  # 34 configurations, 14 of them also in SVD frames

    @pytest.mark.parametrize("seed", [0, 7])
    def test_classical_match_central_differences(self, seed):
        # every forward-mode column of the Boehler, Smith-vector and
        # Smith-tensor programs (the Smith lists alone run outer, sym and I)
        checked = 0
        for n, m, p, skew, unit in _classical_cases():
            sys0 = seeded_system(n, m, p, skew=skew, unit=unit, seed=seed)
            for make in (boehler_scalars, smith_vectors, smith_sym_tensors):
                exact_gap, gap = _classical_column_gap(make(n, m, p), sys0)
                assert exact_gap <= 1e-7, (make.__name__, n, m, p, skew, unit, exact_gap)
                assert gap <= 1e-7, (make.__name__, n, m, p, skew, unit, gap)
                checked += 1
        assert checked == 3 * 29  # 29 configurations, every skew flag set

    def test_classical_jet_row_zero_is_the_values(self):
        # row 0 of a jet is the basis on the system itself, bit for bit
        sys0 = seeded_system(2, 1, 2, skew=True, seed=0)
        for make in (boehler_scalars, smith_vectors, smith_sym_tensors):
            basis = make(2, 1, 2)
            assert np.array_equal(analysis._forward(basis, sys0)[0],
                                  basis.evaluate(sys0))

    def test_dropped_product_term_is_caught(self, monkeypatch):
        # a forward pass without f(x0, dy) moves only each product's left factor
        old = "fn(x[1:], y[:1]) + fn(x[:1], y[1:])"
        source = inspect.getsource(classical_bases._Program)
        assert source.count(old) == 1
        scope = dict(vars(classical_bases))
        exec(source.replace(old, "fn(x[1:], y[:1])"), scope)
        monkeypatch.setattr(classical_bases._Program, "__call__", scope["_Program"].__call__)
        for make, shape in ((boehler_scalars, (1, 1, 1)), (smith_vectors, (2, 0, 1)),
                            (smith_sym_tensors, (0, 0, 2))):
            sys0 = seeded_system(*shape, skew=True, seed=0)
            assert _classical_column_gap(make(*shape), sys0)[0] > 1e-2, make.__name__

    def test_dropped_mirror_is_caught(self, monkeypatch):
        # a symmetric dyad without its mirror entry moves only the upper
        # component of a non-source tensor; the oracle moves both
        sys0 = seeded_system(1, 1, 1, seed=0)
        assert _exact_column_gap(sys0, svd=True)[0] <= 1e-7
        dyads = _SYM.dyads.copy()
        dyads[1, 3] = 0.0  # slot (0, 1) loses its (1, 0) entry
        monkeypatch.setattr(_SYM, "dyads", dyads)
        assert _exact_column_gap(sys0, svd=True)[0] > 1e-2

    @pytest.mark.parametrize("fn,old,new,cases", [
        ("_tangent", "dv @ x @ r.T + v @ x @ dr.swapaxes(1, 2)", "dv @ x @ r.T",
         (((2, 0, 1), False), ((0, 2, 1), False), ((1, 1, 1), True))),
        ("_motion", "q[:, None] - q", "q - q[:, None]",
         (((2, 0, 1), False), ((0, 2, 1), False), ((1, 1, 1), True))),
        ("_motion", "h @ dxs.swapaxes(1, 2)", "h @ dxs", (((0, 2, 1), False),)),
        ("_motion", "(omega - omega.swapaxes(1, 2)) @ v",
         "(omega - omega.swapaxes(1, 2)) @ v * [[1.0], [0.0], [1.0]]",
         (((0, 0, 2), False), ((0, 0, 3), False))),
        ("_motion", "(omega - omega.swapaxes(1, 2)) @ v",
         "(omega - omega.swapaxes(1, 2)) @ v * [[1.0], [1.0], [0.0]]",
         (((0, 0, 2), False), ((0, 0, 3), False))),
        ("_motion", "(s * p + s[:, None] * p.swapaxes(1, 2)) / gap @ v",
         "(s[:, None] * p + s * p.swapaxes(1, 2)) / gap @ v",
         (((1, 1, 1), True), ((0, 2, 1), True))),
        ("_motion", "(du * v).sum(2) + (u * dv).sum(2)", "(u * dv).sum(2)",
         (((1, 1, 1), True), ((0, 2, 0), True))),
        ("_tangent", "v @ x @ dr.swapaxes(1, 2)", "v @ x @ dv.swapaxes(1, 2)",
         (((1, 1, 1), True), ((0, 2, 1), True))),
    ], ids=["dropped-omega-term", "flipped-gap-sign", "dropped-gram-transpose",
            "dropped-dv2", "dropped-dv3", "swapped-svd-weights", "dropped-du-head",
            "dv-for-du"])
    def test_tangent_mutations_are_caught(self, monkeypatch, fn, old, new, cases):
        # the oracle rejects a tangent that drops the X dr^T term of a coded
        # tensor or turns the frame the wrong way, in a sym, a gram and an SVD
        # frame, one that moves a gram source by dH H^T + H dH, not
        # + H dH^T, one that holds a vector frame's completion v_2 or v_3
        # still, and one that weighs A's terms by B's singular values, drops
        # du_i . v_i from an SVD head or moves a mixed code's u by dv
        source = inspect.getsource(getattr(spectral_frame, fn))
        assert source.count(old) == 1
        scope = dict(vars(spectral_frame))
        exec(source.replace(old, new), scope)
        monkeypatch.setattr(spectral_frame, fn, scope[fn])
        monkeypatch.setattr(analysis, "_tangent", scope["_tangent"])
        for shape, svd in cases:
            assert _exact_column_gap(seeded_system(*shape, seed=0), svd)[0] > 1e-2

    @pytest.mark.parametrize("seed", [0, 7])
    def test_block_call_matches_one_direction_calls(self, seed):
        # a block's stacked pass gives the columns of one call per direction;
        # batched matmul may round differently by stack size, hence no bit
        # equality
        checked = 0
        for n, m, p, skew, unit, svd in _sweep_cases():
            sys0 = analysis._unit_scaled(seeded_system(n, m, p, skew=skew, unit=unit,
                                                       seed=seed))
            frame = (build_svd_frame if svd else build_frame)(sys0)
            for cls, index, x, _, dirs in analysis._chart_blocks(sys0):
                dxs = dirs.reshape(-1, *x.shape)
                block = spectral_frame._tangent(sys0, frame, [(cls, index, dxs)])
                single = spectral_frame._tangent(
                    sys0, frame, [(cls, index, dxs[k:k + 1]) for k in range(len(dxs))])
                assert block.shape == (len(extract_invariants(sys0, frame).entries),
                                       len(dxs))
                # per column, against its largest entry; a zero column (the
                # N0M0P1-unit list's constant head) must stay exactly zero
                scale = np.abs(single).max(axis=0)
                assert (np.abs(block - single).max(axis=0) <= 1e-14 * scale).all(), \
                    (n, m, p, skew, unit, svd, cls, index)
                checked += 1
        assert checked == 120  # chart blocks, the SVD sources included

    @pytest.mark.parametrize("shape,svd,calls", [
        ((2, 0, 1), False, 1),
        ((1, 1, 1), False, 1),
        ((0, 2, 1), False, 1),
        ((0, 0, 3), False, 1),
        ((1, 1, 1), True, 1),
    ], ids=["N2P1", "N1M1P1", "N0M2P1", "N0M0P3", "N1M1P1-svd"])
    def test_one_tangent_call_per_exact_block(self, monkeypatch, shape, svd, calls):
        # one _tangent call writes every column of a spectral list, whatever
        # its frame kind
        seen = []
        original = analysis._tangent
        monkeypatch.setattr(analysis, "_tangent",
                            lambda *args: seen.append(args) or original(*args))
        jacobian_rank(build_svd_frame if svd else build_frame, seeded_system(*shape, seed=0))
        assert len(seen) == calls

    @pytest.mark.parametrize("seed", [0, 7])
    def test_exact_rank_margins(self, seed):
        # with every column exact, a sym, gram or vector list's dropped
        # singular values are round-off and its kept ones stand far above the
        # threshold (the N0M0P1-unit list keeps none)
        checked = 0
        for n, m, p, skew, unit in _rank_configs():
            if n == 0 and m >= 1 and skew:
                continue  # the skew-only gram frames the sweep skips
            for point in range(3):
                sys0 = seeded_system(n, m, p, skew=skew, unit=unit, seed=seed + 1000 * point)
                rep = jacobian_rank(build_frame, sys0)
                sv, r = rep.singular_values, rep.rank
                assert r == 0 or sv[r - 1] >= 1e3 * rep.threshold, (n, m, p, skew, unit,
                                                                    point)
                assert max(sv[r:], default=0.0) <= 1e-6 * rep.threshold, (n, m, p, skew,
                                                                           unit, point)
                checked += 1
        assert checked == 3 * 34

    @pytest.mark.parametrize("seed", [0, 7])
    def test_exact_svd_rank_margins(self, seed):
        # the SVD lists of every sweep configuration with a general tensor,
        # now that the source's columns are exact too: each reaches its count,
        # with the same margins
        checked = 0
        for n, m, p, skew, unit in _rank_configs():
            if not m or skew:
                continue
            for point in range(3):
                sys0 = seeded_system(n, m, p, unit=unit, seed=seed + 1000 * point)
                rep = jacobian_rank(build_svd_frame, sys0)
                sv, r = rep.singular_values, rep.rank
                assert r == irreducible_count(n, m, p, all_vectors_unit=unit,
                                              svd_variant=True), (n, m, p, unit, point)
                assert sv[r - 1] >= 1e3 * rep.threshold, (n, m, p, unit, point)
                assert max(sv[r:], default=0.0) <= 1e-6 * rep.threshold, (n, m, p, unit,
                                                                           point)
                checked += 1
        assert checked == 3 * 14

    @pytest.mark.parametrize("shape,skew,unit,builder,calls", [
        ((2, 0, 1), False, False, build_frame, 1),
        ((1, 1, 1), True, False, build_frame, 1),
        ((0, 2, 1), False, False, build_frame, 1),
        ((1, 1, 1), False, False, build_svd_frame, 1),
        ((0, 0, 2), False, False, build_frame, 1),
        ((0, 0, 2), False, True, build_frame, 1),
    ], ids=["sym", "sym-skew", "gram", "svd", "vector", "unit-vector"])
    def test_frame_built_through_source_only(self, shape, skew, unit, builder, calls):
        # the list's builder runs once, on the base system, whatever moves
        seen = []
        sys0 = seeded_system(*shape, skew=skew, unit=unit, seed=0)
        jacobian_rank(lambda s: seen.append(s) or builder(s), sys0)
        assert len(seen) == calls


def test_report_rejects_a_duplicate_claim_id():
    # by a set of the ids seen, those of claims given at construction included
    report = analysis.VerificationReport("rank", 0, 100)
    report.check("rank/a", "first", 1.0, 1.0)
    report.check("rank/b", "second", 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^duplicate claim id 'rank/a'$"):
        report.check("rank/a", "again", 1.0, 1.0)
    assert [c.claim_id for c in report.claims] == ["rank/a", "rank/b"]
    given = analysis.VerificationReport("rank", 0, 100, claims=list(report.claims))
    with pytest.raises(ValueError, match=r"^duplicate claim id 'rank/b'$"):
        given.add(report.claims[1])


def test_claim_record_is_every_field_in_order():
    # the report's claim record names every field of ``Claim``, the id first
    report = analysis.VerificationReport("rank", 7, 100)
    report.check("rank/a", "at most", 2, 1.0)
    report.check("rank/b", "at least", 2, 1.0, comparator="ge")
    with pytest.raises(ValueError, match=r"^unknown comparator 'lt'$"):
        report.check("rank/c", "bogus", 2, 1.0, comparator="lt")
    names = [f.name for f in dataclasses.fields(analysis.Claim)]
    assert [list(c.to_dict()) for c in report.claims] == [["id"] + names[1:]] * 2
    assert [c.to_dict() for c in report.claims] == [
        {"id": "rank/a", "description": "at most", "status": "fail", "value": 2.0,
         "tolerance": 1.0, "comparator": "le", "seed": 7},
        {"id": "rank/b", "description": "at least", "status": "pass", "value": 2.0,
         "tolerance": 1.0, "comparator": "ge", "seed": 7}]
    assert type(report.claims[0].value) is float


@pytest.mark.parametrize("seed", [0, 7, 1003])
def test_seeded_system_is_the_validated_draw(seed):
    # built without a check, a seeded system is bit for bit what
    # tensor_system makes of the same draws
    for n, m, p, skew, unit in _rank_configs():
        rng = np.random.default_rng(np.random.SeedSequence([seed, n, m, p, int(skew),
                                                            int(unit)]))
        sym = [0.5 * (a + a.T) for a in rng.standard_normal((n, 3, 3))]
        nonsym = [0.5 * (h - h.T) if skew else h for h in rng.standard_normal((m, 3, 3))]
        vecs = [x / np.linalg.norm(x) if unit else x for x in rng.standard_normal((p, 3))]
        want = tensor_system(sym=sym, nonsym=nonsym, skew=[skew] * m, vecs=vecs,
                             unit=[unit] * p)
        got = seeded_system(n, m, p, skew=skew, unit=unit, seed=seed)
        assert (got.nonsym_skew, got.vec_unit) == (want.nonsym_skew, want.vec_unit)
        for x, y in zip(got.sym + got.nonsym + got.vecs, want.sym + want.nonsym + want.vecs,
                        strict=True):
            assert x.tobytes() == y.tobytes() and not x.flags.writeable
