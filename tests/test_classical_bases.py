"""Classical basis enumeration: counts, values, isotropy/equivariance."""

import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from isotropykit.lin3 import _stack, conjugate, haar_rotation, tensor_system
from isotropykit.classical_bases import (
    _Program,
    boehler_scalars,
    smith_sym_tensors,
    smith_vectors,
)


def random_system(rng, n_sym, n_skew, n_vec):
    sym = [0.5 * (m + m.T) for m in rng.standard_normal((n_sym, 3, 3))]
    skw = [0.5 * (m - m.T) for m in rng.standard_normal((n_skew, 3, 3))]
    vecs = list(rng.standard_normal((n_vec, 3)))
    return tensor_system(sym=sym, nonsym=skw, skew=[True] * n_skew, vecs=vecs)


class TestScalarEnumeration:
    def test_one_tensor_one_vector(self):
        basis = boehler_scalars(1, 0, 1)
        assert basis.labels() == (
            "a1.a1", "tr(A1)", "tr(A1^2)", "tr(A1^3)", "a1.A1.a1", "a1.A1^2.a1",
        )

    def test_diagonal_traces(self):
        basis = boehler_scalars(1, 0, 0)
        sys0 = tensor_system(sym=[np.diag([2.0, 1.0, 0.0])])
        np.testing.assert_allclose(basis.evaluate(sys0), [3.0, 5.0, 9.0], atol=0)

    def test_two_tensor_count_includes_cross_trace(self):
        basis = boehler_scalars(2, 0, 0)
        assert len(basis) == 10
        assert "tr(A1*A2)" in basis.labels()

    def test_two_tensor_two_vector_count(self):
        # enumeration of the implemented list; the literature quotes 37 for
        # this configuration without itemizing it
        assert len(boehler_scalars(2, 0, 2)) == 28

    def test_skew_block_count_single(self):
        # one symmetric + one skew tensor: traces of A plus the mixed items
        basis = boehler_scalars(1, 1, 0)
        assert basis.labels() == (
            "tr(A1)", "tr(A1^2)", "tr(A1^3)", "tr(W1^2)",
            "tr(A1*W1^2)", "tr(A1^2*W1^2)", "tr(A1^2*W1^2*A1*W1)",
        )

    def test_labels_unique_large_config(self):
        basis = boehler_scalars(3, 3, 3)
        assert len(set(basis.labels())) == len(basis)

    def test_isotropy(self):
        rng = np.random.default_rng(127)
        basis = boehler_scalars(2, 1, 2)
        sys0 = random_system(rng, 2, 1, 2)
        base = basis.evaluate(sys0)
        for _ in range(50):
            rot = basis.evaluate(conjugate(haar_rotation(rng), sys0))
            assert np.max(np.abs(rot - base) / (1.0 + np.abs(base))) <= 1e-9

    def test_shape_mismatch_rejected(self):
        basis = boehler_scalars(1, 0, 0)
        with pytest.raises(ValueError):
            basis.evaluate(tensor_system(sym=[np.eye(3)], vecs=[[1.0, 0, 0]]))


class TestVectorEnumeration:
    def test_one_tensor_one_vector(self):
        basis = smith_vectors(1, 0, 1)
        assert basis.labels() == ("a1", "A1.a1", "A1^2.a1")

    def test_matrix_action(self):
        basis = smith_vectors(1, 0, 1)
        sys0 = tensor_system(sym=[np.diag([2.0, 1.0, 0.0])], vecs=[[1.0, 1.0, 1.0]])
        vals = basis.evaluate(sys0)
        np.testing.assert_allclose(vals[1], [2.0, 1.0, 0.0], atol=0)

    def test_two_tensor_two_vector_count(self):
        assert len(smith_vectors(2, 0, 2)) == 12

    def test_equivariance(self):
        rng = np.random.default_rng(131)
        basis = smith_vectors(2, 1, 2)
        sys0 = random_system(rng, 2, 1, 2)
        base = basis.evaluate(sys0)
        for _ in range(50):
            q = haar_rotation(rng)
            rot = basis.evaluate(conjugate(q, sys0))
            for g0, g1 in zip(base, rot):
                assert np.linalg.norm(g1 - q @ g0) <= 1e-9 * (1.0 + np.linalg.norm(g0))


class TestTensorEnumeration:
    def test_single_tensor_generators(self):
        basis = smith_sym_tensors(1, 0, 0)
        assert basis.labels() == ("I", "A1", "A1^2")

    def test_two_tensor_two_vector_count(self):
        # enumeration of the implemented list; the literature quotes 36
        assert len(smith_sym_tensors(2, 0, 2)) == 21

    def test_every_generator_exactly_symmetric(self):
        rng = np.random.default_rng(137)
        basis = smith_sym_tensors(2, 1, 2)
        sys0 = random_system(rng, 2, 1, 2)
        for t in basis.evaluate(sys0):
            assert np.array_equal(t, t.T)

    def test_equivariance(self):
        rng = np.random.default_rng(139)
        basis = smith_sym_tensors(1, 1, 1)
        sys0 = random_system(rng, 1, 1, 1)
        base = basis.evaluate(sys0)
        for _ in range(50):
            q = haar_rotation(rng)
            rot = basis.evaluate(conjugate(q, sys0))
            for g0, g1 in zip(base, rot):
                scale = 1.0 + np.linalg.norm(g0)
                assert np.linalg.norm(g1 - q @ g0 @ q.T) <= 1e-9 * scale


# the three (3,3,3) lists with their values on one seeded system (3 symmetric,
# 3 skew tensors, 3 vectors), recorded from the hand-written per-item
# evaluators that the label parser replaced
GOLDEN = json.loads((Path(__file__).parent / "data" / "classical_3_3_3.json").read_text())
BUILDERS = {"scalar": boehler_scalars, "vector": smith_vectors,
            "sym_tensor": smith_sym_tensors}
SHAPES = {"scalar": (), "vector": (3,), "sym_tensor": (3, 3)}  # of one item


class TestGoldenLists:
    def test_every_list_is_the_filtered_golden_list(self):
        for n, m, p in itertools.product(range(4), repeat=3):
            bound = {"A": n, "W": m, "a": p}
            for kind, make in BUILDERS.items():
                expected = [label for label, _ in GOLDEN[kind]
                            if all(int(k) <= bound[name]
                                   for name, k in re.findall(r"([AWa])(\d+)", label))]
                assert list(make(n, m, p).labels()) == expected, (kind, n, m, p)

    def test_values_match_golden(self):
        sys0 = tensor_system(sym=GOLDEN["system"]["sym"], nonsym=GOLDEN["system"]["skew"],
                             skew=[True] * 3, vecs=GOLDEN["system"]["vecs"])
        for kind, make in BUILDERS.items():
            basis = make(3, 3, 3)
            for got, value, (label, ref) in zip(basis.labels(), basis.evaluate(sys0),
                                                GOLDEN[kind]):
                assert got == label
                ref = np.asarray(ref)
                assert np.linalg.norm(value - ref) <= 1e-12 * np.linalg.norm(ref), label

    @pytest.mark.parametrize("label", ["tr(A1", "A1+A2", "A0", "a1.", "tr(A1))",
                                       "B1", "A1^0", "A1 A2", ""])
    def test_malformed_label_rejected(self, label):
        with pytest.raises(ValueError, match="malformed basis label"):
            _Program([label], "scalar")

    def test_function_arity_checked(self):
        with pytest.raises(TypeError):
            _Program(["comm(A1)"], "scalar")


def golden_system():
    return tensor_system(sym=GOLDEN["system"]["sym"], nonsym=GOLDEN["system"]["skew"],
                         skew=[True] * 3, vecs=GOLDEN["system"]["vecs"])


class TestStackedEvaluation:
    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_stack_rows_equal_single_systems(self, kind):
        rng = np.random.default_rng(197)
        sys0 = golden_system()
        systems = [sys0] + [conjugate(haar_rotation(rng), sys0) for _ in range(20)]
        basis = BUILDERS[kind](3, 3, 3)
        stacked = basis.evaluate(_stack(systems))
        assert stacked.shape == (21, len(basis)) + SHAPES[kind]
        for row, system in zip(stacked, systems):
            assert np.array_equal(row, basis.evaluate(system))
        # the unrotated row against the recorded values, item by item
        for value, (label, ref) in zip(stacked[0], GOLDEN[kind]):
            ref = np.asarray(ref)
            assert np.linalg.norm(value - ref) <= 1e-12 * np.linalg.norm(ref), label

    def test_single_system_keeps_its_types(self):
        # one system gives one array of its items, of every kind
        sys0 = golden_system()
        for kind, make in BUILDERS.items():
            basis = make(3, 3, 3)
            values = basis.evaluate(sys0)
            assert isinstance(values, np.ndarray)
            assert values.shape == (len(basis),) + SHAPES[kind]

    def test_empty_basis_shape(self):
        rng = np.random.default_rng(199)
        systems = [random_system(rng, 2, 0, 0) for _ in range(4)]
        basis = smith_vectors(2, 0, 0)
        assert len(basis) == 0
        assert basis.evaluate(_stack(systems)).shape == (4, 0, 3)
        values = basis.evaluate(systems[0])
        assert isinstance(values, np.ndarray) and values.shape == (0, 3)

    def test_stack_of_another_shape_rejected(self):
        # a stack is checked as one system is: by its shape and skew flags
        rng = np.random.default_rng(211)
        basis = boehler_scalars(1, 1, 1)
        good = random_system(rng, 1, 1, 1)
        general = tensor_system(sym=good.sym, nonsym=good.nonsym, skew=[False],
                                vecs=good.vecs)
        for bad in (random_system(rng, 1, 0, 1), general):
            with pytest.raises(ValueError):
                basis.evaluate(_stack([bad, bad]))

    def test_system_of_another_shape_rejected(self):
        # every kind of basis checks one system by its shape and skew flags
        rng = np.random.default_rng(223)
        good = random_system(rng, 1, 1, 1)
        general = tensor_system(sym=good.sym, nonsym=good.nonsym, skew=[False],
                                vecs=good.vecs)
        for make in BUILDERS.values():
            basis = make(1, 1, 1)
            basis.evaluate(good)
            for bad in (random_system(rng, 2, 1, 1), random_system(rng, 1, 0, 1), general):
                with pytest.raises(ValueError):
                    basis.evaluate(bad)

    @pytest.mark.parametrize("label,kind", [("a1-A1", "vector"), ("tr(a1)", "scalar"),
                                            ("A1xA2", "sym_tensor"), ("tr(A1)-A1", "scalar")])
    def test_rank_mismatch_rejected(self, label, kind):
        with pytest.raises(ValueError, match="malformed basis label"):
            _Program([label], kind)
