"""Results do not depend on the caller's units.

Every cut-off is judged against the size of what it judges (``lin3._thr``),
so scaling every argument by ``c`` in 10^[-150, 150] scales each spectral
value by ``c`` to the power of its degree and changes nothing else: the
groups, the triads, the gauge signs and rotation invariance hold at every
scale.  The property tests draw ``c`` with ``hypothesis`` (derandomized, so
every run draws the same examples); the regression tests pin the examples
that failed when the cut-offs were ``tol * (1 + size)``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isotropykit.analysis import seeded_system
from isotropykit.cli import main
from isotropykit.lin3 import (
    TensorSystem,
    conjugate,
    eig_sym,
    haar_rotation,
    skew_matrix,
    sym_matrix,
    tensor_system,
)
from isotropykit.potentials import grad_nonsym_tensor, grad_sym_tensor, grad_vector
from isotropykit.spectral_frame import (
    build_frame,
    build_svd_frame,
    extract_invariants,
    rebuild_system,
)

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None, database=None)
EXPONENTS = st.floats(-150.0, 150.0)
SEEDS = st.integers(0, 2 ** 32 - 1)


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _spectral(spectrum):
    q = _rotation(np.random.default_rng(0))
    m = (q * spectrum) @ q.T
    return 0.5 * (m + m.T)


SYM_CASES = {"generic": _spectral([3.0, 2.0, 1.0]), "double": _spectral([2.0, 2.0, -1.0]),
             "triple": _spectral([1.5, 1.5, 1.5]), "seeded": seeded_system(1, 0, 0).sym[0]}

# (frame builder, system) of every frame whose list is rotation invariant: the
# sym frame, the gram and SVD frames of a general tensor and the one-vector
# frame (vector-only lists with P >= 2 are not, ROADMAP item 9, and a skew
# SVD source is coalescent by construction)
INVARIANT_FRAMES = {
    "sym": (build_frame, seeded_system(2, 1, 2, skew=True)),
    "gram": (build_frame, seeded_system(0, 1, 1)),
    "svd": (build_svd_frame, seeded_system(1, 1, 1)),
    "vector": (build_frame, seeded_system(0, 0, 1)),
}
FRAMES = {**INVARIANT_FRAMES, "vectors": (build_frame, seeded_system(0, 0, 2))}


def _scaled(system: TensorSystem, c: float) -> TensorSystem:
    return tensor_system(sym=[c * x for x in system.sym], nonsym=[c * x for x in system.nonsym],
                         skew=system.nonsym_skew, vecs=[c * x for x in system.vecs],
                         unit=system.vec_unit)


def _unit_values(build, system, c):
    # the spectral list of ``system``, each value divided by c to its degree:
    # 2 for a vector frame's lam, 0 for the SVD signs u_i.v_i, 1 otherwise
    inv = extract_invariants(system, build(system))
    degree = [2 if label == "lam" else 0 if "." in label else 1 for label in inv.labels()]
    return inv.values() / np.float_power(c, degree)


@PROPERTY
@given(case=st.sampled_from(sorted(SYM_CASES)), k=EXPONENTS)
def test_eig_sym_is_scale_equivariant(case, k):
    c = 10.0 ** k
    a = SYM_CASES[case]
    lams, v, groups = eig_sym(a)
    lams_c, v_c, groups_c = eig_sym(c * a)
    assert groups_c == groups
    assert np.abs(lams_c / c - lams).max() <= 1e-14 * np.abs(lams).max()
    if len(groups) == 3:
        assert np.abs(v_c - v).max() <= 1e-13


@PROPERTY
@given(kind=st.sampled_from(sorted(FRAMES)), k=EXPONENTS)
def test_invariants_are_homogeneous(kind, k):
    build, system = FRAMES[kind]
    c = 10.0 ** k
    want = _unit_values(build, system, 1.0)
    got = _unit_values(build, _scaled(system, c), c)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@PROPERTY
@given(kind=st.sampled_from(sorted(INVARIANT_FRAMES)), k=EXPONENTS, seed=SEEDS)
def test_rotation_invariance_at_every_scale(kind, k, seed):
    build, system = INVARIANT_FRAMES[kind]
    c = 10.0 ** k
    system = _scaled(system, c)
    q = haar_rotation(np.random.default_rng(seed))
    want = _unit_values(build, system, c)
    got = _unit_values(build, conjugate(q, system), c)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@PROPERTY
@given(kind=st.sampled_from(sorted(FRAMES)), k=EXPONENTS)
def test_reconstruction_residual_is_relative(kind, k):
    build, system = FRAMES[kind]
    system = _scaled(system, 10.0 ** k)
    frame = build(system)
    back = rebuild_system(extract_invariants(system, frame), frame)
    for x, y in zip(system.sym + system.nonsym + system.vecs,
                    back.sym + back.nonsym + back.vecs):
        assert np.linalg.norm(x - y) <= 1e-14 * np.linalg.norm(x)


# ---------------------------------------------------------------------------
# regression examples


def test_small_generic_tensor_is_not_a_triple_eigenvalue():
    assert eig_sym(1e-10 * SYM_CASES["seeded"])[2] == ((0,), (1,), (2,))


@pytest.mark.parametrize("c", [1e-9, 1e-6, 1e12])
def test_seeded_system_is_rotation_invariant(c):
    # at 1e-9 the list moved by 0.69 (relative) under rotation
    system = _scaled(seeded_system(1, 0, 1), c)
    rng = np.random.default_rng(0)
    want = _unit_values(build_frame, system, c)
    for _ in range(10):
        got = _unit_values(build_frame, conjugate(haar_rotation(rng), system), c)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _verify_input(tmp_path, suite, sym, vecs):
    path, report = tmp_path / "sys.json", tmp_path / "report.json"
    path.write_text(json.dumps({"version": 1, "sym": [np.asarray(a).tolist() for a in sym],
                                "vecs": [{"v": np.asarray(x).tolist()} for x in vecs]}))
    code = main(["verify", suite, "--input", str(path), "--json", str(report)])
    return code, {c["id"]: c for c in json.loads(report.read_text())["claims"]}


def test_small_input_keeps_its_spectral_claims(tmp_path, capsys):
    # a generic 1e-9 system was grouped as a triple eigenvalue, which
    # skipped its six spectral claims (17 claims instead of 23)
    system = _scaled(seeded_system(1, 0, 1), 1e-9)
    code, claims = _verify_input(tmp_path, "isotropy", system.sym, system.vecs)
    assert code == 0 and len(claims) == 23
    assert sum(cid.startswith("isotropy/spectral/") for cid in claims) == 6


SYM_1E200 = [[3e200, 1e200, 0.0], [1e200, 2e200, 0.0], [0.0, 0.0, -1e200]]
VEC_1E200 = [1e200, 2e200, -1e200]


def test_isotropy_near_the_double_range(tmp_path, capsys):
    # The spectral and negative-control claims are finite and pass (they
    # read nan when the harness normalized through squares that overflow).
    # Classical items of degree two or more overflow at this size themselves
    # and stay out of scope; so do the warnings numpy prints for them and for
    # lin3._norm's handled squares.
    with pytest.warns(RuntimeWarning):
        _, claims = _verify_input(tmp_path, "isotropy", [SYM_1E200], [VEC_1E200])
    checked = [c for cid, c in claims.items()
               if cid.startswith(("isotropy/spectral/", "isotropy/negative-control/"))]
    assert len(checked) == 8
    assert all(np.isfinite(c["value"]) and c["status"] == "pass" for c in checked)


def test_reconstruction_near_the_double_range(tmp_path, capsys):
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, claims = _verify_input(tmp_path, "reconstruction", [SYM_1E200], [VEC_1E200])
    assert code == 0
    for k in (0, 1):
        claim = claims[f"reconstruction/input-N1M0P1/arg{k}"]
        assert np.isfinite(claim["value"]) and claim["status"] == "pass"


def test_mirror_checks_are_relative():
    # a 1e-3-sized tensor with a 5e-13 asymmetry is 5e-10 asymmetric
    a = 1e-3 * SYM_CASES["generic"]
    a[0, 1] += 5e-13
    with pytest.raises(ValueError, match="^matrix is not symmetric$"):
        sym_matrix(a)
    w = 1e-3 * np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5], [2.0, -0.5, 0.0]])
    w[1, 0] += 5e-13
    with pytest.raises(ValueError, match="^matrix is not skew-symmetric$"):
        skew_matrix(w)
    # the same relative defect passes at every scale
    for c in (1e-300, 1e-3, 1.0, 1e300):
        a = c * SYM_CASES["generic"]
        a[0, 1] *= 1.0 + 1e-13
        assert np.array_equal(sym_matrix(a), sym_matrix(a).T)
    assert not sym_matrix(np.zeros((3, 3))).any()


# ---------------------------------------------------------------------------
# spectral gradients without partials: the fallback's rotation steps are
# radians and its value steps are relative, so it is as accurate at every scale


GRAD_SCALES = [1e-8, 1e-4, 1.0, 1e5, 1e8]
K = np.array([0.5, -1.0, 2.0])
B = seeded_system(0, 1, 0, seed=5).nonsym[0]
B_SYM = 0.5 * (B + B.T)
Q1, Q2 = (_rotation(np.random.default_rng(s)) for s in (1, 2))


def _rel(g, ref):
    return np.linalg.norm(g - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("c", GRAD_SCALES)
def test_grad_vector_of_a_linear_function(c):
    # at |a| = 1e5 this was off by 11 %
    system = tensor_system(vecs=[c * np.array([1.0, 2.0, -2.0])])
    assert _rel(grad_vector(lambda s: float(K @ s.vecs[0]), system), K) <= 1e-9


@pytest.mark.parametrize("c", GRAD_SCALES)
def test_grad_sym_tensor_of_a_linear_function(c):
    # at 1e5 this was off by 67 %, and at 1e-8 the gap check raised
    system = tensor_system(sym=[c * (Q1 * [3.0, 2.0, 1.0]) @ Q1.T])
    g = grad_sym_tensor(lambda s: float(np.trace(s.sym[0] @ B_SYM)), system)
    assert _rel(g, B_SYM) <= 1e-9


@pytest.mark.parametrize("c", GRAD_SCALES)
def test_grad_nonsym_tensor_of_a_linear_function(c):
    system = tensor_system(nonsym=[c * (Q1 * [3.0, 2.0, 1.0]) @ Q2.T])
    g = grad_nonsym_tensor(lambda s: float(np.sum(s.nonsym[0] * B)), system)
    assert _rel(g, B) <= 1e-9

