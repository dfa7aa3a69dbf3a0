"""The spectral gradients' finite-difference probes, built as one stack per
gradient, against a copy of the per-probe loops they replace.

The stacked probes must give every gradient bit for bit (``tobytes``) and
call ``W`` on the same systems, in the same order.  A ``W`` that is not
finite at a probe is a ``ValueError`` that names the gradient, and on
generated finite systems over the double range every gradient returns
finite values or raises a ``ValueError``.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isotropykit.analysis import _chart_blocks
from isotropykit.lin3 import (
    _EYE,
    _OFF_PAIRS,
    _norm,
    _require_gaps,
    _resym,
    _system,
    _thr,
    eig_sym,
    svd3,
    tensor_system,
)
from isotropykit.potentials import (
    _STEP,
    fd_grad_nonsym_tensor,
    fd_grad_sym_tensor,
    fd_grad_vector,
    grad_nonsym_tensor,
    grad_sym_tensor,
    grad_vector,
)
from isotropykit.spectral_frame import _frame_completion

# ---------------------------------------------------------------------------
# the per-probe loops: one closure call, one ``np.outer`` sum and one rotated
# copy per probe


def _with_arg(system, kind, new):
    args = {"sym": system.sym, "nonsym": system.nonsym, "vecs": system.vecs}
    args[kind] = (new,) + args[kind][1:]
    return _system(args["sym"], args["nonsym"], system.nonsym_skew, args["vecs"],
                   system.vec_unit)


def _central(f, h):
    return (f(h) - f(-h)) / (2.0 * h)


def _rotated(triad, i, j, theta):
    out = triad.copy()
    c, s = np.cos(theta), np.sin(theta)
    out[i] = c * triad[i] + s * triad[j]
    out[j] = -s * triad[i] + c * triad[j]
    return out


def ref_grad_vector(W, system):
    a, unit = system.vecs[0], system.vec_unit[0]
    lam = _norm(a)
    v1 = a / lam
    v2, v3 = _frame_completion(v1)

    def w_at(lam_, v1_):
        return float(W(_with_arg(system, "vecs", lam_ * v1_)))

    def tilted(e, t):
        p = v1 + t * e
        return p / _norm(p)

    dlam = 0.0 if unit else _central(lambda t: w_at(lam + t, v1), _thr(_STEP, lam))
    t2, t3 = (_central(lambda t: w_at(lam, tilted(e, t)), _STEP) for e in (v2, v3))
    return dlam * v1 + (t2 * v2 + t3 * v3) / lam


def ref_grad_sym_tensor(W, system):
    lams, v, _ = eig_sym(system.sym[0])
    _require_gaps(lams, "eigenvalues")
    h = _thr(_STEP, np.abs(lams).max())

    def w_at(lams_, v_):
        m = sum(lams_[i] * np.outer(v_[i], v_[i]) for i in range(3))
        return float(W(_with_arg(system, "sym", m)))

    dlam = np.array([_central(lambda t: w_at(lams + t * e, v), h) for e in _EYE])
    anti = [_central(lambda t: w_at(lams, _rotated(v, i, j, t)), _STEP)
            for i, j in _OFF_PAIRS]
    out = sum(dlam[i] * np.outer(v[i], v[i]) for i in range(3))
    for (i, j), anti_ij in zip(_OFF_PAIRS, anti):
        c = anti_ij / (2.0 * (lams[i] - lams[j]))
        out = out + c * (np.outer(v[i], v[j]) + np.outer(v[j], v[i]))
    return _resym(out)


def ref_grad_nonsym_tensor(W, system):
    sv, v, u = svd3(system.nonsym[0])
    _require_gaps(sv, "singular values")
    h = _thr(_STEP, sv[0])

    def w_at(sv_, v_, u_):
        m = sum(sv_[i] * np.outer(v_[i], u_[i]) for i in range(3))
        return float(W(_with_arg(system, "nonsym", m)))

    dlam = np.array([_central(lambda t: w_at(sv + t * e, v, u), h) for e in _EYE])
    anti_v, anti_u = [], []
    for i, j in _OFF_PAIRS:
        anti_v.append(_central(lambda t: w_at(sv, _rotated(v, i, j, t), u), _STEP))
        anti_u.append(_central(lambda t: w_at(sv, v, _rotated(u, i, j, t)), _STEP))
    out = sum(dlam[i] * np.outer(v[i], u[i]) for i in range(3))
    s = 1.0 if 1e-150 < sv[0] < 1e150 else 2.0 ** -math.frexp(sv[0])[1]
    w = sv * s
    for (i, j), av, au in zip(_OFF_PAIRS, anti_v, anti_u):
        denom = w[i] ** 2 - w[j] ** 2
        out = out + ((w[i] * au + w[j] * av) / denom * s) * np.outer(v[i], u[j])
        out = out + ((w[j] * au + w[i] * av) / denom * s) * np.outer(v[j], u[i])
    return out


def _ref_fd_grad(W, system, cls, h=None):
    _, _, x, unit, dirs = next(b for b in _chart_blocks(system) if b[:2] == (cls, 0))
    h = 1e-5 * (1.0 + _norm(x)) if h is None else h
    at = (lambda y: y / np.linalg.norm(y)) if unit else (lambda y: y)
    d = np.array([_central(lambda t: float(W(_with_arg(system, cls, at(x + t * e)))), h)
                  for e in dirs.reshape((len(dirs),) + x.shape)])
    return ((d / (dirs * dirs).sum(axis=1)) @ dirs).reshape(x.shape)


REFERENCE = {
    grad_vector: ref_grad_vector,
    grad_sym_tensor: ref_grad_sym_tensor,
    grad_nonsym_tensor: ref_grad_nonsym_tensor,
    fd_grad_vector: lambda W, s: _ref_fd_grad(W, s, "vecs"),
    fd_grad_sym_tensor: lambda W, s: _ref_fd_grad(W, s, "sym"),
    fd_grad_nonsym_tensor: lambda W, s: _ref_fd_grad(W, s, "nonsym"),
}
VECTOR, SYM, NONSYM = ((grad_vector, fd_grad_vector), (grad_sym_tensor, fd_grad_sym_tensor),
                       (grad_nonsym_tensor, fd_grad_nonsym_tensor))

# ---------------------------------------------------------------------------
# bit identity at every scale, on the systems ``W`` sees


RNG = np.random.default_rng(2024)
B = _resym(RNG.standard_normal((3, 3)))
C = _resym(RNG.standard_normal((3, 3)))
K = RNG.standard_normal(3)
SCALES = [10.0 ** k for k in (-150, -12, 0, 12, 150)]


def _energy(system):
    # of degree one or two in every argument, so finite at 1e150 and nonzero
    # at 1e-150
    total = 0.0
    for a in system.sym:
        total += float(np.trace(a @ a @ B)) + float(K @ a @ K)
    for f in system.nonsym:
        total += float(np.trace(f @ B @ f.T @ C)) + float(np.sum(f * B))
    for a in system.vecs:
        total += float(a @ B @ a) + float(K @ a)
    return total


def _case_systems(c):
    # (label, functions, system) at scale ``c``: generic draws with a second
    # argument, diagonal arguments (triads of exact zeros and -0.0) and
    # unit-flagged vectors
    rng = np.random.default_rng(7)
    sym, full = _resym(rng.standard_normal((3, 3))), rng.standard_normal((3, 3))
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    return [
        ("vector", VECTOR, tensor_system(sym=[c * sym], vecs=[c * x])),
        ("vector-axis", VECTOR, tensor_system(vecs=[[0.0, -2.0 * c, 0.0], c * y])),
        ("unit-vector", VECTOR, tensor_system(sym=[c * sym], vecs=[x / _norm(x)], unit=[True])),
        ("unit-axis", VECTOR, tensor_system(vecs=[[0.0, 0.0, -1.0]], unit=[True])),
        ("sym", SYM, tensor_system(sym=[c * sym], vecs=[c * y])),
        ("sym-diagonal", SYM, tensor_system(sym=[np.diag([-c, 3.0 * c, 2.0 * c])])),
        ("sym-negative-diagonal", SYM, tensor_system(sym=[np.diag([-c, -3.0 * c, -2.0 * c])])),
        ("nonsym", NONSYM, tensor_system(nonsym=[c * full], vecs=[c * x])),
        ("nonsym-diagonal", NONSYM, tensor_system(nonsym=[np.diag([2.0 * c, -3.0 * c, c])])),
    ]


CASES = [(f"{label}-1e{round(np.log10(c))}", fn, system)
         for c in SCALES for label, fns, system in _case_systems(c) for fn in fns]


def _recorded(fn, system):
    # ``fn``'s gradient of _energy and the bytes of every system W saw, in order
    seen = []

    def W(s):
        seen.append(b"".join(m.tobytes() for m in s.sym + s.nonsym + s.vecs)
                    + repr((s.nonsym_skew, s.vec_unit)).encode())
        return _energy(s)
    return fn(W, system), seen


@pytest.mark.parametrize("fn,system", [case[1:] for case in CASES],
                         ids=[f"{case[1].__name__}-{case[0]}" for case in CASES])
def test_stacked_probes_are_the_per_probe_loops(fn, system):
    got, seen = _recorded(fn, system)
    want, want_seen = _recorded(REFERENCE[fn], system)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert seen == want_seen
    assert np.isfinite(got).all()


# ---------------------------------------------------------------------------
# a W that is not finite at a probe


def _quartic_vector(s):
    with np.errstate(all="ignore"):
        return np.float64(s.vecs[0] @ s.vecs[0]) ** 2


def _trace_square(s):
    with np.errstate(all="ignore"):
        return np.trace(s.sym[0] @ s.sym[0])


def _frobenius(s):
    with np.errstate(all="ignore"):
        return np.sum(s.nonsym[0] ** 2)


X = np.array([1.0, -2.0, 0.5])
M = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, -1.0]])
F = np.array([[2.0, 1.0, 0.0], [-1.0, 3.0, 0.5], [0.5, 0.0, 1.0]])
OVERFLOWS = {
    "vector": (VECTOR, _quartic_vector, tensor_system(vecs=[1e160 * X])),
    "sym": (SYM, _trace_square, tensor_system(sym=[1e160 * M])),
    "nonsym": (NONSYM, _frobenius, tensor_system(nonsym=[1e160 * F])),
}


@pytest.mark.parametrize("fn,W,system", [(fn, W, system) for fns, W, system in
                                         OVERFLOWS.values() for fn in fns],
                         ids=[fn.__name__ for fns, *_ in OVERFLOWS.values() for fn in fns])
def test_a_non_finite_energy_is_an_error(fn, W, system):
    # each returned rows of nan
    message = f"{fn.__name__}: W is not finite at a probe"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(W, system)


def test_nan_is_not_finite():
    with pytest.raises(ValueError, match="^grad_vector: W is not finite at a probe$"):
        grad_vector(lambda s: float("nan"), tensor_system(vecs=[X]))


# ---------------------------------------------------------------------------
# the contract, by generation: finite values or a ValueError over the double range


ENERGIES = {
    "vector": (lambda s: K @ s.vecs[0], lambda s: s.vecs[0] @ B @ s.vecs[0],
               _quartic_vector),
    "sym": (lambda s: np.trace(s.sym[0] @ B), lambda s: np.trace(s.sym[0] @ s.sym[0] @ B),
            _trace_square),
    "nonsym": (lambda s: np.sum(s.nonsym[0] * B), lambda s: np.linalg.det(s.nonsym[0]),
               _frobenius),
}
CLASSES = {"vector": VECTOR, "unit-vector": VECTOR, "sym": SYM, "nonsym": NONSYM}


def _generated(kind, k, seed):
    rng = np.random.default_rng(seed)
    c = 10.0 ** k
    if kind == "unit-vector":
        x = rng.standard_normal(3)
        return tensor_system(sym=[c * _resym(rng.standard_normal((3, 3)))],
                             vecs=[x / _norm(x)], unit=[True])
    if kind == "vector":
        return tensor_system(vecs=[c * rng.standard_normal(3)])
    if kind == "sym":
        return tensor_system(sym=[c * _resym(rng.standard_normal((3, 3)))])
    return tensor_system(nonsym=[c * rng.standard_normal((3, 3))])


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(CLASSES)), k=st.floats(-300.0, 300.0),
       seed=st.integers(0, 2 ** 32 - 1), energy=st.integers(0, 2))
# found by the search: det F at 1e97 overflowed in the off-diagonal
# coefficients' products with sv, and at 1e103 returned rows of nan
@example(kind="nonsym", k=97.0, seed=0, energy=1)
@example(kind="nonsym", k=103.0, seed=0, energy=1)
def test_gradients_are_finite_or_refused(kind, k, seed, energy):
    system = _generated(kind, k, seed)
    energy_of = ENERGIES["vector" if kind == "unit-vector" else kind][energy]

    def W(s):
        with np.errstate(all="ignore"):
            return energy_of(s)
    for fn in CLASSES[kind]:
        try:
            got = fn(W, system)
        except ValueError:
            continue
        assert np.isfinite(got).all(), fn.__name__
