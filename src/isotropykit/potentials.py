"""Gradients of isotropic scalar functions through their spectral form, and
the transversely isotropic hyperelasticity demonstration.

A scalar function of a tensor system can be reparameterized through the
spectral data of one argument: a vector as ``a = lam * v1`` with
``lam = |a|``, a symmetric tensor through its eigenvalues and eigenvectors, a
non-symmetric tensor through its singular triads.  The gradient with respect
to that argument then has a closed form in the frame:

* vector:   ``dW/da = (dW/dlam) v1 + (1/lam) [(dW/dv1 . v2) v2 + (dW/dv1 . v3) v3]``
* symmetric ``V``:  diagonal terms ``dW/dlam_i`` on ``v_i (x) v_i`` plus
  off-diagonal terms ``(dW/dv_i . v_j - dW/dv_j . v_i) / (2 (lam_i - lam_j))``
  on the symmetrized dyads
* non-symmetric ``F``: diagonal terms on ``v_i (x) u_i`` plus
  ``(lam_i (dW/du_i . u_j - dW/du_j . u_i) + lam_j (dW/dv_i . v_j - dW/dv_j . v_i))
  / (lam_i^2 - lam_j^2)`` on ``v_i (x) u_j``

The antisymmetric eigenvector combinations are exactly the derivatives along
plane rotations of the frame, so the finite-difference fallback rotates the
triad (staying exactly orthonormal) instead of re-orthogonalizing perturbed
vectors.  Its steps are ``1e-5`` radians for a rotation or tilt and
``1e-5`` of the size for a length, eigen- or singular value (``lin3._thr``),
so the fallback is as accurate at every scale.  The closed forms divide by
the gaps, which must exceed ``1e-6`` of the largest absolute eigen- or
singular value, or ``gap_min`` for a symmetric one (the rank check's rule,
``lin3._require_gaps``, whose error names the pair, gap and threshold).  Each
gradient also takes one ``partials`` callable that returns all of its
spectral partials analytically, in which case no finite difference is taken
and the trivial cases come out exact to roundoff.

Entry-wise finite-difference oracles (``fd_grad_*``) are provided for
verification; they never touch frames.  All three are one routine: it steps
the argument along each move of the rank chart (the axes or a unit vector's
two renormalized tangents, the unit symmetric, skew or full dyads), so every
system ``W`` sees keeps its flags, with step ``1e-5 (1 + |x|)`` unless the
symmetric oracle is given ``h``, and halves what a two-entry probe picks up.
Every gradient here builds its probes as one stack and runs ``W`` once per
probe; a ``W`` that is not finite at a probe is a ``ValueError``, and so is a
partial, or a tensor gradient, beyond the double range.

:func:`hyperelastic_stress` takes the frame coefficients of its two stresses
straight from the codec (``representation._coefficients``): both are
exactly symmetric by construction, so the class check of the public
``project_tensor`` has nothing to reject there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from isotropykit.analysis import _chart_blocks
from isotropykit.lin3 import (
    _EYE,
    _FLOOR,
    _freeze,
    _OFF_PAIRS,
    DegenerateConfigurationError,
    TensorSystem,
    _norm,
    _require_gaps,
    _resym,
    _row_norms,
    _thr,
    eig_sym,
    svd3,
    tensor_system,
)
from isotropykit.representation import _coefficients
from isotropykit.spectral_frame import _frame_completion, build_frame

__all__ = [
    "HyperelasticModel",
    "HyperelasticStress",
    "degeneracy_sensitivity",
    "fd_grad_nonsym_tensor",
    "fd_grad_sym_tensor",
    "fd_grad_vector",
    "grad_nonsym_tensor",
    "grad_sym_tensor",
    "grad_vector",
    "hyperelastic_stress",
    "polynomial_ti_model",
    "ti_invariants",
]


def _centrals(W, system, cls, probes, steps, fn):
    # (W(+h) - W(-h)) / (2 h) for each step h, with W at ``system`` whose first
    # argument of class ``cls`` is set to each row of the stack ``probes``, in
    # order (+h, -h per step; the rows of a frozen stack are frozen); on Python
    # floats, where a difference or quotient beyond the double range is inf
    args = {"sym": system.sym, "nonsym": system.nonsym, "nonsym_skew": system.nonsym_skew,
            "vecs": system.vecs, "vec_unit": system.vec_unit}
    rest = args.pop(cls)[1:]
    values = [float(W(TensorSystem(**args, **{cls: (p,) + rest}))) for p in _freeze(probes)]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{fn}: W is not finite at a probe")
    return _representable(np.array([(a - b) / (2.0 * h) for a, b, h
                                    in zip(values[::2], values[1::2], steps)]), fn)


def _representable(x, fn):
    # the partials or the gradient ``x``, or a ValueError where they overflowed
    if not all(map(math.isfinite, x.ravel().tolist())):
        raise ValueError(f"{fn}: a partial or the gradient overflows the double range")
    return x


def _dyad_sums(w, a, b):
    # (stacks of) sum(w[i] * np.outer(a[i], b[i])), bit for bit: the same
    # products, summed left to right from 0.0 as sum's 0 (which makes -0.0 0.0)
    p = w[..., None, None] * (a[..., :, None] * b[..., None, :])
    return 0.0 + p[..., 0, :, :] + p[..., 1, :, :] + p[..., 2, :, :]


# ---------------------------------------------------------------------------
# spectral-form gradients


# the central-difference step of the spectral gradients: radians for a frame
# rotation, and relative (through ``_thr``) for a length, eigen- or singular value
_STEP = 1e-5
# the six turns of a triad, by +-_STEP in each plane (i, j) of _OFF_PAIRS, and
# the rows of ``_turned`` per probe: the frame for six value shifts, then turns
_TURN_I, _TURN_J = [0, 0, 0, 0, 1, 1], [1, 1, 2, 2, 2, 2]
_COS, _SIN = (f(np.array([_STEP, -_STEP] * 3))[:, None] for f in (np.cos, np.sin))
_SYM_PROBES = [0] * 6 + [1, 2, 3, 4, 5, 6]
_V_PROBES = [0] * 6 + [1, 2, 0, 0, 3, 4, 0, 0, 5, 6, 0, 0]
_U_PROBES = [0] * 6 + [0, 0, 1, 2, 0, 0, 3, 4, 0, 0, 5, 6]


def _turned(t):
    # ``t``, then its six turns: rows i, j made c t_i + s t_j and -s t_i + c t_j
    out, ti, tj = t[None].repeat(7, 0), t[_TURN_I], t[_TURN_J]
    out[range(1, 7), _TURN_I] = _COS * ti + _SIN * tj
    out[range(1, 7), _TURN_J] = -_SIN * ti + _COS * tj
    return out


def _shifted(x, h, n):
    # x + h e_k and x - h e_k for each axis k of the three values ``x``, then n x
    return np.concatenate([x + (np.array([[h], [-h]]) * _EYE[:, None]).reshape(6, 3),
                           x[None].repeat(n, 0)])


def grad_vector(W: Callable[[TensorSystem], float], system: TensorSystem,
                partials=None) -> np.ndarray:
    """Gradient of ``W`` with respect to the first vector argument ``a``.

    ``partials(lam, v1) -> (dW/dlam, dW/dv1)`` supplies analytic partials;
    otherwise central differences are used: along ``a`` with step
    ``1e-5 |a|``, and tangentially along tilts of ``v1`` by ``1e-5`` radians.
    A unit-flagged ``a`` keeps its length: its gradient is the tangential part.
    """
    a, unit = system.vecs[0], system.vec_unit[0]
    lam = _norm(a)
    if lam < _FLOOR:
        raise DegenerateConfigurationError(
            "vector argument is zero; the spectral gradient divides by |a|")
    v1 = a / lam
    v2, v3 = _frame_completion(v1)
    if partials is not None:
        dlam, dv = partials(lam, v1)
        dlam, dv = 0.0 if unit else float(dlam), np.asarray(dv, dtype=float)
        t2, t3 = float(dv @ v2), float(dv @ v3)
    else:
        # the length moves (none for a unit vector), then the tilts of v1 by
        # +-_STEP toward v2 and v3
        h = _thr(_STEP, lam)
        p = v1 + np.array([_STEP, -_STEP] * 2)[:, None] * np.array([v2, v2, v3, v3])
        probes = [(lam + np.array([h, -h]))[:, None] * v1, lam * (p / _row_norms(p)[:, None])]
        d = _centrals(W, system, "vecs", np.concatenate(probes[unit:]),
                      [h, _STEP, _STEP][unit:], "grad_vector")
        dlam, t2, t3 = 0.0 if unit else d[0], d[-2], d[-1]
    return dlam * v1 + (t2 * v2 + t3 * v3) / lam


def grad_sym_tensor(W: Callable[[TensorSystem], float], system: TensorSystem,
                    gap_min: float | None = None, partials=None) -> np.ndarray:
    """Gradient of ``W`` with respect to the first symmetric tensor argument.

    Requires pairwise-distinct eigenvalues (the off-diagonal terms divide by
    the gaps).  ``partials(lams, v) -> (dW/dlams, r)`` with
    ``r[i, j] = dW/dv_i . v_j`` supplies the analytic partials.
    """
    lams, v, _ = eig_sym(system.sym[0])
    _require_gaps(lams, "eigenvalues", gap_min)
    if partials is not None:
        dlam, r = (np.asarray(x, dtype=float) for x in partials(lams, v))
        anti = [float(r[i, j] - r[j, i]) for i, j in _OFF_PAIRS]
    else:
        # the eigenvalue shifts, then the turns of the triad: the derivative
        # along the (i, j) plane rotation equals dW/dv_i . v_j - dW/dv_j . v_i
        h = _thr(_STEP, np.abs(lams).max())
        triads = _turned(v)[_SYM_PROBES]
        probes = _dyad_sums(_shifted(lams, h, 6), triads, triads)
        d = _centrals(W, system, "sym", probes, [h] * 3 + [_STEP] * 3, "grad_sym_tensor")
        dlam, anti = d[:3], d[3:]
    out = _dyad_sums(dlam, v, v)
    # anti / (2 (lam_i - lam_j)) from exact halves: no gap overflows where c does not
    for (i, j), anti_ij in zip(_OFF_PAIRS, anti):
        c = 0.25 * anti_ij / (0.5 * lams[i] - 0.5 * lams[j])
        out = out + c * (v[i, :, None] * v[j] + v[j, :, None] * v[i])
    return _representable(_resym(out), "grad_sym_tensor")


def grad_nonsym_tensor(W: Callable[[TensorSystem], float], system: TensorSystem,
                       partials=None) -> np.ndarray:
    """Gradient of ``W`` with respect to the first non-symmetric tensor
    argument, through its singular triads.

    Requires pairwise-distinct singular values.  ``partials(sv, v, u) ->
    (dW/dsv, rv, ru)`` mirrors :func:`grad_sym_tensor`, with one frame matrix
    for the left and one for the right triad.
    """
    sv, v, u = svd3(system.nonsym[0])
    _require_gaps(sv, "singular values")
    if partials is not None:
        dlam, rv, ru = (np.asarray(x, dtype=float) for x in partials(sv, v, u))
        anti_v = [float(rv[i, j] - rv[j, i]) for i, j in _OFF_PAIRS]
        anti_u = [float(ru[i, j] - ru[j, i]) for i, j in _OFF_PAIRS]
    else:
        # the singular-value shifts, then per plane the turns of v and of u
        h = _thr(_STEP, sv[0])
        probes = _dyad_sums(_shifted(sv, h, 12), _turned(v)[_V_PROBES],
                            _turned(u)[_U_PROBES])
        d = _centrals(W, system, "nonsym", probes, [h] * 3 + [_STEP] * 6, "grad_nonsym_tensor")
        dlam, anti_v, anti_u = d[:3], d[3::2], d[4::2]
    out = _dyad_sums(dlam, v, u)
    # the off-diagonal coefficients are homogeneous of degree -1 in sv: they are
    # taken at sv scaled by the power of two ``s`` that puts sv[0] in [0.5, 1),
    # and scaled back (exactly), so no square or product leaves the double range;
    # the partials are halved (exact) before they are summed, and doubled back by 2 s
    s = 2.0 ** -math.frexp(sv[0])[1]
    w, s2 = sv * s, 2.0 * s
    for (i, j), av, au in zip(_OFF_PAIRS, anti_v, anti_u):
        au, av, denom = 0.5 * au, 0.5 * av, w[i] ** 2 - w[j] ** 2
        out = out + ((w[i] * au + w[j] * av) / denom * s2) * (v[i, :, None] * u[j])
        out = out + ((w[j] * au + w[i] * av) / denom * s2) * (v[j, :, None] * u[i])
    return _representable(out, "grad_nonsym_tensor")


# ---------------------------------------------------------------------------
# finite-difference oracles (frame-free, entry-wise)


def _fd_grad(W, system, cls, fn, h=None):
    # central differences of W along the rank chart's moves of the first
    # argument of class ``cls``, with step ``1e-5 (1 + |x|)`` unless ``h`` is given
    _, _, x, unit, dirs = next(b for b in _chart_blocks(system) if b[:2] == (cls, 0))
    h = 1e-5 * (1.0 + _norm(x)) if h is None else h
    probes = x + (np.array([[h], [-h]]) * dirs[:, None]).reshape((-1,) + x.shape)
    probes = probes / _row_norms(probes)[:, None] if unit else probes
    d = _centrals(W, system, cls, probes, [h] * len(dirs), fn)
    # dW = tr(G^T dX): a probe that moves n entries picks up n of them, so a
    # symmetric or skew off-diagonal probe is halved
    return ((d / (dirs * dirs).sum(axis=1)) @ dirs).reshape(x.shape)


def fd_grad_vector(W, system):
    return _fd_grad(W, system, "vecs", "fd_grad_vector")


def fd_grad_sym_tensor(W, system, h=None):
    return _fd_grad(W, system, "sym", "fd_grad_sym_tensor", h)


def fd_grad_nonsym_tensor(W, system):
    return _fd_grad(W, system, "nonsym", "fd_grad_nonsym_tensor")


def degeneracy_sensitivity(W, system_factory, deltas):
    """Diagnostic curve: formula-vs-oracle deviation as the eigenvalue gap of
    the differentiated argument shrinks.

    ``system_factory(delta)`` must return a system whose first symmetric
    tensor has an eigenvalue gap ``delta``.  Returns ``(delta, deviation)`` pairs,
    where deviation is the normalized max difference between
    :func:`grad_sym_tensor` and :func:`fd_grad_sym_tensor`.  Expected to
    degrade like O(h / delta); reported, never asserted.
    """
    out = []
    for delta in deltas:
        sys_d = system_factory(delta)
        g = grad_sym_tensor(W, sys_d, gap_min=0.0)
        ref = fd_grad_sym_tensor(W, sys_d)
        dev = float(np.abs(g - ref).max() / (1.0 + np.abs(ref).max()))
        out.append((float(delta), dev))
    return out


# ---------------------------------------------------------------------------
# transversely isotropic hyperelasticity


def _ti_products(c_mat, l_mat):
    # the five invariants and the products C^2, C L, C^2 L they are traces of;
    # a stacked trace sums each diagonal in the order a single trace does
    c2 = c_mat @ c_mat
    cl = c_mat @ l_mat
    c2l = c2 @ l_mat
    return np.array([c_mat, c2, c2 @ c_mat, cl, c2l]).trace(axis1=1, axis2=2), c2, cl, c2l


def ti_invariants(c_mat: np.ndarray, l_mat: np.ndarray) -> np.ndarray:
    """The five invariants ``tr C, tr C^2, tr C^3, tr(C L), tr(C^2 L)``."""
    return _ti_products(c_mat, l_mat)[0]


@dataclass(frozen=True)
class HyperelasticModel:
    """Strain energy ``W = energy(I1..I5)`` with its five partials.

    ``energy`` and ``partials`` both take the invariant 5-vector; ``partials``
    returns ``(dW/dI1, ..., dW/dI5)``.
    """

    name: str
    energy: Callable[[np.ndarray], float]
    partials: Callable[[np.ndarray], np.ndarray]


def polynomial_ti_model(c, name: str = "poly") -> HyperelasticModel:
    """Eight-parameter polynomial strain energy with analytic partials:

    ``W = c0 I1 + c1 I2 + c2 I3 + c3 I4 + c4 I5 + c5 I5^2 + c6 I1 I4 + c7 I2^2``
    """
    c = tuple(float(x) for x in c)
    if len(c) != 8:
        raise ValueError("polynomial model takes 8 coefficients")

    def energy(inv):
        i1, i2, i3, i4, i5 = inv
        return (c[0] * i1 + c[1] * i2 + c[2] * i3 + c[3] * i4 + c[4] * i5
                + c[5] * i5 ** 2 + c[6] * i1 * i4 + c[7] * i2 ** 2)

    def partials(inv):
        i1, i2, i3, i4, i5 = inv
        return np.array([
            c[0] + c[6] * i4,
            c[1] + 2.0 * c[7] * i2,
            c[2],
            c[3] + c[6] * i1,
            c[4] + 2.0 * c[5] * i5,
        ])

    return HyperelasticModel(name, energy, partials)


@dataclass(frozen=True)
class HyperelasticStress:
    """Stress evaluated through the potential formula and through the matched
    classical generator combination, plus their frame coefficients."""

    s_potential: np.ndarray
    s_representation: np.ndarray
    residual: float
    alphas: tuple
    coeffs_potential: tuple
    coeffs_representation: tuple
    coeff_max_diff: float


def hyperelastic_stress(model: HyperelasticModel, c_mat, a) -> HyperelasticStress:
    """Second Piola-Kirchhoff stress of a transversely isotropic material.

    With ``E = (C - I) / 2`` and ``L = a (x) a``, the potential route gives

        ``S = dW/dE = 2 W1 I + 4 W2 C + 6 W3 C^2 + 2 W4 L + 2 W5 (C L + L C)``

    (each invariant contributes twice its C-derivative).  The generator route
    evaluates ``alpha0 I + alpha1 L + alpha2 C + alpha3 C^2 + alpha4 (CL+LC)
    + alpha5 (C^2 L + L C^2)`` with the alphas matched to the partials and
    ``alpha5 = 0``: a potential stress never needs the sixth generator.  Both
    are also expanded over the six symmetrized frame dyads of ``C``, where
    their coefficients agree term by term.
    """
    system = tensor_system(sym=[c_mat], vecs=[a], unit=[True])
    (c_mat,), (a,) = system.sym, system.vecs
    frame = build_frame(system)
    if frame.lambdas[2] <= 0.0:
        raise ValueError("C must be symmetric positive-definite")
    l_mat = a[:, None] * a
    inv, c2, cl, c2l = _ti_products(c_mat, l_mat)
    w1, w2, w3, w4, w5 = np.asarray(model.partials(inv), dtype=float).tolist()
    alphas = (2.0 * w1, 2.0 * w4, 4.0 * w2, 6.0 * w3, 2.0 * w5, 0.0)
    # each term is one product, shared by both routes, which sum in their
    # own order
    t_eye, t_l, t_c, t_c2 = (alphas[0] * _EYE, alphas[1] * l_mat, alphas[2] * c_mat,
                             alphas[3] * c2)
    t_cl = alphas[4] * (cl + l_mat @ c_mat)
    s_pot = t_eye + t_c + t_c2 + t_l + t_cl
    s_rep = t_eye + t_l + t_c + t_c2 + t_cl + alphas[5] * (c2l + l_mat @ c2)
    s_pot, s_rep = _resym(s_pot), _resym(s_rep)
    residual = _norm(s_pot - s_rep)
    # both stresses are exactly symmetric: the codec needs no class check
    coeff_pot = _coefficients("sym6", s_pot, frame.v).values
    coeff_rep = _coefficients("sym6", s_rep, frame.v).values
    coeff_max_diff = max(abs(p - r) for p, r in zip(coeff_pot, coeff_rep))
    return HyperelasticStress(s_pot, s_rep, residual, alphas,
                              coeff_pot, coeff_rep, coeff_max_diff)
