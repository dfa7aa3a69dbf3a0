"""Generator bases in the spectral frame and the machinery that verifies the
reduction theorems.

Vector-valued isotropic maps decompose over the three frame vectors, tensor
maps over at most nine dyads ``v_i (x) v_j`` (six symmetrized ones when the
value is symmetric, three antisymmetrized when skew).  This module provides
those bases, the projection/reconstruction round trips, spectral re-evaluation
of classical items, and numerical checks for coaxiality, eigenvalue
coalescence, and eigenvector-gauge independence (the latter being the
well-posedness requirement any function of spectral components must satisfy
at degenerate eigenvalues).  :func:`regauge_frame` turns one frame;
:func:`check_p_property` draws its trials' turns in the same order and codes
the turned frames as one stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from isotropykit.classical_bases import (
    boehler_scalars,
    smith_sym_tensors,
    smith_vectors,
)
from isotropykit.lin3 import (
    _EYE,
    _OFF_PAIRS,
    TensorSystem,
    _check_mirror,
    eig_sym,
    haar_rotation,
    mat3,
    sym_matrix,
    vec3,
)
from isotropykit.spectral_frame import (
    _FULL,
    _SKEW,
    _SYM,
    _VEC,
    SpectralFrame,
    SpectralInvariants,
    _Code,
    _decode,
    _encode,
    _invariants,
    _labels,
    _values,
    build_frame,
    extract_invariants,
    rebuild_system,
)

__all__ = [
    "CoalescenceReport",
    "CoaxialityCheck",
    "Coefficients",
    "GeneratorBasis",
    "PPropertyReport",
    "check_coaxiality",
    "check_p_property",
    "coalescence_structure",
    "example2_invariants",
    "expand_classical",
    "generator_basis",
    "permute_frame",
    "project_tensor",
    "project_vector",
    "reconstruct_tensor",
    "reconstruct_vector",
    "regauge_frame",
]

# the frame code of each kind; ``sym6`` keeps its diagonal-first slot order
_KIND_CODES = {
    "vector3": _VEC,
    "sym6": _Code(((0, 0), (1, 1), (2, 2)) + _OFF_PAIRS, 1.0),
    "full9": _FULL,
    "skew3": _SKEW,
}
# a slot is labeled by its kind's letter and its frame indices (``t12``)
_KIND_LABELS = {
    kind: tuple(letter + "".join(str(k + 1) for k in pair) for pair in _KIND_CODES[kind].pairs)
    for kind, letter in (("vector3", "g"), ("sym6", "t"), ("full9", "t"), ("skew3", "w"))}


@dataclass(frozen=True)
class Coefficients:
    """Expansion coefficients in a generator basis (fixed slot order)."""

    kind: str
    values: tuple

    def labels(self):
        return _KIND_LABELS[self.kind]

    def as_dict(self):
        return dict(zip(self.labels(), self.values))


@dataclass(frozen=True)
class GeneratorBasis:
    """Ordered generator elements built from a frame."""

    kind: str
    frame: SpectralFrame
    labels: tuple
    elements: tuple

    def gram_matrix(self) -> np.ndarray:
        """Frobenius Gram matrix of the elements (full rank iff independent)."""
        flat = np.array([e.ravel() for e in self.elements])
        return flat @ flat.T


def _frame_code(kind: str, what: str) -> _Code:
    if kind not in _KIND_CODES:
        raise ValueError(f"unknown {what} kind {kind!r}")
    return _KIND_CODES[kind]


def _coefficients(kind: str, x, v) -> Coefficients:
    return Coefficients(kind, tuple(_encode(x, _KIND_CODES[kind], v).tolist()))


def generator_basis(frame: SpectralFrame, kind: str) -> GeneratorBasis:
    code = _frame_code(kind, "basis")
    elems = tuple(_decode(unit, code, frame.v) for unit in np.eye(code.size))
    return GeneratorBasis(kind, frame, _KIND_LABELS[kind], elems)


def project_vector(g, frame: SpectralFrame) -> Coefficients:
    """Coefficients of a vector over the frame triad: ``g_i = g . v_i``."""
    return _coefficients("vector3", vec3(g), frame.v)


def reconstruct_vector(coeffs: Coefficients, frame: SpectralFrame) -> np.ndarray:
    return _decode(coeffs.values, _VEC, frame.v)


def project_tensor(g, frame: SpectralFrame, kind: str) -> Coefficients:
    """Coefficients of a tensor over the frame dyads.

    ``sym6`` requires a symmetric argument and ``skew3`` a skew one (class
    errors otherwise); ``full9`` takes anything.
    """
    g = mat3(g)
    if kind == "vector3":
        raise ValueError(f"unknown projection kind {kind!r}")
    code = _frame_code(kind, "projection")
    if code.mirror is not None:
        word = "symmetric" if code.mirror > 0 else "skew"
        _check_mirror(g, code.mirror, f"{kind} projection needs a {word} tensor")
    return _coefficients(kind, g, frame.v)


def reconstruct_tensor(coeffs: Coefficients, frame: SpectralFrame) -> np.ndarray:
    return _decode(coeffs.values, _frame_code(coeffs.kind, "basis"), frame.v)


# ---------------------------------------------------------------------------
# spectral re-evaluation of classical items


@functools.lru_cache(maxsize=16)
def _classical_bases(n: int, m: int, p: int):
    # building a basis compiles every label
    return boehler_scalars(n, m, p), smith_vectors(n, m, p), smith_sym_tensors(n, m, p)


def expand_classical(item_label: str, system: TensorSystem, frame: SpectralFrame):
    """Re-evaluate a classical item purely from the spectral invariants.

    The invariant list determines the component system (the arguments
    conjugated into the frame); evaluating the item there yields the same
    scalar, or directly the frame coefficients of a generator item, without
    ever touching the original tensors.  Returns a float for scalar items,
    ``vector3`` coefficients for generator vectors, and ``sym6`` coefficients
    for generator tensors.
    """
    if frame.kind == "svd":
        raise ValueError("classical items are expanded in non-SVD frames")
    comp = rebuild_system(extract_invariants(system, frame))
    for basis in _classical_bases(*system.shape()):
        if item_label in basis.labels():
            value = basis.evaluate(comp)[basis.labels().index(item_label)]
            if basis.kind == "scalar":
                return float(value)
            # the component system lives in the identity frame
            return _coefficients("vector3" if basis.kind == "vector" else "sym6", value, _EYE)
    raise KeyError(f"unknown classical item {item_label!r}")


# ---------------------------------------------------------------------------
# coaxiality and coalescence


@dataclass(frozen=True)
class CoaxialityCheck:
    """Commutator residual of an isotropic tensor map with its argument."""

    commutator_residual: float
    offdiag_max: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.commutator_residual <= self.tolerance and \
            self.offdiag_max <= self.tolerance


def check_coaxiality(g_fn, v_mat, tol: float = 1e-10) -> CoaxialityCheck:
    """Measure ``||V G(V) - G(V) V||_F`` and the off-diagonal frame
    coefficients of ``G(V)``; both vanish for isotropic maps of a single
    symmetric tensor with distinct eigenvalues.  ``V`` must be symmetric
    and ``G(V)`` a finite 3x3 tensor."""
    v_mat = sym_matrix(v_mat)
    g = mat3(g_fn(v_mat))
    residual = float(np.linalg.norm(v_mat @ g - g @ v_mat))
    _, vecs, _ = eig_sym(v_mat)
    offdiag = float(np.abs(_encode(g, _SKEW, vecs)).max())
    return CoaxialityCheck(residual, offdiag, tol)


@dataclass(frozen=True)
class CoalescenceReport:
    """Behaviour of eigen-coefficients along an eigenvalue-coalescence path."""

    eps: tuple
    gaps: tuple
    ratios: tuple
    max_ratio: float
    limit_gap: float
    limit_residual: float
    converged: bool
    canonical_ok: bool


def coalescence_structure(t_fn, case: str, lam_base, eps_sequence=(),
                          frame_vectors=None, tol: float = 1e-12) -> CoalescenceReport:
    """Check the limit structure of ``G = sum_i t_i(lams) v_i (x) v_i``.

    ``case="pair"``, slots 0 and 1 coalescing: along ``lams[0] += eps`` the
    gap ``|t_0 - t_1|`` must vanish (linearly for smooth coefficients; the
    observed ``gap / eps`` ratios are reported), and at the limit point the
    reconstruction must equal the two-term form
    ``t_0 I + (t_2 - t_0) v_2 (x) v_2``.  ``case="triple"`` requires all
    coefficients equal and ``G = t_1 I`` at ``lam_base``.  Non-convergence is
    reported through the flags, never raised; a ``lam_base`` that is not a
    finite 3-vector, or a step that is not finite and positive, is a
    ``ValueError``.
    """
    lam_base = vec3(lam_base)
    v = np.asarray(frame_vectors, dtype=float) if frame_vectors is not None else _EYE
    i, j, k = 0, 1, 2  # the pair case: slots i and j coalesce, k stays apart
    eps = tuple(float(e) for e in eps_sequence)
    if not all(0.0 < e < np.inf for e in eps):
        raise ValueError(f"coalescence steps must be finite and positive, got {eps}")
    gaps, ratios = [], []
    if case == "pair":
        for e in eps:
            lams = lam_base.copy()
            lams[i] += e
            t = np.asarray(t_fn(lams), dtype=float)
            gaps.append(float(abs(t[i] - t[j])))
            ratios.append(gaps[-1] / e)
    elif case != "triple":
        raise ValueError(f"unknown case {case!r}")
    t_star = np.asarray(t_fn(lam_base), dtype=float)
    scale = 1.0 + np.abs(t_star).max()
    g_limit = sum(t_star[m] * np.outer(v[m], v[m]) for m in range(3))
    if case == "pair":
        limit_gap = float(abs(t_star[i] - t_star[j]))
        canonical = t_star[i] * _EYE + (t_star[k] - t_star[i]) * np.outer(v[k], v[k])
    else:
        limit_gap = float(np.abs(t_star - t_star[0]).max())
        canonical = t_star[0] * _EYE
    limit_residual = float(np.linalg.norm(g_limit - canonical))
    if gaps:
        nonincreasing = all(g1 >= g2 - tol * scale for g1, g2 in zip(gaps, gaps[1:]))
        bounded = ratios[-1] <= 2.0 * ratios[0] + tol * scale
        converged = nonincreasing and bounded
    else:
        converged = limit_gap <= tol * scale
    return CoalescenceReport(
        eps=eps, gaps=tuple(gaps), ratios=tuple(ratios),
        max_ratio=float(max(ratios)) if ratios else 0.0, limit_gap=limit_gap,
        limit_residual=limit_residual, converged=converged,
        canonical_ok=limit_residual <= tol * scale and limit_gap <= tol * scale)


# ---------------------------------------------------------------------------
# eigenvector-gauge independence (degenerate eigenvalues)


@dataclass(frozen=True)
class PPropertyReport:
    """Permutation symmetry and gauge independence of a spectral function."""

    permutation_deviation: float
    gauge_deviation: float
    tolerance: float
    trials: int

    @property
    def passed(self) -> bool:
        return self.permutation_deviation <= self.tolerance and \
            self.gauge_deviation <= self.tolerance


def _slots(slots, sizes, what) -> tuple:
    # ``slots`` as a tuple, if it holds ``sizes`` distinct frame slots
    slots = tuple(slots)
    if len(slots) not in sizes or len(set(slots) & {0, 1, 2}) < len(slots):
        raise ValueError(f"{what} must be {' or '.join(map(str, sizes))} distinct "
                         f"slots of 0, 1, 2, got {slots}")
    return slots


def permute_frame(frame: SpectralFrame, perm) -> SpectralFrame:
    """Reorder the (eigenvalue, eigenvector) slots; slot ``i`` of the result
    holds slot ``perm[i]`` of the input.  Handedness is deliberately not
    restored: the permuted frame feeds symmetry checks, not constructions."""
    perm = _slots(perm, (3,), "a permutation")
    lams = frame.lambdas[list(perm)]
    v = frame.v[list(perm)]
    u = frame.u[list(perm)] if frame.u is not None else None
    groups = tuple(tuple(sorted(perm.index(m) for m in grp))
                   for grp in frame.degeneracy)
    return replace(frame, lambdas=lams, v=v, u=u, degeneracy=groups)


def regauge_frame(frame: SpectralFrame, group, rng) -> SpectralFrame:
    """Replace the eigenvectors of a degenerate group by a random rotation of
    themselves (uniform angle for a pair, Haar for a triple)."""
    idx = list(_slots(group, (2, 3), "a gauge group"))
    rot = _turns(rng, len(idx), 1)[0]
    v = frame.v.copy()
    v[idx] = rot @ v[idx]
    if frame.u is None:
        return replace(frame, v=v)
    u = frame.u.copy()  # an SVD frame's u turns with v, so it still factors H1
    u[idx] = rot @ u[idx]
    return replace(frame, v=v, u=u)


def _turns(rng, size, trials):
    # ``trials`` random rotations (trials, size, size) of a gauge group of
    # ``size`` slots, in draw order: a uniform angle per pair, Haar per triple
    if size == 3:
        return np.array([haar_rotation(rng) for _ in range(trials)])
    theta = rng.uniform(0.0, 2.0 * np.pi, trials)
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s], 1), np.stack([s, c], 1)], 1)


def check_p_property(w_hat, system_template: TensorSystem, degeneracy_case: str,
                     trials: int = 50, rng=None, tol: float = 1e-9) -> PPropertyReport:
    """Test a function of spectral invariants for slot-permutation symmetry
    and for independence of the eigenvector choice inside a degenerate
    eigenspace.

    ``system_template`` must carry the prescribed degeneracy exactly
    (``"pair"``: one double eigenvalue, ``"triple"``: all equal); it is a
    construction input, not something detected here.  ``w_hat`` maps a
    :class:`SpectralInvariants` to a float.  Deviations are normalized by
    ``1 + |value|``.  The ``trials`` re-gauged frames are drawn as by
    :func:`regauge_frame` and coded as one stack; ``w_hat`` runs once per
    frame.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if rng is None:
        rng = np.random.default_rng(0)
    frame = build_frame(system_template)
    sizes = sorted(len(g) for g in frame.degeneracy)
    if degeneracy_case == "pair":
        if sizes != [1, 2]:
            raise ValueError("template does not have exactly one double eigenvalue")
        group = next(g for g in frame.degeneracy if len(g) == 2)
    elif degeneracy_case == "triple":
        if sizes != [3]:
            raise ValueError("template does not have a triple eigenvalue")
        group = frame.degeneracy[0]
    else:
        raise ValueError(f"unknown degeneracy case {degeneracy_case!r}")
    base = float(w_hat(extract_invariants(system_template, frame)))
    norm = 1.0 + abs(base)
    perm_dev = 0.0
    for perm in ((1, 0, 2), (2, 1, 0)):
        val = float(w_hat(extract_invariants(system_template, permute_frame(frame, perm))))
        perm_dev = max(perm_dev, abs(val - base) / norm)
    idx = list(group)
    v = np.repeat(frame.v[None], trials, 0)
    v[:, idx] = _turns(rng, len(idx), trials) @ frame.v[idx]
    lams = np.broadcast_to(frame.lambdas, (trials, 3))
    gauge_dev = 0.0
    for values in _values(system_template, frame.kind, lams, v):
        val = float(w_hat(_invariants(system_template, frame.kind, values)))
        gauge_dev = max(gauge_dev, abs(val - base) / norm)
    return PPropertyReport(perm_dev, gauge_dev, tol, trials)


# ---------------------------------------------------------------------------
# the five gauge-safe invariants of the dyad-plus-tensor configuration

# each a form of U's frame components ``m`` and the axis slot ``k``
_EXAMPLE2_FORMS = (("I1", lambda m, k: np.trace(m)),
                   ("I2", lambda m, k: np.sum(m * m.T)),
                   ("I3", lambda m, k: np.trace(m @ m @ m)),
                   ("I4", lambda m, k: m[k, k]),
                   ("I5", lambda m, k: m[k, :] @ m[:, k]))


def _example2_value(form, inv: SpectralInvariants) -> float:
    m = _decode([inv[label] for label in _labels("A2", _SYM)], _SYM, _EYE)
    k = int(np.argmax(np.array([inv["lam1"], inv["lam2"], inv["lam3"]])))
    return float(form(m, k))


def example2_invariants():
    """Evaluators of the five gauge-safe invariants of a system
    ``(a (x) a, U)``: three full traces of U's components, plus the two
    distinguished-axis contractions, the axis being the unit-eigenvalue slot.
    """
    return tuple((name, functools.partial(_example2_value, form))
                 for name, form in _EXAMPLE2_FORMS)
