"""Spectral frames and the irreducible component-invariant lists.

A *frame* is the orthonormal triad attached to the distinguished argument of
a tensor system: the eigenbasis of the first symmetric tensor, the eigenbasis
of ``H1 @ H1.T`` when only non-symmetric tensors are present, the normalized
first vector (plus a deterministic completion) when only vectors are present,
or the singular triads of ``H1`` for the SVD variant.  Every other argument
is then reduced to its components in that frame; those components, together
with the frame eigenvalues, form the invariant list.

Eigenvectors of a single symmetric tensor carry a +- sign ambiguity that no
convention based on ambient coordinates can resolve equivariantly.
:func:`build_frame` therefore fixes the residual signs from *probes* that
rotate with the system (vector projections, off-diagonal components of the
remaining tensors), which makes the extracted components reproducible under
simultaneous rotation of all arguments.  Set ``gauge="ambient"`` to keep the
raw largest-component-positive convention instead.

Labels are stable strings (``lam1``, ``A2[1,3]``, ``W1[1,2]``, ``a2[3]``;
mixed-basis components in the SVD variant use parentheses, e.g. ``A1(1,3)``
for ``v_1 . A_1 u_3``), so invariant lists are diffable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from isotropykit.lin3 import (
    _EYE,
    _OFF_PAIRS,
    _SYM_PAIRS,
    DegenerateInputError,
    TensorSystem,
    _cross,
    _degeneracy_groups,
    eig_sym,
    svd3,
    tensor_system,
)

__all__ = [
    "SpectralFrame",
    "SpectralInvariants",
    "build_frame",
    "build_svd_frame",
    "extract_invariants",
    "frame_completion",
    "irreducible_count",
    "rebuild_system",
]

_ALL_PAIRS = tuple((i, j) for i in range(3) for j in range(3))


@dataclass(frozen=True)
class SpectralFrame:
    """Eigen/singular data of the distinguished argument.

    ``kind`` is one of ``"sym_tensor"``, ``"gram"``, ``"vector"``, ``"svd"``.
    ``v`` holds the basis vectors as rows; ``u`` is the dual triad for the
    SVD variant (rows, signs slaved to the reconstruction of the source).
    ``degeneracy`` partitions ``{0, 1, 2}`` into groups of equal eigenvalues
    at the tolerance used to build the frame; ``source`` is the index of the
    distinguished argument within its own class.
    """

    kind: str
    lambdas: np.ndarray
    v: np.ndarray
    u: np.ndarray | None = None
    degeneracy: tuple = ((0,), (1,), (2,))
    source: int = 0

    @property
    def is_degenerate(self) -> bool:
        return len(self.degeneracy) < 3


@dataclass(frozen=True)
class SpectralInvariants:
    """Labeled component invariants of a system in its frame.

    ``entries`` keeps the fixed label order; ``count`` is the effective
    irreducible count (one less per unit-flagged vector, whose components
    satisfy a norm constraint, and three less per symmetric tensor in the
    SVD variant, whose nine mixed components carry only six degrees of
    freedom).  ``len(entries)`` can therefore exceed ``count``.
    """

    entries: tuple
    count: int
    frame_kind: str
    n_sym: int
    nonsym_skew: tuple
    vec_unit: tuple

    def labels(self):
        return tuple(label for label, _ in self.entries)

    def values(self) -> np.ndarray:
        return np.array([value for _, value in self.entries])

    def __getitem__(self, label: str) -> float:
        for key, value in self.entries:
            if key == label:
                return value
        raise KeyError(label)

    def as_dict(self) -> dict:
        return dict(self.entries)


def frame_completion(v1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing ``v1`` to a right-handed triad.

    ``v2`` is ``v1`` crossed with the coordinate axis least aligned with it
    (the best-conditioned choice), ``v3 = v1 x v2``.
    """
    k = int(np.argmin(np.abs(v1)))
    v2 = _cross(v1, _EYE[k])
    v2 /= np.linalg.norm(v2)
    return v2, _cross(v1, v2)


# ---------------------------------------------------------------------------
# equivariant sign gauge


def _probe_values(system: TensorSystem, v, u, kind, slot):
    """Yield (value, scale) sign probes for the given eigenvector slot.

    A probe must be odd under flipping ``v[slot]`` (jointly with ``u[slot]``
    for SVD frames) and even under flipping the other allowed sign.  Vector
    projections ``a . v[slot]`` qualify directly; for tensors, the component
    pair ``(1, 2)`` responds to the slot-0 sign and ``(0, 2)`` to slot 1,
    because the third sign is the product of the first two.
    """
    i, j = (1, 2) if slot == 0 else (0, 2)
    for a in system.vecs:
        yield a @ v[slot], 1.0 + float(np.linalg.norm(a))
    right = v if u is None else u
    if kind == "sym_tensor":
        tensors = [(x, False) for x in system.sym[1:]]
        tensors += list(zip(system.nonsym, system.nonsym_skew))
    elif kind == "gram":
        tensors = list(zip(system.nonsym, system.nonsym_skew))
    else:  # svd
        tensors = [(x, False) for x in system.sym]
        tensors += list(zip(system.nonsym[1:], system.nonsym_skew[1:]))
    for x, is_skew in tensors:
        scale = 1.0 + float(np.linalg.norm(x))
        yield v[i] @ x @ right[j], scale
        if not is_skew or u is not None:
            yield v[j] @ x @ right[i], scale


def _frozen_frame(kind, lambdas, v, u, degeneracy, source) -> SpectralFrame:
    lambdas = np.array(lambdas)
    lambdas.setflags(write=False)
    v = np.array(v)
    v.setflags(write=False)
    if u is not None:
        u = np.array(u)
        u.setflags(write=False)
    return SpectralFrame(kind, lambdas, v, u, degeneracy, source)


def _apply_equivariant_gauge(system, kind, v, u=None):
    signs = [1.0, 1.0]
    for slot in (0, 1):
        for value, scale in _probe_values(system, v, u, kind, slot):
            if abs(value) > 1e-8 * scale:
                signs[slot] = 1.0 if value > 0.0 else -1.0
                break
    s0, s1 = signs
    full = np.array([s0, s1, s0 * s1])
    v = v * full[:, None]
    if u is not None:
        u = u * full[:, None]
    return v, u


# ---------------------------------------------------------------------------
# frame construction


def build_frame(system: TensorSystem, tol_rel: float = 1e-8,
                gauge: str = "equivariant") -> SpectralFrame:
    """Build the spectral frame for a system.

    Selection rule: the eigenbasis of the first symmetric tensor if any;
    otherwise the eigenbasis of ``H1 @ H1.T`` if a non-symmetric tensor is
    present; otherwise the frame carried by the first vector, with
    ``lambdas[0] = a1 . a1`` and ``v[0] = a1 / sqrt(lambda)``.
    """
    if gauge not in ("equivariant", "ambient"):
        raise ValueError(f"unknown gauge {gauge!r}")
    if system.n_sym >= 1:
        lams, v, groups = eig_sym(system.sym[0], tol_rel)
        if gauge == "equivariant":
            v, _ = _apply_equivariant_gauge(system, "sym_tensor", v)
        return _frozen_frame("sym_tensor", lams, v, None, groups, 0)
    if system.n_nonsym >= 1:
        h = system.nonsym[0]
        if np.abs(h).max() == 0.0:
            raise DegenerateInputError("frame tensor is zero")
        gram = h @ h.T
        lams, v, groups = eig_sym(0.5 * (gram + gram.T), tol_rel)
        lams = np.clip(lams, 0.0, None)
        if gauge == "equivariant":
            v, _ = _apply_equivariant_gauge(system, "gram", v)
        return _frozen_frame("gram", lams, v, None, groups, 0)
    a = system.vecs[0]
    lam = float(a @ a)
    if lam <= 1e-24:
        raise DegenerateInputError("frame vector is zero")
    v1 = a / np.sqrt(lam)
    v2, v3 = frame_completion(v1)
    lams = np.array([lam, 0.0, 0.0])
    groups = ((0,), (1, 2)) if lam > tol_rel * (1.0 + lam) else ((0, 1, 2),)
    return _frozen_frame("vector", lams, np.array([v1, v2, v3]), None, groups, 0)


def build_svd_frame(system: TensorSystem, tol_rel: float = 1e-8,
                    gauge: str = "equivariant") -> SpectralFrame:
    """Frame from the singular value decomposition of the first non-symmetric
    tensor; subsequent extraction uses mixed components ``v_i . X u_j``."""
    if system.n_nonsym < 1:
        raise ValueError("SVD frame needs at least one non-symmetric tensor")
    h = system.nonsym[0]
    if np.abs(h).max() == 0.0:
        raise DegenerateInputError("frame tensor is zero")
    sv, v, u = svd3(h)
    if gauge == "equivariant":
        v, u = _apply_equivariant_gauge(system, "svd", v, u)
    return _frozen_frame("svd", sv, v, u, _degeneracy_groups(sv, tol_rel), 0)


# ---------------------------------------------------------------------------
# invariant extraction


def _sym_entries(name, comps):
    return [(f"{name}[{i + 1},{j + 1}]", comps[i, j]) for i, j in _SYM_PAIRS]


def _full_entries(name, comps, mixed=False):
    fmt = "({0},{1})" if mixed else "[{0},{1}]"
    return [(name + fmt.format(i + 1, j + 1), comps[i, j]) for i, j in _ALL_PAIRS]


def _skew_entries(name, comps):
    return [(f"{name}[{i + 1},{j + 1}]", comps[i, j]) for i, j in _OFF_PAIRS]


def extract_invariants(system: TensorSystem, frame: SpectralFrame) -> SpectralInvariants:
    """Component invariants of ``system`` in ``frame``, in fixed label order.

    Frame eigenvalues come first (the single ``lam`` for a vector frame),
    then tensor components (six per further symmetric tensor, nine per
    general tensor, three per skew tensor), then vector projections.  The
    frame source contributes no components of its own except in the gram
    case, where the first tensor is not diagonalized by its own frame and
    all nine components appear (the gram eigenvalues are their row sums of
    squares and are omitted).
    """
    v = frame.v
    entries: list = []
    if frame.kind == "sym_tensor":
        if system.n_sym < 1:
            raise ValueError("sym_tensor frame requires a symmetric argument")
        entries += [(f"lam{i + 1}", float(frame.lambdas[i])) for i in range(3)]
        for r, a in enumerate(system.sym[1:], start=2):
            entries += _sym_entries(f"A{r}", v @ a @ v.T)
        for t, (h, is_skew) in enumerate(zip(system.nonsym, system.nonsym_skew), start=1):
            comps = v @ h @ v.T
            entries += _skew_entries(f"W{t}", comps) if is_skew else _full_entries(f"H{t}", comps)
        for s, a in enumerate(system.vecs, start=1):
            entries += [(f"a{s}[{i + 1}]", float(a @ v[i])) for i in range(3)]
    elif frame.kind == "gram":
        if system.n_sym != 0 or system.n_nonsym < 1:
            raise ValueError("gram frame applies to systems with no symmetric tensor")
        for t, (h, is_skew) in enumerate(zip(system.nonsym, system.nonsym_skew), start=1):
            comps = v @ h @ v.T
            entries += _skew_entries(f"W{t}", comps) if is_skew else _full_entries(f"H{t}", comps)
        for s, a in enumerate(system.vecs, start=1):
            entries += [(f"a{s}[{i + 1}]", float(a @ v[i])) for i in range(3)]
    elif frame.kind == "vector":
        if system.n_sym != 0 or system.n_nonsym != 0 or system.n_vec < 1:
            raise ValueError("vector frame applies to vector-only systems")
        entries.append(("lam", float(frame.lambdas[0])))
        for s, a in enumerate(system.vecs[1:], start=2):
            entries += [(f"a{s}[{i + 1}]", float(a @ v[i])) for i in range(3)]
    elif frame.kind == "svd":
        if system.n_nonsym < 1:
            raise ValueError("svd frame requires a non-symmetric argument")
        u = frame.u
        entries += [(f"sv{i + 1}", float(frame.lambdas[i])) for i in range(3)]
        entries += [(f"u{i + 1}.v{i + 1}", float(u[i] @ v[i])) for i in range(3)]
        for r, a in enumerate(system.sym, start=1):
            entries += _full_entries(f"A{r}", v @ a @ u.T, mixed=True)
        for t, (h, _) in enumerate(zip(system.nonsym[1:], system.nonsym_skew[1:]), start=2):
            entries += _full_entries(f"H{t}", v @ h @ u.T, mixed=True)
        for s, a in enumerate(system.vecs, start=1):
            entries += [(f"a{s}[{i + 1}]", float(a @ v[i])) for i in range(3)]
    else:
        raise ValueError(f"unknown frame kind {frame.kind!r}")
    entries = tuple((label, float(value)) for label, value in entries)
    count = len(entries) - sum(system.vec_unit)
    if frame.kind == "svd":
        count -= 3 * system.n_sym
    return SpectralInvariants(entries, count, frame.kind, system.n_sym,
                              system.nonsym_skew, system.vec_unit)


def irreducible_count(N: int, M: int, P: int, *, skew_nonsym: bool = False,
                      all_vectors_unit: bool = False, svd_variant: bool = False) -> int:
    """Closed-form size of the irreducible spectral invariant list.

    With a symmetric tensor present: ``3P + 9M + 6N - 3`` (``3M`` instead of
    ``9M`` when the non-symmetric tensors are all skew).  Without one, the
    gram frame gives ``9M + 3P`` (complete but with a three-fold redundancy;
    the SVD variant achieves ``9M + 6N + 3P - 3``), and a vector-only system
    gives ``3P - 2``.  Each unit vector loses one invariant to its norm
    constraint.
    """
    if N < 0 or M < 0 or P < 0 or (N == 0 and M == 0 and P == 0):
        raise ValueError("need non-negative N, M, P with at least one argument")
    if skew_nonsym and M == 0:
        raise ValueError("skew_nonsym flag requires M >= 1")
    if svd_variant and M == 0:
        raise ValueError("svd_variant requires M >= 1")
    unit_loss = P if all_vectors_unit else 0
    if svd_variant:
        return 9 * M + 6 * N + 3 * P - 3 - unit_loss
    m_block = 3 * M if skew_nonsym else 9 * M
    if N >= 1:
        return 3 * P + m_block + 6 * N - 3 - unit_loss
    if M >= 1:
        return m_block + 3 * P - unit_loss
    return 3 * P - 2 - unit_loss


# ---------------------------------------------------------------------------
# system reconstruction from invariants


def rebuild_system(inv: SpectralInvariants, frame: SpectralFrame | None = None) -> TensorSystem:
    """Rebuild the tensor system encoded by an invariant list.

    With ``frame`` given this reproduces the original arguments (the
    completeness witness); with ``frame=None`` the identity triad is used and
    the result is the *component system* -- the original conjugated into its
    own frame, on which any isotropic evaluator takes identical values.
    """
    if frame is not None and frame.kind != inv.frame_kind:
        raise ValueError(f"frame kind {frame.kind!r} does not match invariants "
                         f"({inv.frame_kind!r})")
    if inv.frame_kind == "svd" and frame is None:
        raise ValueError("svd invariants need their frame to rebuild the system")
    v = frame.v if frame is not None else _EYE
    u = frame.u if (frame is not None and inv.frame_kind == "svd") else v
    data = inv.as_dict()
    M = len(inv.nonsym_skew)
    P = len(inv.vec_unit)

    def sym_from(name):
        m = np.zeros((3, 3))
        for i, j in _SYM_PAIRS:
            c = data[f"{name}[{i + 1},{j + 1}]"]
            m += c * np.outer(v[i], v[j])
            if i != j:
                m += c * np.outer(v[j], v[i])
        return m

    def full_from(name, mixed):
        fmt = "({0},{1})" if mixed else "[{0},{1}]"
        return sum(data[name + fmt.format(i + 1, j + 1)] * np.outer(v[i], u[j])
                   for i, j in _ALL_PAIRS)

    def skew_from(name):
        return sum(data[f"{name}[{i + 1},{j + 1}]"]
                   * (np.outer(v[i], v[j]) - np.outer(v[j], v[i]))
                   for i, j in _OFF_PAIRS)

    def vec_from(name):
        return sum(data[f"{name}[{i + 1}]"] * v[i] for i in range(3))

    sym, nonsym, vecs = [], [], []
    if inv.frame_kind == "sym_tensor":
        lams = [data[f"lam{i + 1}"] for i in range(3)]
        sym.append(sum(lams[i] * np.outer(v[i], v[i]) for i in range(3)))
        for r in range(2, inv.n_sym + 1):
            sym.append(sym_from(f"A{r}"))
        for t in range(1, M + 1):
            nonsym.append(skew_from(f"W{t}") if inv.nonsym_skew[t - 1]
                          else full_from(f"H{t}", mixed=False))
        for s in range(1, P + 1):
            vecs.append(vec_from(f"a{s}"))
    elif inv.frame_kind == "gram":
        for t in range(1, M + 1):
            nonsym.append(skew_from(f"W{t}") if inv.nonsym_skew[t - 1]
                          else full_from(f"H{t}", mixed=False))
        for s in range(1, P + 1):
            vecs.append(vec_from(f"a{s}"))
    elif inv.frame_kind == "vector":
        vecs.append(np.sqrt(data["lam"]) * v[0])
        for s in range(2, P + 1):
            vecs.append(vec_from(f"a{s}"))
    else:  # svd
        for r in range(1, inv.n_sym + 1):
            nine = full_from(f"A{r}", mixed=True)
            sym.append(0.5 * (nine + nine.T))
        sv = [data[f"sv{i + 1}"] for i in range(3)]
        nonsym.append(sum(sv[i] * np.outer(v[i], u[i]) for i in range(3)))
        for t in range(2, M + 1):
            nine = full_from(f"H{t}", mixed=True)
            nonsym.append(0.5 * (nine - nine.T) if inv.nonsym_skew[t - 1] else nine)
        for s in range(1, P + 1):
            vecs.append(vec_from(f"a{s}"))
    return tensor_system(sym=sym, nonsym=nonsym, skew=inv.nonsym_skew,
                         vecs=vecs, unit=inv.vec_unit)
