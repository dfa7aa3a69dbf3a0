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
simultaneous rotation of all arguments.

Every argument is coded the same way, by one codec: :func:`_encode` reads
the components ``v_i . X r_j`` of a tensor (``r = u`` for the mixed SVD
components, ``r = v`` otherwise) or ``x . v_i`` of a vector, and
:func:`_decode` sums them back over the frame dyads.  A *code* is data: the
index pairs it reads, in slot order, and the sign that mirrors ``c[i, j]``
into ``c[j, i]``.  :func:`_layout` lists the argument each frame kind codes,
with its label stem and code, in label order; extraction, reconstruction and
the gauge probes all read that one list.

Labels are stable strings (``lam1``, ``A2[1,3]``, ``W1[1,2]``, ``a2[3]``;
mixed-basis components in the SVD variant use parentheses, e.g. ``A1(1,3)``
for ``v_1 . A_1 u_3``), so invariant lists are diffable across runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from isotropykit.lin3 import (
    _EYE,
    _FLOOR,
    _OFF_PAIRS,
    _SYM_PAIRS,
    _TOL_REL,
    DegenerateInputError,
    TensorSystem,
    _cross,
    _degeneracy_groups,
    _freeze,
    _norm,
    _thr,
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


class _Code:
    """How an argument is coded by its frame components: the index pairs it
    reads, in slot order (``(i,)`` for a vector), the sign that mirrors
    ``c[i, j]`` into ``c[j, i]`` (+1 symmetric, -1 skew, None: no mirror)
    and the brackets around the indices in its labels."""

    def __init__(self, pairs, mirror=None, brackets="[]"):
        self.pairs, self.mirror, self.brackets = tuple(pairs), mirror, brackets
        self.size = len(self.pairs)
        shape = (3,) * len(self.pairs[0])
        self.take = np.ravel_multi_index(tuple(zip(*self.pairs)), shape)
        # row k: the flattened components of unit slot k, mirror included
        self.dyads = np.zeros((self.size, 3 ** len(shape)))
        self.dyads[range(self.size), self.take] = 1.0
        if mirror is not None:
            self.dyads[range(self.size), [3 * j + i for i, j in self.pairs]] = mirror


_VEC = _Code(((0,), (1,), (2,)))
_SYM = _Code(_SYM_PAIRS, 1.0)
_SKEW = _Code(_OFF_PAIRS, -1.0)
_FULL = _Code([(i, j) for i in range(3) for j in range(3)])
_MIXED = _Code(_FULL.pairs, brackets="()")
_DIAG = _Code([(i, i) for i in range(3)])


def _encode(x, code, v, r=None) -> np.ndarray:
    """Frame components of ``x`` in the slot order of ``code``."""
    if code is _VEC:
        # one dot per frame vector: the same numbers as the gauge probes
        return np.array([x @ row for row in v])
    return (v @ x @ (v if r is None else r).T).take(code.take)


def _decode(values, code, v, r=None) -> np.ndarray:
    """The argument whose frame components are ``values`` (inverse of
    :func:`_encode` for an argument of the code's class).  Placing the
    values is exact: each component is one value times 1 or the mirror."""
    if code is _VEC:
        return np.asarray(values, dtype=float) @ v
    c = (np.asarray(values, dtype=float) @ code.dyads).reshape(3, 3)
    return v.T @ c @ (v if r is None else r)


@functools.lru_cache(maxsize=1024)
def _labels(stem, code) -> tuple:
    left, right = code.brackets
    return tuple(f"{stem}{left}{','.join(str(k + 1) for k in pair)}{right}"
                 for pair in code.pairs)


# per frame kind: the labels of the heads, which carry the frame source by
# its eigen- or singular values, the first coded (sym, nonsym, vecs) index
# and the source's argument class; a gram frame does not diagonalize its
# source, which is coded instead
_KINDS = {"sym_tensor": (("lam1", "lam2", "lam3"), (1, 0, 0), "sym"),
          "gram": ((), (0, 0, 0), "nonsym"),
          "vector": (("lam",), (0, 0, 1), "vecs"),
          "svd": (("sv1", "sv2", "sv3"), (0, 1, 0), "nonsym")}


@functools.lru_cache(maxsize=256)
def _layout(kind, n_sym, skew_flags, n_vec) -> tuple:
    """``(label stem, argument class, index, code)`` of every argument a frame
    of ``kind`` codes, in label order; ``ValueError`` if the system's shape
    cannot carry a frame of that kind."""
    n_nonsym = len(skew_flags)
    if kind == "sym_tensor" and n_sym < 1:
        raise ValueError("sym_tensor frame requires a symmetric argument")
    if kind == "gram" and (n_sym != 0 or n_nonsym < 1):
        raise ValueError("gram frame applies to systems with no symmetric tensor")
    if kind == "vector" and (n_sym != 0 or n_nonsym != 0 or n_vec < 1):
        raise ValueError("vector frame applies to vector-only systems")
    if kind == "svd" and n_nonsym < 1:
        raise ValueError("svd frame requires a non-symmetric argument")
    if kind not in _KINDS:
        raise ValueError(f"unknown frame kind {kind!r}")
    first_sym, first_nonsym, first_vec = _KINDS[kind][1]
    mixed = kind == "svd"
    layout = [(f"A{r + 1}", "sym", r, _MIXED if mixed else _SYM)
              for r in range(first_sym, n_sym)]
    for t in range(first_nonsym, n_nonsym):
        code = _MIXED if mixed else _SKEW if skew_flags[t] else _FULL
        layout.append((f"{'W' if code is _SKEW else 'H'}{t + 1}", "nonsym", t, code))
    layout += [(f"a{s + 1}", "vecs", s, _VEC) for s in range(first_vec, n_vec)]
    return tuple(layout)


@dataclass(frozen=True)
class SpectralFrame:
    """Eigen/singular data of the distinguished argument.

    ``kind`` is one of ``"sym_tensor"``, ``"gram"``, ``"vector"``, ``"svd"``.
    ``v`` holds the basis vectors as rows; ``u`` is the dual triad for the
    SVD variant (rows, signs slaved to the reconstruction of the source).
    ``degeneracy`` partitions ``{0, 1, 2}`` into groups of equal eigenvalues
    at the tolerance used to build the frame.  The distinguished argument is
    always the first of its class (sym, nonsym or vecs, by ``kind``).
    """

    kind: str
    lambdas: np.ndarray
    v: np.ndarray
    u: np.ndarray | None = None
    degeneracy: tuple = ((0,), (1,), (2,))

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
        return self.as_dict()[label]

    def as_dict(self) -> dict:
        return dict(self.entries)


def frame_completion(v1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing ``v1`` to a right-handed triad.

    ``v2`` is ``v1`` crossed with the coordinate axis least aligned with it
    (the best-conditioned choice), ``v3 = v1 x v2``.
    """
    k = int(np.argmin(np.abs(v1)))
    v2 = np.array(_cross(v1, _EYE[k]))
    v2 /= _norm(v2)
    return v2, np.array(_cross(v1, v2))


# ---------------------------------------------------------------------------
# equivariant sign gauge


def _probe_values(system: TensorSystem, v, u, kind, slot):
    """Yield (value, size) sign probes for the given eigenvector slot, with
    the norm of the argument each value comes from.

    A probe must be odd under flipping ``v[slot]`` (jointly with ``u[slot]``
    for SVD frames) and even under flipping the other allowed sign.  Vector
    projections ``a . v[slot]`` qualify directly; for tensors, the component
    pair ``(1, 2)`` responds to the slot-0 sign and ``(0, 2)`` to slot 1,
    because the third sign is the product of the first two.
    """
    i, j = (1, 2) if slot == 0 else (0, 2)
    for a in system.vecs:
        yield a @ v[slot], _norm(a)
    right = v if u is None else u
    for _, cls, index, code in _layout(kind, system.n_sym, system.nonsym_skew,
                                       system.n_vec):
        if code is _VEC:
            continue
        x = getattr(system, cls)[index]
        size = _norm(x)
        yield v[i] @ x @ right[j], size
        if code is not _SKEW:
            yield v[j] @ x @ right[i], size


def _frozen_frame(kind, lambdas, v, u, degeneracy) -> SpectralFrame:
    return SpectralFrame(kind, _freeze(lambdas), _freeze(v),
                         None if u is None else _freeze(u), degeneracy)


def _apply_equivariant_gauge(system, kind, v, u=None):
    signs = [1.0, 1.0]
    for slot in (0, 1):
        for value, size in _probe_values(system, v, u, kind, slot):
            if abs(value) > _thr(_TOL_REL, size):
                signs[slot] = 1.0 if value > 0.0 else -1.0
                break
    s0, s1 = signs
    full = np.array([[s0], [s1], [s0 * s1]])
    return v * full, None if u is None else u * full


# ---------------------------------------------------------------------------
# frame construction


# the last frame built, with its system's content key, as one tuple so that
# the slot is never half-written
_last_frame = (None, None)


def _content_key(system: TensorSystem) -> tuple:
    # the member counts per class, the flags and the bytes of every member:
    # the gauge probes read every member, so all of it decides the frame
    return (len(system.sym), len(system.nonsym), len(system.vecs), system.nonsym_skew,
            system.vec_unit, *(x.tobytes() for x in system.sym + system.nonsym + system.vecs))


def build_frame(system: TensorSystem) -> SpectralFrame:
    """Build the spectral frame for a system.

    Selection rule: the eigenbasis of the first symmetric tensor if any;
    otherwise the eigenbasis of ``H1 @ H1.T`` if a non-symmetric tensor is
    present; otherwise the frame carried by the first vector, with
    ``lambdas[0] = a1 . a1`` and ``v[0] = a1 / sqrt(lambda)``.

    One slot remembers the last frame built.  Its key is the system's exact
    content (member counts per class, skew and unit flags, the bytes of every
    member), so a system equal bit for bit to the last one gets the same
    (immutable) frame back without a second decomposition.  That is the
    finite-element pattern: a material point asks for its invariants, then
    for its stress, and both decompose the same system.
    """
    global _last_frame
    key = _content_key(system)
    last_key, frame = _last_frame
    if key == last_key:
        return frame
    frame = _frame_of(system)
    _last_frame = (key, frame)
    return frame


def _frame_of(system: TensorSystem) -> SpectralFrame:
    if system.n_sym >= 1:
        lams, v, groups = eig_sym(system.sym[0])
        v, _ = _apply_equivariant_gauge(system, "sym_tensor", v)
        return _frozen_frame("sym_tensor", lams, v, None, groups)
    if system.n_nonsym >= 1:
        h = system.nonsym[0]
        if np.abs(h).max() == 0.0:
            raise DegenerateInputError("frame tensor is zero")
        lams, v, groups = eig_sym(h @ h.T)
        lams = np.clip(lams, 0.0, None)
        v, _ = _apply_equivariant_gauge(system, "gram", v)
        return _frozen_frame("gram", lams, v, None, groups)
    a = system.vecs[0]
    lam = float(a @ a)
    if lam < _FLOOR:
        raise DegenerateInputError("frame vector is zero")
    v1 = a / np.sqrt(lam)
    v2, v3 = frame_completion(v1)
    lams = np.array([lam, 0.0, 0.0])
    return _frozen_frame("vector", lams, np.array([v1, v2, v3]), None,
                         _degeneracy_groups(lams.tolist(), _TOL_REL))


def build_svd_frame(system: TensorSystem) -> SpectralFrame:
    """Frame from the singular value decomposition of the first non-symmetric
    tensor; subsequent extraction uses mixed components ``v_i . X u_j``."""
    if system.n_nonsym < 1:
        raise ValueError("SVD frame needs at least one non-symmetric tensor")
    h = system.nonsym[0]
    if np.abs(h).max() == 0.0:
        raise DegenerateInputError("frame tensor is zero")
    sv, v, u = svd3(h)
    v, u = _apply_equivariant_gauge(system, "svd", v, u)
    return _frozen_frame("svd", sv, v, u, _degeneracy_groups(sv.tolist(), _TOL_REL))


# ---------------------------------------------------------------------------
# invariant extraction


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
    layout = _layout(frame.kind, system.n_sym, system.nonsym_skew, system.n_vec)
    v, u = frame.v, frame.u
    entries = list(zip(_KINDS[frame.kind][0], frame.lambdas.tolist()))
    if frame.kind == "svd":
        entries += [(f"u{i + 1}.v{i + 1}", float(u[i] @ v[i])) for i in range(3)]
    for stem, cls, index, code in layout:
        x = getattr(system, cls)[index]
        entries += zip(_labels(stem, code), _encode(x, code, v, u).tolist())
    entries = tuple(entries)
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
    u = frame.u if frame is not None else None
    data = inv.as_dict()
    heads = [data[label] for label in _KINDS[inv.frame_kind][0]]
    args = {"sym": [], "nonsym": [], "vecs": []}
    if inv.frame_kind == "sym_tensor":
        args["sym"].append(_decode(heads, _DIAG, v))
    elif inv.frame_kind == "vector":
        args["vecs"].append(np.sqrt(heads[0]) * v[0])
    elif inv.frame_kind == "svd":
        args["nonsym"].append(_decode(heads, _DIAG, v, u))
    for stem, cls, _, code in _layout(inv.frame_kind, inv.n_sym, inv.nonsym_skew,
                                      len(inv.vec_unit)):
        values = [data[label] for label in _labels(stem, code)]
        args[cls].append(_decode(values, code, v, u))
    # tensor_system restores the exact symmetry of the mixed-coded SVD tensors
    return tensor_system(sym=args["sym"], nonsym=args["nonsym"], skew=inv.nonsym_skew,
                         vecs=args["vecs"], unit=inv.vec_unit)
