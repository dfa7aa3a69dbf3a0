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
:func:`build_frame` therefore fixes the residual signs from coded entries
that rotate with the system (vector projections, off-diagonal components of
the remaining tensors), which makes the extracted components reproducible
under simultaneous rotation of all arguments.

Every argument is coded the same way, by one codec: :func:`_encode` reads
the components ``v_i . X r_j`` of a tensor (``r = u`` for the mixed SVD
components, ``r = v`` otherwise) or ``x . v_i`` of a vector, and
:func:`_decode` sums them back over the frame dyads.  A *code* is data: the
index pairs it reads, in slot order, and the sign that mirrors ``c[i, j]``
into ``c[j, i]``, and per slot the mask of the frame signs that negate it.
:func:`_layout` lists the argument each frame kind codes, with its label
stem and code, in label order; extraction, reconstruction, the sign gauge
and the exact Jacobian columns (:func:`_tangent`) all read that one list.

Labels are stable strings (``lam1``, ``A2[1,3]``, ``W1[1,2]``, ``a2[3]``;
mixed-basis components in the SVD variant use parentheses, e.g. ``A1(1,3)``
for ``v_1 . A_1 u_3``), so invariant lists are diffable across runs.

:func:`build_frame`, :func:`build_svd_frame` and :func:`extract_invariants`
take one system.  A verify sweep codes a stack of T systems (see
:mod:`isotropykit.lin3`) in one pass: :func:`_frames` builds their sym or
gram frames, and :func:`_values` returns their lists as one ``(T, n)`` block
under the layout's shared labels.  Every frame comes from one source step
(:func:`_source`: the kind, the zero check, ``H H^T``) and one sign gauge
(:func:`_gauge`), which, like the codec and ``_values``, takes one frame or
a stack alike; every row has the bits of the one-system call.
"""

from __future__ import annotations

import functools
import operator
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
    _as_array,
    _cross,
    _degeneracy_groups,
    _eighs,
    _freeze,
    _norm,
    _row_norms,
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
    "irreducible_count",
    "rebuild_system",
]


class _Code:
    """How an argument is coded by its frame components: the index pairs it
    reads, in slot order (``(i,)`` for a vector), the sign that mirrors
    ``c[i, j]`` into ``c[j, i]`` (+1 symmetric, -1 skew, None: no mirror)
    and the brackets around the indices in its labels.

    ``odd`` holds per slot the mask of the frame signs that negate it: bit 1
    for the sign ``s0`` of ``v[0]``, bit 2 for ``s1`` of ``v[1]`` and 3 for
    ``v[2]``, whose sign is ``s0 s1`` (``u`` flips with ``v``).  A slot's
    mask is the XOR of its indices' masks, so a diagonal slot's is 0."""

    def __init__(self, pairs, mirror=None, brackets="[]"):
        self.pairs, self.mirror, self.brackets = tuple(pairs), mirror, brackets
        self.size = len(self.pairs)
        self.odd = tuple(functools.reduce(operator.xor, (k + 1 for k in pair))
                         for pair in self.pairs)
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
    """Frame components of ``x`` in the slot order of ``code``: in one frame,
    or as a ``(T, size)`` block in a stack of T frames (``v``, ``r``: ``(T, 3,
    3)``), ``x`` one for all or stacked alike."""
    if code is _VEC:
        # one (1, 3) @ (3, 1) dot per frame vector: the bits the recorded
        # reports hold (a matvec ``v @ x`` rounds differently in about half
        # of the vectors)
        return (x[..., None, None, :] @ v[..., None])[..., 0, 0]
    c = v @ x @ (v if r is None else r).swapaxes(-1, -2)
    return c.take(code.take) if c.ndim == 2 else c.reshape(len(c), 9)[:, code.take]


def _decode(values, code, v, r=None) -> np.ndarray:
    """The argument whose frame components are ``values`` (inverse of
    :func:`_encode` for an argument of the code's class).  Placing the
    values is exact: each component is one value times 1 or the mirror."""
    if code is _VEC:
        return np.asarray(values, dtype=float) @ v
    c = (np.asarray(values, dtype=float) @ code.dyads).reshape(3, 3)
    return v.T @ c @ (v if r is None else r)


def _motion(system, frame, dxs):
    # the heads' rows, dv and dr (du in an SVD frame) along the source's moves dxs
    v, u, s = frame.v, frame.u, frame.lambdas
    if frame.kind == "vector":
        e = _EYE[np.argmin(np.abs(v[0]))]  # _frame_completion's axis
        omega = np.zeros((len(dxs), 3, 3))
        omega[:, 0, 1:] = dxs @ v[1:].T / np.sqrt(s[0])  # dv_1 . v_j
        dv1 = omega[:, 0, 1:] @ v[1:]
        # the v_2 rule: dv_2 . v_3 = (dv_1 x e_k) . v_3 / |v_1 x e_k|
        omega[:, 1, 2] = dv1 @ _cross(e, v[2]) / _norm(np.array(_cross(v[0], e)))
        dv = (omega - omega.swapaxes(1, 2)) @ v
        # the head's dot row by row, so a stack rounds as its single moves do
        return 2.0 * (dxs * system.vecs[0]).sum(1, keepdims=True), dv, dv
    h = system.nonsym[0] if frame.kind == "gram" else None
    ds = dxs if h is None else dxs @ h.T + h @ dxs.swapaxes(1, 2)
    p = v @ ds @ (v if u is None else u).T
    q = s if u is None else s ** 2  # eigenvalues, or squared singular values
    gap = q[:, None] - q
    np.fill_diagonal(gap, np.inf)  # omega_ii = A_ii = B_ii = 0
    if u is None:
        dv = p / gap @ v
        return np.diagonal(p, 0, 1, 2)[:, :len(_KINDS[frame.kind][0])], dv, dv
    dv = (s * p + s[:, None] * p.swapaxes(1, 2)) / gap @ v
    du = (s[:, None] * p + s * p.swapaxes(1, 2)) / gap @ u
    dots = (du * v).sum(2) + (u * dv).sum(2)
    return np.concatenate([np.diagonal(p, 0, 1, 2), dots], axis=1), dv, du


def _tangent(system, frame, moves) -> np.ndarray:
    """The ``(n, K)`` Jacobian of ``frame``'s list at ``system`` along the
    blocks ``(cls, index, dxs)`` of ``moves``, in order: the K_b moves
    ``dxs`` (``(K_b, 3, 3)`` or ``(K_b, 3)``) of argument ``index`` of ``cls``.

    Only the source moves the frame (:func:`_motion`: the heads' rows, and
    ``dv`` and ``dr``, which is ``du`` in an SVD frame).  A sym or gram
    source ``S`` (``A``, or ``H H^T``) moves by ``dS``: with ``P = v dS v^T``,
    its eigenvalues by ``diag P`` and its frame by ``dv = Omega v``,
    ``Omega_ij = P_ij / (lam_i - lam_j)`` (Magnus 1985).  An SVD source
    ``H = sum s_i v_i (x) u_i`` moves by ``dH``: with ``P = v dH u^T``, its
    singular values by ``diag P``, its triads by ``dv = A v``, ``du = B u``,
    ``A_ij = (s_j P_ij + s_i P_ji) / (s_i^2 - s_j^2)``, ``B_ij = (s_i P_ij +
    s_j P_ji) / (s_i^2 - s_j^2)`` (Papadopoulo & Lourakis 2000), and its
    heads ``u_i . v_i`` by ``du_i . v_i + u_i . dv_i``.  A vector source
    ``a`` moves its head ``a . a`` by ``2 a . da`` and its triad by a skew
    ``Omega``: ``v_1 = a / |a|`` by ``(I - v_1 v_1^T) da / |a|``, ``v_2 =
    v_1 x e_k / |v_1 x e_k|`` (``k`` fixed) by ``Omega_12 = (dv_1 x e_k) .
    v_3 / |v_1 x e_k|``, ``v_3 = v_1 x v_2`` by row 2 of ``Omega v``.  A
    coded ``v X r^T`` (``v x``) moves by ``dv X r^T + v X dr^T`` (``dv x``),
    a moved argument's own rows by the code of each ``dx``.
    """
    v = frame.v
    r = v if frame.u is None else frame.u
    layout = _layout(frame.kind, system.n_sym, system.nonsym_skew, system.n_vec)
    rows, row = {}, len(_KINDS[frame.kind][0]) + 3 * (frame.kind == "svd")
    for _, c, i, code in layout:
        rows[c, i], row = (row, code), row + code.size
    out, col = np.zeros((row, sum(len(dxs) for *_, dxs in moves))), 0
    for cls, index, dxs in moves:
        k = len(dxs)
        block, col = out[:, col:col + k], col + k
        moved = (dxs @ v.T if cls == "vecs" else v @ dxs @ r.T).reshape(k, -1)
        if (cls, index) != (_KINDS[frame.kind][2], 0):  # the frame stays put
            start, code = rows[cls, index]
            block[start:start + code.size] = moved[:, code.take].T
            continue
        heads, dv, dr = _motion(system, frame, dxs)
        columns = [heads]
        for _, c, i, code in layout:
            x = getattr(system, c)[i]
            d = dv @ x if code is _VEC else dv @ x @ r.T + v @ x @ dr.swapaxes(1, 2)
            d = d.reshape(k, -1)
            # a gram frame codes its source too
            columns.append((d + moved if (c, i) == (cls, index) else d)[:, code.take])
        block[:] = np.concatenate(columns, axis=1).T
    return out


@functools.lru_cache(maxsize=1024)
def _labels(stem, code) -> tuple:
    left, right = code.brackets
    return tuple(f"{stem}{left}{','.join(str(k + 1) for k in pair)}{right}"
                 for pair in code.pairs)


@functools.lru_cache(maxsize=256)
def _list_labels(kind, layout) -> tuple:
    # the label tuple of every list of one layout, and its label -> index map
    labels = _KINDS[kind][0] + ("u1.v1", "u2.v2", "u3.v3") * (kind == "svd") + sum(
        (_labels(stem, code) for stem, _, _, code in layout), ())
    return labels, {label: k for k, label in enumerate(labels)}


# per frame kind: the labels of the heads, which carry the frame source by
# its eigen- or singular values, the first coded (sym, nonsym, vecs) index
# and the source's argument class; a gram frame does not diagonalize its
# source, which is coded instead
_KINDS = {"sym_tensor": (("lam1", "lam2", "lam3"), (1, 0, 0), "sym"),
          "gram": ((), (0, 0, 0), "nonsym"),
          "vector": (("lam",), (0, 0, 1), "vecs"),
          "svd": (("sv1", "sv2", "sv3"), (0, 1, 0), "nonsym")}


@functools.lru_cache(maxsize=256)
def _layout(kind, n_sym, skew_flags, n_vec, gauge=False) -> tuple:
    """``(label stem, argument class, index, code)`` of every argument a frame
    of ``kind`` codes, in label order, or with ``gauge`` in the order the sign
    gauge reads them: the vectors first, which a gauged frame codes all of;
    ``ValueError`` if the system's shape cannot carry a frame of that kind."""
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
    return tuple(layout[-n_vec:] + layout[:-n_vec] if gauge else layout)


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


@dataclass(frozen=True, eq=False, slots=True)
class SpectralInvariants:
    """Labeled component invariants of a system in its frame.

    The values are one read-only float64 array in the fixed label order; the
    label tuple and its label -> index map are shared by every list of one
    layout (frame kind and system shape).  ``entries`` and :meth:`as_dict`
    build ``(label, float)`` pairs on demand, :meth:`values` is a fresh array,
    and lists compare by labels, value bytes, count, kind and flags.
    ``count`` is the effective irreducible count (one less per unit-flagged
    vector, whose components satisfy a norm constraint, and three less per
    symmetric tensor in the SVD variant, whose nine mixed components carry
    only six degrees of freedom).  ``len(entries)`` can exceed ``count``.
    """

    _values: np.ndarray
    _labels: tuple
    _index: dict
    count: int
    frame_kind: str
    n_sym: int
    nonsym_skew: tuple
    vec_unit: tuple

    @property
    def entries(self) -> tuple:
        return tuple(zip(self._labels, self._values.tolist()))

    def labels(self) -> tuple:
        return self._labels

    def values(self) -> np.ndarray:
        return self._values.copy()

    def __getitem__(self, label: str) -> float:
        return self._values.item(self._index[label])

    def as_dict(self) -> dict:
        return dict(self.entries)

    def _key(self) -> tuple:
        return (self._labels, self._values.tobytes(), self.count, self.frame_kind,
                self.n_sym, self.nonsym_skew, self.vec_unit)

    def __eq__(self, other):
        return isinstance(other, SpectralInvariants) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _frame_completion(v1):
    # two unit vectors completing the unit ``v1`` to a right-handed triad: ``v2``
    # is ``v1`` crossed with the coordinate axis least aligned with it (the
    # best-conditioned choice), ``v3 = v1 x v2``
    k = int(np.argmin(np.abs(v1)))
    v2 = np.array(_cross(v1, _EYE[k]))
    v2 /= _norm(v2)
    return v2, np.array(_cross(v1, v2))


# ---------------------------------------------------------------------------
# equivariant sign gauge


def _frozen_frame(kind, lambdas, v, u, degeneracy) -> SpectralFrame:
    return SpectralFrame(kind, _freeze(lambdas), _freeze(v),
                         None if u is None else _freeze(u), degeneracy)


def _gauge(system, kind, v, u=None):
    """``v`` (and ``u``) with the signs ``s0`` of ``v[0]`` and ``s1`` of
    ``v[1]`` fixed, ``v[2]`` taking ``s0 s1``, in one frame or in each of a
    stack of T (members and triads with a leading axis of T).  Each sign is
    taken from the first coded entry, of the vectors and then the tensors in
    list order, that only its flip negates (``code.odd`` is its bit) and that
    clears the threshold of its argument's norm.  Then a free ``s1``, else a
    free ``s0``, is taken from the first such entry that both flips negate
    (mask 3, sign ``s0 s1``); a sign left free by every entry stays +1."""
    stacked = v.ndim == 3
    n = len(v) if stacked else 1
    # per mask bit 1, 2 and 3 (index 0 unused) the sign of each row, 0.0 while free
    sign = [[0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n]
    for _, cls, index, code in _layout(kind, system.n_sym, system.nonsym_skew,
                                       system.n_vec, gauge=True):
        x = getattr(system, cls)[index]
        sizes = _row_norms(x.reshape(n, -1)).tolist() if stacked else [_norm(x)]
        for t, row in enumerate(_encode(x, code, v, u).reshape(n, -1).tolist()):
            thr = _thr(_TOL_REL, sizes[t])
            for value, bit in zip(row, code.odd):
                if bit and not sign[bit][t] and abs(value) > thr:
                    sign[bit][t] = 1.0 if value > 0.0 else -1.0
        if all(sign[1]) and all(sign[2]):
            break
    full = []
    for s0, s1, s01 in zip(sign[1], sign[2], sign[3]):
        s0 = s0 or s01 * s1 or 1.0  # s01 s1 is 0.0 unless both are fixed
        s1 = s1 or s01 * s0 or 1.0
        full += (s0, s1, s0 * s1)
    full = np.array(full).reshape(v.shape[:-1] + (1,))
    return v * full, None if u is None else u * full


# ---------------------------------------------------------------------------
# frame construction


# the last frame built, with its system's content key, as one tuple so that
# the slot is never half-written
_last_frame = (None, None)


def _content_key(system: TensorSystem) -> tuple:
    # the member counts per class, the flags and the bytes of every member:
    # the gauge may read every member, so all of it decides the frame
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


def _source(system, svd=False):
    """The kind of frame a system or a stack gets from :func:`build_frame`, or
    with ``svd`` from :func:`build_svd_frame`, and what the frame factors: the
    first symmetric tensor, ``H H^T`` of the first non-symmetric ``H`` (``H``
    itself with ``svd``), or the first vector."""
    if svd and system.n_nonsym < 1:
        raise ValueError("SVD frame needs at least one non-symmetric tensor")
    if not svd and system.n_sym >= 1:
        return "sym_tensor", system.sym[0]
    if not svd and system.n_nonsym < 1:
        return "vector", system.vecs[0]
    h = system.nonsym[0]
    if not h.reshape(-1, 9).any(1).all():  # a zero tensor, or a stack with one
        raise DegenerateInputError("frame tensor is zero")
    if svd:
        return "svd", h
    with np.errstate(over="ignore", invalid="ignore"):  # an inf fails the input check
        return "gram", h @ h.swapaxes(-1, -2)


def _frames(stack: TensorSystem):
    """The kind, eigenvalues ``(T, 3)`` and triads ``(T, 3, 3)`` that
    :func:`build_frame` gives each system of a stack with a symmetric or a
    non-symmetric tensor, bit for bit and with its errors.  The sweeps stack
    no vector-only system: its frame is always degenerate."""
    kind, source = _source(stack)
    lams, v = _eighs(_as_array(source, source.shape, "tensor"))
    lams = np.clip(lams, 0.0, None) if kind == "gram" else lams
    return kind, lams, _gauge(stack, kind, v)[0]


def _frame_rows(kind, lambdas, v) -> list:
    # the SpectralFrame of each row of :func:`_frames`
    return [_frozen_frame(kind, lam, vt, None, _degeneracy_groups(lam.tolist(), _TOL_REL))
            for lam, vt in zip(lambdas, v)]


def _frame_of(system: TensorSystem) -> SpectralFrame:
    kind, source = _source(system)
    if kind != "vector":
        lams, v, groups = eig_sym(source)
        lams = np.clip(lams, 0.0, None) if kind == "gram" else lams
        return _frozen_frame(kind, lams, _gauge(system, kind, v)[0], None, groups)
    lam = float(np.vdot(source, source))  # an overflow is inf here, with no warning
    if lam < _FLOOR:
        raise DegenerateInputError("frame vector is zero")
    if lam == np.inf:
        raise DegenerateInputError("frame vector's squared norm overflows")
    v1 = source / np.sqrt(lam)
    v2, v3 = _frame_completion(v1)
    lams = np.array([lam, 0.0, 0.0])
    return _frozen_frame("vector", lams, np.array([v1, v2, v3]), None,
                         _degeneracy_groups(lams.tolist(), _TOL_REL))


def build_svd_frame(system: TensorSystem) -> SpectralFrame:
    """Frame from the singular value decomposition of the first non-symmetric
    tensor; subsequent extraction uses mixed components ``v_i . X u_j``."""
    kind, source = _source(system, svd=True)
    sv, v, u = svd3(source)
    v, u = _gauge(system, kind, v, u)
    return _frozen_frame(kind, sv, v, u, _degeneracy_groups(sv.tolist(), _TOL_REL))


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
    return _invariants(system, frame.kind,
                       _values(system, frame.kind, frame.lambdas, frame.v, frame.u))


def _values(system, kind, lambdas, v, u=None) -> np.ndarray:
    # the values of :func:`extract_invariants` in one frame of ``kind``, or
    # the (T, n) block in a stack of T frames; the system's members are one
    # for all or stacked alike
    layout = _layout(kind, system.n_sym, system.nonsym_skew, system.n_vec)
    blocks = [lambdas[..., :len(_KINDS[kind][0])]]
    if kind == "svd":
        blocks.append((u[..., None, :] @ v[..., None])[..., 0, 0])  # u_i . v_i
    blocks += [_encode(getattr(system, cls)[k], code, v, u) for _, cls, k, code in layout]
    return np.concatenate(blocks, axis=-1)


def _invariants(system, kind, values) -> SpectralInvariants:
    # the list of one row of values of a frame of ``kind``, which it freezes
    labels, index = _list_labels(kind, _layout(kind, system.n_sym, system.nonsym_skew,
                                               system.n_vec))
    count = len(labels) - sum(system.vec_unit) - 3 * system.n_sym * (kind == "svd")
    return SpectralInvariants(_freeze(values), labels, index, count, kind, system.n_sym,
                              system.nonsym_skew, system.vec_unit)


def irreducible_count(N: int, M: int, P: int, *, skew_nonsym: bool = False,
                      all_vectors_unit: bool = False, svd_variant: bool = False) -> int:
    """Closed-form size of the irreducible spectral invariant list.

    With a symmetric tensor present: ``3P + 9M + 6N - 3`` (``3M`` instead of
    ``9M`` when the non-symmetric tensors are all skew).  Without one, the
    gram frame gives ``9M + 3P`` (complete but with a three-fold redundancy;
    the SVD variant achieves ``9M + 6N + 3P - 3``), and a vector-only system
    gives ``3P - 2``.  Each unit vector loses one invariant to its norm
    constraint.  The SVD variant needs general tensors: a skew tensor's
    singular values are ``(s, s, 0)``, so its SVD frame is never generic,
    and ``skew_nonsym`` with ``svd_variant`` is a ``ValueError``.
    """
    if N < 0 or M < 0 or P < 0 or (N == 0 and M == 0 and P == 0):
        raise ValueError("need non-negative N, M, P with at least one argument")
    if skew_nonsym and M == 0:
        raise ValueError("skew_nonsym flag requires M >= 1")
    if svd_variant and M == 0:
        raise ValueError("svd_variant requires M >= 1")
    if svd_variant and skew_nonsym:
        raise ValueError("svd_variant requires general tensors: a skew tensor's "
                         "singular values (s, s, 0) never give a generic SVD frame")
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
    heads = inv._values[:len(_KINDS[inv.frame_kind][0])]
    row = len(heads) + 3 * (inv.frame_kind == "svd")
    args = {"sym": [], "nonsym": [], "vecs": []}
    if inv.frame_kind == "sym_tensor":
        args["sym"].append(_decode(heads, _DIAG, v))
    elif inv.frame_kind == "vector":
        args["vecs"].append(np.sqrt(heads[0]) * v[0])
    elif inv.frame_kind == "svd":
        args["nonsym"].append(_decode(heads, _DIAG, v, u))
    for _, cls, _, code in _layout(inv.frame_kind, inv.n_sym, inv.nonsym_skew,
                                   len(inv.vec_unit)):
        args[cls].append(_decode(inv._values[row:row + code.size], code, v, u))
        row += code.size
    # tensor_system restores the exact symmetry of the mixed-coded SVD tensors
    return tensor_system(sym=args["sym"], nonsym=args["nonsym"], skew=inv.nonsym_skew,
                         vecs=args["vecs"], unit=inv.vec_unit)
