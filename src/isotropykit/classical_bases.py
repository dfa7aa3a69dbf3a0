"""Classical Boehler/Smith functional bases as numeric evaluators.

These are the comparison targets for every reduction claim: the classical
scalar invariants of symmetric tensors, skew tensors and vectors, and the Smith
generators of vector- and symmetric-tensor-valued isotropic functions, listed
(never counted by closed form) in the stated order.  A basis is its shape,
its labels and one program compiled from them, whose row k is the item
labelled ``labels()[k]``.  ``evaluate`` takes one system, giving an ``(n,)``,
``(n, 3)`` or ``(n, 3, 3)`` array, or a ``lin3`` stack of B systems, giving
one ``(B, n, ...)`` array; one system's values equal bit for bit its row in
any stack.

Every step is linear (an operand pick, ``tr``, ``sym``, ``add``, ``sub``) or
bilinear (``mul``, ``outer``), so a program also runs in forward mode
(Griewank & Walther 2008) on a *jet*: a stack of a system (row 0) and K
tangents at it.  A bilinear step writes ``f(x0, y0)`` on row 0 and ``f(dx,
y0) + f(x0, dy)`` below it, any other step maps the whole stack, and row k of
the result is the items' exact derivative along tangent k.

Label grammar
-------------
Labels are parsed into one program per basis.  Operands: ``A1, A2, ...``
symmetric tensors, ``W1, ...`` skew tensors, ``a1, ...`` vectors and ``I`` the
identity.  Operators from loosest to tightest, all left-associative
(parentheses group): ``X-Y`` difference; ``uxv`` the dyad ``u (x) v``; ``X.Y``
or ``X*Y`` matrix product (``a1.a2`` is a dot product); ``X^n`` the n-th power.
Functions: ``tr(X)`` trace, ``sym(X) = X + X^T``, ``comm(X,Y) = XY - YX``,
``anti(X,Y) = XY + YX`` and ``alt(u,v) = u (x) v - v (x) u``.

General non-symmetric tensors have no classical counterpart here.  The
scalar list includes ``tr(Ai*Aj)``: the two-symmetric-tensor list is
incomplete without it and the skew-extended list states it explicitly.
"""

from __future__ import annotations

import itertools
import operator
import re

import numpy as np

from isotropykit.lin3 import _EYE, TensorSystem, _stack

__all__ = ["ClassicalScalarBasis", "ClassicalTensorBasis",
           "ClassicalVectorBasis", "boehler_scalars", "smith_sym_tensors",
           "smith_vectors"]

# One template per line, ``label|loops``: ``i, j, k`` run over the symmetric
# tensors, ``p, q, r`` over the skew tensors and ``m, n`` over the vectors;
# letters joined by ``<`` increase strictly; loops nest in the order written.
_BOEHLER = """
a{m}.a{m}|m
a{m}.a{n}|m<n
tr(A{i})|i
tr(A{i}^2)|i
tr(A{i}^3)|i
tr(A{i}*A{j})|i<j
tr(A{i}^2*A{j})|i<j
tr(A{i}*A{j}^2)|i<j
tr(A{i}^2*A{j}^2)|i<j
tr(A{i}*A{j}*A{k})|i<j<k
tr(W{p}^2)|p
tr(W{p}*W{q})|p<q
tr(W{p}*W{q}*W{r})|p<q<r
a{m}.A{i}.a{m}|m,i
a{m}.A{i}^2.a{m}|m,i
a{m}.(A{i}*A{j}).a{m}|m,i<j
a{m}.A{i}.a{n}|m<n,i
a{m}.A{i}^2.a{n}|m<n,i
a{m}.(A{i}*A{j}-A{j}*A{i}).a{n}|m<n,i<j
a{m}.W{p}^2.a{m}|m,p
a{m}.(W{p}*W{q}).a{m}|m,p<q
a{m}.(W{p}^2*W{q}).a{m}|m,p<q
a{m}.(W{p}*W{q}^2).a{m}|m,p<q
a{m}.W{p}.a{n}|m<n,p
a{m}.W{p}^2.a{n}|m<n,p
a{m}.(W{p}*W{q}-W{q}*W{p}).a{n}|m<n,p<q
tr(A{i}*W{p}^2)|i,p
tr(A{i}^2*W{p}^2)|i,p
tr(A{i}^2*W{p}^2*A{i}*W{p})|i,p
tr(A{i}*W{p}*W{q})|i,p<q
tr(A{i}*W{p}*W{q}^2)|i,p<q
tr(A{i}*W{p}^2*W{q})|i,p<q
tr(A{i}*A{j}*W{p})|i<j,p
tr(A{i}*W{p}^2*A{j}*W{p})|i<j,p
tr(A{i}*A{j}^2*W{p})|i<j,p
tr(A{i}^2*A{j}*W{p})|i<j,p
a{m}.(A{i}*W{p}).a{m}|m,i,p
a{m}.(W{p}*A{i}*W{p}^2).a{m}|m,i,p
a{m}.(A{i}^2*W{p}).a{m}|m,i,p
a{m}.(A{i}*W{p}-W{p}*A{i}).a{n}|m<n,i,p
"""
_SMITH_VECTORS = """
a{m}|m
A{i}.a{m}|i,m
A{i}^2.a{m}|i,m
(A{i}*A{j}-A{j}*A{i}).a{m}|i<j,m
W{p}.a{m}|p,m
W{p}^2.a{m}|p,m
(W{p}*W{q}-W{q}*W{p}).a{m}|p<q,m
(A{i}*W{p}-W{p}*A{i}).a{m}|i,p,m
"""
_SMITH_TENSORS = """
I|
A{i}|i
A{i}^2|i
sym(A{i}*A{j})|i<j
sym(A{i}^2*A{j})|i<j
sym(A{i}*A{j}^2)|i<j
a{m}xa{m}|m
sym(a{m}xa{n})|m<n
sym(a{m}xA{i}.a{m})|m,i
sym(a{m}xA{i}^2.a{m})|m,i
comm(A{i},alt(a{m},a{n}))|i,m<n
W{p}^2|p
sym(W{p}*W{q})|p<q
comm(W{p},W{q}^2)|p<q
comm(W{p}^2,W{q})|p<q
comm(A{i},W{p})|i,p
W{p}*A{i}*W{p}|p,i
comm(A{i}^2,W{p})|i,p
W{p}*A{i}*W{p}^2-W{p}^2*A{i}*W{p}|p,i
W{p}.a{m}xW{p}.a{m}|p,m
sym(a{m}xW{p}.a{m})|m,p
sym(W{p}.a{m}xW{p}^2.a{m})|p,m
anti(W{p},alt(a{m},a{n}))|p,m<n
"""


def _expand(table: str, N: int, M: int, P: int):
    """Yield the labels of a template table, in table order."""
    if min(N, M, P) < 0:
        raise ValueError("counts must be non-negative")
    count = dict.fromkeys("ijk", N) | dict.fromkeys("pqr", M) | dict.fromkeys("mn", P)
    for line in table.split():
        template, _, loops = line.partition("|")
        groups = [group.split("<") for group in loops.split(",")] if loops else []
        ranges = [itertools.combinations(range(count[g[0]]), len(g)) for g in groups]
        for combo in itertools.product(*ranges):
            index = {letter: k + 1 for group, ks in zip(groups, combo)
                     for letter, k in zip(group, ks)}
            yield template.format(**index)


# any other character is a token of its own, which no rule accepts
_TOKEN = re.compile(r"(?:tr|sym|comm|anti|alt)?\(|[AWa][1-9]\d*|\^[1-9]\d*|.")
_LEVELS = ((("-",), "sub"), (("x",), "outer"), ((".", "*"), "mul"))  # loosest first
# functions (and bare parentheses) in terms of operators; ``emit`` returns a slot
_FUNCTIONS = {
    "": lambda emit, x: x,
    "tr": lambda emit, x: emit("tr", x),
    "sym": lambda emit, x: emit("sym", x),
    "comm": lambda emit, x, y: emit("sub", emit("mul", x, y), emit("mul", y, x)),
    "anti": lambda emit, x, y: emit("add", emit("mul", x, y), emit("mul", y, x)),
    "alt": lambda emit, x, y: emit("sub", emit("outer", x, y), emit("outer", y, x)),
}
# the first slots of every program (a stack's members by class, and I), with
# their ranks: 0 scalar, 1 vector, 2 tensor
_OPERANDS = {"A": (0, 2), "W": (1, 2), "a": (2, 1), "I": (3, 2)}
# every op on its arguments' ranks: its form on stacks of values (leading
# batch axis) and the rank of its result
_OPS = {
    ("mul", 2, 2): (np.matmul, 2),
    ("mul", 2, 1): (lambda x, y: (x @ y[..., None])[..., 0], 1),
    ("mul", 1, 2): (lambda x, y: (x[..., None, :] @ y)[..., 0, :], 1),
    ("mul", 1, 1): (lambda x, y: (x[..., None, :] @ y[..., None])[..., 0, 0], 0),
    ("outer", 1, 1): (lambda x, y: x[..., :, None] * y[..., None, :], 2),
    ("tr", 2): (lambda x: x.trace(axis1=-2, axis2=-1), 0),
    ("sym", 2): (lambda x: x + x.swapaxes(-1, -2), 2),
    **{(op, r, r): (fn, r) for op, fn in (("add", operator.add), ("sub", operator.sub))
       for r in (0, 1, 2)},
}
_SHAPES = {"scalar": (), "vector": (3,), "sym_tensor": (3, 3)}  # of one item


class _Program:
    """Labels of one kind parsed into one straight-line program of steps
    ``(fn, slot, slot or None, bilinear)``, one per distinct subterm, so a
    subterm that several labels share (``A1^2``, ``A1.a1``) is computed once
    per call on a whole stack of systems; each step's op is bound to its
    arguments' ranks."""

    def __init__(self, labels, kind):
        self._steps, self._slots, self._ranks = [], {}, [None, None, None, 2]  # stacks, I
        self.kind = kind
        self._outputs = [self._parse(label) for label in labels]

    def __call__(self, stack, jet=False):
        """Item values, ``(B, n, ...)``, on a stack of B systems, or their
        values and K derivatives on a jet of ``B = 1 + K`` rows."""
        b = len((stack.sym + stack.nonsym + stack.vecs)[0])
        eye = _EYE * (np.arange(b) == 0)[:, None, None] if jet else _EYE  # I: no tangent
        values = [stack.sym, stack.nonsym, stack.vecs, eye]
        for fn, a, c, bilinear in self._steps:
            x, y = values[a], None if c is None else values[c]
            if jet and bilinear:  # the product rule below row 0
                values.append(np.concatenate([fn(x[:1], y[:1]),
                                              fn(x[1:], y[:1]) + fn(x[:1], y[1:])]))
            else:
                values.append(fn(x) if y is None else fn(x, y))
        out = np.empty((b, len(self._outputs)) + _SHAPES[self.kind])
        for k, slot in enumerate(self._outputs):
            out[:, k] = values[slot]
        # a tensor item is returned exactly symmetric
        return 0.5 * (out + out.swapaxes(-1, -2)) if self.kind == "sym_tensor" else out

    def _emit(self, op, *args):
        """Slot of ``op`` on the slots ``args`` (of an operand: on its number)."""
        key = (op, *args)
        if key not in self._slots:
            if op in _OPERANDS:
                slot, rank = _OPERANDS[op]  # operand k: member k of its class
                step = (operator.itemgetter(*args), slot, None, False)
            else:
                ranks = tuple(self._ranks[a] for a in args)
                if (op, *ranks) not in _OPS:
                    raise ValueError(f"malformed basis label: {op} of ranks {ranks}")
                fn, rank = _OPS[op, *ranks]
                # unary ops: second slot None
                step = (fn, *args, None)[:3] + (op in ("mul", "outer"),)
            self._steps.append(step)
            self._ranks.append(rank)
            self._slots[key] = len(self._ranks) - 1
        return self._slots[key]

    def _parse(self, label):
        tokens = _TOKEN.findall(label) + [""]
        pos = 0

        def take(pattern=".+"):
            nonlocal pos
            if not re.fullmatch(pattern, tokens[pos]):
                raise ValueError(f"malformed basis label {label!r} at token {pos}")
            pos += 1
            return tokens[pos - 1]

        def binary(level):
            if level == len(_LEVELS):  # tightest: an operand and its power
                slot = base = operand()
                if tokens[pos].startswith("^"):
                    for _ in range(int(take(r"\^[1-9]\d*")[1:]) - 1):
                        slot = self._emit("mul", slot, base)
                return slot
            symbols, op = _LEVELS[level]
            slot = binary(level + 1)
            while tokens[pos] in symbols:
                take()
                slot = self._emit(op, slot, binary(level + 1))
            return slot

        def operand():
            token = take(r"\w*\(|[AWa][1-9]\d*|I")
            if token.endswith("("):
                args = [binary(0)]
                while tokens[pos] == ",":
                    take()
                    args.append(binary(0))
                take(r"\)")
                return _FUNCTIONS[token[:-1]](self._emit, *args)
            if token == "I":
                return _OPERANDS["I"][0]
            return self._emit(token[0], int(token[1:]) - 1)

        slot = binary(0)
        take("")  # the end of the label
        return slot


class _Basis:
    """An ordered classical list of the shape ``(n_sym, n_skew, n_vec)``; each
    subclass sets its item ``kind``.  Its labels compile into one program,
    whose row k is the item labelled ``labels()[k]``."""

    def __init__(self, n_sym, n_skew, n_vec, labels):
        self.n_sym, self.n_skew, self.n_vec = n_sym, n_skew, n_vec
        self._labels = tuple(labels)
        if len(set(self._labels)) != len(self._labels):
            raise AssertionError("duplicate basis labels")
        self._program = _Program(self._labels, self.kind)

    def __len__(self):
        return len(self._labels)

    def labels(self):
        return self._labels

    def check_system(self, system: TensorSystem):
        if system.shape() != (self.n_sym, self.n_skew, self.n_vec):
            raise ValueError(f"system shape {system.shape()} does not match basis "
                             f"({self.n_sym}, {self.n_skew}, {self.n_vec})")
        if not all(system.nonsym_skew):
            raise ValueError("classical bases cover skew tensors only")

    def _run(self, stack, jet=False):
        # the program on a stack (or a jet) of the basis shape
        self.check_system(stack)
        return self._program(stack, jet)

    def evaluate(self, system):
        """Every item on one system, as one ``(n,)``, ``(n, 3)`` or ``(n, 3,
        3)`` array, or on a stack of B systems of the basis shape (one
        ``TensorSystem`` whose members carry a leading axis), as one ``(B,
        n, ...)`` array."""
        first = (system.vecs + system.sym + system.nonsym)[0]
        if first.ndim > (1 if system.vecs else 2):  # a stack
            return self._run(system)
        return self._run(_stack([system]))[0]


class ClassicalScalarBasis(_Basis):
    """Ordered scalar invariant list."""
    kind = "scalar"


class ClassicalVectorBasis(_Basis):
    """Ordered generator-vector list for vector-valued isotropic functions."""
    kind = "vector"


class ClassicalTensorBasis(_Basis):
    """Ordered symmetric generator-tensor list; every item is exactly symmetric."""
    kind = "sym_tensor"


def boehler_scalars(N: int, M_skew: int, P: int) -> ClassicalScalarBasis:
    """Scalar invariants of N symmetric, M skew tensors and P vectors."""
    return ClassicalScalarBasis(N, M_skew, P, _expand(_BOEHLER, N, M_skew, P))


def smith_vectors(N: int, M_skew: int, P: int) -> ClassicalVectorBasis:
    """Smith generator vectors, in the stated order."""
    return ClassicalVectorBasis(N, M_skew, P, _expand(_SMITH_VECTORS, N, M_skew, P))


def smith_sym_tensors(N: int, M_skew: int, P: int) -> ClassicalTensorBasis:
    """Smith symmetric generator tensors, in the stated order."""
    return ClassicalTensorBasis(N, M_skew, P, _expand(_SMITH_TENSORS, N, M_skew, P))
