"""Classical Boehler/Smith functional bases as numeric evaluators.

These are the comparison targets for every reduction claim: the classical
scalar invariants of symmetric tensors, skew tensors and vectors, and the Smith
generators of vector- and symmetric-tensor-valued isotropic functions, listed
(never counted by closed form) in the stated order.  Each item is its label,
and a basis runs all its labels as one program over a stack of systems: B
systems give one ``(B, n, ...)`` array, and one system (B = 1) gives a float
array or a list of arrays, equal bit for bit to its row in any stack.

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

import functools
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from isotropykit.lin3 import _EYE, TensorSystem

__all__ = ["BasisItem", "ClassicalScalarBasis", "ClassicalTensorBasis",
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
# the first slots of every program, with their ranks: 0 scalar, 1 vector, 2 tensor
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


def _operands(systems, shape):
    b, (n, m, p) = len(systems), shape
    return [np.array([x for s in systems for x in s.sym]).reshape(b, n, 3, 3),
            np.array([x for s in systems for x in s.nonsym]).reshape(b, m, 3, 3),
            np.array([x for s in systems for x in s.vecs]).reshape(b, p, 3), _EYE]


class _Program:
    """Labels of one kind parsed into one straight-line program of steps
    ``(fn, slot, slot or None)``, one per distinct subterm, so a subterm that
    several labels share (``A1^2``, ``A1.a1``) is computed once per call on
    a whole stack of systems; each step's op is bound to its arguments' ranks.
    A call writes each item as soon as its slot is computed and drops every
    slot after its last use, so only the live subterms are held."""

    def __init__(self, labels, kind):
        self._steps, self._slots, self._ranks = [], {}, [None, None, None, 2]  # stacks, I
        self._last = [0, 1, 2, 3]  # per slot: the last slot computed from it
        self.kind = kind
        self._outputs = [self._parse(label) for label in labels]
        # per slot, once computed: the items it fills and the slots then dead
        self._after = [([], []) for _ in self._ranks]
        for k, slot in enumerate(self._outputs):
            self._after[slot][0].append(k)
        for slot, last in enumerate(self._last):
            self._after[last][1].append(slot)

    def __call__(self, systems, shape):
        """Item values, ``(B, n, ...)``, on a stack of systems of ``shape`` (N, M, P)."""
        values = _operands(systems, shape)
        out = np.empty((len(systems), len(self._outputs)) + _SHAPES[self.kind])
        for slot, (items, dead) in enumerate(self._after):
            if slot >= 4:
                fn, a, c = self._steps[slot - 4]
                values.append(fn(values[a]) if c is None else fn(values[a], values[c]))
            for k in items:
                out[:, k] = values[slot]
            for d in dead:
                values[d] = None
        # a tensor item is returned exactly symmetric
        return 0.5 * (out + out.swapaxes(-1, -2)) if self.kind == "sym_tensor" else out

    def row(self, k, system):
        """Item ``k`` on one system: its row of a call, from the steps it needs."""
        values = dict(enumerate(_operands([system], system.shape())))

        def value(slot):
            if slot not in values:
                fn, *args = self._steps[slot - 4]
                values[slot] = fn(*(value(a) for a in args if a is not None))
            return values[slot]

        out = np.empty((1,) + _SHAPES[self.kind])
        out[:] = value(self._outputs[k])
        return (0.5 * (out + out.swapaxes(-1, -2)) if self.kind == "sym_tensor" else out)[0]

    def _emit(self, op, *args):
        """Slot of ``op`` on the slots ``args`` (of an operand: on its number)."""
        key = (op, *args)
        if key not in self._slots:
            if op in _OPERANDS:
                slot, rank = _OPERANDS[op]  # operand k: row k of a stack
                step = (operator.itemgetter((slice(None), *args)), slot, None)
            else:
                ranks = tuple(self._ranks[a] for a in args)
                if (op, *ranks) not in _OPS:
                    raise ValueError(f"malformed basis label: {op} of ranks {ranks}")
                fn, rank = _OPS[op, *ranks]
                step = (fn, *args, None)[:3]  # unary ops: second slot None
            self._steps.append(step)
            self._ranks.append(rank)
            self._slots[key] = new = len(self._ranks) - 1
            self._last.append(new)
            for a in step[1:]:
                if a is not None:
                    self._last[a] = new
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


@dataclass(frozen=True)
class BasisItem:
    label: str
    kind: str  # "scalar" | "vector" | "sym_tensor"
    fn: Callable


class _Basis:
    """An ordered classical list of the shape ``(n_sym, n_skew, n_vec)``; each
    subclass sets its item ``kind``.  Its labels compile into one program,
    and an item's evaluator is its row of that program."""

    def __init__(self, n_sym, n_skew, n_vec, labels):
        self.n_sym, self.n_skew, self.n_vec = n_sym, n_skew, n_vec
        self.items = tuple(BasisItem(label, self.kind, functools.partial(self._item, k))
                           for k, label in enumerate(labels))
        self._by_label = {item.label: item for item in self.items}
        if len(self._by_label) != len(self.items):
            raise AssertionError("duplicate basis labels")
        self._program = _Program(self.labels(), self.kind)

    def _item(self, k, system):
        self.check_system(system)
        return self._program.row(k, system)

    def __len__(self):
        return len(self.items)

    def labels(self):
        return tuple(item.label for item in self.items)

    def __getitem__(self, label: str) -> BasisItem:
        return self._by_label[label]

    def check_system(self, system: TensorSystem):
        if system.shape() != (self.n_sym, self.n_skew, self.n_vec):
            raise ValueError(f"system shape {system.shape()} does not match basis "
                             f"({self.n_sym}, {self.n_skew}, {self.n_vec})")
        if not all(system.nonsym_skew):
            raise ValueError("classical bases cover skew tensors only")

    def evaluate(self, systems):
        """Every item on one system, as a float array for a scalar list and a
        list of arrays otherwise, or on a sequence of B systems of the basis
        shape, as one ``(B, n)``, ``(B, n, 3)`` or ``(B, n, 3, 3)`` array."""
        single = isinstance(systems, TensorSystem)
        stack = [systems] if single else systems
        for system in stack:
            self.check_system(system)
        values = self._program(stack, (self.n_sym, self.n_skew, self.n_vec))
        if not single:
            return values
        return values[0] if self.kind == "scalar" else list(values[0])


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
