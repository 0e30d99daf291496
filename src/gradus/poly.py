"""Sparse homogeneous polynomials, text grammar, and the polar pairing.

Monomials are exponent tuples of length nvars.  Within each degree the fixed
monomial order is descending lexicographic on exponent vectors, so x0^k comes
first and x_{n}^k last; every canonical object in the library (subspace bases,
normalized representatives, printed terms) refers to this order.

`product_index` tabulates products of monomials; every Macaulay row, colon,
multiplication map and socle contraction in the library reads it.
`monomial_values` tabulates the values of the degree-k monomials at a block
of points; every point scan and evaluation map reads it, and
`Polynomial.evaluate` serves single exact points.

Two variable families exist: primal "x" and dual "y".  They never mix inside
one polynomial; the polar pairing is the only bridge between them.

Text grammar (whitespace insignificant)::

    expression  = ['+'|'-'] term (('+'|'-') term)*
    term        = coefficient | [coefficient '*']? power ('*' power)*
    power       = var ('^' positive-int)?
    var         = ('x'|'y') digit+
    coefficient = int | int '/' positive-int

A bare coefficient term denotes a degree-0 polynomial (needed so round-trips
cover constants).  The canonical printer emits terms in the monomial order
with explicit '*', "p/q" rationals, and no '+-' collapsing.

The parser (`_parse_terms`) reads the text in one `finditer` pass of one
token pattern, each token's kind the index of its last group, then walks
the grammar in one flat loop.  A character outside the grammar is reported
before any grammar error, and every ParseError names the position of the
offending token.  A coefficient stays a Python int (a Fraction only for
"p/q") until the field coerces it, once per term; only a monomial that
repeats is added to its earlier term.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add
from typing import Sequence

import numpy as np

from .errors import (
    AmbientMismatchError,
    CharacteristicError,
    ParseError,
    PreconditionError,
)
from .linalg import _NUMPY_MOD_LIMIT, CACHE_SIZE, FieldConfig, SeedStream, _mod
from .linalg import format_scalar, random_scalar

FAMILIES = ("x", "y")


@lru_cache(maxsize=CACHE_SIZE)
def monomials(nvars: int, degree: int) -> tuple:
    """All exponent tuples of the given degree, descending lex order."""
    if nvars < 1 or degree < 0:
        raise PreconditionError("need nvars >= 1 and degree >= 0")

    def gen(k, d):
        if k == 1:
            yield (d,)
            return
        for first in range(d, -1, -1):
            for rest in gen(k - 1, d - first):
                yield (first,) + rest

    return tuple(gen(nvars, degree))


@lru_cache(maxsize=CACHE_SIZE)
def monomial_index(nvars: int, degree: int) -> dict:
    return {m: i for i, m in enumerate(monomials(nvars, degree))}


@lru_cache(maxsize=CACHE_SIZE)
def product_index(nvars: int, e: int, k: int) -> np.ndarray:
    """Read-only int array whose entry [i, j] is the degree-k column of
    m_i * b_j, for m_i in monomials(nvars, k - e) and b_j in
    monomials(nvars, e); needs 0 <= e <= k."""
    idx = monomial_index(nvars, k)
    base = monomials(nvars, e)
    table = np.array(
        [[idx[tuple(map(add, m, b))] for b in base] for m in monomials(nvars, k - e)],
        dtype=np.intp,
    )
    table.flags.writeable = False
    return table


def graded_dim(nvars: int, degree: int) -> int:
    """dim of the degree-k piece: C(nvars-1+k, k)."""
    if degree < 0:
        raise PreconditionError(f"degree {degree} is negative")
    return math.comb(nvars - 1 + degree, degree)


def monomial_values(points, k: int, p: int | None = None) -> np.ndarray:
    """Row r holds the values of monomials(nvars, k) at points[r], for a 2-D
    array of points, one a row of nvars coordinates: the powers 0..k of
    each coordinate, gathered by that coordinate's exponent column and
    multiplied across the coordinates.  Mod p, with coordinates below p in
    absolute value, reduced after each product, in int64 while p < 2^31 and
    in `object` above; exact `object` entries (Fractions over Q) when p is
    None."""
    def times(a, b):  # a * b, in place in a: a product's old entries go at once
        np.multiply(a, b, out=a)
        return a if p is None else _mod(a, p)

    def values(x, column):  # the powers 0..k of one coordinate, by exponent
        powers = [x**0]
        for _ in range(k):
            powers.append(times(x.copy(), powers[-1]))
        return np.stack(powers, axis=1)[:, column]

    pts = np.asarray(points).astype(np.int64 if p is not None and p < _NUMPY_MOD_LIMIT else object)
    exps = np.array(monomials(pts.shape[1], k), dtype=np.intp).reshape(-1, pts.shape[1])
    return reduce(times, map(values, pts.T, exps.T))


class Polynomial:
    """Sparse polynomial over an exact field; terms map exponent tuple -> scalar."""

    # _hash, _normalized and _degrees memoize __hash__, normalized() and the
    # set of the terms' degrees: the terms are never mutated, so each is
    # fixed once computed
    __slots__ = ("field", "nvars", "family", "terms", "_hash", "_normalized", "_degrees")

    def __init__(self, field: FieldConfig, nvars: int, family: str, terms: dict):
        if family not in FAMILIES:
            raise PreconditionError(f"unknown variable family {family!r}")
        clean = {}
        zero = field.zero
        for mono, c in terms.items():
            if len(mono) != nvars:
                raise AmbientMismatchError("exponent tuple length != nvars")
            if c != zero:
                clean[mono] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_normalized", None)
        object.__setattr__(self, "_degrees", None)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- construction --------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars, family="x"):
        return cls(field, nvars, family, {})

    @classmethod
    def constant(cls, field, nvars, value, family="x"):
        return cls(field, nvars, family, {(0,) * nvars: field.coerce(value)})

    @classmethod
    def variable(cls, field, nvars, i, family="x"):
        e = [0] * nvars
        e[i] = 1
        return cls(field, nvars, family, {tuple(e): field.one})

    def key(self):
        """Hashable identity used by caches."""
        return (
            self.field,
            self.nvars,
            self.family,
            tuple(sorted(self.terms.items())),
        )

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _term_degrees(self) -> frozenset:
        if self._degrees is None:
            object.__setattr__(self, "_degrees", frozenset(map(sum, self.terms)))
        return self._degrees

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        return max(self._term_degrees(), default=None)

    def is_homogeneous(self) -> bool:
        return len(self._term_degrees()) <= 1

    def homogeneous_degree(self):
        if not self.is_homogeneous():
            raise PreconditionError("polynomial is not homogeneous")
        return self.degree()

    # -- arithmetic -------------------------------------------------------------

    def _like(self, other: "Polynomial"):
        if (
            not isinstance(other, Polynomial)
            or other.field != self.field
            or other.nvars != self.nvars
            or other.family != self.family
        ):
            raise AmbientMismatchError("polynomials live in different rings")

    def __add__(self, other):
        self._like(other)
        f = self.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = f.add(terms.get(m, f.zero), c)
        return Polynomial(f, self.nvars, self.family, terms)

    def __neg__(self):
        f = self.field
        return Polynomial(
            f, self.nvars, self.family, {m: f.neg(c) for m, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        f = self.field
        c = f.coerce(c)
        return Polynomial(
            f, self.nvars, self.family, {m: f.mul(c, v) for m, v in self.terms.items()}
        )

    def __mul__(self, other):
        self._like(other)
        f = self.field
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = f.add(out.get(m, f.zero), f.mul(c1, c2))
        return Polynomial(f, self.nvars, self.family, out)

    def pow(self, e: int) -> "Polynomial":
        if e < 0:
            raise PreconditionError("negative power")
        result = Polynomial.constant(self.field, self.nvars, 1, self.family)
        for _ in range(e):
            result = result * self
        return result

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise PreconditionError(f"variable index {i} out of range")
        # m -> m - e_i is injective, so each term gives its own; the
        # constructor drops c*m[i] when p divides m[i]
        f = self.field
        out = {m[:i] + (m[i] - 1,) + m[i + 1 :]: f.mul(c, m[i])
               for m, c in self.terms.items() if m[i]}
        return Polynomial(f, self.nvars, self.family, out)

    def evaluate(self, point: Sequence):
        if len(point) != self.nvars:
            raise AmbientMismatchError("point length != nvars")
        f = self.field
        total = f.zero
        for m, c in self.terms.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    v = f.mul(v, f.pow(x, e))
            total = f.add(total, v)
        return total

    # -- coordinates ------------------------------------------------------------

    def coeff_vector(self, degree: int) -> list:
        """Coordinates in the degree-k monomial basis; requires homogeneity."""
        if not self.is_zero() and self.homogeneous_degree() != degree:
            raise PreconditionError(
                f"polynomial has degree {self.degree()}, expected {degree}"
            )
        idx = monomial_index(self.nvars, degree)
        vec = [self.field.zero] * len(idx)
        for m, c in self.terms.items():
            vec[idx[m]] = c
        return vec

    @classmethod
    def from_vector(cls, field, nvars, family, degree, vec) -> "Polynomial":
        basis = monomials(nvars, degree)
        if len(vec) != len(basis):
            raise AmbientMismatchError("coefficient vector length mismatch")
        return cls(field, nvars, family, dict(zip(basis, vec)))

    def normalized(self) -> "Polynomial":
        """Scale so the first nonzero coefficient (monomial order) is 1;
        computed once per polynomial."""
        if self._normalized is None:
            out = self
            if not self.is_zero():
                lead = next(m for m in monomials(self.nvars, self.homogeneous_degree())
                            if m in self.terms)
                out = self.scale(self.field.inv(self.terms[lead]))
                object.__setattr__(out, "_normalized", out)
            object.__setattr__(self, "_normalized", out)
        return self._normalized

    # -- comparison / display -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Polynomial) and (
            (self.field, self.nvars, self.family, self.terms)
            == (other.field, other.nvars, other.family, other.terms))

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.key()))
        return self._hash

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Polynomial({format_poly(self)!r})"


def format_poly(p: Polynomial) -> str:
    """Canonical text: terms in monomial order, explicit '*', p/q rationals."""
    if p.is_zero():
        return "0"
    by_degree = sorted({sum(m) for m in p.terms}, reverse=True)
    pieces = []
    for d in by_degree:
        for m in monomials(p.nvars, d):
            c = p.terms.get(m)
            if c is None or sum(m) != d:
                continue
            pieces.append((m, c))
    out = []
    rational = p.field.is_rational
    for i, (m, c) in enumerate(pieces):
        neg = rational and c < 0
        sign = (" - " if neg else " + ") if i else ("-" if neg else "")
        out.append(sign + _format_term(p.family, m, -c if neg else c))
    return "".join(out)


def _format_term(family: str, mono: tuple, coeff) -> str:
    vars_part = "*".join(
        f"{family}{i}" if e == 1 else f"{family}{i}^{e}"
        for i, e in enumerate(mono)
        if e
    )
    if not vars_part:
        return format_scalar(coeff)
    if coeff == 1:
        return vars_part
    return f"{format_scalar(coeff)}*{vars_part}"


# ---------------------------------------------------------------------------
# parser

_TOKEN = re.compile(r"\s*(?:(\d+)|([xy])(\d+)|(\^)|(\*)|(/)|(\+)|(-))")
# the `lastindex` of each kind of token; a variable's last group is its index
_INT, _VAR, _POW, _MUL, _DIV, _PLUS, _MINUS = 1, 3, 4, 5, 6, 7, 8


def _found(tokens: list, i: int, text: str) -> tuple:
    """(value, position) of token i as a ParseError names it: an int, a
    (family, index) pair or the character, at the token's first character;
    past the last token, (None, len(text))."""
    if i == len(tokens):
        return None, len(text)
    m = tokens[i]
    if m.lastindex == _INT:
        return int(m[_INT]), m.start(_INT)
    if m.lastindex == _VAR:
        return (m[2], int(m[_VAR])), m.start(2)
    return m[m.lastindex], m.start(m.lastindex)


def _parse_terms(text: str) -> list:
    """The terms of the text as (coefficient, [(family, index, exponent),
    ...]): the signed coefficient an int, or a Fraction for 'p/q'.

    One `_TOKEN.finditer` pass, each token's kind its match's `lastindex`;
    a gap before a match, or text left after the last, is an unexpected
    character, raised before any grammar error.  Then one loop over the
    grammar of the module docstring."""
    tokens, kinds, end = [], [], 0
    for m in _TOKEN.finditer(text):
        if m.start() != end:
            break
        tokens.append(m)
        kinds.append(m.lastindex)
        end = m.end()
    rest = text[end:].lstrip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}", end)
    kinds.append(None)  # the end of the text

    def fail(i, message="expected coefficient or variable, found {!r}"):
        value, pos = _found(tokens, i, text)
        raise ParseError(message.format(value), pos)

    def integer(i):  # the value of token i, which must be an int
        if kinds[i] != _INT:
            fail(i, "expected INT, found {!r}")
        return int(tokens[i][_INT])

    terms, i, sign = [], 0, 1
    if kinds[0] in (_PLUS, _MINUS):
        sign, i = -1 if kinds[0] == _MINUS else 1, 1
    while True:
        coeff, powers, factor = sign, [], True
        if kinds[i] == _INT:  # the coefficient, first factor or whole term
            coeff *= integer(i)
            if kinds[i + 1] == _DIV:
                den = integer(i + 2)
                if den == 0:
                    fail(i + 2, "zero denominator")
                coeff, i = Fraction(coeff, den), i + 2
            factor = kinds[i + 1] == _MUL
            i += 1 + factor
        while factor:
            if kinds[i] == _INT:
                fail(i, "coefficient must be the first factor")
            if kinds[i] != _VAR:
                fail(i)
            m, expo = tokens[i], 1
            if kinds[i + 1] == _POW:
                expo = integer(i + 2)
                if expo < 1:
                    fail(i + 2, "exponent must be positive")
                i += 2
            powers.append((m[2], int(m[_VAR]), expo))
            factor = kinds[i + 1] == _MUL
            i += 1 + factor
        terms.append((coeff, powers))
        if kinds[i] is None:
            return terms
        if kinds[i] not in (_PLUS, _MINUS):
            fail(i, "expected '+' or '-', found {!r}")
        sign, i = -1 if kinds[i] == _MINUS else 1, i + 1


def parse_poly(
    text: str,
    field: FieldConfig,
    family: str | None = None,
    expected_degree: int | None = None,
    nvars: int | None = None,
) -> Polynomial:
    """Parse the grammar above into a Polynomial.

    `family` and `expected_degree` enforce; `nvars` defaults to 1 + the
    largest variable index appearing in the text.
    """
    parsed = _parse_terms(text)
    seen_family = None
    max_index = -1
    for _, powers in parsed:
        for fam, idx, _ in powers:
            if seen_family is None:
                seen_family = fam
            elif seen_family != fam:
                raise ParseError("mixed x/y variable families in one polynomial")
            max_index = max(max_index, idx)
    if family is not None and seen_family is not None and family != seen_family:
        raise PreconditionError(
            f"expected {family}-family polynomial, found {seen_family}-variables"
        )
    fam = seen_family or family or "x"
    if nvars is None:
        nvars = max_index + 1 if max_index >= 0 else 1
    if max_index >= nvars:
        raise PreconditionError(
            f"variable index {max_index} out of range for nvars={nvars}"
        )
    terms: dict = {}
    for coeff, powers in parsed:
        expo = [0] * nvars
        for _, idx, e in powers:
            expo[idx] += e
        mono, c = tuple(expo), field.coerce(coeff)
        terms[mono] = field.add(terms[mono], c) if mono in terms else c
    p = Polynomial(field, nvars, fam, terms)
    if expected_degree is not None:
        bad = {sum(m) for m in p.terms if sum(m) != expected_degree}
        if bad:
            raise PreconditionError(
                f"inhomogeneous input: found degree {sorted(bad)} terms, "
                f"expected degree {expected_degree}"
            )
    return p


# ---------------------------------------------------------------------------
# pairing and random draws


def pairing_weight(field: FieldConfig, mono: tuple):
    """<x^a, y^a> = a! = prod of the factorials of the exponents."""
    w = 1
    for e in mono:
        w *= math.factorial(e)
    return field.coerce(w)


def polar_pair(f_primal: Polynomial, g_dual: Polynomial):
    """Apply g(d/dx0,...,d/dxn) to f: on monomials <x^a, y^a> = a!, else 0."""
    if f_primal.family != "x" or g_dual.family != "y":
        raise PreconditionError("pairing takes a primal (x) and a dual (y) polynomial")
    if f_primal.nvars != g_dual.nvars:
        raise AmbientMismatchError("pairing operands have different nvars")
    field = f_primal.field
    if f_primal.is_zero() or g_dual.is_zero():
        return field.zero
    k1 = f_primal.homogeneous_degree()
    k2 = g_dual.homogeneous_degree()
    if k1 != k2:
        raise PreconditionError(f"pairing degree mismatch: {k1} vs {k2}")
    if not field.is_rational and field.modulus <= k1:
        raise CharacteristicError(
            f"pairing at degree {k1} needs characteristic > {k1}, have {field.modulus}"
        )
    total = field.zero
    for m, c in f_primal.terms.items():
        g = g_dual.terms.get(m)
        if g is not None:
            total = field.add(total, field.mul(field.mul(c, g), pairing_weight(field, m)))
    return total


def random_poly(
    field: FieldConfig,
    stream: SeedStream,
    nvars: int,
    degree: int,
    bound: int,
    family: str = "x",
) -> Polynomial:
    """Dense random homogeneous polynomial; deterministic given the stream."""
    terms = {}
    for m in monomials(nvars, degree):
        terms[m] = random_scalar(field, stream, bound)
    return Polynomial(field, nvars, family, terms)


def random_linear_form(
    field: FieldConfig, stream: SeedStream, nvars: int, bound: int, family: str = "x"
) -> Polynomial:
    """Random nonzero linear form: coefficients redrawn until one is nonzero."""
    while True:
        coeffs = [random_scalar(field, stream, bound) for _ in range(nvars)]
        if any(c != field.zero for c in coeffs):
            terms = dict(zip(monomials(nvars, 1), coeffs))
            return Polynomial(field, nvars, family, terms)


def fermat_form(field: FieldConfig, nvars: int, degree: int, family: str = "x") -> Polynomial:
    """Sum of pure degree-d powers of all variables."""
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = degree
        terms[tuple(e)] = field.one
    return Polynomial(field, nvars, family, terms)
