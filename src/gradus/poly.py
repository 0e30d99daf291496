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

    # _hash and _normalized memoize __hash__ and normalized(): the terms are
    # never mutated, so both are fixed once computed
    __slots__ = ("field", "nvars", "family", "terms", "_hash", "_normalized")

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

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

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


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.end() == m.start():
            break
        if m.group(1):
            tokens.append(("INT", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("VAR", (m.group(2), int(m.group(3))), m.start(2)))
        elif m.group(4):
            tokens.append(("POW", "^", m.start(4)))
        elif m.group(5):
            tokens.append(("MUL", "*", m.start(5)))
        elif m.group(6):
            tokens.append(("DIV", "/", m.start(6)))
        elif m.group(7):
            tokens.append(("PLUS", "+", m.start(7)))
        else:
            tokens.append(("MINUS", "-", m.start(8)))
        pos = m.end()
    tokens.append(("END", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse_terms(self):
        """Yield (sign, coefficient Fraction, [(family, index, exponent)...])."""
        sign = 1
        if self.peek()[0] in ("PLUS", "MINUS"):
            sign = -1 if self.take()[0] == "MINUS" else 1
        while True:
            yield self.parse_term(sign)
            kind = self.peek()[0]
            if kind == "END":
                return
            tok = self.take()
            if tok[0] == "PLUS":
                sign = 1
            elif tok[0] == "MINUS":
                sign = -1
            else:
                raise ParseError(f"expected '+' or '-', found {tok[1]!r}", tok[2])

    def parse_term(self, sign):
        coeff = Fraction(sign)
        powers = []
        first = True
        while True:
            kind, val, pos = self.peek()
            if kind == "INT":
                if not first:
                    raise ParseError("coefficient must be the first factor", pos)
                self.take()
                num = val
                if self.peek()[0] == "DIV":
                    self.take()
                    dtok = self.take("INT")
                    if dtok[1] == 0:
                        raise ParseError("zero denominator", dtok[2])
                    coeff *= Fraction(num, dtok[1])
                else:
                    coeff *= num
            elif kind == "VAR":
                self.take()
                fam, idx = val
                expo = 1
                if self.peek()[0] == "POW":
                    self.take()
                    etok = self.take("INT")
                    if etok[1] < 1:
                        raise ParseError("exponent must be positive", etok[2])
                    expo = etok[1]
                powers.append((fam, idx, expo))
            else:
                raise ParseError(f"expected coefficient or variable, found {val!r}", pos)
            first = False
            if self.peek()[0] != "MUL":
                break
            self.take()
        return coeff, powers


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
    parsed = list(_Parser(_tokenize(text)).parse_terms())
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
    f = field
    for coeff, powers in parsed:
        expo = [0] * nvars
        for _, idx, e in powers:
            expo[idx] += e
        mono = tuple(expo)
        c = f.coerce(coeff)
        prev = terms.get(mono, f.zero)
        terms[mono] = f.add(prev, c)
    p = Polynomial(f, nvars, fam, terms)
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
