"""Independent oracles: naive elimination ranks, the Fraction-free rational
rref the library used before its multi-modular one, full-row subspace
reduction, brute-force colon bases, the pairing evaluated by literal
repeated differentiation, the annihilator quadric and associated cubic
the library built before its socle contractions (a hyperplane loop, and the
perp of the colon ideal), and the Macaulay rows and socle contractions the
library built monomial by monomial before its product-index table,
quotient dimensions from whole Macaulay matrices built monomial by monomial
from generators scaled to primitive integers here, where the
library's fullness sweeps go degree by degree from normal forms on its own
integer rows (`jacobian._by_degree`), and the perp and
the socle functional through the two-rref kernel below, the perp checked
by its involution, where the library reads both off null vectors and checks
one pairing product, Milnor dimensions from the rref of the generator rows,
where the library reads them off its modular sweep, and the certificate of a
rational hypersurface that is deficient mod p from the rational rref of
J_(T+1) and a scan of F_7 points, where the library first reads the node
off the sweep's normal forms, and the certificate of a (cubic, quadric)
complete intersection from 2x2 minors multiplied out as Fraction
polynomials, where the library forms them from the primitive integer
partials, and the kernel of a matrix as the rref of the null vectors of its
rref (two eliminations), where the library runs one, of the matrix with its
columns reversed, the rref mod p by a pivot-by-pivot Gauss-Jordan on Python
ints, where the library takes the rows with distinct leads as one block
first, the linear substitution F o A expanded term by term,
for checks that every output moves as the mathematics says under a change
of coordinates, the common zeros of forms over F_p and the evaluation map
of a point set one point and one term at a time, where the library takes
block products of monomial values, and the node test in the affine chart
of the point, where the library reads the rank of F's own Hessian, and
the terms of a polynomial text by a token list and a recursive-descent
parser, the one the library had before its one-pass `poly._parse_terms`.

These deliberately avoid the library's elimination code paths (modular
images, quotient shortcuts) so agreement is meaningful.
"""

import math
import re
from fractions import Fraction
from math import gcd

import numpy as np

from gradus import (
    FieldConfig,
    Matrix,
    SmoothnessCertificate,
    colon_graded,
    jacobian_graded,
    perp_graded,
    rref,
    socle_functional,
    span,
)
from gradus.errors import (
    AmbientMismatchError,
    CharacteristicError,
    DegeneratePairError,
    ParseError,
    PreconditionError,
)
from gradus.jacobian import (
    DEFAULT_KMAX,
    _balanced_lift,
    projective_empty,
    projective_points,
)
from gradus.poly import (
    Polynomial,
    graded_dim,
    monomial_index,
    monomials,
    pairing_weight,
)


def naive_rank_rational(rows):
    """Bareiss one-step fraction-free elimination with row pivoting."""
    ints = []
    for row in rows:
        den = 1
        for x in row:
            fx = Fraction(x)
            den = den * fx.denominator // gcd(den, fx.denominator)
        ints.append([Fraction(x).numerator * (den // Fraction(x).denominator) for x in row])
    if not ints:
        return 0
    nrows, ncols = len(ints), len(ints[0])
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if ints[i][c] != 0), None)
        if piv is None:
            continue
        ints[r], ints[piv] = ints[piv], ints[r]
        for j in range(r + 1, nrows):
            for k in range(c + 1, ncols):
                num = ints[r][c] * ints[j][k] - ints[j][c] * ints[r][k]
                q, rem = divmod(num, prev)
                assert rem == 0, "Bareiss division not exact"
                ints[j][k] = q
            ints[j][c] = 0
        prev = ints[r][c]
        r += 1
    return r


def _row_to_primitive(row) -> dict:
    """Sparse primitive integer form of a rational row (leading entry > 0)."""
    den = 1
    for x in row:
        if isinstance(x, Fraction):
            den = den * x.denominator // gcd(den, x.denominator)
    ints = {}
    for j, x in enumerate(row):
        if x == 0:
            continue
        if isinstance(x, Fraction):
            ints[j] = x.numerator * (den // x.denominator)
        else:
            ints[j] = int(x) * den
    return _make_primitive(ints)


def _make_primitive(r: dict) -> dict:
    if not r:
        return r
    g = 0
    for v in r.values():
        g = gcd(g, v)
    lead = min(r)
    if r[lead] < 0:
        g = -g
    if g != 1:
        r = {c: v // g for c, v in r.items()}
    return r


def _combine(r: dict, cr: int, p: dict, cp: int) -> dict:
    """cr*r - cp*p with zero entries dropped."""
    out = {c: cr * v for c, v in r.items()}
    for c, v in p.items():
        w = out.get(c, 0) - cp * v
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    return out


def naive_rref_rational(rows, ncols: int):
    """Fraction-free elimination on primitive integer rows, then back
    substitution: (dense Fraction rref rows, pivot columns)."""
    pivrows: dict[int, dict] = {}
    for row in rows:
        r = _row_to_primitive(row)
        while r:
            lead = min(r)
            piv = pivrows.get(lead)
            if piv is None:
                pivrows[lead] = r
                break
            a, b = r[lead], piv[lead]
            g = math.gcd(a, b)
            r = _make_primitive(_combine(r, b // g, piv, a // g))
    pivots = sorted(pivrows)
    # eliminate above pivots (entries right of each row's own pivot only)
    for i in range(len(pivots) - 1, 0, -1):
        pc = pivots[i]
        prow = pivrows[pc]
        b = prow[pc]
        for pc2 in pivots[:i]:
            r2 = pivrows[pc2]
            a = r2.get(pc, 0)
            if a:
                g = math.gcd(a, b)
                pivrows[pc2] = _make_primitive(_combine(r2, b // g, prow, a // g))
    out = []
    for pc in pivots:
        r = pivrows[pc]
        pv = r[pc]
        dense = [Fraction(0)] * ncols
        for c, v in r.items():
            dense[c] = Fraction(v, pv)
        out.append(dense)
    return out, pivots


def naive_rank_mod(rows, p):
    """Textbook dense forward elimination over F_p, every update reduced at
    once, one numpy block per pivot on the rows below it with a nonzero
    entry in its column: int64 while a residue product fits, Python ints in
    an `object` array above."""
    if not len(rows):
        return 0
    a = np.array(rows, dtype=object) % p
    a = a.astype(np.int64) if (p - 1) ** 2 < 1 << 62 else a
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        # both rows are zero left of column c
        below = r + 1 + np.flatnonzero(a[r + 1 :, c])
        if below.size:
            f = a[below, c] * inv % p
            a[below, c:] = (a[below, c:] - np.multiply.outer(f, a[r, c:])) % p
        r += 1
    return r


def naive_rref_mod(rows, ncols: int, p: int):
    """Textbook Gauss-Jordan over F_p on lists of Python ints, pivot by
    pivot, every update reduced at once: (the nonzero rref rows, pivot
    columns)."""
    a = [[int(x) % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for j, row in enumerate(a):
            if j != r and row[c]:
                a[j] = [(x - row[c] * y) % p for x, y in zip(row, a[r])]
        pivots.append(c)
    return a[: len(pivots)], pivots


def _primitive_form(g: Polynomial) -> Polynomial:
    """A rational homogeneous g scaled to primitive integers by
    `_row_to_primitive` of its coefficient vector; g itself when it is zero
    or over a prime field."""
    if g.is_zero() or not g.field.is_rational:
        return g
    d = g.homogeneous_degree()
    mons = monomials(g.nvars, d)
    ints = _row_to_primitive(g.coeff_vector(d))
    return Polynomial(g.field, g.nvars, g.family, {mons[j]: v for j, v in ints.items()})


def residues_oracle(gens, k, p):
    """The rows of the degree-k Macaulay matrix of gens, m*g for every
    generator g and monomial m of degree k - deg g in that order, one
    exponent sum and index lookup per (row, term): each rational generator
    first scaled to primitive integers (`_primitive_form`), each entry
    reduced mod p."""
    idx = monomial_index(gens[0].nvars, k)
    rows = []
    for g in map(_primitive_form, gens):
        e = g.degree()
        if e is None or e > k:
            continue
        terms = [(b, c.numerator % p) for b, c in g.terms.items()]
        for m in monomials(g.nvars, k - e):
            row = [0] * len(idx)
            for b, c in terms:
                row[idx[tuple(x + y for x, y in zip(m, b))]] = c
            rows.append(row)
    return rows


def macaulay_quotient_dim(gens, k, p):
    """dim (S/I)_k mod p from the rank of the whole degree-k Macaulay matrix."""
    return graded_dim(gens[0].nvars, k) - naive_rank_mod(residues_oracle(gens, k, p), p)


def naive_rank(rows, field):
    if field.is_rational:
        return naive_rank_rational(rows)
    return naive_rank_mod(rows, field.modulus)


def kernel_by_two_rrefs(m):
    """Canonical basis of {v : m @ v = 0}: the null vectors read off the
    rref of m, e_c - sum_i E[i][c] e_(p_i) for each free column c, then put
    in rref by a second elimination."""
    f = m.field
    red, pivots, rk = rref(m)
    null = []
    for c in (c for c in range(m.ncols) if c not in pivots):
        v = [f.zero] * m.ncols
        v[c] = f.one
        for row, pc in zip(red.rows, pivots):
            v[pc] = f.neg(row[c])
        null.append(v)
    red2, _, krank = rref(Matrix(f, null, m.ncols))
    assert krank == m.ncols - rk, "kernel dimension law violated"
    return Matrix(f, red2.rows[:krank], m.ncols)


def naive_reduce(subspace, vec):
    """Residual of vec modulo a GradedSubspace, rewriting the whole row for
    every basis row whose pivot coordinate is nonzero."""
    f = subspace.field
    v = list(vec)
    for row, pc in zip(subspace.basis.rows, subspace.pivots):
        c = v[pc]
        if c != f.zero:
            v = [f.add(x, f.neg(f.mul(c, y))) for x, y in zip(v, row)]
    return v


def brute_colon_basis(f: Polynomial, q: Polynomial, k: int):
    """Colon piece via the stacked linear system, no quotient reduction.

    Unknowns are the coefficients of a (degree k) plus one multiplier per
    Jacobian generator m * dF/dx_i of degree k + deg q; the kernel of
    [a*Q | -generators] projected onto the a-part spans the colon.
    """
    field = f.field
    nvars = f.nvars
    e = q.homogeneous_degree()
    kk = k + e
    amb = graded_dim(nvars, kk)
    cols = []
    a_dim = graded_dim(nvars, k)
    for m in monomials(nvars, k):
        mono = Polynomial(field, nvars, f.family, {m: field.one})
        cols.append((mono * q).coeff_vector(kk))
    gens = []
    d = f.homogeneous_degree()
    if kk >= d - 1:
        for i in range(nvars):
            pf = f.partial(i)
            if pf.is_zero():
                continue
            for m in monomials(nvars, kk - (d - 1)):
                mono = Polynomial(field, nvars, f.family, {m: field.one})
                gens.append((mono * pf).coeff_vector(kk))
    for g in gens:
        cols.append([field.neg(x) for x in g])
    rows = [[col[i] for col in cols] for i in range(amb)]
    null = kernel_by_two_rrefs(Matrix(field, rows, len(cols)))
    projected = [row[:a_dim] for row in null.rows]
    return span(field, nvars, k, f.family, projected)


def _weighted_kernel(e):
    """{g : <b, g> = 0 for every basis row b of e}, as the kernel of the rows
    of e weighted by c!; CharacteristicError when some c! vanishes."""
    field = e.field
    weights = [pairing_weight(field, m) for m in monomials(e.nvars, e.degree)]
    if field.zero in weights:
        raise CharacteristicError(f"a weight c! vanishes in degree {e.degree}")
    rows = [[field.mul(x, w) for x, w in zip(row, weights)] for row in e.basis.rows]
    other = "y" if e.family == "x" else "x"
    null = kernel_by_two_rrefs(Matrix(field, rows, e.ambient_dim))
    return span(field, e.nvars, e.degree, other, null.rows)


def perp_by_involution(e):
    """The perp as the kernel of the weighted rows, checked by computing the
    perp of the perp and comparing it with e."""
    out = _weighted_kernel(e)
    assert _weighted_kernel(out) == e, "perp involution failed"
    return out


def socle_by_kernel(f: Polynomial) -> tuple:
    """The socle functional as the one rref row of the kernel of the
    degree-T Jacobian basis; None unless that kernel is a line."""
    t = f.nvars * (f.homogeneous_degree() - 2)
    null = kernel_by_two_rrefs(jacobian_graded(f, t).basis)
    return null.rows[0] if null.nrows == 1 else None


def pairing_by_differentiation(f: Polynomial, g_dual: Polynomial):
    """Apply g as a differential operator, term by term."""
    field = f.field
    total = field.zero
    origin = (0,) * f.nvars
    for beta, c in g_dual.terms.items():
        d = f
        for i, e in enumerate(beta):
            for _ in range(e):
                d = d.partial(i)
        const = d.terms.get(origin, field.zero)
        total = field.add(total, field.mul(c, const))
    return total


def hyperplane_annihilator_quadric(f: Polynomial, g_dual: Polynomial) -> Polynomial:
    """The q of degree T - d with lambda(q*b) = 0 for every b in the
    hyperplane {b : <b, G> = 0}, one socle product per (basis vector,
    monomial), reduced modulo the Jacobian piece; no input checks."""
    field = f.field
    nvars = f.nvars
    d = f.homogeneous_degree()
    weights = [pairing_weight(field, m) for m in monomials(nvars, d)]
    gvec = g_dual.coeff_vector(d)
    hrow = [field.mul(c, w) for c, w in zip(gvec, weights)]
    hbasis = kernel_by_two_rrefs(Matrix(field, [hrow], len(gvec)))
    lam = socle_functional(f)
    qdeg = lam.degree - d
    idx_t = monomial_index(nvars, lam.degree)
    qmons = monomials(nvars, qdeg)
    dmons = monomials(nvars, d)
    rows = []
    for h in hbasis.rows:
        row = []
        for qm in qmons:
            total = field.zero
            for bidx, c in enumerate(h):
                if c == field.zero:
                    continue
                prod = tuple(x + y for x, y in zip(qm, dmons[bidx]))
                total = field.add(total, field.mul(c, lam.vector[idx_t[prod]]))
            row.append(total)
        rows.append(row)
    sol = kernel_by_two_rrefs(Matrix(field, rows, len(qmons)))
    j2 = jacobian_graded(f, qdeg)
    quotient = span(field, nvars, qdeg, f.family, [j2.reduce(r) for r in sol.rows])
    assert quotient.dim == 1, quotient.dim
    return Polynomial.from_vector(field, nvars, f.family, qdeg, quotient.basis.rows[0])


def colon_perp_cubic(f: Polynomial, q: Polynomial) -> Polynomial:
    """The normalized generator of perp((J_F : Q)_d), d = deg F, through the
    general colon and perp routes; DegeneratePairError(dim) unless it is a
    line."""
    d = f.homogeneous_degree()
    colon = colon_graded(f, q, d)
    perp_dim = colon.ambient_dim - colon.dim
    if perp_dim != 1:
        raise DegeneratePairError(f"colon perp has dimension {perp_dim}", dim=perp_dim)
    line = perp_graded(colon)
    return Polynomial.from_vector(f.field, f.nvars, line.family, d, line.basis.rows[0])


def product_rows(gens, k: int) -> list:
    """Coefficient vectors of m*g for every generator g and every monomial m
    of degree k - deg g, in that order, by Polynomial products; no rows for
    a zero g or for deg g > k."""
    rows = []
    for g in gens:
        e = g.degree()
        if e is None or e > k:
            continue
        for m in monomials(g.nvars, k - e):
            mono = Polynomial(g.field, g.nvars, g.family, {m: g.field.one})
            rows.append((mono * g).coeff_vector(k))
    return rows


def jacobian_rows(f: Polynomial, k: int) -> list:
    """Generator rows x^m * dF/dx_i of the degree-k Jacobian piece."""
    return product_rows([f.partial(i) for i in range(f.nvars)], k)


def milnor_dims_by_rref(f: Polynomial, k: int) -> int:
    """dim (S/J_F)_k: graded_dim less the rank of the rows x^m * dF/dx_i."""
    return graded_dim(f.nvars, k) - span(f.field, f.nvars, k, f.family, jacobian_rows(f, k)).dim


def smoothness_by_rref(f: Polynomial) -> SmoothnessCertificate:
    """The exact certificate of a rational F of degree >= 2 whose J_(T+1)
    is deficient mod p: the rank of the rows x^m * dF/dx_i by rational
    rref decides, and the witness (nvars <= 5) is the first common zero of
    F and its partials over F_7 in scan order."""
    t1 = f.nvars * (f.degree() - 2) + 1
    target = graded_dim(f.nvars, t1)
    _, _, rk = rref(Matrix(f.field, jacobian_rows(f, t1), target))
    if rk == target:
        return SmoothnessCertificate("smooth", t1, "rational", False)
    derivs = [f.partial(i) for i in range(f.nvars)]
    witness = next(naive_common_zeros(derivs + [f], f.nvars, 7), None) if f.nvars <= 5 else None
    note = f"Jacobian rank {rk} < {target} at degree {t1}"
    if witness:
        note += "; singular point found over F_7"
    return SmoothnessCertificate("singular", t1, "rational", False, witness, note)


def naive_common_zeros(polys, nvars: int, p: int):
    """The points of `projective_points(nvars, p)` where all of `polys`
    vanish, one point and one poly at a time: each rational poly scaled to
    primitive integers (`_primitive_form`) and reduced mod p, each poly
    evaluated term by term in its own field, at the point over F_p and at
    its balanced lift over another prime field."""
    field = FieldConfig.prime_field(p)
    reduced = [
        Polynomial(field, nvars, g.family, {m: c.numerator % p for m, c in _primitive_form(g).terms.items()})
        if g.field.is_rational else g for g in polys if not g.is_zero()
    ]
    for point in projective_points(nvars, p):
        if all(
            g.evaluate(point if g.field == field else _balanced_lift(point, p)) == 0
            for g in reduced
        ):
            yield point


def evaluation_by_pow(points, k: int) -> list:
    """The rows of the evaluation map of a PointSet at degree k, one field
    product of `field.pow` values per monomial and point."""
    field = points.field
    rows = []
    for pt in points.points:
        row = []
        for m in monomials(points.nvars, k):
            v = field.one
            for x, e in zip(pt, m):
                if e:
                    v = field.mul(v, field.pow(x, e))
            row.append(v)
        rows.append(row)
    return rows


def is_node_by_chart(f: Polynomial, point) -> bool:
    """Nondegeneracy of the affine Hessian of F in the chart x_i = 1 of the
    point's first nonzero coordinate i, the point scaled to 1 there: F with
    x_i set to 1 term by term, differentiated twice in the other variables."""
    field = f.field
    point = tuple(field.coerce(x) for x in point)
    if len(point) != f.nvars:
        raise AmbientMismatchError("point length != nvars")
    pivot = next((i for i, x in enumerate(point) if x != field.zero), None)
    if pivot is None:
        raise PreconditionError("zero vector is not a projective point")
    inv = field.inv(point[pivot])
    point = tuple(field.mul(inv, x) for x in point)
    if f.evaluate(point) != field.zero:
        raise PreconditionError("point does not lie on the hypersurface")
    if any(f.partial(i).evaluate(point) != field.zero for i in range(f.nvars)):
        raise PreconditionError("point is not singular on the hypersurface")
    terms: dict = {}
    for m, c in f.terms.items():
        chart_m = m[:pivot] + (0,) + m[pivot + 1:]
        terms[chart_m] = field.add(terms.get(chart_m, field.zero), c)
    chart = Polynomial(field, f.nvars, f.family, terms)
    others = [i for i in range(f.nvars) if i != pivot]
    rows = [[chart.partial(i).partial(j).evaluate(point) for j in others] for i in others]
    return naive_rank(rows, field) == len(others)


def contract_by_index_loop(lam, h: Polynomial) -> list:
    """m -> lambda(h*m) on S_{T - deg h}, one exponent sum and index lookup
    per (monomial, term); empty when deg h > T."""
    rest = lam.degree - h.homogeneous_degree()
    if rest < 0:
        return []
    field = lam.field
    idx_t = monomial_index(lam.nvars, lam.degree)
    out = []
    for m in monomials(lam.nvars, rest):
        total = field.zero
        for b, c in h.terms.items():
            prod = tuple(x + y for x, y in zip(b, m))
            total = field.add(total, field.mul(c, lam.vector[idx_t[prod]]))
        out.append(total)
    return out


def ci_smooth_by_fraction_minors(f: Polynomial, q: Polynomial, k_max=DEFAULT_KMAX, falsify=True):
    """The certificate of {F = Q = 0} for a cubic F and a quadric Q in 5
    variables, with the minors dF_i*dQ_j - dF_j*dQ_i multiplied out as
    polynomials over the input field: the sweep of (F, Q, minors), then the
    F_7 scan for an exact common zero with coordinates in [-3, 3]."""
    gens = [f, q]
    for i in range(f.nvars):
        for j in range(i + 1, f.nvars):
            minor = f.partial(i) * q.partial(j) - f.partial(j) * q.partial(i)
            if not minor.is_zero():
                gens.append(minor)
    sweep = projective_empty(gens, k_max)
    if sweep.certified:
        return SmoothnessCertificate(
            "smooth", sweep.degree, sweep.field_used, f.field.is_rational,
            note=f"ideal of (F, Q, minors) full at degree {sweep.degree}",
        )
    reason = "; falsification skipped"
    if falsify:
        near = None
        for point in naive_common_zeros(gens, f.nvars, 7):
            lift = _balanced_lift(point, 7)
            if f.field.is_rational:
                near = near or point
                if any(g.evaluate(lift) for g in gens):
                    continue
            else:
                lift = tuple(f.field.coerce(c) for c in lift)
            return SmoothnessCertificate(
                "singular", None, f.field.descriptor(), False, lift,
                note="common zero of (F, Q, minors), checked exactly in the input field",
            )
        reason = ", no small-field witness"
        if near is not None:
            reason = f"; the common zero {near} over F_7 does not lift to an exact zero"
    return SmoothnessCertificate(
        "inconclusive", sweep.kmax, sweep.field_used, False,
        note=f"no fullness up to degree {sweep.kmax}{reason}",
    )


def linear_substitution(f: Polynomial, a) -> Polynomial:
    """F o A, x -> A x: each x_i replaced by sum_j a[i][j] x_j and the
    product expanded term by term, for an integer matrix `a`."""
    field, n = f.field, f.nvars
    images = [
        Polynomial(field, n, f.family, {
            tuple(int(k == j) for k in range(n)): field.coerce(a[i][j]) for j in range(n)
        })
        for i in range(n)
    ]
    out = Polynomial.zero(field, n, f.family)
    for m, c in f.terms.items():
        term = Polynomial.constant(field, n, c, f.family)
        for image, e in zip(images, m):
            term = term * image.pow(e)
        out = out + term
    return out


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


def parse_terms_by_tokens(text: str) -> list:
    """The terms of a polynomial text, (coefficient Fraction, [(family,
    index, exponent), ...]), from a token list and a recursive-descent
    parser; ParseError with the library's messages and positions."""
    return list(_Parser(_tokenize(text)).parse_terms())
