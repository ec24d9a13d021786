"""Exact multivariate polynomials, rational generating functions and their expansions in t.

Polynomials live over a small registry of named variables (a Ring) and keep
integer coefficients in a dict keyed by exponent vectors, so no precision is
ever lost.  RationalGF holds a rational generating function whose
denominator has constant term 1, multiplies and adds such functions
exactly, and expands one by the division recurrence.  An expansion is a
plain list: the MultiPoly coefficients of t^0 .. t^order, which callers
index, specialize, differentiate and compare with comprehensions.
over_t2 takes known low terms off such a list and divides it by t^2.
TruncatedSeries holds a coefficient list for the benchmark tracer, the
package exports and the tests; its divide_by and 1/(1 - s)
(compose_geometric) build a RationalGF and expand it, so RationalGF is
the one entry to the quotient.

Series division and the geometric inverse run on Kronecker-packed bigints
(Kronecker substitution; D. Harvey, J. Symbolic Comput. 44 (2009)).  Each
coefficient of t^k goes into one Python int: the monomial c * prod(v^e_v)
becomes c << w * sum(e_v * stride_v), where the strides come from a
per-variable degree bound and the slot width of w bits is a whole number
of bytes, at least two bits wider than a bound on the coefficient.  The
quotient groups the divisor by monomial and runs the division recurrence
on packed coefficients: each step sums c * out_(k-j) per divisor monomial
and shifts each sum once.
Packing is a ring homomorphism, so those sums may carry across slots and
only out_k itself must fit them: before step k the slots must hold
max|num_k| + sum_j |den_j|_1 max|out_(k-j)|, the maxima read off the
coefficients already decoded.  The slots start one byte wide, and when
that bound outgrows them they widen to 2, 4 or 8 bytes, past 8 by about a
quarter, and the few packed coefficients kept are repacked through numpy
(for `updown` at order 100, 10-byte slots where a bound on the 1-norms
asks for 17).
The recurrence is a stream: it yields the coefficient of t^k as soon as it
has computed it and keeps only the packed coefficients later steps read,
so RationalGF.coefficients lets a caller write each coefficient and drop
it, and RationalGF.expand collects the stream into a list.
RationalGF.formatted yields each coefficient straight from the decoded
slots as the text json_terms or render would give, without building a
MultiPoly.  Its writer puts the live slots of a coefficient in graded lex
order by one argsort of per-slot keys that the layout computes once per
slot, never once per coefficient (over one variable or none the slot
order already is that order).  JSON is written from one format piece per
slot, gathered, joined and filled by a single `%` with the coefficients;
text goes through render_columns, the formatter MultiPoly.render calls
too.  The writer's tables cover at most twice the slots up to the
highest one seen live, so they stay within a constant multiple of the
packed coefficients the quotient holds.
Unpacking a value of fewer bits than one slot takes the value itself as
the coefficient of slot 0.  Otherwise it reads only the slots up to the
highest nonzero one, adds 2^(w-1) to each and reads their bytes once
through numpy: slots of 1, 2, 4 or 8 bytes as one signed integer array,
wider ones byte-wise, converting the slots that differ from that bias in
one pass.  Packing shifts by
exponents, so a Ring refuses negative ones.  A quotient whose
whole series (order + 1 packed coefficients) would take more than
PACKED_MAX_BYTES is refused with ResourceLimitError before anything is
packed; it sizes that check with B_k = |num_k|_1 + sum_j |den_j|_1 B_(k-j),
a bound on every 1-norm that needs no coefficient, at every step of that
recurrence, before its stream yields anything, so a huge order fails
within a few steps, and its slots never grow past the width B_k allows.
RationalGF.coefficients feeds that recurrence its sparse numerator and
denominator tables, so nothing of size order + 1 exists before the check.

RationalGF is the one exact rational type in t, for generating functions
given as printed tables or built from many small rational factors: the
denominator stays a product of factor polynomials with multiplicities (a
table's denominator is one factor), so a product adds multiplicities (a
factor that a geometric moved into the numerator cancels against the
denominator), a sum works over the lcm of the two denominators, and
1/(1 - r) adds one factor.  Only the final function is multiplied out and
expanded, once.
"""

from collections import deque
from itertools import repeat, starmap
from operator import add, itemgetter, mul, sub

import numpy as np

from .errors import DomainError, RegistryError, ResourceLimitError, SeriesError

# largest whole series, in bytes, that a Kronecker layout may describe
PACKED_MAX_BYTES = 1 << 28


class Ring:
    """Ordered registry of variable names shared by compatible polynomials."""

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise RegistryError("duplicate variable names: %r" % (names,))
        self.names = names
        self.arity = len(names)
        self._index = {name: i for i, name in enumerate(names)}

    def index_of(self, name):
        if name not in self._index:
            raise RegistryError("unknown variable %r (registry %r)" % (name, self.names))
        return self._index[name]

    def zero(self):
        return MultiPoly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = int(c)
        if c == 0:
            return MultiPoly(self, {})
        return MultiPoly(self, {(0,) * self.arity: c})

    def var(self, name, power=1):
        exps = [0] * self.arity
        exps[self.index_of(name)] = int(power)
        return MultiPoly(self, {_exponents(exps): 1})

    def monomial(self, coeff, **powers):
        exps = [0] * self.arity
        for name, p in powers.items():
            exps[self.index_of(name)] = int(p)
        exps = _exponents(exps)
        coeff = int(coeff)
        if coeff == 0:
            return self.zero()
        return MultiPoly(self, {exps: coeff})

    def poly(self, terms):
        """Build a polynomial from {exponent tuple: coefficient}."""
        clean = {}
        for exps, c in terms.items():
            exps = _exponents(int(e) for e in exps)
            if len(exps) != self.arity:
                raise RegistryError("exponent vector %r has wrong arity" % (exps,))
            c = int(c)
            if c:
                clean[exps] = clean.get(exps, 0) + c
        return MultiPoly(self, {e: c for e, c in clean.items() if c})

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "Ring(%s)" % ", ".join(self.names)


def _exponents(exps):
    """Exponent tuple, refusing negative entries (series packing shifts by them)."""
    exps = tuple(exps)
    if any(e < 0 for e in exps):
        raise DomainError("exponents must be nonnegative, got %r" % (exps,))
    return exps


def _check_same_ring(a, b):
    if a.ring != b.ring:
        raise RegistryError(
            "mixed registries %r and %r" % (a.ring.names, b.ring.names)
        )


def _mul_terms(aterms, bterms):
    """Convolve two term dicts, returning a fresh dict."""
    out = {}
    for ea, ca in aterms.items():
        for eb, cb in bterms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


def _add_into(dst, terms, scale=1):
    """dst += scale * terms, in place on a raw term dict."""
    for e, c in terms.items():
        c = dst.get(e, 0) + scale * c
        if c:
            dst[e] = c
        elif e in dst:
            del dst[e]


def _map_monomials(terms, images, arity):
    """Term dict of `terms` under variable images that are each c * monomial or 0.

    Variable i goes to c_i * y^(m_i), so a term c * x^e goes to
    c * prod(c_i^e_i) * y^(sum e_i m_i): one key per term.
    """
    rows = [next(iter(img.terms.items()), ((0,) * arity, 0)) for img in images]
    cols = list(zip(*(m for m, _ in rows))) or [()] * arity
    scaled = [(i, c) for i, (_, c) in enumerate(rows) if c != 1]
    out = {}
    for exps, c in terms.items():
        for i, ci in scaled:
            if exps[i]:
                c *= ci ** exps[i]
        if not c:
            continue
        key = tuple(sum(map(mul, exps, col)) for col in cols)
        c += out.get(key, 0)
        if c:
            out[key] = c
        else:
            del out[key]
    return out


def render_columns(names, cols, coeffs):
    """Text like `3 + 2*u*d + u^4` of the terms with exponents cols[i] of names[i].

    The terms come in the order given: MultiPoly.render passes sorted_terms'
    columns and RationalGF.formatted those of each decoded coefficient.
    """
    if not coeffs:
        return "0"
    # "*u", "*u^2", ... indexed by exponent, so "%d%s" % (c, monomial) reads
    # "c*u*d^2", or "c" for the constant term; a unit coefficient drops its 1
    monomials = [""] * len(coeffs)
    for name, col in zip(names, cols):
        factors = ["", "*" + name] + ["*%s^%d" % (name, e) for e in range(2, max(col) + 1)]
        monomials = list(map(add, monomials, map(factors.__getitem__, col)))
    pieces = list(map("%d%s".__mod__, zip(coeffs, monomials)))
    for i, c in enumerate(coeffs):
        if (c == 1 or c == -1) and monomials[i]:
            pieces[i] = ("-" if c < 0 else "") + monomials[i][1:]
    return " + ".join(pieces).replace("+ -", "- ")


class MultiPoly:
    """Immutable exact polynomial with integer coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ring.const(other)
        if isinstance(other, MultiPoly):
            _check_same_ring(self, other)
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, other.terms)
        return MultiPoly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        _add_into(out, other.terms, -1)
        return MultiPoly(self.ring, out)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self.ring.zero()
            return MultiPoly(self.ring, {e: c * other for e, c in self.terms.items()})
        if isinstance(other, MultiPoly):
            _check_same_ring(self, other)
            return MultiPoly(self.ring, _mul_terms(self.terms, other.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            raise DomainError("polynomial powers must be nonnegative")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def substitute(self, name, replacement):
        """Replace one variable by a polynomial in the same registry."""
        if isinstance(replacement, int):
            replacement = self.ring.const(replacement)
        _check_same_ring(self, replacement)
        # map_onto ignores names outside the source registry; this refuses them
        self.ring.index_of(name)
        return self.map_onto(self.ring, {name: replacement})

    def evaluate_at(self, name, value):
        """Specialize one variable to an integer."""
        return self.substitute(name, int(value))

    def map_onto(self, target, mapping):
        """Move to another registry, sending each variable to a target poly.

        Variables absent from `mapping` must exist under the same name in the
        target registry and are carried across unchanged.  When every image
        is c * monomial, an integer or 0, each term lands on one key: its
        exponents combine linearly and its coefficient picks up c^e.  Other
        images are expanded term by term.
        """
        images = []
        for name in self.ring.names:
            if name in mapping:
                img = mapping[name]
                if isinstance(img, int):
                    img = target.const(img)
                if img.ring != target:
                    raise RegistryError("image of %r is not in the target registry" % name)
            else:
                img = target.var(name)
            images.append(img)
        if all(len(img.terms) <= 1 for img in images):
            return MultiPoly(target, _map_monomials(self.terms, images, target.arity))
        out = {}
        cache = [dict() for _ in images]
        for exps, c in self.terms.items():
            prod = {(0,) * target.arity: c}
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if e not in cache[i]:
                    cache[i][e] = images[i] ** e
                prod = _mul_terms(prod, cache[i][e].terms)
            _add_into(out, prod)
        return MultiPoly(target, out)

    def partial_derivative(self, name):
        i = self.ring.index_of(name)
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            key = exps[:i] + (e - 1,) + exps[i + 1:]
            out[key] = out.get(key, 0) + c * e
        return MultiPoly(self.ring, out)

    def coefficient(self, name, power):
        """Extract the coefficient of name**power (a poly in the other vars)."""
        i = self.ring.index_of(name)
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == int(power):
                out[exps[:i] + (0,) + exps[i + 1:]] = c
        return MultiPoly(self.ring, out)

    def degree(self, name=None):
        """Total degree, or the degree in a single variable; zero poly gives -1."""
        if not self.terms:
            return -1
        if name is None:
            return max(sum(e) for e in self.terms)
        i = self.ring.index_of(name)
        return max(e[i] for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.arity, 0)

    def evaluate(self, assignments):
        """Evaluate to an integer; every variable must be assigned."""
        missing = [n for n in self.ring.names if n not in assignments]
        if missing:
            raise DomainError("unassigned variables: %s" % ", ".join(missing))
        total = 0
        for exps, c in self.terms.items():
            v = c
            for name, e in zip(self.ring.names, exps):
                if e:
                    v *= int(assignments[name]) ** e
            total += v
        return total

    def sorted_terms(self):
        """Terms in graded lexicographic order of their exponent vectors."""
        # exponent vectors are distinct, so the sort never compares coefficients
        return [(e, c) for _, e, c in sorted((sum(e), e, c) for e, c in self.terms.items())]

    def render(self):
        """Deterministic text form like `3 + 2*u*d + u^4`."""
        terms = self.sorted_terms()
        cols = list(zip(*(e for e, _ in terms)))
        return render_columns(self.ring.names, cols, [c for _, c in terms])

    def json_terms(self):
        """JSON-safe term list: [[exponent vector, coefficient string], ...]."""
        return [[list(e), str(c)] for e, c in self.sorted_terms()]

    def __repr__(self):
        return "MultiPoly(%s)" % self.render()


def _norm(terms):
    """1-norm of a term dict: the sum of its absolute coefficients."""
    return sum(map(abs, terms.values()))


def _degrees(terms, arity):
    """Per-variable maximum exponent of a term dict, 0 for the zero dict."""
    return list(map(max, zip(*terms))) if terms else [0] * arity


def _slot_bytes(bound):
    """Slot width holding any coefficient of absolute value <= bound, with a sign bit spare."""
    return (bound.bit_length() + 2 + 7) // 8


def _refuse_oversized(degrees, bound, order):
    """ResourceLimitError unless order + 1 coefficients in this layout fit PACKED_MAX_BYTES."""
    need = _slot_bytes(bound) * (order + 1)
    for d in degrees:
        need *= d + 1
    if need > PACKED_MAX_BYTES:
        raise ResourceLimitError(
            "series quotient through t^%d needs a packed layout of %d bytes, cap is %d"
            % (order, need, PACKED_MAX_BYTES)
        )


# slot widths, in bytes, that numpy reads as one integer each
_VIEW_WIDTHS = (1, 2, 4, 8)
# decode's live slots of a value that fits slot 0, and of zero
_SLOT_0 = np.zeros(1, dtype=np.intp)
_NO_SLOTS = np.zeros(0, dtype=np.intp)
_SLOT_0.flags.writeable = _NO_SLOTS.flags.writeable = False


def _bias(width, slots):
    """2^(8 width - 1) in each of `slots` slots of `width` bytes."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * slots, "little")


def _unbiased(data, width):
    """_biased's bytes in slots of `width` bytes (1, 2, 4 or 8) as signed ints, bias removed."""
    dtype = np.dtype("<i%d" % width)
    # the bias is the top bit of each slot: flipping it back leaves c
    return np.frombuffer(data, dtype=dtype) ^ np.iinfo(dtype).min


class _Layout:
    """Kronecker layout of one polynomial over one ring, in one int.

    The monomial with exponent vector e sits in slot sum(e_v * stride_v),
    slots being `width` bytes; the box has `block` slots.  A layout is
    exact for polynomials whose exponents stay within `degrees` and whose
    coefficients have absolute value at most `bound`.  The series quotient
    changes `width` as its coefficients grow; offsets and exponents do not
    depend on it.
    """

    def __init__(self, degrees, bound):
        self.width = _slot_bytes(bound)
        self.dims = [d + 1 for d in degrees]
        self.strides = []
        self.block = 1
        for dim in self.dims:
            self.strides.append(self.block)
            self.block *= dim

    def offset(self, exps):
        """Slot of a monomial."""
        return sum(map(mul, exps, self.strides))

    def pack(self, terms):
        """One int holding the term dict `terms`."""
        w = self.width
        pos = bytearray(w * self.block)
        neg = bytearray(len(pos))
        for exps, c in terms.items():
            at = w * self.offset(exps)
            if c > 0:
                pos[at : at + w] = c.to_bytes(w, "little")
            else:
                neg[at : at + w] = (-c).to_bytes(w, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    def _biased(self, value):
        """The low live slots of value, each plus 2^(8w-1), as little-endian bytes.

        Every slot, w = width bytes wide, holds a coefficient below 2^(8w-2)
        in absolute value, so when slot m is the highest nonzero one,
        |value| has between 8wm and 8w(m+1) - 1 bits: the low
        |value|.bit_length() // 8w + 1 slots hold every term, and adding
        2^(8w-1) to each of them leaves each slot's biased coefficient in
        its own w bytes, an empty slot reading as low bytes 0 and top byte
        0x80.  By the same count a value of fewer than 8w bits is slot 0
        alone, its own coefficient.
        """
        w = self.width
        slots = min(abs(value).bit_length() // (8 * w) + 1, self.block)
        size = w * slots
        return ((value + _bias(w, slots)) & ((1 << (8 * size)) - 1)).to_bytes(size, "little")

    def decode(self, value):
        """(live, coeffs) of a packed value.

        live is the ascending numpy array of nonzero slots (a shared
        read-only one for zero and for a value that fits slot 0) and coeffs
        the list of their coefficients.  A value that fits slot 0 is its
        own coefficient, read with no numpy call.  Otherwise only the live low
        end of the value is read, once (_biased): slots of 1, 2, 4 or 8
        bytes as one signed integer array, wider ones byte-wise, the slots
        that differ from the bias becoming ints in one pass.
        """
        w = self.width
        if abs(value).bit_length() < 8 * w:
            return (_SLOT_0, [value]) if value else (_NO_SLOTS, [])
        data = self._biased(value)
        if w in _VIEW_WIDTHS:
            slots = _unbiased(data, w)
            live = np.flatnonzero(slots)
            return live, slots[live].tolist()
        rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, w)
        live = np.flatnonzero(rows[:, :-1].any(axis=1) | (rows[:, -1] != 0x80))
        words = np.frombuffer(rows, "V%d" % w)[live].tolist()
        half = 1 << (8 * w - 1)
        return live, list(map(sub, map(int.from_bytes, words, repeat("little")), repeat(half)))

    def widened(self, value, width):
        """A value packed at this layout's width, repacked in wider slots.

        A value that fits slot 0 is the same int at any width.  Between two
        of the widths 1, 2, 4 and 8, the signed slots are cast to the wider
        integer and biased again.  Otherwise, with b = c + 2^(8w-1) the
        biased slot, c + 2^(8W-1) in W > w bytes has b's low w bytes with
        the top bit flipped, then the sign extension of c with the top bit
        flipped again.
        """
        w = self.width
        if abs(value).bit_length() < 8 * w:
            return value
        data = self._biased(value)
        slots = len(data) // w
        if w in _VIEW_WIDTHS and width in _VIEW_WIDTHS:
            wide = np.dtype("<i%d" % width)
            data = (_unbiased(data, w).astype(wide) ^ np.iinfo(wide).min).tobytes()
        else:
            rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, w)
            wide = np.zeros((slots, width), dtype=np.uint8)
            wide[:, :w] = rows
            wide[:, w - 1] ^= 0x80
            wide[rows[:, -1] < 0x80, w:] = 0xFF
            wide[:, -1] ^= 0x80
            data = wide.tobytes()
        return int.from_bytes(data, "little") - _bias(width, slots)

    def exponents(self, live):
        """One numpy array per variable: the exponents of the slots in `live`."""
        return [(live // s) % dim for s, dim in zip(self.strides, self.dims)]

    def graded_keys(self, slots):
        """Int64 keys ordering the slots in `slots` as sorted_terms orders their monomials.

        A key is the total degree times `block` plus the slot's place in the
        lex order of the box, which reads the first variable as its most
        significant digit, so keys compare as (total degree, exponents) do.
        """
        total = np.zeros(len(slots), dtype=np.int64)
        lex = np.zeros(len(slots), dtype=np.int64)
        for col, dim in zip(self.exponents(slots), self.dims):
            total += col
            lex = lex * dim + col
        return total * self.block + lex

    def terms(self, live, coeffs):
        """The term dict of what decode returned."""
        cols = [col.tolist() for col in self.exponents(live)]
        return dict(zip(zip(*cols) if cols else repeat((), len(live)), coeffs))

    def unpack(self, value):
        """The term dict of a packed value."""
        return self.terms(*self.decode(value))


class TruncatedSeries:
    """A coefficient list in t: `ring`, `order` and `coeffs`, t^0 .. t^order.

    Expansions are plain lists (RationalGF.expand).  This class multiplies
    one by a scalar, and its divide_by and compose_geometric build a
    RationalGF from the lists and expand it, so the quotient has one entry.
    It remains because bench/tracer.py wraps those three methods and
    runcube exports it.
    """

    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, coeffs, order=None):
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise DomainError("series order must be nonnegative")
        coeffs = list(coeffs[: order + 1])
        while len(coeffs) < order + 1:
            coeffs.append(ring.zero())
        for c in coeffs:
            if c.ring != ring:
                raise RegistryError("coefficient registry mismatch")
        self.ring = ring
        self.order = order
        self.coeffs = coeffs

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        _check_same_ring(self, other)
        return TruncatedSeries(self.ring, [c * other for c in self.coeffs], self.order)

    __rmul__ = __mul__

    def _table(self, order):
        """{k: coefficient of t^k} through t^order, zero coefficients left out."""
        return {k: c for k, c in enumerate(self.coeffs[: order + 1]) if c}

    def divide_by(self, den):
        """Divide by a series whose constant coefficient is 1."""
        n = min(self.order, den.order)
        quotient = RationalGF(self.ring, self._table(n), den._table(n))
        return TruncatedSeries(self.ring, quotient.expand(n), n)

    def compose_geometric(self):
        """Return 1/(1 - self); requires zero constant coefficient."""
        inverse = RationalGF(self.ring, self._table(self.order)).geometric()
        return TruncatedSeries(self.ring, inverse.expand(self.order), self.order)


def over_t2(coeffs, low):
    """Coefficient list of (S - low[0] - low[1] t - low[2] t^2) / t^2, S given by `coeffs`.

    `low` holds ints.  SeriesError, with the index, when S - low keeps a
    nonzero coefficient of t^0 or t^1.
    """
    rest = [c - want for c, want in zip(coeffs, low)] + coeffs[len(low):]
    for j in (0, 1):
        if rest[j]:
            raise SeriesError(
                "cannot divide by t^2: coefficient of t^%d is %s" % (j, rest[j].render()), index=j
            )
    return rest[2:]


def _divide(num, den, arity, order):
    """(layout, stream) of num / den through t^order.

    num and den are {k: term dict of t^k} rows, a zero coefficient left out,
    and den[0] is the constant 1; RationalGF._quotient is the one caller.
    The bound recurrence below runs, and refuses an oversized layout,
    before this returns; nothing of size order + 1 is built before it, so
    a sparse rational function is refused as cheaply as a dense series.
    The stream then yields decode's (live, coeffs) of each coefficient as
    soon as the division recurrence has computed it; layout.exponents and
    layout.terms read them, whatever width the slots have by then.
    """
    # out_k = num_k - sum_j den_j * out_(k-j), so with B_k bounding the
    # 1-norm of out_k, B_k = |num_k| + sum_j |den_j| * B_(k-j), and the
    # degrees of out_k follow the same recurrence with max and +, over the
    # j whose B_(k-j) is nonzero.  The divisor terms are collected as k
    # reaches them, and the layout the bounds so far need is checked at
    # every step, so an order too large for the cap is refused after a few
    # steps, not after all of them.
    divisor = []
    bounds = []
    columns = [[] for _ in range(arity)]  # columns[v][k]: degree of out_k in variable v
    peak = 0
    top = [0] * arity
    for k in range(order + 1):
        terms = den.get(k)
        if k and terms:
            divisor.append((k, terms, _norm(terms), _degrees(terms, arity)))
        terms = num.get(k, {})
        bound = _norm(terms)
        rows = [(k - j, dnorm, ddeg) for j, _, dnorm, ddeg in divisor if bounds[k - j]]
        for i, dnorm, _ in rows:
            bound += dnorm * bounds[i]
        bounds.append(bound)
        for v, deg in enumerate(_degrees(terms, arity)):
            column = columns[v]
            for i, _, ddeg in rows:
                if ddeg[v] + column[i] > deg:
                    deg = ddeg[v] + column[i]
            column.append(deg)
            if deg > top[v]:
                top[v] = deg
        if bound > peak:
            peak = bound
        _refuse_oversized(top, peak, order)
    # the slots start one byte wide; the recurrence widens them as its
    # coefficients grow, never past the width the bounds above allow
    layout = _Layout(top, 0)
    return layout, _recur(layout, _slot_bytes(peak), num, divisor, order)


def _recur(layout, limit, num, divisor, order):
    """The division recurrence of _divide, yielding each coefficient as it is computed.

    Step k sums c * out_(k-j) over the pairs of each divisor monomial, then
    shifts that sum once into place.  Only the last `span` packed
    coefficients are kept, since no step reaches further back.  Packing is
    a ring homomorphism, so the sums may carry across slots and only out_k
    itself has to fit them: |out_k| is at most max|num_k| + sum_j
    |den_j|_1 * max|out_(k-j)|, the maxima read off the coefficients
    already decoded.  When that outgrows the slots, they widen by about a
    quarter and at least to what the bound needs, rounded up to 2, 4 or 8
    bytes below 8 so decode reads them as one integer view, never past
    `limit`, and the window is repacked.
    """
    groups = {}
    for j, terms, _, _ in divisor:
        for e, c in terms.items():
            groups.setdefault(layout.offset(e), []).append((j, c))
    groups = list(groups.items())
    norms = [(j, dnorm) for j, _, dnorm, _ in divisor]
    span = divisor[-1][0] if divisor else 0
    window = deque(maxlen=span)
    peaks = deque(maxlen=span)
    for k in range(order + 1):
        terms = num.get(k)
        bound = max(map(abs, terms.values())) if terms else 0
        for j, dnorm in norms:
            if j > k:
                break
            bound += dnorm * peaks[-j]
        need = _slot_bytes(bound)
        if need > layout.width:
            width = max(need, (5 * layout.width + 3) // 4)
            if width < 8:
                width = 1 << (width - 1).bit_length()  # 2, 4 or 8: one view each
            width = min(width, limit)
            window = deque((layout.widened(v, width) for v in window), maxlen=span)
            layout.width = width
        bits = 8 * layout.width
        acc = layout.pack(terms) if terms else 0
        for at, pairs in groups:
            total = 0
            for j, c in pairs:
                if j > k:
                    break
                prev = window[-j]
                if c == 1:
                    total += prev
                elif c == -1:
                    total -= prev
                else:
                    total += c * prev
            if total:
                acc -= total << bits * at
        window.append(acc)
        live, coeffs = layout.decode(acc)
        peaks.append(max(max(coeffs), -min(coeffs)) if coeffs else 0)
        yield live, coeffs


def _gather(seq, index):
    """The items of seq at the positions in the nonempty list `index`, as a tuple."""
    return itemgetter(*index)(seq) if len(index) > 1 else (seq[index[0]],)


class _TermWriter:
    """Writes each (live, coeffs) a layout decodes as MultiPoly text, without the MultiPoly.

    The text is render()'s, or with as_json json.dumps of json_terms(),
    both in graded lex order.  Over two or more variables one argsort of
    the slots' keys (_Layout.graded_keys) puts the live slots in that
    order; over fewer, ascending slots already are in it.  The JSON of
    slot s is pieces[s], '"], [[e_1, ..., e_n], "%d', which closes the
    term before it, so a coefficient is its pieces joined and filled by
    one `%` with its coefficients.  keys and pieces cover the slots below
    `size`, which doubles within the box whenever a coefficient reaches
    past it: each slot's entries are computed once, and the tables hold
    at most twice as many slots as the highest live one seen, so they stay
    within a constant multiple of the packed coefficient that reached it.
    """

    def __init__(self, layout, names, as_json):
        self.layout = layout
        self.names = names
        self.as_json = as_json
        self.ranked = len(names) > 1
        self.size = 0
        self.keys = np.zeros(0, dtype=np.int64)
        self.pieces = []
        self.piece = '"], [[%s], "%%%%d' % ", ".join(["%d"] * len(names))

    def _grow(self, top):
        """Cover at least the slots below `top`."""
        new = np.arange(self.size, min(max(top, 2 * self.size), self.layout.block))
        self.size += len(new)
        if self.ranked:
            self.keys = np.concatenate((self.keys, self.layout.graded_keys(new)))
        if self.as_json:
            cols = [col.tolist() for col in self.layout.exponents(new)]
            self.pieces += map(self.piece.__mod__, zip(*cols) if cols else repeat((), len(new)))

    def __call__(self, live, coeffs):
        if not coeffs:
            return "[]" if self.as_json else "0"
        if live[-1] >= self.size:
            self._grow(live[-1] + 1)
        if self.ranked:
            order = self.keys[live].argsort()
            live = live[order]
            coeffs = _gather(coeffs, order.tolist())
        if not self.as_json:
            cols = [col.tolist() for col in self.layout.exponents(live)]
            return render_columns(self.names, cols, coeffs)
        parts = list(_gather(self.pieces, live.tolist()))
        parts[0] = "[" + parts[0][4:]  # the first piece's '"], ' closes no term
        parts.append('"]]')
        return "".join(parts) % tuple(coeffs)


def _t_terms(ring, table):
    """Term dict, power of t first, of the sum of c * t^k over {k: c}; c an int or MultiPoly."""
    out = {}
    for k, c in table.items():
        t = _exponents((int(k),))
        if isinstance(c, int):
            c = ring.const(c)
        if c.ring != ring:
            raise RegistryError("coefficient registry mismatch at t^%d" % k)
        _add_into(out, {t + e: v for e, v in c.terms.items()})
    return out


def _by_t_power(terms):
    """{t power: term dict} from a term dict whose exponents carry the power of t first."""
    rows = {}
    for (k, *exps), c in terms.items():
        rows.setdefault(k, {})[tuple(exps)] = c
    return rows


class RationalGF:
    """Exact rational function num * prod(f^m) in t over a ring.

    RationalGF(ring, numerator, denominator=None) takes {t power: MultiPoly
    or int} tables; the denominator must have constant term exactly 1, so
    the series expansion is integral.  `num` and every factor f are held as
    one term dict each whose exponent vectors put the power of t first.
    Each factor has constant term 1 and is keyed by its frozen term set; its
    multiplicity m is a nonzero integer, negative for a denominator factor
    (a table denominator is one factor of multiplicity -1) and positive for
    one that a geometric moved into the numerator.  A product adds
    multiplicities, so such a factor cancels against the same denominator
    factor.  A sum keeps each factor at the smaller of its two
    multiplicities (for the denominator, the lcm of the two denominators)
    and multiplies the rest into each numerator.  For r = N/D with zero
    constant term, 1/(1 - r) = D/(D - N) moves D's factors into the
    numerator and adds D - N as one new denominator factor.  `numerator`
    and `denominator` are {t power: MultiPoly} tables with every factor
    multiplied out; coefficients() multiplies out once and divides.
    """

    __slots__ = ("ring", "num", "factors")

    def __init__(self, ring, numerator, denominator=None):
        self.ring = ring
        self.num = _t_terms(ring, numerator)
        self.factors = {}
        if denominator is not None:
            one = (0,) * (ring.arity + 1)
            den = _t_terms(ring, denominator)
            d0 = {e[1:]: c for e, c in den.items() if e[0] == 0}
            if d0 != {one[1:]: 1}:
                raise SeriesError(
                    "denominator constant term must be 1, got %s" % MultiPoly(ring, d0).render()
                )
            if den != {one: 1}:
                self.factors[frozenset(den.items())] = -1

    @classmethod
    def _trusted(cls, ring, num, factors=None):
        """A function from a term dict and factors already known to be over `ring`."""
        self = object.__new__(cls)
        self.ring = ring
        self.num = num
        self.factors = factors or {}
        return self

    def _coerce(self, other):
        if isinstance(other, int):
            return RationalGF(self.ring, {0: other})
        if isinstance(other, RationalGF):
            _check_same_ring(self, other)
            return other
        return None

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        factors = dict(self.factors)
        for f, m in other.factors.items():
            m += factors.pop(f, 0)
            if m:
                factors[f] = m
        return RationalGF._trusted(self.ring, _mul_terms(self.num, other.num), factors)

    __rmul__ = __mul__

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        common = {
            f: min(self.factors.get(f, 0), other.factors.get(f, 0))
            for f in {**self.factors, **other.factors}
        }
        num = self._over(common)
        _add_into(num, other._over(common))
        return RationalGF._trusted(self.ring, num, {f: m for f, m in common.items() if m})

    __radd__ = __add__

    def __neg__(self):
        return RationalGF._trusted(self.ring, {e: -c for e, c in self.num.items()}, self.factors)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def _over(self, common):
        """num * prod f^(m - common[f]): this function divided by the common part, a fresh dict."""
        out = dict(self.num)
        for f, c in common.items():
            for _ in range(self.factors.get(f, 0) - c):
                out = _mul_terms(out, dict(f))
        return out

    def _sides(self):
        """(numerator, denominator) term dicts with every factor multiplied out."""
        num = dict(self.num)
        den = {(0,) * (self.ring.arity + 1): 1}
        for f, m in self.factors.items():
            for _ in range(abs(m)):
                if m > 0:
                    num = _mul_terms(num, dict(f))
                else:
                    den = _mul_terms(den, dict(f))
        return num, den

    def _table(self, side):
        """{t power: MultiPoly} of the multiplied-out numerator (0) or denominator (1)."""
        return {k: MultiPoly(self.ring, row) for k, row in _by_t_power(self._sides()[side]).items()}

    numerator = property(lambda self: self._table(0))
    denominator = property(lambda self: self._table(1))

    def geometric(self):
        """Return 1/(1 - self); requires zero constant term."""
        one = (0,) * (self.ring.arity + 1)
        unit = lambda factors: RationalGF._trusted(self.ring, {one: 1}, factors)
        if any(e[0] == 0 for e in self.num):
            raise SeriesError("geometric composition needs zero constant term", index=0)
        if not self.num:
            return unit({})
        num, den = self._sides()
        new = dict(den)
        _add_into(new, num, -1)
        moved = unit({f: -m for f, m in self.factors.items() if m < 0})
        return moved * unit({frozenset(new.items()): -1})

    def _quotient(self, order):
        """_divide's (layout, stream) of this function through t^order."""
        if order < 0:
            raise DomainError("series order must be nonnegative")
        num, den = map(_by_t_power, self._sides())
        return _divide(num, den, self.ring.arity, order)

    def coefficients(self, order):
        """Iterator over the MultiPoly coefficients of t^0 .. t^order.

        An order too large for the packed layout is refused here, before
        the iterator exists; each coefficient is then computed when the
        iterator reaches it, so a caller can write it out and drop it.
        """
        layout, stream = self._quotient(order)
        return (MultiPoly(self.ring, layout.terms(*out)) for out in stream)

    def formatted(self, order, as_json=False):
        """Iterator over the coefficients of t^0 .. t^order as text.

        Each is what MultiPoly.render gives, or with as_json the JSON text
        of json_terms, written straight from the quotient stream's decoded
        slots by one _TermWriter, so no MultiPoly is built.  It refuses
        what coefficients() refuses, as early.
        """
        layout, stream = self._quotient(order)
        return starmap(_TermWriter(layout, self.ring.names, as_json), stream)

    def expand(self, order):
        """The list of MultiPoly coefficients of t^0 .. t^order."""
        return list(self.coefficients(order))

    def __repr__(self):
        def side(table):
            return " + ".join(
                "(%s)*t^%d" % (c.render(), k) for k, c in sorted(table.items())
            ) or "0"
        return "RationalGF((%s) / (%s))" % (side(self.numerator), side(self.denominator))
