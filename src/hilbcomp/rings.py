"""Exact multivariate polynomials over the rationals.

The ring is QQ[x_0, ..., x_n], optionally extended by a deformation
parameter t (an ordinary variable of its own index) and, internally, by
auxiliary elimination variables u_j used by ideal operations.  Coefficients
are arbitrary-precision `fractions.Fraction` values, monomials are exponent
tuples, and every polynomial is kept in canonical form: terms strictly
descending under the ring's monomial order, no zero coefficients, no
duplicate monomials.

Everything here is immutable and hashable; operations are pure functions.
`Polynomial.substitute` is the one ring map: it sends any set of variables
to polynomial or constant images at once, so a linear change of all the x
coordinates and a one-variable shear are the same call.

Variables sit at fixed positions by role: x_0..x_{n}, then t, then u_j, so
rings that differ only in their order share one index layout.  The tuple
monomial helpers below are the only ones in the package.  The Groebner
engine keeps its own packed-int monomials (one int per monomial, its own
order key) and crosses into this tuple representation in one place each
way: `groebner._int_terms` packs on the way in, `groebner._poly` unpacks
every result on the way out, Buchberger's transform included (`syzygies`
reads the transform packed, so it is unpacked only when a caller reads
it); it uses the tuple helpers only for the pair bookkeeping on the leads
of its basis elements.  A syzygy row crosses twice: `syzygies` unpacks the
rows it publishes, and the module packs them back once for the engine's
readers.  A row of linear algebra is a sparse integer dict, and
`linalg._span` is the one place that clears a dense row's denominators.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import neg

from .errors import ParseError, RingMismatchError

MAX_EXPONENT = 2**20


@dataclass(frozen=True)
class MonomialOrder:
    """A multiplicative monomial order on exponent tuples.

    kind is "lex", "grevlex" or "block"; a block order compares total degree
    in the front variable set first, then grevlex within the front block,
    then grevlex within the remaining block.  Larger key tuple == larger
    monomial.
    """

    kind: str
    front: tuple = ()

    def key_function(self, width):
        if self.kind == "lex":
            return lambda m: m
        if self.kind == "grevlex":
            return _grevlex_key
        if self.kind == "block":
            front = tuple(i for i in self.front if i < width)
            back = tuple(i for i in range(width) if i not in set(front))
            return _block_key_function(front, back)
        raise ValueError(f"unknown monomial order kind {self.kind!r}")


def _grevlex_key(m):
    return (sum(m), *map(neg, reversed(m)))


def _block_key_function(front, back):
    rfront, rback = front[::-1], back[::-1]

    def key(m):
        f = [-m[i] for i in rfront]
        b = [-m[i] for i in rback]
        return (-sum(f), *f, -sum(b), *b)

    return key


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def elimination_order(front_vars):
    """Block order eliminating the given variable indices first."""
    return MonomialOrder("block", tuple(sorted(set(front_vars))))


@dataclass(frozen=True)
class PolyRing:
    """QQ[x_0..x_{num_vars-1}] (+ t when has_param, + u_j auxiliaries)."""

    num_vars: int
    has_param: bool = False
    order: MonomialOrder = GREVLEX
    num_aux: int = 0

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("need at least one x variable")

    @property
    def width(self):
        return self.num_vars + (1 if self.has_param else 0) + self.num_aux

    @property
    def param_index(self):
        return self.num_vars if self.has_param else None

    def aux_index(self, j=0):
        if not 0 <= j < self.num_aux:
            raise ValueError("no such auxiliary variable")
        return self.num_vars + (1 if self.has_param else 0) + j

    def var_name(self, i):
        if i < self.num_vars:
            return f"x{i}"
        if self.has_param and i == self.num_vars:
            return "t"
        return f"u{i - self.num_vars - (1 if self.has_param else 0)}"

    def sort_key(self):
        return _cached_key(self.order, self.width)

    # ----- element constructors -------------------------------------
    @property
    def zero(self):
        return Polynomial(self, ())

    @property
    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero
        return Polynomial(self, (((0,) * self.width, c),))

    def variable(self, i):
        if not 0 <= i < self.width:
            raise ValueError(f"variable index {i} out of range")
        mono = tuple(1 if j == i else 0 for j in range(self.width))
        return Polynomial(self, ((mono, Fraction(1)),))

    def x(self, i):
        if not 0 <= i < self.num_vars:
            raise ValueError(f"x{i} is not a variable of this ring")
        return self.variable(i)

    @property
    def t(self):
        if not self.has_param:
            raise ValueError("ring has no parameter variable")
        return self.variable(self.param_index)

    def variables(self):
        return tuple(self.variable(i) for i in range(self.width))

    def from_dict(self, coeffs):
        """Canonical polynomial from {exponent tuple: coefficient}."""
        terms = [(m, c if type(c) is Fraction else Fraction(c)) for m, c in coeffs.items() if c]
        return Polynomial(self, _sorted_terms(terms, self.sort_key()))

    # ----- ring derivation -------------------------------------------
    def with_order(self, order):
        return PolyRing(self.num_vars, self.has_param, order, self.num_aux)

    def with_aux(self, k):
        return PolyRing(self.num_vars, self.has_param, self.order, k)

    def compatible(self, other):
        """Same variables, possibly different order."""
        return (
            self.num_vars == other.num_vars
            and self.has_param == other.has_param
            and self.num_aux == other.num_aux
        )


@functools.lru_cache(maxsize=None)
def _cached_key(order, width):
    return order.key_function(width)


def _sorted_terms(terms, key):
    return tuple(sorted(terms, key=lambda mc: key(mc[0]), reverse=True))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class Polynomial:
    """Immutable canonical polynomial: terms descending in the ring order."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    # ----- basic queries ---------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def lead_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def lead_coeff(self):
        if not self.terms:
            return Fraction(0)
        return self.terms[0][1]

    def total_degree(self):
        """Largest total degree over all variables (including t); -1 for 0."""
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def x_degree(self):
        """Largest degree in the x variables only; -1 for 0."""
        if not self.terms:
            return -1
        nv = self.ring.num_vars
        return max(sum(m[:nv]) for m, _ in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {sum(m) for m, _ in self.terms}
        return len(degs) == 1

    def is_x_homogeneous(self):
        if not self.terms:
            return True
        nv = self.ring.num_vars
        degs = {sum(m[:nv]) for m, _ in self.terms}
        return len(degs) == 1

    def coefficient(self, mono):
        for m, c in self.terms:
            if m == mono:
                return c
        return Fraction(0)

    # ----- arithmetic -------------------------------------------------
    def _require_same_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands live in different rings: {self.ring} vs {other.ring}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._require_same_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            v = acc.get(m)
            if v is None:
                acc[m] = c
            else:
                v = v + c
                if v:
                    acc[m] = v
                else:
                    del acc[m]
        return self.ring.from_dict(acc)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.ring, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._require_same_ring(other)
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = _mono_mul(m1, m2)
                v = acc.get(m)
                if v is None:
                    acc[m] = c1 * c2
                else:
                    v = v + c1 * c2
                    if v:
                        acc[m] = v
                    else:
                        del acc[m]
        return self.ring.from_dict(acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return self.ring.zero
        return Polynomial(self.ring, tuple((m, v * c) for m, v in self.terms))

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def monic(self):
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == 1:
            return self
        return self.scale(Fraction(1) / lc)

    # ----- structural operations --------------------------------------
    def substitute(self, images):
        """Image under the ring map sending each variable index i of the
        dict `images` to images[i], all at once; the others stay.  An image
        is a polynomial of the same ring or a rational constant."""
        ring = self.ring
        images = {
            i: ring.constant(v) if isinstance(v, (int, Fraction)) else v
            for i, v in images.items()
        }
        for v in images.values():
            self._require_same_ring(v)
        powers = {}
        acc = {}
        for m, c in self.terms:
            rest = list(m)
            image = None
            for i, v in images.items():
                e = m[i]
                if e:
                    rest[i] = 0
                    p = powers.get((i, e))
                    if p is None:
                        p = powers[i, e] = v**e
                    image = p if image is None else image * p
            rest = tuple(rest)
            if image is None:
                acc[rest] = acc.get(rest, 0) + c
                continue
            for im, ic in image.terms:
                key = _mono_mul(im, rest)
                acc[key] = acc.get(key, 0) + c * ic
        return ring.from_dict(acc)

    def convert(self, target):
        """Reinterpret in a ring with the same variable identities.

        Variables map by role (x_i, then t, then u_j).  Variables absent
        from the target must not occur; extra target variables get exponent
        zero.  The same ring returns self; a ring with the same variables
        and another order only re-sorts the terms.
        """
        src = self.ring
        if src == target:
            return self
        key = target.sort_key()
        if src.compatible(target):
            return Polynomial(target, _sorted_terms(self.terms, key))
        mapping = [i if i < target.num_vars else None for i in range(src.num_vars)]
        if src.has_param:
            mapping.append(target.param_index)
        mapping += [
            target.aux_index(j) if j < target.num_aux else None for j in range(src.num_aux)
        ]
        terms = []
        for m, c in self.terms:
            out = [0] * target.width
            for i, e in enumerate(m):
                if e:
                    j = mapping[i]
                    if j is None:
                        raise RingMismatchError(
                            f"variable {src.var_name(i)} does not exist in target ring"
                        )
                    out[j] = e
            terms.append((tuple(out), c))
        return Polynomial(target, _sorted_terms(terms, key))

    # ----- comparisons / hashing ---------------------------------------
    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, self.terms))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


@functools.lru_cache(maxsize=128)
def monomials_of_degree(width, d):
    """All exponent tuples of total degree d in `width` variables, as one
    tuple ascending lexicographically, shared per (width, d) while it is
    among the 128 most recently used.

    Enumerated in place: the successor of a tuple moves one unit from its
    last nonzero entry to the entry before it and gathers the rest of that
    entry in the last variable."""
    if d < 0 or (width == 0 and d > 0):
        return ()
    e = [0] * width
    if width:
        e[-1] = d
    out = [tuple(e)]
    while True:
        j = width - 1
        while j > 0 and e[j] == 0:
            j -= 1
        if j <= 0:
            return tuple(out)
        mass, e[j] = e[j], 0
        e[j - 1] += 1
        e[-1] = mass - 1
        out.append(tuple(e))


# ---------------------------------------------------------------------------
# text format:  expr := term (('+'|'-') term)*
#               term := coeff ('*' factor)* | factor ('*' factor)*
#               factor := var ('^' nat)? ;  coeff := int | int '/' posint
#               var := 'x' nat | 't'
# Whitespace may separate any two symbols.  A '-' opens a term only as the
# sign of an integer coefficient: "-1*x0" parses, "-x0" does not.
# ---------------------------------------------------------------------------

_FACTOR = r"(?:x\d+|t)(?:\s*\^\s*\d+)?"
_TERM = re.compile(rf"\s*(?:(-)?\s*(\d+)(?:\s*/\s*(\d+))?|{_FACTOR})(?:\s*\*\s*{_FACTOR})*")
_VARIABLE = re.compile(r"(?:x(\d+)|t)(?:\s*\^\s*(\d+))?")
_OPERATOR = re.compile(r"\s*([-+]|$)")


def parse(text, ring):
    """Parse polynomial text into canonical form.  parse(format(p)) == p.

    Each term is one anchored match where the previous operator ended, and
    one scan of that match reads its variables and exponents.  A syntax
    error is reported at the first character where no term or operator
    matches."""
    acc = {}
    sign, pos = 1, 0
    while True:
        term = _TERM.match(text, pos)
        if term is None:
            raise _syntax_error(text, pos, "a term")
        minus, num, den = term.groups()
        coeff = (-sign if minus else sign) * (_integer(term, 2) if num else 1)
        if den is not None:
            den = _integer(term, 3)
            if den == 0:
                raise ParseError("zero denominator", term.start(3))
            coeff = Fraction(coeff, den)
        mono = [0] * ring.width
        for factor in _VARIABLE.finditer(text, term.start(), term.end()):
            index, exp = factor.groups()
            at = factor.start()
            if index is None:
                if not ring.has_param:
                    raise ParseError("variable t not available in this ring", at)
                idx = ring.param_index
            else:
                idx = _integer(factor, 1)
                if idx >= ring.num_vars:
                    raise ParseError(f"unknown variable x{index}", at)
            e = 1 if exp is None else _integer(factor, 2)
            if e > MAX_EXPONENT:
                raise ParseError(f"exponent {e} too large", factor.start(2))
            mono[idx] += e
            if mono[idx] > MAX_EXPONENT:
                raise ParseError("accumulated exponent too large", at)
        m = tuple(mono)
        acc[m] = acc.get(m, 0) + coeff
        op = _OPERATOR.match(text, term.end())
        if op is None:
            raise _syntax_error(text, term.end(), "'+' or '-'")
        if not op.group(1):
            return ring.from_dict(acc)
        sign = 1 if op.group(1) == "+" else -1
        pos = op.end()


def _integer(match, group):
    """The digits of a match group as an int; a ParseError at their start
    when int() refuses them (more digits than sys.get_int_max_str_digits(),
    4,300 by default)."""
    try:
        return int(match.group(group))
    except ValueError:
        digits = len(match.group(group))
        raise ParseError(f"number of {digits} digits too long", match.start(group)) from None


def _syntax_error(text, pos, wanted):
    """ParseError at the first non-space character from pos, or at the end."""
    at = len(text) - len(text[pos:].lstrip())
    found = repr(text[at]) if at < len(text) else "the end"
    return ParseError(f"expected {wanted}, found {found}", at)


def format_monomial(ring, m):
    """The text of exponent tuple m as in `format_polynomial`, '1' if constant."""
    factors = (ring.var_name(i) + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e)
    return "*".join(factors) or "1"


def format_polynomial(p):
    """Canonical text: descending terms, explicit '*' and '^'."""
    if not p.terms:
        return "0"
    parts = []
    for k, (m, c) in enumerate(p.terms):
        mag, body = abs(c), format_monomial(p.ring, m)
        if not any(m):
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if k == 0:
            if c > 0:
                parts.append(body)
            elif any(m) and mag == 1:
                # grammar has no unary minus on a bare monomial
                parts.append(f"-1*{body}")
            else:
                parts.append(f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)
