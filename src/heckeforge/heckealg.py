"""Coxeter systems with ShortLex normal forms, generic affine Hecke algebras
with parameter functions and a quadratic relation per generator, twisted
group algebras, and their semidirect product.

Normal forms use the integer geometric representation on the root lattice
(crystallographic Cartan pairs per edge label): w^{-1} is kept as its root
columns and updated by one rank-one reflection per letter, so length and
descent tests are exact; affine groups are handled through a configurable
length cap.
"""

from __future__ import annotations


class HeckeError(ValueError):
    pass


class LengthCapError(HeckeError):
    """A word grew past the Coxeter system's length cap."""


# Cartan integer pairs (a_st, a_ts) realizing each edge label; the
# asymmetric labels are assigned in generator order
_CARTAN_PAIRS = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3),
                 None: (-2, -2)}  # None encodes m = infinity

INFINITY = None


class CoxeterSystem:
    """(W, S) given by its Coxeter matrix; m values in {2,3,4,6,infinity}
    off the diagonal (crystallographic, which covers all the classical and
    affine rank-2 types used here)."""

    def __init__(self, generators, coxeter_matrix, type_tag=None,
                 length_cap=64):
        self.generators = tuple(generators)
        for key in coxeter_matrix:
            if not set(key) <= set(self.generators):
                raise HeckeError(f"m{key!r} names a letter that is not a "
                                 "generator")
        if not self.generators:
            raise HeckeError("the generators [] are empty")
        if len(set(self.generators)) != len(self.generators):
            raise HeckeError("duplicate generators")
        self.type_tag = type_tag
        if not isinstance(length_cap, int) or length_cap < 0:
            raise HeckeError(f"length cap must be an int >= 0, "
                             f"not {length_cap!r}")
        self.length_cap = length_cap
        m = {}
        for s in self.generators:
            for t in self.generators:
                if s == t:
                    v = coxeter_matrix.get((s, t), 1)
                    if v != 1:
                        raise HeckeError("m(s,s) must be 1")
                    m[s, t] = 1
                    continue
                if (s, t) in coxeter_matrix:
                    v = coxeter_matrix[s, t]
                elif (t, s) in coxeter_matrix:
                    v = coxeter_matrix[t, s]
                else:
                    raise HeckeError(f"m({s},{t}) is missing; an infinite "
                                     "order must be written out")
                if v is INFINITY:
                    pass
                elif v not in (2, 3, 4, 6):
                    raise HeckeError(f"unsupported edge label m({s},{t})={v}")
                m[s, t] = v
        for s in self.generators:
            for t in self.generators:
                if m[s, t] != m[t, s]:
                    raise HeckeError("Coxeter matrix must be symmetric")
        self.m = m
        # every GroupWord hashes its system: hash the matrix once, as a set
        # of entries, which needs no order on the generators
        self._hash = hash((self.generators, frozenset(m.items())))
        self._index = {s: i for i, s in enumerate(self.generators)}
        self.rank = len(self.generators)
        self._cartan = self._build_cartan()
        # the simple roots as coordinate columns: w^{-1} at w = 1
        self._units = tuple(tuple(int(k == j) for k in range(self.rank))
                            for j in range(self.rank))

    # -- presentation data ------------------------------------------------

    @classmethod
    def from_type(cls, tag, length_cap=64):
        tag = tag.upper()
        if tag == "A1":
            return cls(("s",), {}, type_tag="A1", length_cap=length_cap)
        if tag == "A1XA1":
            return cls(("s", "t"), {("s", "t"): 2}, type_tag="A1xA1",
                       length_cap=length_cap)
        if tag == "A2":
            return cls(("s", "t"), {("s", "t"): 3}, type_tag="A2",
                       length_cap=length_cap)
        if tag == "B2":
            return cls(("s", "t"), {("s", "t"): 4}, type_tag="B2",
                       length_cap=length_cap)
        if tag == "G2":
            return cls(("s", "t"), {("s", "t"): 6}, type_tag="G2",
                       length_cap=length_cap)
        if tag in ("A1~", "A~1", "AFFINE_A1"):
            return cls(("s0", "s1"), {("s0", "s1"): INFINITY},
                       type_tag="A1~", length_cap=length_cap)
        raise HeckeError(f"unknown type tag {tag!r}")

    def _build_cartan(self):
        n = self.rank
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                label = self.m[self.generators[i], self.generators[j]]
                if label == 2:
                    continue
                pair = _CARTAN_PAIRS[label]
                a[i][j], a[j][i] = pair
        return a

    def _reflect(self, cols, i):
        """The columns of w^{-1} s_i from those of w^{-1}: s_i(alpha_j) =
        alpha_j - a_ij alpha_i, so column j loses a_ij times column i
        (column i is negated, and columns with a_ij = 0 are kept)."""
        col_i = cols[i]
        return tuple(col if not a else tuple(x - a * y
                                             for x, y in zip(col, col_i))
                     for col, a in zip(cols, self._cartan[i]))

    def normal_form(self, letters):
        """ShortLex-least reduced word: greedily peel the least left
        descent.  w^{-1} is kept as its columns w^{-1}(alpha_j) in root
        coordinates, and s_i is a left descent of w exactly when the root
        w^{-1}(alpha_i) is negative, i.e. column i has no positive entry."""
        for s in letters:
            if s not in self._index:
                raise HeckeError(f"unknown generator {s!r}")
        inv = self._units
        for s in reversed(letters):
            inv = self._reflect(inv, self._index[s])
        # w = 1 exactly when w^{-1} = 1, so w^{-1} alone drives the loop
        out = []
        while inv != self._units:
            # w is still not 1 after length_cap letters: l(w) > length_cap
            if len(out) == self.length_cap:
                raise LengthCapError(
                    f"word exceeds the length cap {self.length_cap}")
            i = next(i for i, col in enumerate(inv) if max(col) <= 0)
            out.append(self.generators[i])
            inv = self._reflect(inv, i)
        return tuple(out)

    def word(self, letters):
        return GroupWord(self, letters)

    def length(self, letters):
        return len(self.normal_form(letters))

    def __eq__(self, other):
        return self is other or (isinstance(other, CoxeterSystem)
                                 and self.generators == other.generators
                                 and self.m == other.m)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CoxeterSystem({self.type_tag or self.generators})"


class GroupWord:
    """An element of W, stored by its ShortLex normal form."""

    __slots__ = ("system", "letters")

    def __init__(self, system, letters):
        self.system = system
        self.letters = system.normal_form(tuple(letters))

    def __mul__(self, other):
        if self.system != other.system:
            raise HeckeError("Coxeter system mismatch")
        return GroupWord(self.system, self.letters + other.letters)

    def inv(self):
        return GroupWord(self.system, tuple(reversed(self.letters)))

    def __len__(self):
        return len(self.letters)

    def is_identity(self):
        return not self.letters

    def __eq__(self, other):
        return (isinstance(other, GroupWord)
                and self.system == other.system
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.system, self.letters))

    def __repr__(self):
        return "e" if not self.letters else "".join(map(str, self.letters))


def _require_conjugate_constant(system, values, what):
    """Raise unless values[s] == values[t] whenever m(s, t) is odd: such s
    and t are conjugate in W, so a Hecke algebra must treat them alike."""
    for s in system.generators:
        for t in system.generators:
            m = system.m[s, t]
            if (s != t and m is not INFINITY and m % 2 == 1
                    and values[s] != values[t]):
                raise HeckeError(f"generators {s},{t} are conjugate (m={m}) "
                                 f"but carry different {what}")


class ParameterFunction:
    """s -> parameter name, constant along odd-m chains of the diagram."""

    def __init__(self, system, names):
        self.system = system
        self.names = dict(names)
        if set(self.names) != set(system.generators):
            raise HeckeError("parameter function must cover S exactly")
        _require_conjugate_constant(system, self.names, "parameters")
        self.parameters = tuple(sorted(set(self.names.values())))

    @classmethod
    def constant(cls, system, name="q"):
        return cls(system, {s: name for s in system.generators})

    def __eq__(self, other):
        return (isinstance(other, ParameterFunction)
                and self.system == other.system and self.names == other.names)

    def __hash__(self):
        return hash((self.system, tuple(sorted(self.names.items()))))


class LaurentPoly:
    """Integer Laurent polynomial in a fixed tuple of named parameters;
    keys are exponent tuples, zero coefficients never stored."""

    __slots__ = ("params", "terms")

    def __init__(self, params, terms):
        self.params = tuple(params)
        self.terms = {k: v for k, v in terms.items() if v}

    @classmethod
    def zero(cls, params):
        return cls(params, {})

    @classmethod
    def constant(cls, params, c):
        return cls(params, {(0,) * len(params): c})

    @classmethod
    def variable(cls, params, name, power=1):
        exps = tuple(power if p == name else 0 for p in params)
        if name not in params:
            raise HeckeError(f"unknown parameter {name!r}")
        return cls(params, {exps: 1})

    def _check(self, other):
        if self.params != other.params:
            raise HeckeError("parameter mismatch")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.params, other)
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return LaurentPoly(self.params, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.params, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.params, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.params,
                               {k: v * other for k, v in self.terms.items()})
        self._check(other)
        terms = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                terms[k] = terms.get(k, 0) + v1 * v2
        return LaurentPoly(self.params, terms)

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.params, other)
        return (isinstance(other, LaurentPoly)
                and self.params == other.params and self.terms == other.terms)

    def __hash__(self):
        return hash((self.params, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            v = self.terms[k]
            mono = "*".join(f"{n}^{e}" for n, e in zip(self.params, k) if e)
            bits.append(f"{v}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class HeckeAlgebra:
    """Generic Hecke algebra of (W, S) over integer Laurent polynomials in
    the parameters of params: basis T_w, T_s T_w = T_sw when l(sw) > l(w),
    and T_s^2 = a_s T_s + b_s for each generator s.

    relation maps s to (a_s, b_s), ints or LaurentPolys in self.names,
    equal on conjugate generators; by default (a_s, b_s) = (q_s - 1, q_s).
    A relation with a_s = 0 is the sign-twisted one of the Iwahori
    convolution oracle."""

    def __init__(self, system, params=None, relation=None):
        self.system = system
        self.params = params or ParameterFunction.constant(system)
        if self.params.system != system:
            raise HeckeError("parameter function is for a different system")
        self.names = self.params.parameters
        if relation is None:
            relation = {s: (self.q(s) - 1, self.q(s))
                        for s in system.generators}
        if set(relation) != set(system.generators):
            raise HeckeError("quadratic relation must cover S exactly")
        self.relation = {s: (self._lift(a), self._lift(b))
                         for s, (a, b) in relation.items()}
        _require_conjugate_constant(system, self.relation,
                                    "quadratic relations")

    def _lift(self, c):
        if isinstance(c, int):
            return self.poly(c)
        if not isinstance(c, LaurentPoly) or c.params != self.names:
            raise HeckeError(f"relation coefficient {c!r} is not a Laurent "
                             f"polynomial in {self.names}")
        return c

    def poly(self, c=0):
        return LaurentPoly.constant(self.names, c)

    def q(self, s):
        return LaurentPoly.variable(self.names, self.params.names[s])

    def zero(self):
        return HeckeElement(self, {})

    def one(self):
        return self.basis(())

    def basis(self, letters):
        w = GroupWord(self.system, letters)
        return HeckeElement(self, {w: self.poly(1)})

    def _mul_gen_left(self, s, elem):
        """T_s . elem by the left recursion."""
        out = {}
        for w, coeff in elem.coeffs.items():
            sw = GroupWord(self.system, (s,) + w.letters)
            if len(sw) > len(w):
                out[sw] = out.get(sw, self.poly(0)) + coeff
            else:
                a, b = self.relation[s]
                out[w] = out.get(w, self.poly(0)) + a * coeff
                out[sw] = out.get(sw, self.poly(0)) + b * coeff
        return HeckeElement(self, out)

    def mul(self, a, b):
        for x in (a, b):
            if x.algebra is not self and x.algebra != self:
                raise HeckeError("algebra mismatch")
        out = self.zero()
        for w, coeff in a.coeffs.items():
            acc = b
            for s in reversed(w.letters):
                acc = self._mul_gen_left(s, acc)
            out = out + acc.scale(coeff)
        return out

    def __eq__(self, other):
        return self is other or (isinstance(other, HeckeAlgebra)
                                 and self.system == other.system
                                 and self.params == other.params
                                 and self.relation == other.relation)

    def __hash__(self):
        return hash((self.system, self.params,
                     tuple(sorted(self.relation.items()))))


class HeckeElement:
    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = {w: c for w, c in coeffs.items() if not c.is_zero()}

    def __add__(self, other):
        if self.algebra != other.algebra:
            raise HeckeError("algebra mismatch")
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, self.algebra.poly(0)) + c
        return HeckeElement(self.algebra, out)

    def __sub__(self, other):
        return self + other.scale(self.algebra.poly(-1))

    def scale(self, c):
        if isinstance(c, int):
            c = self.algebra.poly(c)
        return HeckeElement(self.algebra,
                            {w: c * v for w, v in self.coeffs.items()})

    def __mul__(self, other):
        return self.algebra.mul(self, other)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, HeckeElement)
                and self.algebra == other.algebra
                and self.coeffs == other.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for w in sorted(self.coeffs, key=lambda w: (len(w), w.letters)):
            bits.append(f"({self.coeffs[w]})T[{w}]")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# twisted group algebras


class TwistedGroupAlgebraContext:
    """A finite group Omega (full multiplication table) with a normalized
    2-cocycle mu given as a full table of invertible scalars."""

    def __init__(self, elements, mul, cocycle):
        self.elements = tuple(elements)
        if len(self.elements) > 64:
            raise HeckeError("cocycle tables are only kept for |Omega| <= 64")
        self.table = {(a, b): mul(a, b) for a in self.elements
                      for b in self.elements}
        self.identity = self._find_identity()
        self.cocycle = dict(cocycle)
        self._validate_cocycle()

    def _find_identity(self):
        for e in self.elements:
            if all(self.table[e, a] == a and self.table[a, e] == a
                   for a in self.elements):
                return e
        raise HeckeError("no identity element")

    def _validate_cocycle(self):
        e = self.identity
        for a in self.elements:
            if self.cocycle[e, a] != 1 or self.cocycle[a, e] != 1:
                raise HeckeError("cocycle is not normalized")
            for b in self.elements:
                if not self.cocycle[a, b]:
                    raise HeckeError("cocycle values must be invertible")
                for c in self.elements:
                    lhs = self.cocycle[a, b] * self.cocycle[self.table[a, b], c]
                    rhs = self.cocycle[b, c] * self.cocycle[a, self.table[b, c]]
                    if lhs != rhs:
                        raise HeckeError(
                            f"cocycle identity fails at {(a, b, c)}")

    def mul(self, a, b):
        return self.table[a, b]

    def inverse(self, a):
        for b in self.elements:
            if self.table[a, b] == self.identity:
                return b
        raise HeckeError("no inverse")

    @classmethod
    def trivial(cls, elements, mul):
        els = tuple(elements)
        return cls(els, mul, {(a, b): 1 for a in els for b in els})


def twisted_mul(ctx, a, b):
    """e_w . e_w' = mu(w, w') e_{ww'}, extended bilinearly; a, b map
    elements of Omega to coefficients."""
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = ctx.mul(w1, w2)
            term = c1 * c2 * ctx.cocycle[w1, w2]
            out[w] = out.get(w, 0) + term
    return {w: c for w, c in out.items() if c != 0 and not (
        hasattr(c, "is_zero") and c.is_zero())}


# ---------------------------------------------------------------------------
# semidirect product


def _check_action(system, twisted, act, relation=None):
    """Raise HeckeError unless act is a homomorphism from the twisted
    group to the permutations of S that preserve the Coxeter matrix and,
    when given, the quadratic relations."""
    gens = set(system.generators)
    for w in twisted.elements:
        perm = act[w]
        if set(perm) != gens or set(perm.values()) != gens:
            raise HeckeError(f"act({w}) is not a permutation of S")
        for s in gens:
            for t in gens:
                if system.m[s, t] != system.m[perm[s], perm[t]]:
                    raise HeckeError(
                        f"act({w}) does not preserve the Coxeter matrix")
            if relation is not None and relation[s] != relation[perm[s]]:
                raise HeckeError(
                    f"act({w}) does not preserve the quadratic relations")
    for w1 in twisted.elements:
        for w2 in twisted.elements:
            composed = {s: act[w1][act[w2][s]] for s in system.generators}
            if composed != act[twisted.mul(w1, w2)]:
                raise HeckeError("act is not a homomorphism")
    if act[twisted.identity] != {s: s for s in system.generators}:
        raise HeckeError("act(e) must be the identity")


class SemidirectAlgebra:
    """Lambda[Omega, mu] |x H(W_aff, q): basis e_w T_x with
    (e_w T_x)(e_w' T_y) = mu(w,w') e_{ww'} (T_{act(w'^{-1})(x)} T_y)."""

    def __init__(self, hecke, twisted, act):
        self.hecke = hecke
        self.twisted = twisted
        self.act = dict(act)
        _check_action(hecke.system, twisted, self.act, hecke.relation)

    def basis(self, omega, letters):
        word = GroupWord(self.hecke.system, letters)
        return {(omega, word): self.hecke.poly(1)}

    def apply_act(self, omega, word):
        perm = self.act[omega]
        return GroupWord(self.hecke.system,
                         tuple(perm[s] for s in word.letters))

    def mul(self, a, b):
        out = {}
        for (w1, x), c1 in a.items():
            for (w2, y), c2 in b.items():
                mu = self.twisted.cocycle[w1, w2]
                omega = self.twisted.mul(w1, w2)
                moved = self.apply_act(self.twisted.inverse(w2), x)
                prod = self.hecke.mul(
                    HeckeElement(self.hecke, {moved: self.hecke.poly(1)}),
                    HeckeElement(self.hecke, {y: self.hecke.poly(1)}))
                scalar = c1 * c2 * mu
                for z, cz in prod.coeffs.items():
                    key = (omega, z)
                    out[key] = out.get(key, self.hecke.poly(0)) + scalar * cz
        return {k: v for k, v in out.items() if not v.is_zero()}


def length_zero_subgroup(system, omega_elements, omega_mul, act):
    """Return Omega after validating that act preserves (S, m) — hence
    length — as the structure theorem requires of length-zero elements."""
    cocycle = {(a, b): 1 for a in omega_elements for b in omega_elements}
    ctx = TwistedGroupAlgebraContext(omega_elements, omega_mul, cocycle)
    _check_action(system, ctx, act)
    return ctx


def support_preserving_map_check(algebra_a, algebra_b, scalars):
    """Whether T_w -> c_w T'_w extends to an algebra homomorphism, checked
    on all products T_s . T_w with l(w) <= 4.  Both algebras
    must share the Coxeter system and the coefficient ring (names)."""
    if algebra_a.system != algebra_b.system:
        raise HeckeError("algebras must share the index group")
    if algebra_a.names != algebra_b.names:
        raise HeckeError("algebras must share the coefficient ring")
    system = algebra_a.system

    def c(word):
        return scalars(word) if callable(scalars) else scalars[word]

    def image(elem):
        out = algebra_b.zero()
        for w, coeff in elem.coeffs.items():
            cw = c(w)
            out = out + HeckeElement(algebra_b, {w: coeff * cw})
        return out

    words = [GroupWord(system, ())]
    seen = {words[0]}
    frontier = [words[0]]
    for _ in range(4):
        nxt = []
        for w in frontier:
            for s in system.generators:
                sw = GroupWord(system, (s,) + w.letters)
                if sw not in seen and len(sw) > len(w):
                    seen.add(sw)
                    nxt.append(sw)
        words.extend(nxt)
        frontier = nxt
    for s in system.generators:
        ts = algebra_a.basis((s,))
        for w in words:
            tw = HeckeElement(algebra_a, {w: algebra_a.poly(1)})
            lhs = image(algebra_a.mul(ts, tw))
            rhs = algebra_b.mul(image(ts), image(tw))
            if lhs != rhs:
                return False
    return True
