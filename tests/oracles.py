"""Second algorithms kept as test oracles.  Each computes a quantity that
the package computes another way, and the tests compare the two:

* torsion characters: the Freudenthal weight system of V_lambda, expanded
  over its Weyl orbits and evaluated as a weight sum in Z[x]/Phi_N, against
  the Jacobi-Trudi determinant of `torsion.character_at_torsion`;
* characteristic polynomials: P_c multiplied out one cyclotomic factor at
  a time from 1, against the products of cached powers Phi_d^m of
  `TorsionClass.characteristic_polynomial`;
* cyclotomic polynomials: x^d - 1 divided by the Phi_e of the proper
  divisors e by long division (`poly_divmod`), against the Moebius product
  of `exact.cyclotomic`;
* the elliptic term: one character per class of the table, c and -c alike,
  summed as Fractions, against the negation-orbit pairing of
  `torsion.elliptic_term`;
* parameter enumeration: runs peeled off a frozenset of weights with a
  memo that lives for one call, run centers judged through
  `Registry.center_status` and every block found by the public
  `Registry.lookup`, against the bitmask peeling and nonzero-block lookups
  of `arthur.enumerate_parameters`, whose run assignments and pool
  groupings are memoized on the registry and shared by every call on it;
* spin data: closed-form one-variable Laurent products, against the
  weight-line characters of `spin._factor_spins` specialized at S = 1
  (`set_var_to_one`); both in true exponents;
* one sign vector's IH character (`rho_psi`): `spin._characters` asked for
  that vector alone, against the sign-prefix products that
  `spin._signed_products` shares between the vectors of a shape;
* IH sign variants: specialize the two-variable character of
  `spin._characters` at S = 1 to a sparse one-variable LaurentPoly
  (`set_var_to_one`), decompose it into torus strings by a dict walk and
  read the graded dimensions with `coeff_list`, against the `poly_mul`
  products of the factor-type T-lists in `spin._betti_variants`;
* the tautological ring: the straightforward rewrite recursion and its
  linear extension to formal polynomials, a product that accumulates
  Fraction coefficients, and the all-pairs check of R_g/(u_g) = R_{g-1},
  against the monomials, integer products and generator-level check of
  `tautring`; and the rank of rational rows, each scaled to integers,
  against Gauss-Jordan elimination and `tautring.matrix_rank` of the whole
  matrix scaled to integers;
* closed forms the tests compare against: the SL2 characters nu_d, and the
  top power u_1^N = N! / prod (2j-1)!! times the socle;
* the closed forms `exact` and `proportionality` build from integer
  products, by their textbook products of Fractions and LaurentPolys: the
  g-fold product prod (1 + T^{2k}) for the Poincare polynomial, the
  Bernoulli numbers by their recurrence (`bernoulli_recurrence`) against
  the tangent numbers of `exact.bernoulli`, the zeta(1-2j) = -B_{2j}/(2j)
  values they give (`zeta_negative`) and their product for the central
  mass, the sign, power of 2 and zeta terms of lambda_1^N, and the per-term
  B_{2j} product of the Siegel volume and the modular-form asymptotics.
"""
import functools
import itertools
import math
from fractions import Fraction

from agcoh.arthur import (ArthurParameter, BlockKind, BuildingBlock, Registry,
                          check_kind_d)
from agcoh.errors import RegistryIncompleteError
from agcoh.exact import (LaurentPoly, bareiss, cyclotomic, double_factorial_odd, euler_phi,
                         poly_trim)
from agcoh.spin import (ShapeVariant, _characters, _signed, hodge_diamond,
                        primitive_degrees)
from agcoh.symplectic import HighestWeight, weyl_dimension
from agcoh.tautring import RingElement
from agcoh.torsion import character_at_torsion


# -- the Freudenthal weight system -----------------------------------------------

def _dominant_candidates(hw: HighestWeight) -> list[tuple[int, ...]]:
    """Dominant mu <= lambda: nonincreasing, nonnegative, prefix sums bounded
    by those of lambda, and sum(lambda - mu) even."""
    g, lam = hw.g, hw.lam
    prefix = list(itertools.accumulate(lam))
    total_parity = sum(lam) % 2
    out: list[tuple[int, ...]] = []

    def extend(i: int, prev: int, acc: list[int], acc_sum: int) -> None:
        if i == g:
            if acc_sum % 2 == total_parity:
                out.append(tuple(acc))
            return
        for v in range(min(prev, lam[0]), -1, -1):
            if acc_sum + v > prefix[i]:
                continue
            acc.append(v)
            extend(i + 1, v, acc, acc_sum + v)
            acc.pop()

    extend(0, lam[0] if lam else 0, [], 0)
    return out


def _positive_roots(g: int) -> list[tuple[int, ...]]:
    roots = []
    for i in range(g):
        for j in range(i + 1, g):
            for sign in (1, -1):
                r = [0] * g
                r[i], r[j] = 1, sign
                roots.append(tuple(r))
        r = [0] * g
        r[i] = 2
        roots.append(tuple(r))
    return roots


def dominant_rep(vec: tuple[int, ...]) -> tuple[int, ...]:
    """The dominant weight in the Weyl orbit of vec."""
    return tuple(sorted((abs(v) for v in vec), reverse=True))


def orbit_size(mu: tuple[int, ...]) -> int:
    """The number of weights in the Weyl orbit of the dominant weight mu."""
    g = len(mu)
    perms = math.factorial(g)
    for _, grp in itertools.groupby(mu):
        perms //= math.factorial(len(list(grp)))
    return perms * 2 ** sum(1 for v in mu if v)


def freudenthal(hw: HighestWeight) -> dict[tuple[int, ...], int]:
    """Multiplicities of the dominant weights of V_lambda by the Freudenthal
    recursion, checked against the Weyl dimension."""
    g, lam = hw.g, hw.lam
    rho = tuple(range(g, 0, -1))
    lam_rho = tuple(a + b for a, b in zip(lam, rho))
    norm_top = sum(v * v for v in lam_rho)
    roots = _positive_roots(g)
    cands = _dominant_candidates(hw)
    cands.sort(key=lambda mu: sum((a + b) ** 2 for a, b in zip(mu, rho)), reverse=True)
    mult: dict[tuple[int, ...], int] = {}
    for mu in cands:
        if mu == lam:
            mult[mu] = 1
            continue
        acc = 0
        for alpha in roots:
            plus = next(i for i, a in enumerate(alpha) if a > 0)
            k = 1
            while mu[plus] + k * alpha[plus] <= lam[0]:
                nu = tuple(a + k * b for a, b in zip(mu, alpha))
                m = mult.get(dominant_rep(nu), 0)
                if m:
                    acc += 2 * m * sum(a * b for a, b in zip(nu, alpha))
                k += 1
        mu_rho = tuple(a + b for a, b in zip(mu, rho))
        denom = norm_top - sum(v * v for v in mu_rho)
        if denom <= 0 or acc % denom:
            raise AssertionError(f"Freudenthal recursion failed at {mu}")
        m = acc // denom
        if m:
            mult[mu] = m
    mass = sum(orbit_size(mu) * m for mu, m in mult.items())
    if mass != weyl_dimension(hw):
        raise AssertionError(
            f"weight system mass {mass} != Weyl dimension {weyl_dimension(hw)}")
    return mult


# -- the weight-sum character --------------------------------------------------
#
# Expand the weight system over its Weyl orbits and evaluate the weight sum
#     sum_mu mult(mu) prod_k zeta_k^{mu_k}
# in the power basis Z[x]/Phi_N, with one eigenvalue zeta_k from each inverse
# pair of the class.  The reduced value must be a rational integer.

class NonIntegralCharacterError(ArithmeticError):
    """The weight sum did not reduce to a rational integer."""


def orbit_expansion(dominant):
    """Complete map weight vector -> multiplicity of a weight system given
    by its dominant multiplicities."""
    full = {}
    for mu, mult in dominant.items():
        for perm in set(itertools.permutations(mu)):
            nonzero = [i for i, v in enumerate(perm) if v]
            for signs in itertools.product((1, -1), repeat=len(nonzero)):
                vec = list(perm)
                for i, s in zip(nonzero, signs):
                    vec[i] *= s
                full[tuple(vec)] = mult
    return full


def weight_sum_character(full, exponents, order):
    """sum_mu mult(mu) x^{sum_k mu_k e_k} reduced in Z[x]/Phi_order, for one
    exponent e_k per chosen eigenvalue exp(2 pi i e_k / order)."""
    counts = [0] * order
    for mu, mult in full.items():
        counts[sum(m * x for m, x in zip(mu, exponents)) % order] += mult
    phi = cyclotomic(order)
    deg = len(phi) - 1
    for i in range(order - 1, deg - 1, -1):
        c = counts[i]
        if c == 0:
            continue
        counts[i] = 0
        for j in range(deg):
            counts[i - deg + j] -= c * phi[j]
    if any(counts[1:deg]):
        raise NonIntegralCharacterError(
            f"character value not rational; residual coordinates {counts[:deg]}")
    return counts[0]


def root_of_unity_order(cls):
    return math.lcm(*(d for d, _ in cls.pairs))


def chosen_eigenvalue_exponents(cls):
    """One exponent (k, d) per inverse pair of eigenvalues, representing
    exp(2*pi*i*k/d); the character of a self-dual weight system does not
    depend on which member of each pair is chosen."""
    chosen = []
    for d, m in cls.pairs:
        if d == 1:
            chosen.extend([(0, 1)] * (m // 2))
        elif d == 2:
            chosen.extend([(1, 2)] * (m // 2))
        else:
            reps = [k for k in range(1, (d + 1) // 2) if math.gcd(k, d) == 1]
            assert 2 * len(reps) == euler_phi(d), f"bad eigenvalue pairing for index {d}"
            chosen.extend((k, d) for _ in range(m) for k in reps)
    return chosen


def class_exponents(cls):
    order = root_of_unity_order(cls)
    return [k * order // d for k, d in chosen_eigenvalue_exponents(cls)], order


def oracle_character(full, cls):
    exponents, order = class_exponents(cls)
    return weight_sum_character(full, exponents, order)


def factorwise_characteristic_polynomial(c) -> tuple[int, ...]:
    """prod_d Phi_d^{m_d} of a torsion class, one factor Phi_d at a time
    from the constant polynomial 1, dense from the constant term."""
    poly = [1]
    for d, m in c.pairs:
        for _ in range(m):
            out = [0] * (len(poly) + euler_phi(d))
            for i, a in enumerate(poly):
                for j, b in enumerate(cyclotomic(d)):
                    out[i + j] += a * b
            poly = out
    return tuple(poly)


def poly_divmod(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(quotient, remainder) of integer polynomials by long division, dense
    from the constant term; the divisor must be monic."""
    if not den or den[-1] != 1:
        raise ValueError("divisor must be a monic integer polynomial")
    rem = list(num)
    deg_d = len(den) - 1
    quo = [0] * max(len(num) - deg_d, 0)
    for i in range(len(rem) - 1, deg_d - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quo[i - deg_d] = c
        for j, cd in enumerate(den):
            rem[i - deg_d + j] -= c * cd
    return poly_trim(quo), poly_trim(rem)


def h_series(cls, n: int) -> tuple[int, ...]:
    """h_0, ..., h_{n-1}, the coefficients of 1/P_c(z), sliced from the
    padded series the class stores behind deg P_c leading zeros."""
    deg = cls.degree
    return cls.padded_h_series(deg + n)[deg:deg + n]


def naive_elliptic_term(hw, masses) -> Fraction:
    """sum_c m_c tr(c | V_lambda) over every class of the table, with no
    use of tr(-c) = (-1)^{|lambda|} tr(c)."""
    total = Fraction(0)
    for c, m in masses.masses.items():
        total += m * character_at_torsion(hw, c)
    return total


# -- parameter enumeration over frozensets -------------------------------------------

def set_run_assignments(rest: tuple[int, ...], d0: int, registry: Registry
                        ) -> list[tuple[tuple[int, ...], dict]]:
    """Peel runs of consecutive integers off `rest`, assigning each either to
    the principal block (runs of length exactly d0 whose center lies in some
    nonzero odd orthogonal block) or to a factor pool keyed by (kind, d).
    Returns all (principal_doubled_centers, pools) assignments; raises
    RegistryIncompleteError when a run center is beyond registry knowledge.
    """
    memo: dict[frozenset[int], list[tuple[tuple[int, ...], dict]]] = {}

    def viable(kind: BlockKind, doubled_center: int) -> bool:
        st = registry.center_status(kind, doubled_center)
        if st == "unknown":
            raise RegistryIncompleteError(
                f"run centered at weight {doubled_center}/2 exceeds the registry "
                "bound; ingest cardinalities to enumerate")
        return st == "viable"

    def recurse(remaining: frozenset[int]) -> list[tuple[tuple[int, ...], dict]]:
        if not remaining:
            return [((), {})]
        if remaining in memo:
            return memo[remaining]
        out: list[tuple[tuple[int, ...], dict]] = []
        top = max(remaining)
        run_len = 0
        while top - run_len >= 1 and (top - run_len) in remaining:
            run_len += 1
            doubled_center = 2 * top - run_len + 1
            options: list[tuple[str, tuple[BlockKind, int] | None]] = []
            if run_len % 2:
                if run_len == d0 and viable(BlockKind.ODD_ORTHOGONAL, doubled_center):
                    options.append(("principal", None))
                if viable(BlockKind.EVEN_ORTHOGONAL, doubled_center):
                    options.append(("pool", (BlockKind.EVEN_ORTHOGONAL, run_len)))
            elif viable(BlockKind.SYMPLECTIC, doubled_center):
                options.append(("pool", (BlockKind.SYMPLECTIC, run_len)))
            if not options:
                continue
            sub = recurse(remaining - frozenset(range(top - run_len + 1, top + 1)))
            for tag, key in options:
                for sub_principal, sub_pools in sub:
                    if tag == "principal":
                        out.append(((doubled_center,) + sub_principal, sub_pools))
                    else:
                        pools = dict(sub_pools)
                        pools[key] = (doubled_center,) + pools.get(key, ())
                        out.append((sub_principal, pools))
        memo[remaining] = out
        return out

    return recurse(frozenset(rest))


def set_pool_groupings(kind: BlockKind, centers: tuple[int, ...], registry: Registry
                       ) -> list[tuple[BuildingBlock, ...]]:
    """All ways to split a pool of run centers into nonzero blocks of the
    given kind (even group sizes for the even orthogonal kind)."""
    even_sizes = kind is BlockKind.EVEN_ORTHOGONAL
    results: list[tuple[BuildingBlock, ...]] = []

    def recurse(todo: tuple[int, ...], acc: tuple[BuildingBlock, ...]):
        if not todo:
            results.append(acc)
            return
        first, rest = todo[0], todo[1:]
        for size in range(0, len(rest) + 1):
            if even_sizes and (size + 1) % 2:
                continue
            for mates in itertools.combinations(rest, size):
                block = registry.lookup(kind, (first,) + mates)
                if block.cardinality == 0:
                    continue
                left = tuple(x for x in rest if x not in mates)
                recurse(left, acc + (block,))

    recurse(centers, ())
    return results


def set_enumerate_parameters(hw: HighestWeight, registry: Registry
                             ) -> list[tuple[ArthurParameter, int]]:
    """`arthur.enumerate_parameters` on frozensets: every (parameter,
    multiplicity), sorted by canonical shape."""
    tau = set(hw.tau)
    g = hw.g
    found: dict[str, tuple[ArthurParameter, int]] = {}
    for c in range(g + 1):
        if c > 0 and c not in tau:
            break
        d0 = 2 * c + 1
        rest = tuple(sorted(tau - set(range(1, c + 1)), reverse=True))
        for principal_centers, pools in set_run_assignments(rest, d0, registry):
            principal_block = registry.lookup(BlockKind.ODD_ORTHOGONAL, principal_centers)
            if principal_block.cardinality == 0:
                continue
            per_pool = []
            dead = False
            for (kind, d), centers in sorted(pools.items(),
                                             key=lambda kv: (kv[0][0].value, kv[0][1])):
                groupings = set_pool_groupings(kind, tuple(sorted(centers, reverse=True)),
                                               registry)
                if not groupings:
                    dead = True
                    break
                per_pool.append([(d, grouping) for grouping in groupings])
            if dead:
                continue
            for combo in itertools.product(*per_pool):
                factors = tuple((block, d) for d, grouping in combo for block in grouping)
                param = ArthurParameter(g, (principal_block, d0), factors)
                shape = param.canonical_shape()
                if shape in found:
                    raise AssertionError(f"shape {shape} enumerated twice")
                found[shape] = (param, param.multiplicity)
    return [found[k] for k in sorted(found)]


# -- closed-form spin products ---------------------------------------------------

def monomial(e: int, coeff: int = 1) -> LaurentPoly:
    """coeff * T^e in one variable."""
    return LaurentPoly(1, {(e,): coeff})


def nu_character(d: int) -> LaurentPoly:
    """Character of the d-dimensional irreducible SL2 representation:
    T^{d-1} + T^{d-3} + ... + T^{1-d}.
    """
    if d < 1:
        raise ValueError("nu index must be positive")
    return LaurentPoly(1, {(e,): 1 for e in range(d - 1, -d, -2)})


def closed_form_oracle(block: BuildingBlock, d: int) -> tuple[LaurentPoly, ...]:
    """The closed-form one-variable Laurent products for the factor's spin
    data at S = 1, in true exponents: a single polynomial for odd
    standard pieces, an unordered pair for even ones."""
    check_kind_d(block.kind, d)
    m = len(block.doubled_weights)
    one = LaurentPoly.one(1)
    if block.kind is BlockKind.ODD_ORTHOGONAL:
        dp = (d - 1) // 2
        poly = LaurentPoly.term(1, (0,), 2 ** m)
        for j in range(1, dp + 1):
            poly = math.prod([monomial(-j) + monomial(j)] * (2 * m + 1), start=poly)
        return (poly,)
    if block.kind is BlockKind.EVEN_ORTHOGONAL:
        dp = (d - 1) // 2
        poly = LaurentPoly.term(1, (0,), 2 ** (m - 1))
        for j in range(1, dp + 1):
            poly = math.prod([monomial(-j) + monomial(j)] * (2 * m), start=poly)
        return (poly, poly)
    dp = d // 2
    prod_plus = one
    prod_minus = one
    for j in range(1, dp + 1):
        base = monomial(2 * j - 1) + monomial(1 - 2 * j)
        prod_plus = math.prod([base + 2] * m, start=prod_plus)
        prod_minus = math.prod([-base + 2] * m, start=prod_minus)
    return ((prod_plus + prod_minus).halve(), (prod_plus - prod_minus).halve())


# -- IH sign variants through one-variable characters ------------------------------

def rho_psi(param: ArthurParameter, signs=()) -> LaurentPoly:
    """The principal spin character times the chosen half-spin of every
    factor, total dimension 2^(g - r); `signs` aligns with param.factors
    and is checked by `spin._signed`."""
    return next(_characters(param, [_signed(param, signs)]))[1]


def set_var_to_one(poly: LaurentPoly, var: int) -> LaurentPoly:
    """Specialize one variable of a two-variable polynomial to 1."""
    if poly.nvars != 2:
        raise ValueError("set_var_to_one applies to two-variable polynomials")
    out: dict[tuple[int, ...], int] = {}
    keep = 1 - var
    for exps, c in poly.items():
        key = (exps[keep],)
        out[key] = out.get(key, 0) + c
    return LaurentPoly(1, out)


def exponent_range(poly: LaurentPoly, var: int = 0) -> tuple[int, int]:
    """(min, max) exponent of the given variable; (0, 0) for the zero polynomial."""
    exps = [e[var] for e, _ in poly.items()]
    return (min(exps), max(exps)) if exps else (0, 0)


def sparse_nu_decompose(char: LaurentPoly) -> list[int]:
    """Torus strings of a one-variable character: the d-string occurs
    c_(d-1) - c_(d+1) times, c_k the coefficient of T^k.  Returns the string
    dimensions d (descending, with repetition), checked by re-expansion.  An
    asymmetric character or a negative count is not a genuine torus
    character (ValueError)."""
    if char.nvars != 1:
        raise ValueError("nu_decompose expects a one-variable character")
    if not char.is_symmetric():
        raise ValueError(f"not a genuine torus character: {char}")
    coeffs = dict(char.items())
    counts: dict[int, int] = {}
    for d in range(exponent_range(char)[1] + 1, 0, -1):
        count = coeffs.get((d - 1,), 0) - coeffs.get((d + 1,), 0)
        if count < 0:
            raise ValueError(f"negative count of the {d}-string in {char}")
        if count:
            counts[d] = count
    # re-expand: the d-string is T^(d-1) + T^(d-3) + ... + T^(1-d)
    check: dict[tuple[int], int] = {}
    for d, count in counts.items():
        for e in range(d - 1, -d, -2):
            check[(e,)] = check.get((e,), 0) + count
    if check != coeffs:
        raise AssertionError("string decomposition failed to re-expand")
    return [d for d, count in counts.items() for _ in range(count)]


def betti_from_char(t_char: LaurentPoly, genus: int) -> tuple[int, ...]:
    """Graded dimensions, degrees 0 .. g(g+1), of a one-variable T-character."""
    n = genus * (genus + 1) // 2
    out = tuple(t_char.coeff_list(-n, n))
    if any(c < 0 for c in out):
        raise AssertionError("negative graded dimension")
    return out


def sparse_variant(signs: tuple[str, ...], char: LaurentPoly, genus: int, weight: int,
                   include_hodge: bool) -> ShapeVariant:
    """The ShapeVariant of one sign vector's two-variable character, read
    through its one-variable specialization at S = 1."""
    t_char = set_var_to_one(char, 0)
    nus = tuple(sparse_nu_decompose(t_char))
    return ShapeVariant(
        signs=signs,
        betti=betti_from_char(t_char, genus),
        nu=nus,
        primitive=tuple(primitive_degrees(genus, nus)),
        s_trivial=exponent_range(char, 0) == (0, 0),
        hodge=hodge_diamond(char, genus, weight) if include_hodge else None,
    )


# -- the tautological ring ---------------------------------------------------------

def top_power_coefficient(g: int) -> int:
    """u_1^{g(g+1)/2} = N! / prod_{j=1}^{g}(2j-1)!! times the socle, N = g(g+1)/2.

    This is the intersection degree of the compact dual under the socle
    normalization, used as a cross-check of the proportionality constant.
    """
    n = g * (g + 1) // 2
    return math.factorial(n) // double_factorial_odd(g)


@functools.lru_cache(maxsize=None)
def normal_form_monomial(g: int, exps: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Normal form of u_1^{e_1} ... u_g^{e_g} as sorted ((bitmask, coeff), ...):
    rewrite the largest square u_k^2 -> 2 sum_{j<k} (-1)^{j+k+1} u_j u_{2k-j},
    with u_0 = 1 and u_m = 0 for m > g."""
    squared = [k for k in range(g, 0, -1) if exps[k - 1] >= 2]
    if not squared:
        return ((sum(1 << i for i, e in enumerate(exps) if e), 1),)
    k = squared[0]
    base = list(exps)
    base[k - 1] -= 2
    acc: dict[int, int] = {}
    for j in range(k):
        other = 2 * k - j
        if other > g:
            continue
        child = list(base)
        if j > 0:
            child[j - 1] += 1
        child[other - 1] += 1
        for mask, c in normal_form_monomial(g, tuple(child)):
            acc[mask] = acc.get(mask, 0) + 2 * (-1) ** (j + k + 1) * c
    return tuple(sorted((m, c) for m, c in acc.items() if c != 0))


def normal_form(g: int, expr: dict[tuple[int, ...], Fraction]) -> RingElement:
    """Normal form of a formal polynomial in u_1..u_g, given as a mapping
    from exponent vectors to coefficients: the sum of its terms' monomial
    normal forms, accumulated in Fraction."""
    out: dict[int, Fraction] = {}
    for exps, coeff in expr.items():
        for mask, c in normal_form_monomial(g, exps):
            out[mask] = out.get(mask, Fraction(0)) + coeff * c
    return RingElement(g, out)


def pair_exps(g: int, m1: int, m2: int) -> tuple[int, ...]:
    return tuple((m1 >> i & 1) + (m2 >> i & 1) for i in range(g))


def fraction_product(g: int, a: dict[int, Fraction],
                     b: dict[int, Fraction]) -> dict[int, Fraction]:
    """The product of two elements of R_g given as bitmask -> Fraction,
    accumulated term by term in Fraction; zero coefficients dropped."""
    out: dict[int, Fraction] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            for mask, c in normal_form_monomial(g, pair_exps(g, m1, m2)):
                out[mask] = out.get(mask, Fraction(0)) + c1 * c2 * c
    return {m: c for m, c in out.items() if c != 0}


def fraction_matrix_rank(rows: list[list[Fraction]]) -> int:
    """Exact rank over Q of a matrix of Fractions (or ints): each row is
    scaled to integers by the lcm of its denominators, then eliminated
    fraction-free by exact.bareiss."""
    scaled = []
    for row in rows:
        den = math.lcm(*(c.denominator for c in row))
        scaled.append([c.numerator * (den // c.denominator) for c in row])
    return bareiss(scaled)[0]


def quotient_by_top_all_pairs(g: int) -> dict[int, int]:
    """R_g/(u_g) = R_{g-1} checked on every pair of basis monomials of
    R_{g-1}: dropping the monomials that contain u_g from their product in
    R_g leaves their product in R_{g-1}.  Raises AssertionError otherwise;
    returns the identity correspondence of bitmasks."""
    h = g - 1
    top_bit = 1 << h
    for m1 in range(1 << h):
        for m2 in range(m1, 1 << h):
            exps = pair_exps(h, m1, m2)
            projected = tuple((m, c) for m, c in normal_form_monomial(g, exps + (0,))
                              if not m & top_bit)
            if projected != normal_form_monomial(h, exps):
                raise AssertionError(
                    f"R_{g}/(u_{g}) differs from R_{h} on basis product {m1:b} * {m2:b}")
    return {m: m for m in range(1 << h)}


# -- closed forms as textbook products -------------------------------------------

@functools.lru_cache(maxsize=None)
def bernoulli_recurrence(m: int) -> Fraction:
    """B_m from the recurrence sum_{k=0}^{m} C(m+1, k) B_k = 0, solved for
    B_m in Fraction over every index, odd ones included; memoized, so a
    table is built once however it is asked for."""
    if m == 0:
        return Fraction(1)
    acc = sum((math.comb(m + 1, k) * bernoulli_recurrence(k) for k in range(m)), Fraction(0))
    return -acc / (m + 1)


def bernoulli_table(n: int) -> list[Fraction]:
    """B_0, ..., B_n by the recurrence (bernoulli_recurrence)."""
    return [bernoulli_recurrence(m) for m in range(n + 1)]


def poincare_product(g: int) -> LaurentPoly:
    """prod_{k=1}^{g} (1 + T^{2k}), multiplied out as LaurentPolys."""
    result = LaurentPoly.one(1)
    for k in range(1, g + 1):
        result = result * (LaurentPoly.one(1) + monomial(2 * k))
    return result


def zeta_negative(j: int) -> Fraction:
    """zeta(1 - 2j) = -B_{2j} / (2j) for j >= 1."""
    if j < 1:
        raise ValueError("zeta_negative expects j >= 1 (returns zeta(1-2j))")
    return -bernoulli_recurrence(2 * j) / (2 * j)


def zeta_negative_product(g: int) -> Fraction:
    """zeta(-1) zeta(-3) ... zeta(1-2g), one Fraction per factor."""
    return math.prod((zeta_negative(j) for j in range(1, g + 1)), start=Fraction(1))


def lambda1_power_closed_form(g: int) -> Fraction:
    """(-1)^N (N! / 2^g) prod_{k=1}^{g} zeta(1-2k)/(2k-1)!!, N = g(g+1)/2."""
    n = g * (g + 1) // 2
    sign = -1 if n % 2 else 1
    value = Fraction(sign * math.factorial(n), 2 ** g)
    value /= double_factorial_odd(g)
    for k in range(1, g + 1):
        value *= zeta_negative(k)
    return value


def bernoulli_factor(g: int) -> Fraction:
    """prod_{j=1}^{g} ((j-1)!/(2j)!) (-1)^{j-1} B_{2j}, term by term."""
    return math.prod((Fraction((-1) ** (j - 1) * math.factorial(j - 1), math.factorial(2 * j))
                      * bernoulli_recurrence(2 * j) for j in range(1, g + 1)),
                     start=Fraction(1))
