"""Deflation of restricted skew characters, by tableaux and by quotients.

Throughout, a skew character of S_(m*n) is restricted to the wreath product
S_m wr S_n and deflated to S_n through a character theta of S_m; the result
is the virtual character of S_n whose value at cycle type gamma these
evaluators compute.

Two independent evaluators are provided on top of the wreath oracle:

* ``defres_theorem`` handles trivial theta via the signed count of
  m-border-strip tableaux of type gamma;
* ``defres_recursive`` handles an arbitrary irreducible theta = chi^kappa
  by peeling one cycle of gamma at a time, the largest first, off the
  outer shape: lambda/mu restricts to S_(m*(n-c)) x S_(m*c) along every
  waistline tau, the upper half lambda/tau deflates at a single c-cycle
  and the lower half tau/mu recurses where that is non-zero.  A single
  c-cycle deflates through the c-quotient: the value is 0 unless the shape
  is c-decomposable, and otherwise it is the quotient sign times the LR
  fillings of content kappa of the quotient components
  (``characters.lr_fillings``).  An LR filling of content kappa has rows
  of at most kappa_1 boxes and columns of at most len(kappa) boxes
  (Macdonald, I.9).  So for c > 1 tau runs over the table ``abacus._cuts``
  of lambda's c-abacus for kappa, shared by every mu: runner by runner each
  cut rho_j is at least max(part_j - kappa_1, part_(j+len kappa)), the
  floor below, and the entries (tau, sign, key) carry the quotient sign and
  components key of lambda/tau, so the walk reads the abacus only for
  gamma's closing run.  A closing run of j equal parts c > 1 is one step:
  its value is 0 unless the shape is c-decomposable, and otherwise the
  quotient sign times <s_Q, s_kappa^j>, Q the direct sum of the quotient
  components (chains of c-decomposable cuts are the chains of runner
  cuts, their signs multiply along a chain, and <s_Q, s_kappa^j> sums the
  LR counts along those chains; Macdonald, I.5 and I.9).  That is the
  1-cycle walk of j steps on the components stacked into one shape
  (``_stacked``).  The 1-quotient is the shape itself with sign +1, so a
  1-cycle reads the LR fillings directly, and tau runs over
  ``partitions.intermediates`` between two bounds (``_waistlines``):
  lambda/tau is one such filling and tau/mu is k of them in a chain, k the
  1-cycles left after this one.  So row by row tau_i lies between the floor
  max(mu_i, lambda_i - kappa_1, lambda_(i+len kappa)) and the ceiling
  min(lambda_i, mu_i + k kappa_1, mu_(i - k len kappa)).

The LR count is written once, in ``_single_cycle``: its memo keys on
``partitions._skew_key`` (re-exported here), the connected components,
each unchanged by translation and a 180 degree rotation (Macdonald, I.5).
``_cycle_value`` is the step of the closing run and of
``ncycle_vanishing``.  ``_recursive`` keys its memo on the lower half as
the plain pair (tau, mu).  ``farahat_check`` shares the quotient step.

``defres_sign`` and ``defres_degree`` are the closed forms for the sign
character and the degree.
"""

from __future__ import annotations

from functools import cache
from operator import gt

from .abacus import _cuts, is_n_decomposable, n_quotient
from .borderstrips import a_coefficient, mn_value
from .characters import _induced, lr_coefficient, lr_fillings, skew_character
from .partitions import (
    Composition, Partition, SkewPartition, _contains, _record, _skew_key, intermediates, stretch
)


class DeflationQuery(_record("DeflationQuery", "shape m n theta gamma")):
    """A deflation instance: which character, through what, evaluated where.

    ``shape`` is the skew shape of the restricted character, ``theta`` the
    partition labelling the deflating irreducible of S_m, and ``gamma`` the
    cycle type in S_n at which to evaluate.
    """

    __slots__ = ()

    def __new__(
        cls, shape: SkewPartition, m: int, n: int, theta: Partition, gamma: Composition
    ):
        if m < 1:
            raise ValueError("m must be at least 1")
        if n < 0:
            raise ValueError("n must be non-negative")
        if theta.size != m:
            raise ValueError(f"|theta| = {theta.size} must equal m = {m}")
        if shape.size != m * n:
            raise ValueError(f"|shape| = {shape.size} must equal m * n = {m * n}")
        if gamma.size != n:
            raise ValueError(f"|gamma| = {gamma.size} must equal n = {n}")
        return super().__new__(cls, shape, m, n, theta, gamma)


def defres_theorem(query: DeflationQuery) -> int:
    """Deflation through the trivial character, evaluated by tableaux."""
    if query.theta != (query.m,):
        raise ValueError("defres_theorem requires the trivial deflating character")
    return a_coefficient(query.shape, query.m, query.gamma)


@cache
def _single_cycle(key: tuple, kappa: tuple[int, ...]) -> int:
    # the LR fillings of content kappa of the components in a ``_skew_key``,
    # each row list read back as the pair (ends, starts)
    return lr_fillings([tuple(zip(*rows))[::-1] for rows in key], kappa)


def _stacked(key: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # a plain pair (outer, inner) with _skew_key(outer, inner) == key: the
    # components stacked corner to corner, the first at the bottom left and
    # each next one starting in the column where the one below ends; rows
    # are listed from the bottom up, and only the lowest start at column 0
    outer: list[int] = []
    inner: list[int] = []
    shift = 0
    for comp in key:
        outer += [end + shift for _, end in reversed(comp)]
        inner += [start + shift for start, _ in reversed(comp) if start + shift]
        shift += comp[0][1]
    return tuple(outer[::-1]), tuple(inner[::-1])


def _cycle_value(outer, inner, c: int, kappa: tuple[int, ...], j: int = 1, m: int = 0) -> int:
    """Deflation through chi^kappa of outer/inner at j c-cycles, m = |kappa|.

    For c = 1 (and j = 1 only) the LR fillings of content kappa of the shape
    itself.  For c > 1, 0 unless the shape is c-decomposable, and otherwise
    the quotient sign times <s_Q, s_kappa^j>, Q the direct sum of the
    quotient components: the LR fillings of the components when j = 1, else
    the 1-cycle walk of j steps on them stacked into one shape, the only
    use of m.
    """
    if c == 1:
        return _single_cycle(_skew_key(outer, inner), kappa)
    shape = tuple.__new__(SkewPartition, (outer, inner))  # valid already: not re-checked
    if not is_n_decomposable(shape, c):
        return 0
    quotient = n_quotient(shape, c)
    key = tuple(sorted([comp for part in quotient.components for comp in _skew_key(*part)]))
    if j == 1:
        return quotient.sign * _single_cycle(key, kappa)
    return quotient.sign * _recursive(_stacked(key), m, kappa, (1,) * j)


def _waistlines(outer, inner, kappa: tuple[int, ...], k: int) -> list[Partition]:
    # the c = 1 waistlines between the module docstring's floor and ceil;
    # ceil ends where inner's rows, moved k * len(kappa) down, end, so it
    # has no zero rows
    width, depth = kappa[0], len(kappa)
    lam, mu = tuple(outer), tuple(inner) + (0,) * len(outer)
    floor = tuple(map(max, mu, [p - width for p in lam], lam[depth:] + (0,) * depth))
    moved = (lam[0],) * (k * depth) + tuple(inner)
    ceil = tuple(map(min, lam, [p + k * width for p in mu], moved))
    if any(map(gt, floor, ceil + (0,) * len(lam))):
        return []
    return intermediates((ceil, floor[: len(ceil)]), sum(inner) + k * sum(kappa) - sum(floor))


@cache
def _recursive(
    shape: SkewPartition, m: int, kappa: tuple[int, ...], gamma: tuple[int, ...]
) -> int:
    # shape is a skew shape or the equal plain pair (outer, inner); gamma
    # descends, its first part c cut off the outer side as outer/tau: tau from
    # the cut table when c > 1, where it may miss inner, else a waistline of
    # sign +1 keyed on outer/tau itself.  A last part, or a closing run of
    # equal parts c > 1, is one _cycle_value step
    outer, inner = shape
    if not gamma:
        return 1 if outer == inner else 0
    c, rest = gamma[0], gamma[1:]
    if not rest or (c > 1 and gamma[-1] == c):
        return _cycle_value(outer, inner, c, kappa, len(gamma), m)
    if c == 1:
        taus = _waistlines(outer, inner, kappa, len(rest))
        cuts = ((tau, 1, _skew_key(outer, tau)) for tau in taus)
    else:
        cuts = _cuts(outer, c, kappa)
    total = 0
    for tau, sign, key in cuts:
        if c == 1 or _contains(tau, inner):
            base = _single_cycle(key, kappa)
            if base:
                total += sign * base * _recursive((tau, inner), m, kappa, rest)
    return total


def defres_recursive(query: DeflationQuery) -> int:
    """Deflation through any irreducible chi^theta, gamma's largest cycle first.

    A closing run of equal parts c > 1, (c^j), is evaluated at once: 0
    unless the shape left is c-decomposable, else its quotient sign times
    <s_Q, s_theta^j>, Q the direct sum of the c-quotient components.
    """
    gamma = tuple(sorted(query.gamma, reverse=True))
    return _recursive(query.shape, query.m, query.theta, gamma)


def farahat_check(shape: SkewPartition, n: int, alpha) -> tuple[int, int]:
    """Both sides of the stretched-class evaluation identity.

    The left side is the skew character at cycle type n * alpha; the right
    side is 0 when the shape is not n-decomposable, and otherwise the
    quotient sign times the induced character of the quotient components
    evaluated at alpha.  The two agree; returning both keeps the comparison
    honest.
    """
    alpha = Partition(alpha)
    if n < 1:
        raise ValueError("n must be at least 1")
    if shape.size != n * alpha.size:
        raise ValueError(
            f"|shape| = {shape.size} must equal n * |alpha| = {n * alpha.size}"
        )
    lhs = mn_value(shape, stretch(alpha, n))
    if not is_n_decomposable(shape, n):
        return lhs, 0
    quotient = n_quotient(shape, n)
    # a boxless component's character is 1 on S_0 and takes no cycles
    thetas = tuple(skew_character(comp) for comp in quotient.components if comp.size)
    return lhs, quotient.sign * _induced(thetas, alpha)


def defres_sign(query: DeflationQuery) -> int:
    """Deflation through the sign character, via the conjugate shape.

    Equals the trivial deflation of the conjugate shape, twisted by the
    sign of the evaluation class when m is odd.  Each shape is conjugated
    once (``_conjugate``), as a sweep asks for it at every cycle type.
    """
    if query.theta != (1,) * query.m:
        raise ValueError("defres_sign requires the sign deflating character")
    value = a_coefficient(_conjugate(query.shape), query.m, query.gamma)
    if query.m % 2 == 1:
        value *= (-1) ** (query.n - len(query.gamma))
    return value


@cache
def _conjugate(shape: SkewPartition) -> SkewPartition:
    return SkewPartition(shape.outer.conjugate(), shape.inner.conjugate())


def defres_degree(lam, kappa) -> int:
    """Degree of the deflation of an irreducible through chi^kappa.

    This is the multiplicity of chi^lam in the n-fold product of chi^kappa
    with itself, n = |lam| / |kappa|.
    """
    lam = Partition(lam)
    kappa = Partition(kappa)
    if kappa.size < 1 or lam.size % kappa.size != 0:
        raise ValueError("|kappa| must divide |lam|")
    n = lam.size // kappa.size
    return lr_coefficient(lam, (kappa,) * n)


def ncycle_vanishing(lam, kappa, n: int) -> int:
    """Deflation of an irreducible through chi^kappa at a single n-cycle.

    Zero unless lam has empty n-core and every quotient component fits
    inside kappa; otherwise the quotient sign times the multiplicity of
    chi^kappa in the product of the quotient component characters.
    """
    lam = Partition(lam)
    kappa = Partition(kappa)
    if n < 1 or lam.size != kappa.size * n:
        raise ValueError("need n >= 1 and |lam| = |kappa| * n")
    return _cycle_value(lam, (), n, kappa)
