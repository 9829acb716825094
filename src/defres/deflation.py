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
  (``characters.lr_fillings``).  So for c > 1 tau runs over the table
  ``abacus._cuts`` of lambda's c-abacus, shared by every mu, whose entries
  (tau, sign, key) carry the quotient sign and components key of
  lambda/tau: the walk reads the abacus only for gamma's last part.  The
  1-quotient is the shape itself with sign +1, so a 1-cycle reads the LR
  fillings directly, and tau runs over ``partitions.intermediates``.

The LR count is written once, in ``_single_cycle``: its memo keys on
``partitions._skew_key`` (re-exported here), the connected components,
each unchanged by translation and a 180 degree rotation (Macdonald, I.5).
``_cycle_value`` is the single-cycle step of the last part and of
``ncycle_vanishing``.  ``_recursive`` keys its memo on the lower half as
the plain pair (tau, mu).  ``farahat_check`` shares the quotient step.

``defres_sign`` and ``defres_degree`` are the closed forms for the sign
character and the degree.
"""

from __future__ import annotations

from functools import cache

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


def _cycle_value(outer, inner, c: int, kappa: tuple[int, ...]) -> int:
    # deflation through chi^kappa of outer/inner at a single c-cycle: the
    # shape itself when c = 1, else 0 or the sign times its c-quotient's value
    if c == 1:
        return _single_cycle(_skew_key(outer, inner), kappa)
    shape = SkewPartition(outer, inner)
    if not is_n_decomposable(shape, c):
        return 0
    quotient = n_quotient(shape, c)
    key = sorted([comp for part in quotient.components for comp in _skew_key(*part)])
    return quotient.sign * _single_cycle(tuple(key), kappa)


@cache
def _recursive(
    shape: SkewPartition, m: int, kappa: tuple[int, ...], gamma: tuple[int, ...]
) -> int:
    # shape is a skew shape or the equal plain pair (outer, inner); gamma
    # descends, its first part c cut off the outer side as outer/tau: tau from
    # the cut table when c > 1, where it may miss inner, else a waistline of
    # sign +1 keyed on outer/tau itself
    outer, inner = shape
    if not gamma:
        return 1 if outer == inner else 0
    c, rest = gamma[0], gamma[1:]
    if not rest:
        return _cycle_value(outer, inner, c, kappa)
    if c == 1:
        cuts = ((tau, 1, _skew_key(outer, tau)) for tau in intermediates(shape, m * sum(rest)))
    else:
        cuts = _cuts(outer, c, m)
    total = 0
    for tau, sign, key in cuts:
        if c == 1 or _contains(tau, inner):
            base = _single_cycle(key, kappa)
            if base:
                total += sign * base * _recursive((tau, inner), m, kappa, rest)
    return total


def defres_recursive(query: DeflationQuery) -> int:
    """Deflation through any irreducible chi^theta, gamma's largest cycle first."""
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
    thetas = tuple(skew_character(comp) for comp in quotient.components)
    return lhs, quotient.sign * _induced(thetas, alpha)


def defres_sign(query: DeflationQuery) -> int:
    """Deflation through the sign character, via the conjugate shape.

    Equals the trivial deflation of the conjugate shape, twisted by the
    sign of the evaluation class when m is odd.
    """
    if query.theta != (1,) * query.m:
        raise ValueError("defres_sign requires the sign deflating character")
    conj = SkewPartition(
        query.shape.outer.conjugate(), query.shape.inner.conjugate()
    )
    value = a_coefficient(conj, query.m, query.gamma)
    if query.m % 2 == 1:
        value *= (-1) ** (query.n - len(query.gamma))
    return value


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
