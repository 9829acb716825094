"""Deflation of restricted skew characters, by tableaux and by quotients.

Throughout, a skew character of S_(m*n) is restricted to the wreath product
S_m wr S_n and deflated to S_n through a character theta of S_m; the result
is the virtual character of S_n whose value at cycle type gamma these
evaluators compute.

Two independent evaluators are provided on top of the wreath oracle:

* ``defres_theorem`` handles trivial theta via the signed count of
  m-border-strip tableaux of type gamma;
* ``defres_recursive`` handles an arbitrary irreducible theta = chi^kappa
  by peeling one cycle of gamma at a time.  A single cycle of length c
  deflates through the c-quotient: the value is 0 unless the skew shape cut
  off for that cycle is c-decomposable, and otherwise it is the quotient
  sign times the multiplicity of chi^kappa in the character induced from
  the quotient components.

That single-cycle step is written once, in ``_single_cycle``, which reads
the abacus once per candidate shape and takes the multiplicity from
``characters._multiplicity``.  ``farahat_check`` shares the quotient step,
and ``ncycle_vanishing`` is the step itself on a straight shape.

``defres_sign`` and ``defres_degree`` are the closed forms for the sign
character and the degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

from .abacus import is_n_decomposable, n_quotient
from .borderstrips import a_coefficient, mn_value
from .characters import (
    ClassFunction,
    _induced,
    _multiplicity,
    irreducible_character,
    lr_coefficient,
    skew_character,
)
from .partitions import (
    Composition,
    Partition,
    SkewPartition,
    intermediates,
    stretch,
)


@dataclass(frozen=True)
class DeflationQuery:
    """A deflation instance: which character, through what, evaluated where.

    ``shape`` is the skew shape of the restricted character, ``theta`` the
    partition labelling the deflating irreducible of S_m, and ``gamma`` the
    cycle type in S_n at which to evaluate.
    """

    shape: SkewPartition
    m: int
    n: int
    theta: Partition
    gamma: Composition

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.theta.size != self.m:
            raise ValueError(f"|theta| = {self.theta.size} must equal m = {self.m}")
        if self.shape.size != self.m * self.n:
            raise ValueError(
                f"|shape| = {self.shape.size} must equal m * n = {self.m * self.n}"
            )
        if self.gamma.size != self.n:
            raise ValueError(
                f"|gamma| = {self.gamma.size} must equal n = {self.n}"
            )


def defres_theorem(query: DeflationQuery) -> int:
    """Deflation through the trivial character, evaluated by tableaux."""
    if query.theta != Partition((query.m,)):
        raise ValueError("defres_theorem requires the trivial deflating character")
    return a_coefficient(query.shape, query.m, query.gamma)


def _quotient_characters(
    shape: SkewPartition, c: int
) -> tuple[int, tuple[ClassFunction, ...]]:
    # the quotient sign and component skew characters of a c-decomposable shape
    quotient = n_quotient(shape, c)
    return quotient.sign, tuple(skew_character(comp) for comp in quotient.components)


@cache
def _single_cycle(
    outer: tuple[int, ...], inner: tuple[int, ...], c: int, kappa: tuple[int, ...]
) -> int:
    # deflation of the skew character of outer/inner through chi^kappa,
    # evaluated at a single c-cycle
    shape = SkewPartition(outer, inner)
    if not is_n_decomposable(shape, c):
        return 0
    sign, thetas = _quotient_characters(shape, c)
    chi = irreducible_character(kappa)
    return sign * _multiplicity(chi, partial(_induced, thetas))


@cache
def _recursive(
    outer: tuple[int, ...],
    inner: tuple[int, ...],
    m: int,
    kappa: tuple[int, ...],
    gamma: tuple[int, ...],
) -> int:
    if not gamma:
        return 1 if outer == inner else 0
    c = gamma[0]
    shape = SkewPartition(outer, inner)
    total = 0
    for tau in intermediates(shape, m * c):
        base = _single_cycle(tau, inner, c, kappa)
        if base:
            total += base * _recursive(outer, tau, m, kappa, gamma[1:])
    return total


def defres_recursive(query: DeflationQuery) -> int:
    """Deflation through any irreducible chi^theta, one cycle at a time."""
    shape = query.shape
    return _recursive(shape.outer, shape.inner, query.m, query.theta, query.gamma)


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
    sign, thetas = _quotient_characters(shape, n)
    return lhs, sign * _induced(thetas, alpha)


def defres_sign(query: DeflationQuery) -> int:
    """Deflation through the sign character, via the conjugate shape.

    Equals the trivial deflation of the conjugate shape, twisted by the
    sign of the evaluation class when m is odd.
    """
    if query.theta != Partition((1,) * query.m):
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
    return _single_cycle(lam, (), n, kappa)
