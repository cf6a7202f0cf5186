"""Concrete infinitesimal generator sequences and the termwise oracle.

Every generalized real denotes a convergent sequence: the shadow is the
limit and each generator contributes its own null sequence.  This module
evaluates those sequences term by term, samples convergence witnesses, and
applies the defining sequence formulas for the ring operations literally,
so the closed-form arithmetic in :mod:`monadica.core` can be cross-checked
against them.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Iterable, Sequence

from .core import Record, _count, _real, as_generalized
from .errors import DomainError, NotInvertible, UnknownGenerator


class SequenceGenerator(Record):
    """A named sequence of reals converging to zero (indices start at 1)."""

    __slots__ = ("id", "term")


def impulse(k: int) -> SequenceGenerator:
    """1 at index k, 0 elsewhere; id ``e:<k>``."""
    _count(k, "impulse index", 1)
    return SequenceGenerator(f"e:{k}", lambda n, _k=k: 1.0 if n == _k else 0.0)


def harmonic() -> SequenceGenerator:
    """n -> 1/n; id ``h``."""
    return SequenceGenerator("h", lambda n: 1.0 / n)


def geometric(r: float) -> SequenceGenerator:
    """n -> r**n for 0 < r < 1; id ``g:<r>`` (shortest round-trip decimal)."""
    r = _real(r, "geometric ratio")
    if not 0.0 < r < 1.0:
        raise DomainError(f"geometric ratio must satisfy 0 < r < 1, got {r!r}")
    return SequenceGenerator(f"g:{r!r}", lambda n, _r=r: _r**n)


class Catalog:
    """Immutable registry of generators with unique, independent sequences.

    Construction checks that ids are unique and that the generators are
    linearly independent on their first 64 terms, so that structural
    equality of coefficient vectors is sound sequence-level equality.
    """

    def __init__(self, generators: Iterable[SequenceGenerator]):
        gens: dict[str, SequenceGenerator] = {}
        for g in generators:
            if g.id in gens:
                raise DomainError(f"duplicate generator id {g.id!r}")
            gens[g.id] = g
        self._gens = gens
        if gens and independence_rank(list(gens.values())) != len(gens):
            raise DomainError("catalog generators are not linearly independent")

    @classmethod
    def standard(cls, impulses: int = 8, ratios: Sequence[float] = (0.5, 0.25)) -> "Catalog":
        gens = [impulse(k) for k in range(1, impulses + 1)]
        gens.append(harmonic())
        gens.extend(geometric(r) for r in ratios)
        return cls(gens)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self._gens)

    def __contains__(self, gid: str) -> bool:
        return gid in self._gens

    def get(self, gid: str) -> SequenceGenerator:
        try:
            return self._gens[gid]
        except KeyError:
            raise UnknownGenerator(f"no generator with id {gid!r}") from None

    def generators(self) -> tuple[SequenceGenerator, ...]:
        return tuple(self._gens.values())


def independence_rank(generators: Sequence[SequenceGenerator], n_terms: int = 64) -> int:
    """Numerical rank of the k-by-n_terms matrix of leading sequence terms.

    A singular value counts when it exceeds ``sigma_max * max(k, n_terms)
    * eps``, the tolerance of ``numpy.linalg.matrix_rank``.  So a generator
    that differs from another only by rounding is dependent, which an
    exact rational rank would deny.  The singular values come from a
    Gram-Schmidt reduction to k-by-k followed by one-sided Jacobi.
    """
    rows = [[g.term(n) for n in range(1, n_terms + 1)] for g in generators]
    if not all(all(map(math.isfinite, row)) for row in rows):
        raise DomainError("generator terms must be finite reals")
    peak = max((max(map(abs, row)) for row in rows), default=0.0)
    if peak == 0.0:
        return 0
    # an exact power-of-two scaling, so no squared norm overflows
    scale = math.ldexp(1.0, -math.frexp(peak)[1])
    sigmas = _singular_values(_triangular_factor([[scale * t for t in row] for row in rows]))
    tol = max(sigmas) * max(len(rows), n_terms) * sys.float_info.epsilon
    return sum(s > tol for s in sigmas)


def _dot(a: list[float], b: list[float]) -> float:
    return sum(map(operator.mul, a, b))


def _triangular_factor(rows: list[list[float]]) -> list[list[float]]:
    """Lower-triangular L with rows = L Q for orthonormal Q, by modified
    Gram-Schmidt: a k-by-k matrix with the singular values of the rows."""
    k = len(rows)
    factor = [[0.0] * k for _ in range(k)]
    for i in range(k):
        norm = math.sqrt(_dot(rows[i], rows[i]))
        factor[i][i] = norm
        if norm == 0.0:
            continue
        q = [t / norm for t in rows[i]]
        for j in range(i + 1, k):
            r = factor[j][i] = _dot(q, rows[j])
            rows[j] = [a - r * b for a, b in zip(rows[j], q)]
    return factor


def _singular_values(rows: list[list[float]]) -> list[float]:
    """One-sided Jacobi: rotate pairs of rows until all rows are orthogonal;
    the row norms are then the singular values."""
    eps = sys.float_info.epsilon
    for _ in range(64):
        rotated = False
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                a, b = rows[i], rows[j]
                gamma = _dot(a, b)
                alpha, beta = _dot(a, a), _dot(b, b)
                if abs(gamma) <= eps * math.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                rows[i] = [c * x - s * y for x, y in zip(a, b)]
                rows[j] = [s * x + c * y for x, y in zip(a, b)]
        if not rotated:
            break
    return [math.sqrt(_dot(row, row)) for row in rows]


DEFAULT_CATALOG = Catalog.standard()


def term(x, n: int, catalog: Catalog = DEFAULT_CATALOG) -> float:
    """n-th term of the sequence a value denotes."""
    _count(n, "sequence index", 1)
    x = as_generalized(x)
    value = x.shadow
    for gid, c in x.dpart.items():
        value += c * catalog.get(gid).term(n)
    return value


#: The most terms one prefix holds, so a request cannot run out of memory.
_MAX_TERMS = 100_000


def prefix(x, n_terms: int, catalog: Catalog = DEFAULT_CATALOG) -> list[float]:
    """First n_terms terms (at most 100 000) of the sequence a value denotes."""
    _count(n_terms, "number of terms", 0, _MAX_TERMS)
    return [term(x, n, catalog) for n in range(1, n_terms + 1)]


def sampled_indices(nmax: int) -> list[int]:
    """Index sample used by witnesses: {1..1024} plus powers of two up to 2**23."""
    out = set(range(1, min(nmax, 1024) + 1))
    for k in range(24):
        if 2**k <= nmax:
            out.add(2**k)
    return sorted(out)


def convergence_witness(
    x, eps: float, nmax: int, catalog: Catalog = DEFAULT_CATALOG
) -> int | None:
    """Smallest sampled N with |term(x, n) - sigma(x)| < eps for all sampled
    n in [N, nmax]; None when no sampled index qualifies."""
    if not eps > 0.0:
        raise DomainError("eps must be positive")
    _count(nmax, "nmax", 1)
    x = as_generalized(x)
    indices = sampled_indices(nmax)
    ok = [abs(term(x, n, catalog) - x.shadow) < eps for n in indices]
    witness = None
    for i in range(len(indices) - 1, -1, -1):
        if not ok[i]:
            break
        witness = indices[i]
    return witness


# -- literal sequence formulas -------------------------------------------------


def oracle_binary(
    op: str, x, y, n_terms: int, catalog: Catalog = DEFAULT_CATALOG
) -> list[float]:
    """Apply the defining termwise formula of addition or multiplication."""
    _count(n_terms, "number of terms", 1, _MAX_TERMS)
    x, y = as_generalized(x), as_generalized(y)
    px = prefix(x, n_terms, catalog)
    py = prefix(y, n_terms, catalog)
    if op == "add":
        return [a + b for a, b in zip(px, py)]
    if op == "mul":
        lx, ly = x.shadow, y.shadow
        return [lx * b + ly * a - lx * ly for a, b in zip(px, py)]
    raise DomainError(f"unknown oracle operation {op!r}")


def oracle_inv(x, n_terms: int, catalog: Catalog = DEFAULT_CATALOG) -> list[float]:
    """Termwise inverse 1/lim - (term - lim)/lim**2 for non-infinitesimal x."""
    x = as_generalized(x)
    lx = x.shadow
    if lx == 0.0:
        raise NotInvertible("termwise inverse requires a non-infinitesimal value")
    return [1.0 / lx - (t - lx) / (lx * lx) for t in prefix(x, n_terms, catalog)]


def oracle_pow_nat(
    x, m: int, n_terms: int, catalog: Catalog = DEFAULT_CATALOG
) -> list[float]:
    """m-fold repetition of the termwise multiplication formula."""
    _count(m, "exponent", 1)
    x = as_generalized(x)
    base = prefix(x, n_terms, catalog)
    lx = x.shadow
    acc, lacc = list(base), lx
    for _ in range(m - 1):
        acc = [lacc * b + lx * a for a, b in zip(acc, base)]
        acc = [v - lacc * lx for v in acc]
        lacc = lacc * lx
    return acc


__all__ = [
    "Catalog",
    "DEFAULT_CATALOG",
    "SequenceGenerator",
    "convergence_witness",
    "geometric",
    "harmonic",
    "impulse",
    "independence_rank",
    "oracle_binary",
    "oracle_inv",
    "oracle_pow_nat",
    "prefix",
    "sampled_indices",
    "term",
]
