"""Finite distributions and multidistributions with exact rational weights.

A multidistribution is a finite multiset of weighted objects {p1: a1, ...}
with 0 <= pi <= 1 and sum pi <= 1. Equal objects are kept as separate
entries; collapsing to an ordinary distribution is an explicit, lossy step.
A distribution is a multidistribution of mass 1 whose objects are distinct,
so both keep their weights in one form: integer numerators over one
denominator.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Callable, Generic, Hashable, Iterable, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)
S = TypeVar("S", bound=Hashable)

Rational = Fraction | int


class InvalidWeights(ValueError):
    """Weights are negative, exceed one in total, or do not sum to one."""


def as_fraction(value: Rational | str) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class MultiDistribution(Generic[T]):
    """Finite multiset of (probability, object) entries with total mass <= 1.

    Weights are kept as positive integer numerators over one shared
    denominator, with the numerator of the total mass alongside; a step
    multiplies and adds integers. The form is not reduced: `entries`,
    `mass()` and the printers reduce where they read a weight, and
    equality and hashing compare the form divided by gcd(denominator,
    *numerators), which is canonical.

    The constructor checks weights that come from outside. Constructions
    inside this package derive their weights from checked ones, so they
    build through `_unchecked` and carry the mass along instead.
    """

    __slots__ = ("_numerators", "_den", "_mass_num", "_key")

    def __init__(self, entries: Iterable[tuple[Rational, T]]):
        kept: list[tuple[Fraction, T]] = []
        total = Fraction(0)
        for p, obj in entries:
            p = as_fraction(p)
            if p < 0 or p > 1:
                raise InvalidWeights(f"entry weight {p} outside [0, 1]")
            if p == 0:
                continue
            kept.append((p, obj))
            total += p
        if total > 1:
            raise InvalidWeights(f"total mass {total} exceeds 1")
        self._set_weights(kept)

    def _set_weights(self, kept: list[tuple[Fraction, T]]) -> None:
        """Store checked positive weights as numerators over their lcm."""
        den = lcm(*(p.denominator for p, _ in kept))
        self._numerators = tuple((p.numerator * (den // p.denominator), obj) for p, obj in kept)
        self._den = den
        self._mass_num = sum(n for n, _ in self._numerators)
        self._key = None

    @classmethod
    def _unchecked(
        cls, numerators: tuple[tuple[int, T], ...], den: int, mass_num: int
    ) -> "MultiDistribution[T]":
        """Wrap integer weights n / den already known to have every n >= 1,
        with their sum `mass_num` already known to be at most den."""
        mu = cls.__new__(cls)
        mu._numerators = numerators
        mu._den = den
        mu._mass_num = mass_num
        mu._key = None
        return mu

    @classmethod
    def point(cls, obj: T) -> "MultiDistribution[T]":
        return cls._unchecked(((1, obj),), 1, 1)

    @classmethod
    def empty(cls) -> "MultiDistribution[T]":
        return cls._unchecked((), 1, 0)

    @property
    def numerators(self) -> tuple[tuple[int, T], ...]:
        """The entries as (n, obj), each of weight n / `denominator`."""
        return self._numerators

    @property
    def denominator(self) -> int:
        return self._den

    @property
    def mass_numerator(self) -> int:
        """The sum of the numerators: mass() is this over `denominator`."""
        return self._mass_num

    @property
    def entries(self) -> tuple[tuple[Fraction, T], ...]:
        """The entries as (Fraction, obj), each distinct weight reduced once."""
        den = self._den
        reduced: dict[int, Fraction] = {}
        out = []
        for n, obj in self._numerators:
            p = reduced.get(n)
            if p is None:
                p = reduced[n] = Fraction(n, den)
            out.append((p, obj))
        return tuple(out)

    def mass(self) -> Fraction:
        return Fraction(self._mass_num, self._den)

    def merged(self) -> "MultiDistribution[T]":
        """Equal objects merged into one entry each, with the sum of their
        numerators, in first-seen order."""
        sums: dict[T, int] = {}
        for n, obj in self._numerators:
            sums[obj] = sums.get(obj, 0) + n
        return MultiDistribution._unchecked(
            tuple((n, obj) for obj, n in sums.items()), self._den, self._mass_num
        )

    def bind(self, fn: Callable[[T], FiniteDistribution[S] | None]) -> "MultiDistribution[S]":
        """The union of p * fn(obj) over the entries (p, obj); an entry
        whose fn(obj) is None vanishes. fn is called once per entry, in
        entry order, and `_step` adds the images over this denominator
        times their lcm. An image has mass 1: the result weighs the entries kept."""
        rows = []
        for _, obj in self._numerators:
            dist = fn(obj)
            rows.append(None if dist is None else (dist._den, dist._numerators))
        out, common, kept = _step([(n, i) for i, (n, _) in enumerate(self._numerators)], rows, [], False)
        return MultiDistribution._unchecked(tuple(out), self._den * common, kept * common)

    def _canonical(self) -> tuple[int, frozenset]:
        key = self._key
        if key is None:
            pairs = self._numerators
            g = gcd(self._den, *(n for n, _ in pairs))
            if g != 1:
                pairs = [(n // g, obj) for n, obj in pairs]
            key = self._key = (self._den // g, frozenset(Counter(pairs).items()))
        return key

    def __len__(self) -> int:
        return len(self._numerators)

    def __eq__(self, other: object) -> bool:
        # Multiset equality: order-insensitive, multiplicity-sensitive.
        if not isinstance(other, MultiDistribution):
            return NotImplemented
        return self is other or self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def rendered(self) -> list[tuple[str, T]]:
        """The entries as (weight text, obj), each distinct weight rendered
        once, as str(Fraction) would render it."""
        den = self._den
        texts: dict[int, str] = {}
        out = []
        for n, obj in self._numerators:
            text = texts.get(n)
            if text is None:
                text = texts[n] = _weight_text(n, den)
            out.append((text, obj))
        return out

    def __str__(self) -> str:
        # one pass: each distinct weight's "p: " built once, then each entry
        den = self._den
        heads: dict[int, str] = {}
        parts = []
        for n, obj in self._numerators:
            head = heads.get(n)
            if head is None:
                head = heads[n] = _weight_text(n, den) + ": "
            parts.append(head + str(obj))
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def _weight_text(n: int, den: int) -> str:
    """n / den as str(Fraction(n, den)) renders it."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


class FiniteDistribution(MultiDistribution[T]):
    """Probability distribution with finite support: a multidistribution
    of mass 1 whose objects are distinct.

    The constructor takes (obj, p) pairs or a dict, merges equal objects
    and checks that the weights are nonnegative and sum to 1.
    """

    __slots__ = ()

    def __init__(self, entries: Iterable[tuple[T, Rational]] | dict[T, Rational]):
        if isinstance(entries, dict):
            entries = entries.items()
        acc: dict[T, Fraction] = {}
        for obj, p in entries:
            p = as_fraction(p)
            if p < 0:
                raise InvalidWeights(f"negative probability {p} for {obj}")
            if p == 0:
                continue
            seen = acc.get(obj)
            acc[obj] = p if seen is None else seen + p
        total = sum(acc.values(), Fraction(0))
        if total != 1:
            raise InvalidWeights(f"probabilities sum to {total}, expected 1")
        self._set_weights([(p, obj) for obj, p in acc.items()])

    def support(self) -> list[T]:
        return [obj for _, obj in self._numerators]


def _step(state: list, rows: Sequence, acc: list[int], collapse: bool) -> tuple[list, int, int]:
    """(successor, common, kept) for `state`, a list of (numerator, j): the
    multidistribution step. Each entry is replaced by rows[j], a row
    (d, [(m, k), ...]) of weights m / d on objects k, or dropped when that
    is None. Rows are scaled to their running lcm `common`, and `kept` sums
    the numerators kept. A collapsed step sums into `acc`, all 0 before and
    after, and lists each image when first touched, merging as merged() does."""
    out = []
    common, kept = 1, 0
    for n, j in state:
        row = rows[j]
        if row is None:
            continue
        kept += n
        d, pairs = row
        if common % d:
            r = d // gcd(common, d)
            if collapse:
                for k in out:
                    acc[k] *= r
            else:
                out = [(r * m, k) for m, k in out]
            common *= r
        if d != common:
            n *= common // d
        if collapse:
            for m, k in pairs:
                v = acc[k]
                if v:
                    acc[k] = v + n * m
                else:
                    acc[k] = n * m
                    out.append(k)
        else:
            for m, k in pairs:
                out.append((n * m, k))
    if collapse:
        out, touched = [(acc[k], k) for k in out], out
        for k in touched:
            acc[k] = 0
    return out, common, kept


def expected_value(mu: MultiDistribution[T], fn: Callable[[T], Rational | str]) -> Fraction:
    """The sum of p * fn(obj) over the entries of mu, as a Fraction."""
    total = sum((n * as_fraction(fn(obj)) for n, obj in mu.numerators), Fraction(0))
    return Fraction(total.numerator, total.denominator * mu.denominator)


def display_key(entry: tuple[Rational, Any]) -> tuple[str, str, Rational]:
    """Deterministic ordering key for listings; equality never relies on it.

    The weight may be a Fraction or a numerator: numerators over one
    denominator sort as their Fractions do."""
    p, obj = entry
    return (type(obj).__name__, str(obj), p)


def canonical_order(mus: Iterable[MultiDistribution[T]]) -> list[MultiDistribution[T]]:
    return sorted(mus, key=lambda mu: [display_key(e) for e in sorted(mu.entries, key=display_key)])
