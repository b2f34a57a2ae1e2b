"""Finite distributions and multidistributions with exact rational weights.

A multidistribution is a finite multiset of weighted objects {p1: a1, ...}
with 0 <= pi <= 1 and sum pi <= 1. Equal objects are kept as separate
entries; collapsing to an ordinary distribution is an explicit, lossy step.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Generic, Hashable, Iterable, Iterator, TypeVar

T = TypeVar("T", bound=Hashable)
S = TypeVar("S", bound=Hashable)

Rational = Fraction | int


class InvalidWeights(ValueError):
    """Weights are negative, exceed one in total, or do not sum to one."""


def as_fraction(value: Rational | str) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class FiniteDistribution(Generic[T]):
    """Probability distribution with finite support, weights summing to 1."""

    __slots__ = ("_entries",)

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
        self._entries = acc

    @classmethod
    def _unchecked(cls, entries: dict[T, Fraction]) -> "FiniteDistribution[T]":
        """Wrap Fraction weights already known to be positive and to sum to 1."""
        dist = cls.__new__(cls)
        dist._entries = entries
        return dist

    def probability(self, obj: T) -> Fraction:
        return self._entries.get(obj, Fraction(0))

    def support(self) -> list[T]:
        return list(self._entries)

    def items(self) -> Iterator[tuple[T, Fraction]]:
        return iter(self._entries.items())

    def map(self, fn: Callable[[T], S]) -> "FiniteDistribution[S]":
        out: dict[S, Fraction] = {}
        for obj, p in self._entries.items():
            image = fn(obj)
            seen = out.get(image)
            out[image] = p if seen is None else seen + p
        return FiniteDistribution._unchecked(out)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, obj: T) -> bool:
        return obj in self._entries

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteDistribution):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __str__(self) -> str:
        inner = ", ".join(f"{p}: {obj}" for obj, p in self._entries.items())
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"FiniteDistribution({self})"


class MultiDistribution(Generic[T]):
    """Finite multiset of (probability, object) entries with total mass <= 1.

    The constructor checks weights that come from outside. Constructions
    inside this package derive their weights from checked ones, so they
    build through `_unchecked` and carry the mass along instead.
    """

    __slots__ = ("_entries", "_mass")

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
        self._entries = tuple(kept)
        self._mass = total

    @classmethod
    def _unchecked(
        cls, entries: tuple[tuple[Fraction, T], ...], mass: Fraction
    ) -> "MultiDistribution[T]":
        """Wrap Fraction weights already known to lie in (0, 1], with their
        sum `mass` already known to be at most 1."""
        mu = cls.__new__(cls)
        mu._entries = entries
        mu._mass = mass
        return mu

    @classmethod
    def point(cls, obj: T) -> "MultiDistribution[T]":
        return cls._unchecked(((Fraction(1), obj),), Fraction(1))

    @classmethod
    def empty(cls) -> "MultiDistribution[T]":
        return cls._unchecked((), Fraction(0))

    @classmethod
    def from_distribution(cls, dist: FiniteDistribution[T]) -> "MultiDistribution[T]":
        return cls._unchecked(tuple((p, obj) for obj, p in dist.items()), Fraction(1))

    @property
    def entries(self) -> tuple[tuple[Fraction, T], ...]:
        return self._entries

    def mass(self) -> Fraction:
        return self._mass

    def collapse(self) -> dict[T, Fraction]:
        """Merge equal objects; the result is a subdistribution as a dict."""
        out: dict[T, Fraction] = {}
        for p, obj in self._entries:
            seen = out.get(obj)
            out[obj] = p if seen is None else seen + p
        return out

    def map(self, fn: Callable[[T], S]) -> "MultiDistribution[S]":
        return MultiDistribution._unchecked(
            tuple((p, fn(obj)) for p, obj in self._entries), self._mass
        )

    def scale(self, factor: Rational) -> "MultiDistribution[T]":
        factor = as_fraction(factor)
        if not 0 <= factor <= 1:
            # the checking constructor rejects the scaled weights unless
            # they still fit (a factor above 1 on a light multidistribution)
            return MultiDistribution([(factor * p, obj) for p, obj in self._entries])
        if factor == 0:
            return MultiDistribution.empty()
        return MultiDistribution._unchecked(
            tuple((factor * p, obj) for p, obj in self._entries), factor * self._mass
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[Fraction, T]]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        # Multiset equality: order-insensitive, multiplicity-sensitive.
        if not isinstance(other, MultiDistribution):
            return NotImplemented
        return Counter(self._entries) == Counter(other._entries)

    def __hash__(self) -> int:
        return hash(frozenset(Counter(self._entries).items()))

    def __str__(self) -> str:
        inner = ", ".join(f"{p}: {obj}" for p, obj in self._entries)
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"MultiDistribution({self})"


def convex_union(
    parts: Iterable[tuple[Rational, MultiDistribution[T]]],
) -> MultiDistribution[T]:
    """Weighted multiset union sum pi * mui with pi >= 0 and sum pi <= 1."""
    entries: list[tuple[Fraction, T]] = []
    total = Fraction(0)
    mass = Fraction(0)
    for p, mu in parts:
        p = as_fraction(p)
        if p < 0:
            raise InvalidWeights(f"negative part weight {p}")
        if p == 0:
            continue
        total += p
        mass += p * mu._mass
        entries.extend((p * q, obj) for q, obj in mu._entries)
    if total > 1:
        raise InvalidWeights(f"part weights sum to {total}, exceeding 1")
    # every p * q lies in (0, p], so the union needs no further check
    return MultiDistribution._unchecked(tuple(entries), mass)


def expectation(mu: MultiDistribution[Any]) -> Fraction:
    """Expected value of a multidistribution over rational-valued objects."""
    return expected_value(mu, lambda value: value)


def expected_value(mu: MultiDistribution[T], fn: Callable[[T], Rational | str]) -> Fraction:
    """The sum of p * fn(obj) over the entries of mu, as a Fraction.

    The products are added over one running common denominator and reduced
    once at the end, so an int value costs a multiplication and an addition
    of ints; any other value goes through as_fraction.
    """
    total, common = 0, 1
    for p, obj in mu.entries:
        value = fn(obj)
        if value.__class__ is int:
            num, den = p.numerator * value, p.denominator
        else:
            value = as_fraction(value)
            num, den = p.numerator * value.numerator, p.denominator * value.denominator
        if den == common:
            total += num
        else:
            g = gcd(common, den)
            total = total * (den // g) + num * (common // g)
            common = common // g * den
    return Fraction(total, common)


def display_key(entry: tuple[Fraction, Any]) -> tuple[str, str, Fraction]:
    """Deterministic ordering key for listings; equality never relies on it."""
    p, obj = entry
    return (type(obj).__name__, str(obj), p)


def canonical_order(mus: Iterable[MultiDistribution[T]]) -> list[MultiDistribution[T]]:
    return sorted(mus, key=lambda mu: [display_key(e) for e in sorted(mu.entries, key=display_key)])
