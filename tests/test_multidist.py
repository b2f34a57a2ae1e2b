import random
from fractions import Fraction
from math import lcm

import pytest

from helpers import (
    collapse,
    convex_union,
    expectation,
    expected_numerator,
    from_distribution,
    items,
    mapped,
    probability,
    reference_bind,
    scale,
)
from ptrs.multidist import (
    FiniteDistribution,
    InvalidWeights,
    MultiDistribution,
    as_fraction,
    canonical_order,
    expected_value,
)
from ptrs.simulator import collapsed

H = Fraction(1, 2)
Q = Fraction(1, 4)


def test_distribution_invariants():
    d = FiniteDistribution({"a": H, "b": H})
    assert probability(d, "a") == H
    assert probability(d, "missing") == 0
    with pytest.raises(InvalidWeights):
        FiniteDistribution({"a": H})
    with pytest.raises(InvalidWeights):
        FiniteDistribution({"a": H, "b": Fraction(3, 4)})
    with pytest.raises(InvalidWeights):
        FiniteDistribution({"a": Fraction(3, 2), "b": Fraction(-1, 2)})


def test_distribution_drops_zero_and_merges():
    d = FiniteDistribution([("a", H), ("b", 0), ("a", H)])
    assert d.support() == ["a"]
    assert probability(d, "a") == 1


def test_distribution_map_merges_images():
    d = FiniteDistribution({1: H, 2: Q, 3: Q})
    assert mapped(d, lambda n: n % 2) == FiniteDistribution({1: Fraction(3, 4), 0: Q})


def test_mass_examples():
    assert MultiDistribution.empty().mass() == 0
    assert MultiDistribution.point("a").mass() == 1
    assert MultiDistribution([(H, 0), (H, 2)]).mass() == 1
    assert MultiDistribution([(Q, 1), (Q, 3)]).mass() == H


def test_entry_validation():
    with pytest.raises(InvalidWeights):
        MultiDistribution([(Fraction(-1, 2), "a")])
    with pytest.raises(InvalidWeights):
        MultiDistribution([(Fraction(3, 2), "a")])
    with pytest.raises(InvalidWeights):
        MultiDistribution([(H, "a"), (H, "b"), (Q, "c")])
    assert MultiDistribution([(0, "a")]).entries == ()


def test_equal_objects_stay_separate():
    mu = convex_union([(H, MultiDistribution.point("c")), (H, MultiDistribution.point("c"))])
    assert len(mu) == 2
    assert mu.entries == ((H, "c"), (H, "c"))
    assert mu.mass() == 1
    assert mu != MultiDistribution.point("c")
    assert MultiDistribution([(Q, "c"), (Q, "c")]) != MultiDistribution([(H, "c")])


def test_multiset_equality_ignores_order():
    left = MultiDistribution([(Q, "a"), (H, "b")])
    right = MultiDistribution([(H, "b"), (Q, "a")])
    assert left == right
    assert hash(left) == hash(right)
    assert left != MultiDistribution([(Q, "a"), (H, "a")])


def test_convex_union_weight_errors():
    mu = MultiDistribution.point("a")
    with pytest.raises(InvalidWeights):
        convex_union([(H, mu), (Fraction(2, 3), mu)])
    with pytest.raises(InvalidWeights):
        convex_union([(Fraction(-1, 4), mu)])
    assert convex_union([]) == MultiDistribution.empty()


def test_collapse():
    mu = MultiDistribution([(H, "c"), (H, "c")])
    assert collapse(mu) == {"c": Fraction(1)}
    nu = MultiDistribution([(Q, 1), (Q, 3)])
    assert collapse(nu) == {1: Q, 3: Q}


def test_expectation_and_map():
    mu = MultiDistribution([(H, 0), (Q, 4)])
    assert expectation(mu) == 1
    assert expected_value(mu, lambda n: n + 1) == Fraction(7, 4)
    assert mapped(mu, lambda n: n * 2) == MultiDistribution([(H, 0), (Q, 8)])


def test_expected_value_matches_fraction_sum():
    # The sum over one running denominator against the plain Fraction sum.
    def oracle(mu, fn):
        return sum((p * as_fraction(fn(obj)) for p, obj in mu.entries), Fraction(0))

    rng = random.Random(71)
    draws = {
        "int": lambda: rng.randrange(-50, 51),
        "fraction": lambda: Fraction(rng.randrange(-50, 51), rng.randrange(1, 13)),
        "big int": lambda: rng.randrange(-(10**30), 10**30),
    }
    for _ in range(400):
        kinds = rng.sample(sorted(draws), rng.randrange(1, 4))
        n = rng.randrange(0, 9)
        values = [draws[rng.choice(kinds)]() for _ in range(n)]
        # part weights with coprime denominators, each at most 1/n
        weights = [Fraction(rng.randrange(1, d + 1), d * n) for d in rng.choices((3, 5, 7), k=n)]
        mu = MultiDistribution(list(zip(weights, range(n))))
        for fn in (values.__getitem__, lambda i: -values[i], lambda i: str(values[i])):
            result = expected_value(mu, fn)
            assert type(result) is Fraction and result == oracle(mu, fn)
            num, den = expected_numerator(mu, fn)
            assert type(num) is int and type(den) is int and den > 0
            assert Fraction(num, den) == result
    empty = expected_value(MultiDistribution.empty(), lambda obj: 1)
    assert type(empty) is Fraction and empty == 0
    assert type(expectation(MultiDistribution.empty())) is Fraction
    assert expectation(MultiDistribution([(H, "1/3"), (Q, 2), (Q, Fraction(-2, 5))])) == Fraction(17, 30)


def test_rendering():
    mu = MultiDistribution([(H, 0), (H, 2)])
    assert str(mu) == "{1/2: 0, 1/2: 2}"
    assert str(MultiDistribution.empty()) == "{}"
    dist = FiniteDistribution([(0, Fraction(3, 4)), (2, Q)])
    assert str(dist) == "{3/4: 0, 1/4: 2}"


def test_collapse_preserves_mass_random():
    rng = random.Random(23)
    for _ in range(200):
        entries = []
        budget = Fraction(1)
        for _ in range(rng.randrange(0, 6)):
            p = Fraction(rng.randrange(0, 5), 16)
            if p > budget:
                p = budget
            budget -= p
            entries.append((p, rng.choice("abc")))
        mu = MultiDistribution(entries)
        assert sum(collapse(mu).values(), Fraction(0)) == mu.mass()
        scaled = scale(mu, Fraction(1, 3))
        assert scaled.mass() == mu.mass() / 3


def test_canonical_order_is_deterministic():
    a = MultiDistribution([(H, "b"), (Q, "a")])
    b = MultiDistribution([(Q, "a"), (H, "b")])
    c = MultiDistribution([(1, "a")])
    assert canonical_order([a, c]) == canonical_order([b, c])


def reference_build(entries):
    """The checks of the public constructor, written out independently:
    (entries, mass) with zero weights dropped, or None where a weight lies
    outside [0, 1] or the mass exceeds 1."""
    kept = []
    for p, obj in entries:
        p = Fraction(p)
        if p < 0 or p > 1:
            return None
        if p:
            kept.append((p, obj))
    mass = sum((p for p, _ in kept), Fraction(0))
    return (tuple(kept), mass) if mass <= 1 else None


def built(make):
    """(entries, mass) of the multidistribution make() returns, or None
    where it raises InvalidWeights."""
    try:
        mu = make()
    except InvalidWeights:
        return None
    return mu.entries, mu.mass()


WEIGHTS = (Fraction(-1, 2), 0, Fraction(1, 4), Fraction(1, 3), H, 1, Fraction(3, 2), 2)


def test_public_entry_points_reject_what_they_always_rejected():
    rng = random.Random(41)
    rejected = accepted = 0
    for _ in range(400):
        entries = [(rng.choice(WEIGHTS), rng.choice("abc")) for _ in range(rng.randrange(0, 4))]
        got = built(lambda: MultiDistribution(entries))
        assert got == reference_build(entries)
        if got is None:
            rejected += 1
            continue
        accepted += 1
        mu = MultiDistribution(entries)
        factor = rng.choice(WEIGHTS + (Fraction(-1, 3), 4))
        assert built(lambda: scale(mu, factor)) == reference_build(
            [(factor * p, obj) for p, obj in mu.entries])
        parts = [(rng.choice(WEIGHTS), mu) for _ in range(rng.randrange(0, 3))]
        expected = None
        if all(Fraction(w) >= 0 for w, _ in parts) and sum(Fraction(w) for w, _ in parts) <= 1:
            expected = reference_build(
                [(w * p, obj) for w, part in parts for p, obj in part.entries])
        assert built(lambda: convex_union(parts)) == expected
    assert rejected > 50 and accepted > 50


def test_scale_factor_bounds():
    light = MultiDistribution([(Q, "a")])
    for factor in (-1, Fraction(-1, 4), 5):
        with pytest.raises(InvalidWeights):
            scale(light, factor)
    # a factor above 1 passes as long as the scaled weights still fit
    assert scale(light, 2) == MultiDistribution([(H, "a")])
    assert scale(light, 2).mass() == H
    assert scale(light, 0) == MultiDistribution.empty()
    assert scale(MultiDistribution.empty(), -1) == MultiDistribution.empty()


def test_unreduced_forms_compare_and_hash_by_value():
    # Weights share a denominator that is not reduced after a union or a
    # merge; equality and hashing read the value, not the form.
    a, b = MultiDistribution.point("a"), MultiDistribution.point("b")
    halves = MultiDistribution([(H, "a"), (H, "b")])
    quarters = convex_union([(Q, a), (Q, a), (Q, b), (Q, b)])
    merged = collapsed(quarters)
    by_hand = MultiDistribution._unchecked(((2, "b"), (2, "a")), 4, 4)
    for unreduced in (merged, by_hand):
        assert unreduced.denominator == 4 and halves.denominator == 2
        assert unreduced == halves and halves == unreduced
        assert hash(unreduced) == hash(halves)
        assert len({unreduced, halves}) == 1
        assert sorted(unreduced.entries, key=str) == sorted(halves.entries, key=str)
        assert unreduced.mass() == 1 and str(unreduced.mass()) == "1"
    # thirds over sixths: 2/3 * 1/2 and 1/3 * 1 both read 2/6
    thirds = convex_union([(Fraction(2, 3), MultiDistribution([(H, "a")])), (Fraction(1, 3), b)])
    assert thirds.numerators == ((2, "a"), (2, "b")) and thirds.denominator == 6
    assert thirds == MultiDistribution([(Fraction(1, 3), "b"), (Fraction(1, 3), "a")])
    assert hash(thirds) == hash(MultiDistribution([(Fraction(1, 3), "a"), (Fraction(1, 3), "b")]))
    assert thirds.entries == ((Fraction(1, 3), "a"), (Fraction(1, 3), "b"))
    assert str(thirds) == "{1/3: a, 1/3: b}"
    # same numerators over another denominator, or another multiplicity
    assert by_hand != MultiDistribution._unchecked(((2, "b"), (2, "a")), 8, 4)
    assert quarters != halves
    assert quarters == MultiDistribution._unchecked(((2, "a"), (2, "a"), (2, "b"), (2, "b")), 8, 8)


def test_every_empty_form_is_the_empty_multidistribution():
    point = MultiDistribution.point("a")
    forms = [
        MultiDistribution.empty(),
        MultiDistribution([]),
        MultiDistribution([(0, "a")]),
        scale(point, 0),
        scale(MultiDistribution([(H, "a")]), Fraction(0, 7)),
        convex_union([]),
        convex_union([(H, MultiDistribution.empty())]),
        convex_union([(0, point)]),
        MultiDistribution._unchecked((), 12, 0),
    ]
    for mu in forms:
        assert mu == MultiDistribution.empty()
        assert hash(mu) == hash(MultiDistribution.empty())
        assert mu.entries == () and len(mu) == 0 and str(mu) == "{}"
        assert mu.mass() == 0 and collapse(mu) == {}
        assert mu != point
    assert len(set(forms)) == 1


def test_integer_form_of_a_distribution():
    # the common denominator 12 is none of the weights' denominators
    dist = FiniteDistribution({"a": Q, "b": Fraction(1, 6), "c": Fraction(1, 3), "d": Q})
    assert dist.denominator == 12
    assert dist.numerators == ((3, "a"), (2, "b"), (4, "c"), (3, "d"))
    assert dist.mass_numerator == 12
    mu = from_distribution(dist)
    assert mu.entries == tuple((p, obj) for obj, p in items(dist))
    assert mu.mass() == 1 and mu.mass_numerator == mu.denominator == 12
    checked = MultiDistribution([(Fraction(1, 6), "a"), (Fraction(1, 4), "b")])
    assert (checked.numerators, checked.denominator, checked.mass_numerator) == (((2, "a"), (3, "b")), 12, 5)


def test_rendered_weights_read_as_their_fractions():
    # unreduced numerators, whole weights and repeated weights render as
    # str(Fraction) does, entry by entry
    rng = random.Random(31)
    for _ in range(200):
        den = rng.choice([1, 2, 6, 12, 30, 64])
        numerators = tuple((rng.randint(1, den), rng.choice("abc")) for _ in range(rng.randrange(0, 6)))
        mu = MultiDistribution._unchecked(numerators, den * len(numerators) or 1, sum(n for n, _ in numerators))
        assert mu.rendered() == [(str(p), obj) for p, obj in mu.entries]
        assert str(mu) == "{" + ", ".join(f"{p}: {obj}" for p, obj in mu.entries) + "}"


def test_merged_keeps_first_seen_order():
    mu = MultiDistribution._unchecked(((1, "b"), (2, "a"), (3, "b"), (1, "c"), (2, "a")), 12, 9)
    merged = mu.merged()
    assert merged.numerators == ((4, "b"), (4, "a"), (1, "c"))
    assert (merged.denominator, merged.mass_numerator) == (12, 9)
    assert collapse(merged) == collapse(mu)
    assert collapsed(merged).numerators == collapsed(mu).numerators == ((4, "a"), (4, "b"), (1, "c"))


def _random_image(rng: random.Random) -> FiniteDistribution | None:
    """None, or a distribution over distinct objects whose numerators sum
    to a denominator drawn from 2, 3, 4, 6 and 12, reduced or not."""
    if rng.random() < 0.2:
        return None
    den = rng.choice((2, 3, 4, 6, 12))
    cuts = sorted(rng.sample(range(1, den), rng.randint(0, min(3, den - 1))))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    objects = rng.sample("uvwxyz", len(weights))
    return FiniteDistribution._unchecked(tuple(zip(weights, objects)), den, den)


def test_bind_in_one_pass_matches_the_union_of_its_parts():
    # the one-pass bind against the gather-then-union body it replaced, in
    # the exact integer form and order, not by value; the running lcm must
    # rescale what it has gathered when a denominator does not divide it
    rng = random.Random(30)
    rescaled = 0
    for _ in range(400):
        images = {obj: _random_image(rng) for obj in "abcde"}
        den = rng.choice((1, 6, 8, 30, 60))
        pairs, room = [], den
        while room and rng.random() < 0.9:
            n = rng.randint(1, max(1, room // 3))
            pairs.append((n, rng.choice("abcde")))  # objects repeat
            room -= n
        mu = MultiDistribution._unchecked(tuple(pairs), den, den - room)
        got = mu.bind(images.__getitem__)
        for merge in (False, True):
            want = reference_bind(mu, images.__getitem__, merge)
            assert (got.numerators, got.denominator, got.mass_numerator) == (
                want.numerators, want.denominator, want.mass_numerator)
            got = got.merged()
        dens = [images[obj].denominator for _, obj in pairs if images[obj] is not None]
        rescaled += any(lcm(*dens[:i]) % dens[i] for i in range(1, len(dens)))
    assert rescaled > 100
