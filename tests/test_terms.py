import copy
import pickle
import random
import sys
import threading
import tracemalloc

import pytest

from helpers import subterm_positions
from ptrs import terms
from ptrs.terms import (
    App,
    InvalidPosition,
    Signature,
    TermError,
    Var,
    apply_substitution,
    check_term,
    fold_term,
    match,
    replace_at,
    subterm_at,
    term_size,
    variables,
)

x, y = Var("x"), Var("y")
ZERO = App("0")
SIG = Signature({"f": 2, "g": 1, "s": 1, "0": 0})


def s(t):
    return App("s", (t,))


def g(t):
    return App("g", (t,))


def f(a, b):
    return App("f", (a, b))


def test_rendering():
    assert str(ZERO) == "0"
    assert str(f(x, g(ZERO))) == "f(x,g(0))"
    assert str(x) == "x"


def test_signature_rejects_bad_declarations():
    with pytest.raises(TermError):
        Signature({"f": -1})
    with pytest.raises(TermError):
        Signature({"": 0})
    with pytest.raises(TermError):
        SIG.arity("missing")


def test_check_term_arity():
    check_term(f(x, ZERO), SIG)
    with pytest.raises(TermError):
        check_term(App("f", (x,)), SIG)
    with pytest.raises(TermError):
        check_term(App("h", ()), SIG)


def test_substitution_examples():
    assert apply_substitution(x, {"x": s(ZERO)}) == s(ZERO)
    assert apply_substitution(y, {"x": s(ZERO)}) == y
    assert apply_substitution(f(x, x), {"x": g(y)}) == f(g(y), g(y))


def test_positions_preorder():
    assert subterm_positions(x) == [()]
    assert subterm_positions(s(ZERO)) == [(), (1,)]
    assert subterm_positions(f(ZERO, g(x))) == [(), (1,), (2,), (2, 1)]


def test_subterm_and_replace():
    t = f(ZERO, g(x))
    assert subterm_at(t, (2, 1)) == x
    assert replace_at(t, (2,), ZERO) == f(ZERO, ZERO)
    assert replace_at(t, (), x) == x
    with pytest.raises(InvalidPosition):
        subterm_at(t, (3,))
    with pytest.raises(InvalidPosition):
        replace_at(t, (1, 1), x)


def test_match_basics():
    assert match(s(x), s(ZERO)) == {"x": ZERO}
    assert match(s(x), g(ZERO)) is None
    assert match(x, f(ZERO, ZERO)) == {"x": f(ZERO, ZERO)}
    assert match(f(x, y), f(ZERO, s(ZERO))) == {"x": ZERO, "y": s(ZERO)}


def test_match_nonlinear():
    assert match(f(x, x), f(ZERO, s(ZERO))) is None
    assert match(f(x, x), f(s(ZERO), s(ZERO))) == {"x": s(ZERO)}


def _random_term(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        return rng.choice([x, y, ZERO])
    sym, arity = rng.choice([("f", 2), ("g", 1), ("s", 1)])
    return App(sym, tuple(_random_term(rng, depth + 1) for _ in range(arity)))


def test_positions_count_matches_size():
    rng = random.Random(7)
    for _ in range(200):
        t = _random_term(rng)
        positions = subterm_positions(t)
        assert len(positions) == term_size(t)
        assert len(set(positions)) == len(positions)
        for pos in positions:
            assert replace_at(t, pos, subterm_at(t, pos)) == t


def test_match_apply_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        pattern = _random_term(rng)
        sigma = {name: _random_term(rng) for name in variables(pattern)}
        subject = apply_substitution(pattern, sigma)
        found = match(pattern, subject)
        assert found is not None
        assert apply_substitution(pattern, found) == subject


def test_substitution_is_homomorphic():
    rng = random.Random(13)
    for _ in range(100):
        t = _random_term(rng)
        sigma = {"x": _random_term(rng), "y": _random_term(rng)}
        image = apply_substitution(t, sigma)
        if isinstance(t, App):
            assert image == App(t.symbol, tuple(apply_substitution(a, sigma) for a in t.args))
        assert variables(image) <= variables(t) | variables(sigma["x"]) | variables(sigma["y"])


DEEP = 5000  # well past the interpreter's default recursion limit of 1000


def tower(n, leaf=ZERO, symbol="s"):
    term = leaf
    for _ in range(n):
        term = App(symbol, (term,))
    return term


def copy_term(term):
    """The term rebuilt node by node from fresh constructor calls."""
    return fold_term(term, lambda v: Var(v.name), lambda node, args: App(node.symbol, tuple(args)))


def test_equal_terms_have_equal_hashes():
    rng = random.Random(23)
    for _ in range(200):
        t = _random_term(rng)
        u = _random_term(rng)
        copy = copy_term(t)
        assert copy == t and hash(copy) == hash(t)
        assert (t == u) == (str(t) == str(u))
        if t == u:
            assert hash(t) == hash(u)


def test_var_and_constant_of_the_same_name_differ():
    assert Var("x") != App("x")
    assert App("x") != Var("x")
    assert len({Var("x"), App("x")}) == 2
    assert Var("x") != "x" and App("x") != ("x", ())


def test_repr_and_constructor_contract():
    assert repr(x) == "Var(name='x')"
    assert repr(ZERO) == "App(symbol='0', args=())"
    assert repr(s(ZERO)) == "App(symbol='s', args=(App(symbol='0', args=()),))"
    assert repr(f(x, ZERO)) == "App(symbol='f', args=(Var(name='x'), App(symbol='0', args=())))"
    assert App("f", [x, y]).args == (x, y)
    assert App(symbol="g", args=(x,)) == g(x)


def test_terms_are_immutable():
    t = s(ZERO)
    with pytest.raises(AttributeError):
        t.symbol = "g"
    with pytest.raises(AttributeError):
        x.name = "y"
    assert t == s(ZERO)


def test_term_size_is_the_node_count():
    assert term_size(x) == 1
    assert term_size(f(x, g(ZERO))) == 4
    assert term_size(tower(DEEP)) == DEEP + 1


def test_deep_terms_need_no_recursion():
    left, right = tower(DEEP), tower(DEEP)
    assert left is right and left == right and hash(left) == hash(right)
    assert left != tower(DEEP, leaf=x)
    assert str(left) == "s(" * DEEP + "0" + ")" * DEEP
    assert repr(tower(DEEP)).count("App(symbol='s'") == DEEP
    open_term = tower(DEEP, leaf=f(x, y))
    assert variables(open_term) == {"x", "y"}
    check_term(open_term, SIG)
    with pytest.raises(TermError):
        check_term(tower(DEEP, leaf=App("f", (x,))), SIG)
    image = apply_substitution(open_term, {"x": ZERO})
    assert image == tower(DEEP, leaf=f(ZERO, y))
    assert match(open_term, image) == {"x": ZERO, "y": y}
    assert match(image, open_term) is None
    assert match(tower(DEEP, leaf=x), left) == {"x": ZERO}
    position = (1,) * DEEP
    assert subterm_at(left, position) == ZERO
    assert replace_at(left, position, x) == tower(DEEP, leaf=x)


def test_substitution_shares_untouched_subterms():
    ground = f(s(ZERO), g(ZERO))
    assert apply_substitution(ground, {"x": ZERO}) is ground
    t = f(x, g(ZERO))
    image = apply_substitution(t, {"x": ZERO})
    assert image.args[1] is t.args[1]


def test_fold_term_evaluates_each_subterm_once():
    seen = []

    def on_app(node, values):
        seen.append(node)
        return 1 + sum(values)

    shared = g(ZERO)
    memo = {}
    assert fold_term(f(shared, shared), lambda v: 1, on_app, memo) == 5
    assert seen == [ZERO, shared, f(shared, shared)]
    assert fold_term(g(shared), lambda v: 1, on_app, memo) == 3
    assert seen[-1] == g(shared) and len(seen) == 4


def streamed_text(term):
    """str of a term, streamed piece by piece with nothing kept (the oracle)."""
    out, stack = [], [term]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Var) or not item.args:
            out.append(item.name if isinstance(item, Var) else item.symbol)
        else:
            out.append(item.symbol + "(")
            stack.append(")")
            for i in range(len(item.args) - 1, 0, -1):
                stack += [item.args[i], ","]
            stack.append(item.args[0])
    return "".join(out)


def test_equal_terms_are_one_node():
    rng = random.Random(29)
    for _ in range(200):
        t = _random_term(rng)
        assert copy_term(t) is t
    assert Var("x") is x and App("f", [x, ZERO]) is f(x, ZERO)
    assert App(symbol="g", args=(ZERO,)) is g(ZERO)


def test_hashes_are_structural():
    assert hash(x) == hash("x")
    assert hash(ZERO) == hash(("0",))
    assert hash(g(ZERO)) == hash(("g", hash(("0",))))
    assert hash(f(x, g(ZERO))) == hash(("f", hash("x"), hash(("g", hash(("0",))))))


def test_copies_and_unpickled_terms_are_the_interned_node():
    t = f(x, g(s(ZERO)))
    assert copy.copy(t) is t and copy.deepcopy(t) is t and copy.deepcopy(x) is x
    assert copy.deepcopy(tower(DEEP)) is tower(DEEP)
    assert pickle.loads(pickle.dumps(t)) is t
    # the pickled term is gone when it is loaded, so loading interns it anew
    data = pickle.dumps(App("pickled", (App("leaf"), Var("v"))))
    loaded = pickle.loads(data)
    assert loaded is App("pickled", (App("leaf"), Var("v")))
    assert loaded.args[1] is Var("v")


def test_pickling_deep_and_shared_terms():
    # a term pickles as its distinct nodes, flat: depth costs no recursion
    deep = tower(DEEP)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(deep, protocol)) is deep
    # and a shared subterm is written once: 2**40 leaves, 41 nodes
    dag = ZERO
    for _ in range(40):
        dag = f(dag, dag)
    data = pickle.dumps(dag)
    assert len(data) < 10_000
    assert pickle.loads(data) is dag
    assert copy.copy(dag) is dag and copy.deepcopy(dag) is dag
    mixed = f(g(x), f(x, g(x)))
    assert pickle.loads(pickle.dumps([mixed, x])) == [mixed, x]


def test_node_table_shrinks_when_terms_are_dropped():
    before = len(terms._Ref.table)
    spine = tower(1000, leaf=App("dropped-leaf"), symbol="dropped")
    assert len(terms._Ref.table) == before + 1001
    del spine
    assert len(terms._Ref.table) == before


def test_threads_building_the_same_terms_get_one_node():
    workers, rounds = 8, 30
    barrier = threading.Barrier(workers)
    results = [[] for _ in range(workers)]

    def build(out):
        for r in range(rounds):
            barrier.wait(timeout=30)
            out.append(tower(200, leaf=f(Var(f"v{r}"), App(f"c{r}")), symbol=f"t{r}"))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    for r in range(rounds):
        first = results[0][r]
        assert all(out[r] is first for out in results)
        for position in ((), (1,) * 100, (1,) * 200, (1,) * 200 + (1,)):
            assert all(subterm_at(out[r], position) is subterm_at(first, position) for out in results)


def test_cached_text_matches_streamed_text():
    rng = random.Random(31)
    for _ in range(200):
        t = _random_term(rng)
        wide = f(tower(300, leaf=t), tower(5, leaf=t))
        assert str(t) == streamed_text(t)
        assert str(wide) == streamed_text(wide)
        assert str(wide) == streamed_text(wide)


def test_text_of_a_deep_spine_keeps_memory_small():
    def peak(render, symbol):
        term = tower(DEEP, leaf=App(f"{symbol}-leaf"), symbol=symbol)
        tracemalloc.start()
        try:
            text = render(term)
            return tracemalloc.get_traced_memory()[1], text
        finally:
            tracemalloc.stop()

    cached_peak, text = peak(str, "cached")
    streamed_peak, expected = peak(streamed_text, "streamed")
    assert text == expected.replace("streamed", "cached")
    assert cached_peak <= 2 * streamed_peak
