"""First-order terms over a finite signature.

Positions follow the rewriting convention: a position is a tuple of 1-based
argument indices, and the empty tuple addresses the root.

Terms are immutable and hash-consed: constructing a term returns the one
live node for it, so equal terms are the same object and equality is
identity. Each node carries a hash and a node count, computed once from its
children's. The hash is built from the symbol and the arguments' hashes,
never from a node's address, so the order in which a set of terms iterates
does not depend on where its nodes were allocated. A term of at most
STR_CACHE_NODES nodes keeps its text after the first str(), built from its
arguments' kept texts.

Nothing here recurses on the shape of a term: every traversal keeps an
explicit stack, so terms thousands of levels deep are handled like any
other.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from typing import Any, Callable, Iterator, Mapping, Union


class TermError(Exception):
    """Malformed term or signature misuse."""


class InvalidPosition(TermError):
    """Position does not address a node of the given term."""


class Signature:
    """Function symbols with fixed arities."""

    def __init__(self, symbols: Mapping[str, int]):
        for name, arity in symbols.items():
            if not name:
                raise TermError("empty symbol name")
            if arity < 0:
                raise TermError(f"negative arity for symbol {name!r}")
        self._symbols = dict(symbols)

    def arity(self, symbol: str) -> int:
        try:
            return self._symbols[symbol]
        except KeyError:
            raise TermError(f"unknown symbol {symbol!r}") from None

    def symbols(self) -> dict[str, int]:
        return dict(self._symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._symbols

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._symbols))

    def __len__(self) -> int:
        return len(self._symbols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self._symbols == other._symbols

    def __repr__(self) -> str:
        inner = ", ".join(f"{s}/{a}" for s, a in sorted(self._symbols.items()))
        return f"Signature({inner})"


class _Frozen:
    """Attribute assignment is refused: the cached hash must stay valid.

    A term is its own copy, deep or shallow: it is immutable and interned.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable term")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable term")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


STR_CACHE_NODES = 256
"""Largest term, in nodes, that keeps its text after the first str(). A
bigger node renders its text afresh each time, so a spine like s^5000(0)
holds O(STR_CACHE_NODES**2) characters, not O(n**2)."""


class _Ref(weakref.ref):
    """A weak reference to an interned node, filed in table under its key.

    table holds the one live node of every term: a variable under its name,
    an application under its symbol and the ids of its arguments. Arguments
    are interned and kept alive by the node, so those ids name them uniquely
    while the node lives. Entries are added only by dict.setdefault and
    removed only by _remove_dead_weakref, both atomic, so threads building
    the same term at once all get the node that was entered first.
    """

    __slots__ = ("key",)
    table: dict[Any, "_Ref"] = {}


_lookup = _Ref.table.get


def _forget(ref: _Ref, table: dict = _Ref.table, remove: Any = _remove_dead_weakref) -> None:
    # Bound as defaults: nodes still die while the interpreter shuts down,
    # after module globals may have been cleared.
    remove(table, ref.key)


def _interned(key: Any, node: "Term") -> "Term":
    """The live node under key, else node, which is entered under key."""
    ref = _Ref(node, _forget)
    ref.key = key
    table = _Ref.table
    while True:
        old = table.setdefault(key, ref)
        if old is ref:
            return node
        live = old()
        if live is not None:
            return live
        _remove_dead_weakref(table, key)


class Var(_Frozen):
    __slots__ = ("name", "_hash", "__weakref__")
    _size = 1

    def __new__(cls, name: str) -> "Var":
        ref = _lookup(name)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "name", name)
            object.__setattr__(node, "_hash", hash(name))
            node = _interned(name, node)
        return node

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Var, (self.name,))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"


class App(_Frozen):
    __slots__ = ("symbol", "args", "_hash", "_size", "_str", "__weakref__")

    def __new__(cls, symbol: str, args: "tuple[Term, ...]" = ()) -> "App":
        if args.__class__ is not tuple:
            args = tuple(args)
        key = (symbol, id(args[0])) if len(args) == 1 else (symbol, *map(id, args))
        ref = _lookup(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        size = 1
        hashes: list[Any] = [symbol]
        for arg in args:
            size += arg._size
            hashes.append(arg._hash)
        node = object.__new__(cls)
        _set_symbol(node, symbol)
        _set_args(node, args)
        _set_hash(node, hash(tuple(hashes)))
        _set_size(node, size)
        _set_str(node, None if args else symbol)
        return _interned(key, node)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The distinct nodes in post-order, a variable by its name and an
        # application by its symbol and its arguments' indices: depth costs
        # no recursion and a shared subterm is written once. Unpickling
        # calls App again, which interns every node; the hash of a symbol
        # name differs between processes and is recomputed there.
        nodes: list[Any] = []

        def entry(item: Any) -> int:
            nodes.append(item)
            return len(nodes) - 1

        fold_term(self, lambda var: entry(var.name), lambda node, args: entry((node.symbol, *args)))
        return (_unflatten, (nodes,))

    def __str__(self) -> str:
        text = self._str
        return _text(self) if text is None else text

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list[Any] = [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                out.append(item)
            elif item.__class__ is Var:
                out.append(repr(item))
            else:
                out.append(f"App(symbol={item.symbol!r}, args=(")
                stack.append(",))" if len(item.args) == 1 else "))")
                args = item.args
                for i in range(len(args) - 1, 0, -1):
                    stack.append(args[i])
                    stack.append(", ")
                if args:
                    stack.append(args[0])
        return "".join(out)


def _unflatten(nodes: list[Any]) -> Term:
    """The interned term that App.__reduce__ flattened into nodes."""
    terms: list[Term] = []
    for item in nodes:
        terms.append(Var(item) if item.__class__ is str else App(item[0], [terms[i] for i in item[1:]]))
    return terms[-1]


# Slot setters that bypass _Frozen.__setattr__; the constructors use them.
_set_symbol, _set_args, _set_hash, _set_size, _set_str = (
    App.__dict__[name].__set__ for name in ("symbol", "args", "_hash", "_size", "_str")
)

Term = Union[Var, App]
Position = tuple[int, ...]
Substitution = Mapping[str, Term]


def _text(term: App) -> str:
    """str of a term whose text is not kept yet: nodes of at most
    STR_CACHE_NODES nodes get theirs kept, bigger ones are streamed."""
    out: list[str] = []
    stack: list[Any] = [term]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
        elif item.__class__ is Var:
            out.append(item.name)
        elif item._str is not None:
            out.append(item._str)
        elif item._size <= STR_CACHE_NODES:
            out.append(_keep_text(item))
        else:
            out.append(item.symbol + "(")
            stack.append(")")
            args = item.args
            for i in range(len(args) - 1, 0, -1):
                stack.append(args[i])
                stack.append(",")
            stack.append(args[0])
    return "".join(out)


def _keep_text(term: App) -> str:
    """Keep the text of term and of every subterm, children first."""
    stack = [term]
    while stack:
        node = stack[-1]
        missing = [a for a in node.args if a.__class__ is App and a._str is None]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        parts = [a.name if a.__class__ is Var else a._str for a in node.args]
        _set_str(node, f"{node.symbol}({','.join(parts)})")
    return term._str


_MISSING = object()  # fold_term's "no value yet"


def fold_term(
    term: Term,
    on_var: Callable[[Var], Any],
    on_app: Callable[[App, list[Any]], Any],
    memo: dict[Term, Any] | None = None,
) -> Any:
    """Bottom-up evaluation: on_app gets a node and its arguments' values.

    Arguments are evaluated left to right and every distinct subterm once.
    A memo passed in keeps the values of all subterms for later calls, so
    it must only be reused with the same on_var and on_app.

    A node goes back on the stack under its arguments that have no value
    yet, the leftmost on top, and is evaluated once they all have one.
    It is the one memoized bottom-up walk of the package.
    """
    values: dict[Term, Any] = {} if memo is None else memo
    get, missing = values.get, _MISSING
    stack: list[Term] = [term]
    while stack:
        node = stack.pop()
        if node in values:
            continue
        if node.__class__ is Var:
            values[node] = on_var(node)
            continue
        args: list[Any] = []
        for arg in node.args:
            value = get(arg, missing)
            if value is missing:
                stack.append(node)
                for arg in reversed(node.args):
                    if arg not in values:
                        stack.append(arg)
                break
            args.append(value)
        else:
            values[node] = on_app(node, args)
    return values[term]


def check_term(term: Term, signature: Signature) -> None:
    """Raise TermError unless every symbol occurs with its declared arity."""
    stack = [term]
    while stack:
        node = stack.pop()
        if node.__class__ is Var:
            continue
        if signature.arity(node.symbol) != len(node.args):
            raise TermError(
                f"symbol {node.symbol!r} used with {len(node.args)} arguments, "
                f"declared arity is {signature.arity(node.symbol)}"
            )
        stack.extend(reversed(node.args))


def variables(term: Term) -> set[str]:
    out: set[str] = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if node.__class__ is Var:
            out.add(node.name)
        else:
            stack.extend(node.args)
    return out


def apply_substitution(term: Term, subst: Substitution) -> Term:
    """Capture is not a concern for first-order terms: plain replacement."""
    return fold_term(
        term, lambda var: subst.get(var.name, var), lambda node, args: App(node.symbol, args)
    )


# Only tests call subterm_at; it stays here because bench/tracing.py counts it.
def subterm_at(term: Term, position: Position) -> Term:
    node = term
    for step, i in enumerate(position):
        if isinstance(node, Var) or not 1 <= i <= len(node.args):
            raise InvalidPosition(f"no subterm of {term} at {position[: step + 1]}")
        node = node.args[i - 1]
    return node


def replace_at(term: Term, position: Position, replacement: Term) -> Term:
    """The term with the subterm at position replaced; only the spine above
    the position is rebuilt, everything beside it is shared."""
    spine: list[tuple[App, int]] = []
    node = term
    for step, i in enumerate(position):
        if isinstance(node, Var) or not 1 <= i <= len(node.args):
            raise InvalidPosition(f"no subterm of {node} at position {position[step:]}")
        spine.append((node, i))
        node = node.args[i - 1]
    for node, i in reversed(spine):
        args = node.args
        replacement = App(node.symbol, args[: i - 1] + (replacement,) + args[i:])
    return replacement


def match(pattern: Term, subject: Term) -> dict[str, Term] | None:
    """Most general matcher with pattern variables only.

    Nonlinear patterns require consistent bindings; returns None on failure.
    """
    bindings: dict[str, Term] = {}
    stack: list[tuple[Term, Term]] = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            bound = bindings.get(p.name)
            if bound is None:
                bindings[p.name] = s
            elif bound != s:
                return None
        else:
            if not isinstance(s, App) or s.symbol != p.symbol or len(s.args) != len(p.args):
                return None
            stack.extend(zip(p.args, s.args))
    return bindings
