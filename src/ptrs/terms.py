"""First-order terms over a finite signature.

Positions follow the rewriting convention: a position is a tuple of 1-based
argument indices, and the empty tuple addresses the root.

Terms are immutable and carry two annotations computed once, at
construction, from the annotations of their children: a hash and a node
count. A dictionary lookup therefore never re-hashes a term. Equality tests
identity first, then the cached hashes, and only then the structure.

Nothing here recurses on the shape of a term: every traversal keeps an
explicit stack, so terms thousands of levels deep are handled like any
other.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Optional, Union


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
    """Attribute assignment is refused: the cached hash must stay valid."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable term")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable term")


class Var(_Frozen):
    __slots__ = ("name", "_hash")
    _size = 1

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(name))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Var:
            return NotImplemented
        return self.name == other.name

    def __reduce__(self):
        return (Var, (self.name,))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Var(name={self.name!r})"


class App(_Frozen):
    __slots__ = ("symbol", "args", "_hash", "_size")

    def __init__(self, symbol: str, args: "tuple[Term, ...]" = ()):
        args = tuple(args)
        size = 1
        key: list[Any] = [symbol]
        for arg in args:
            size += arg._size
            key.append(arg._hash)
        object.__setattr__(self, "symbol", symbol)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash(tuple(key)))
        object.__setattr__(self, "_size", size)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        return self._hash == other._hash and _same_structure(self, other)

    def __reduce__(self):
        # The hash of a symbol name differs between processes; rebuild it.
        return (App, (self.symbol, self.args))

    def __str__(self) -> str:
        return _render(
            self,
            lambda leaf: leaf.name if leaf.__class__ is Var else leaf.symbol,
            lambda node: node.symbol + "(",
            lambda node: ")",
            ",",
        )

    def __repr__(self) -> str:
        return _render(
            self,
            lambda leaf: repr(leaf) if leaf.__class__ is Var else f"App(symbol={leaf.symbol!r}, args=())",
            lambda node: f"App(symbol={node.symbol!r}, args=(",
            lambda node: ",))" if len(node.args) == 1 else "))",
            ", ",
        )


Term = Union[Var, App]
Position = tuple[int, ...]
Substitution = Mapping[str, Term]
# A one-hole context as a parent-linked chain: (outer context, node, i) is
# the node with its i-th argument (1-based) replaced by the hole.
Context = Optional[tuple[Any, "App", int]]


def _render(
    term: Term,
    leaf: Callable[[Term], str],
    opening: Callable[[App], str],
    closing: Callable[[App], str],
    separator: str,
) -> str:
    """Text of a term: leaf renders variables and constants, opening and
    closing the text around a node's arguments, separator goes between them."""
    out: list[str] = []
    stack: list[Any] = [term]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
        elif item.__class__ is Var or not item.args:
            out.append(leaf(item))
        else:
            out.append(opening(item))
            stack.append(closing(item))
            args = item.args
            for i in range(len(args) - 1, 0, -1):
                stack.append(args[i])
                stack.append(separator)
            stack.append(args[0])
    return "".join(out)


def _same_structure(left: Term, right: Term) -> bool:
    stack = [(left, right)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.__class__ is not b.__class__ or a._hash != b._hash:
            return False
        if a.__class__ is Var:
            if a.name != b.name:
                return False
        elif a.symbol != b.symbol or len(a.args) != len(b.args):
            return False
        else:
            stack.extend(zip(a.args, b.args))
    return True


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
    """
    values: dict[Term, Any] = {} if memo is None else memo
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            values[node] = on_app(node, [values[a] for a in node.args])
        elif node in values:
            continue
        elif node.__class__ is Var:
            values[node] = on_var(node)
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(node.args))
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


def term_size(term: Term) -> int:
    """Number of nodes, read from the annotation made at construction."""
    return term._size


def apply_substitution(term: Term, subst: Substitution) -> Term:
    """Capture is not a concern for first-order terms: plain replacement.

    Subterms the substitution leaves unchanged are shared, not copied.
    """

    def rebuild(node: App, args: list[Term]) -> Term:
        if all(new is old for new, old in zip(args, node.args)):
            return node
        return App(node.symbol, tuple(args))

    return fold_term(term, lambda var: subst.get(var.name, var), rebuild)


def subterm_positions(term: Term) -> list[Position]:
    """All positions of the term in pre-order (root first, leftmost first)."""
    out: list[Position] = []
    stack: list[tuple[Position, Term]] = [((), term)]
    while stack:
        position, node = stack.pop()
        out.append(position)
        if node.__class__ is App:
            for i in range(len(node.args), 0, -1):
                stack.append(((*position, i), node.args[i - 1]))
    return out


def subterm_at(term: Term, position: Position) -> Term:
    node = term
    for step, i in enumerate(position):
        if isinstance(node, Var) or not 1 <= i <= len(node.args):
            raise InvalidPosition(f"no subterm of {term} at {position[: step + 1]}")
        node = node.args[i - 1]
    return node


def context_position(context: Context) -> Position:
    """The position of a context's hole."""
    steps: list[int] = []
    while context is not None:
        context, _, i = context
        steps.append(i)
    return tuple(reversed(steps))


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
