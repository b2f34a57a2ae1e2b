import random
from fractions import Fraction

import pytest

from helpers import (
    SYMBOL_ALPHABET,
    ReferenceCertParseError,
    certificate_corpus,
    coefficients,
    lenient_argument_names,
    rand_matrix_interp,
    rand_poly_interp,
    reference_parse_interpretation,
)
from ptrs.certtext import (
    CertParseError,
    load_interpretation,
    parse_interpretation,
    render_certificate,
    render_interpretation,
)
from ptrs.interpretations import (
    CertificateInvalid,
    MatrixInterpretation,
    PolyInterpretation,
    check_certificate,
)
from ptrs.rewriting import random_walk_ptrs
from ptrs.wst import elaborate, parse_problem

COIN_CERT = """\
poly
[?](x) = 7*x + 11
[s](x) = x + 1
[0] = 1
[f](x) = 3*x + 1
[g](x) = 2*x + 1
[$](x) = 2*x + 1
"""

MATRIX_CERT = """\
matrix 2
[a](x) = [[1, 1], [0, 0]]*x + [0, 1]
[b](x) = [[1, 0], [0, 0]]*x + [0, 0]
"""


def test_parse_poly_certificate():
    for newline in ("\n", "\r\n"):
        interp = parse_interpretation(COIN_CERT.replace("\n", newline))
        assert isinstance(interp, PolyInterpretation)
        assert interp.arities == {"?": 1, "s": 1, "0": 0, "f": 1, "g": 1, "$": 1}
        rows = coefficients(interp)
        assert rows["?"][frozenset()] == 11
        assert rows["?"][frozenset({1})] == 7
        assert rows["0"][frozenset()] == 1


def test_parse_matrix_certificate():
    interp = parse_interpretation(MATRIX_CERT)
    assert isinstance(interp, MatrixInterpretation)
    assert interp.dim == 2
    rows = coefficients(interp)
    assert rows["a"] == ((((1, 1), (0, 0)),), (0, 1))
    assert rows["b"][1] == (0, 0)
    # an omitted matrix or constant vector reads as zero; spaces are optional
    interp = parse_interpretation("matrix 2\n[f](x, y) = [[1,0],[0,1]]*y\n[c] = [1, 1]\n[g](x)=[[1,1],[0,1]]*x+[1,0]\n")
    rows = coefficients(interp)
    assert rows["f"] == ((((0, 0), (0, 0)), ((1, 0), (0, 1))), (0, 0))
    assert rows["g"] == ((((1, 1), (0, 1)),), (1, 0))


def test_render_parse_round_trip_poly():
    interp = parse_interpretation(COIN_CERT)
    text = render_interpretation(interp)
    again = parse_interpretation(text)
    assert coefficients(again) == coefficients(interp)
    assert render_interpretation(again) == text


def test_render_parse_round_trip_matrix():
    interp = parse_interpretation(MATRIX_CERT)
    text = render_interpretation(interp)
    again = parse_interpretation(text)
    assert coefficients(again) == coefficients(interp)
    assert render_interpretation(again) == text


def test_fractions_and_multilinear_terms():
    interp = PolyInterpretation(
        {"f": 2}, {"f": {(): Fraction(1, 2), (1,): 1, (2,): Fraction(3, 2), (1, 2): 2}}
    )
    text = render_interpretation(interp)
    assert "2*x*y" in text
    assert "3/2*y" in text
    again = parse_interpretation(text)
    assert coefficients(again) == coefficients(interp)
    # numbers are read as Fraction reads them; terms add up, and factors
    # come in any order
    text = "poly\n[f](x, y) = 1/2 + 2/4*x + 1.5 + x*1e3 + 1_000*y + -1 + x*y*2 + 2*y*x + x\n"
    assert coefficients(parse_interpretation(text)) == {
        "f": {frozenset(): 1, frozenset({1}): Fraction(2003, 2), frozenset({2}): 1000, frozenset({1, 2}): 4}
    }


def test_full_check_output_reparses():
    system = random_walk_ptrs(Fraction(3, 4))
    interp = parse_interpretation("poly\n[s](x) = x + 1\n[0] = 0\n")
    cert = check_certificate(interp, system)
    text = render_certificate(cert, system)
    assert "rule 1: margin 1/2" in text
    assert text.endswith("epsilon = 1/2\n")
    again = parse_interpretation(text)  # margin/epsilon lines are skipped
    assert coefficients(again) == coefficients(interp)


def test_parse_errors():
    with pytest.raises(CertParseError):
        parse_interpretation("")
    with pytest.raises(CertParseError):
        parse_interpretation("spline\n[f](x) = x\n")
    with pytest.raises(CertParseError):
        parse_interpretation("poly\n[f](x) = x + q\n")
    with pytest.raises(CertParseError):
        parse_interpretation("poly\n[f](x) = x*x\n")
    with pytest.raises(CertParseError):
        parse_interpretation("poly\n[f](x) = x\n[f](x) = x\n")
    with pytest.raises(CertParseError):
        parse_interpretation("matrix 2\n[a](x) = [[1, 0], [0, 1]]*y + [0, 0]\n")
    with pytest.raises(CertParseError):
        parse_interpretation("matrix 2\n[a](x) = [[1, 0]]*x + [0, 0]\n")
    with pytest.raises(CertParseError):
        parse_interpretation("matrix 0\n[a] = [0]\n")
    # spaces or a tab may stand between the symbol and its arguments, and
    # a constant may have an empty argument list
    for text in ("poly\n[f] (x) = x + 1\n[0]() = 0\n", "poly\n[f]\t(x) = x + 1\n[0] ( ) = 0\n"):
        assert render_interpretation(parse_interpretation(text)) == "poly\n[0] = 0\n[f](x) = x + 1\n"
    # an argument named twice, or not at all
    for header in ("[f](x, x)", "[f](x,)", "[f](, x)"):
        with pytest.raises(CertParseError):
            parse_interpretation(f"poly\n{header} = x + 1\n")


# each text, with the column of the argument name on its last line
NUMBER_NAMES = {
    "poly\n[f](1) = 1\n": 5,
    "poly\n[f](2) = 2*2 + 1\n": 5,
    "poly\n[s](x) = x + 1\n[f](x, 1/2) = x + 1/2\n": 8,
    "poly\n[f](1.5) = 1\n": 5,
    "matrix 1\n[f](1) = [[1]]*1 + [0]\n": 5,
}


@pytest.mark.parametrize("text", list(NUMBER_NAMES))
def test_argument_named_by_a_number_is_rejected(text):
    # the number would otherwise read as the argument: `[f](1) = 1` as
    # `[f](x) = x`
    last = text.rstrip("\n").count("\n") + 1
    col = NUMBER_NAMES[text]
    with pytest.raises(CertParseError, match=f"^line {last}, column {col}: argument name .* reads as a number$"):
        parse_interpretation(text)


def test_argument_name_that_reads_as_no_number_is_kept():
    # 1/0 is no number (a factor 1/0 is a parse error), so it may name an
    # argument
    assert coefficients(parse_interpretation("poly\n[f](1/0) = 1/0 + 3\n"))["f"][frozenset({1})] == 1


def test_symbol_names_round_trip():
    # a symbol may be any WST identifier: `[ ] = * +` included, and line
    # breaks other than "\n" and "\r"
    rng = random.Random(22)
    draws = random.Random(29)
    for _ in range(300):
        arities: dict[str, int] = {}
        while len(arities) < 3:
            # past arity 3 the arguments are named x1, x2, ...
            arities["".join(rng.choices(SYMBOL_ALPHABET, k=rng.randint(1, 5)))] = rng.randint(0, 4)
        poly = PolyInterpretation(
            arities, {sym: {frozenset(): 1, **{frozenset((i,)): 2 for i in range(1, n + 1)}} for sym, n in arities.items()}
        )
        matrix = MatrixInterpretation(arities, 1, {sym: ([((1,),)] * n, (0,)) for sym, n in arities.items()})
        random_poly = rand_poly_interp(draws, arities, 2)
        random_matrix = rand_matrix_interp(draws, arities, draws.randint(1, 3))
        for interp in (poly, matrix, random_poly, random_matrix):
            text = render_interpretation(interp)
            again = parse_interpretation(text)
            assert again.arities == arities, text
            assert render_interpretation(again) == text


def test_comments_ignored():
    text = "# the walk certificate\npoly\n[s](x) = x + 1\n# done\n[0] = 0\n"
    interp = parse_interpretation(text)
    assert coefficients(interp)["s"][frozenset({1})] == 1


def test_load_interpretation(tmp_path):
    path = tmp_path / "walk.cert"
    # a leading byte-order mark is no character of the certificate
    for encoding in ("utf-8", "utf-8-sig"):
        path.write_text("poly\n[s](x) = x + 1\n[0] = 0\n", encoding=encoding)
        interp = load_interpretation(str(path))
        assert interp.arities == {"s": 1, "0": 0}


def test_check_parsed_certificates_against_systems():
    coin = elaborate(
        parse_problem(
            "(VAR x)(RULES ?(x) -> 1 : ?(s(x)) || 1 : $(g(x)) ?(x) -> $(f(x)) $(0) -> 0 $(s(x)) -> $(x))"
        )
    )
    cert = check_certificate(parse_interpretation(COIN_CERT), coin)
    assert cert.epsilon == Fraction(1, 2)
    matrix = elaborate(parse_problem("(VAR x)(RULES a(a(x)) -> 1 : a(a(a(x))) || 3 : a(b(a(x))))"))
    cert = check_certificate(parse_interpretation(MATRIX_CERT), matrix)
    assert cert.epsilon == Fraction(1, 2)
    # a negative coefficient reads, and the check names it
    negative = parse_interpretation("poly\n[s](x) = -1*x + 1\n[0] = 0\n")
    with pytest.raises(CertificateInvalid) as info:
        check_certificate(negative, random_walk_ptrs(Fraction(3, 4)))
    assert "[s] has negative coefficient -1 on x1" in info.value.problems


DEEP = "[" * 5000


@pytest.mark.parametrize("text, message", [
    ("", "line 1, column 1: certificate interprets no symbols"),
    ("# only a comment\n", "line 1, column 1: certificate interprets no symbols"),
    ("poly\n", "line 1, column 1: certificate interprets no symbols"),
    ("  poly x\n", "line 1, column 3: expected 'poly' or 'matrix N' on the first line, got 'poly x'"),
    ("matrix 0\n[a] = [0]\n", "line 1, column 8: matrix dimension must be at least 1"),
    ("poly\nf = 1\n", "line 2, column 1: expected an equation like [f](x) = ..."),
    ("poly\n  [] = 1\n", "line 2, column 4: empty symbol name"),
    ("poly\n[f] = 1\n[f] = 2\n", "line 3, column 2: symbol 'f' interpreted twice"),
    ("poly\n[f](x, x) = x + 1\n", "line 2, column 8: argument 'x' named twice"),
    ("poly\n[f](x y) = x\n", "line 2, column 7: expected ',', found 'y'"),
    ("poly\n[f](x) x\n", "line 2, column 8: expected '=', found 'x'"),
    ("poly\n[s](x) = x + + 1\n", "line 2, column 14: expected a number or an argument name, found '+'"),
    ("poly\n[s](x) = x +\r\n", "line 2, column 13: expected a number or an argument name, found end of line"),
    ("poly\n[f](x) = x + q\n", "line 2, column 14: cannot read number 'q'"),
    ("poly\n[f](x) = 1/0\n", "line 2, column 10: cannot read number '1/0'"),
    ("poly\n[f](x) = x*x\n", "line 2, column 12: variable 'x' repeats in one monomial"),
    ("poly\n[f](x) = x 1\n", "line 2, column 12: expected '+' or the end of the line, found '1'"),
    ("matrix 1\n[a] = [1\n", "line 2, column 9: expected ']', found end of line"),
    ("matrix 2\n[a](x) = [[1, 0]]*x + [0, 0]\n", "line 2, column 10: expected a list of 2 entries, found 1"),
    ("matrix 2\n[a](x) = [[1, 0], [0, 1]]*y + [0, 0]\n", "line 2, column 27: unknown argument 'y'"),
    ("matrix 1\n[a](x) = [[1]]*x + [[1]]*x\n", "line 2, column 26: argument 'x' appears twice"),
    ("matrix 1\n[a] = [0] + [1]\n", "line 2, column 13: two constant vectors in one equation"),
    # nesting costs no recursion
    (f"matrix 2\n[c] = {DEEP}\n", "line 2, column 9: expected a number, found '['"),
    (f"poly\n[c] = {DEEP}\n", "line 2, column 7: expected a number or an argument name, found '['"),
])
def test_errors_name_the_line_and_column(text, message):
    with pytest.raises(CertParseError) as info:
        parse_interpretation(text)
    assert str(info.value) == message


def test_reader_agrees_with_the_reference_reader():
    # rendered random certificates, garbled copies of them, and the
    # argument lists only the reference reader takes
    texts = certificate_corpus(29, 600) + ["poly\n[g]((x) = 0\n", "poly\n[f](x y) = x y + 1\n", "poly\n[f](]x) = 1\n"]
    outcomes = {"same": 0, "both reject": 0, "newly rejected": 0}
    for text in texts:
        try:
            expected = reference_parse_interpretation(text)
        except ReferenceCertParseError as exc:
            expected = exc
        try:
            got = parse_interpretation(text)
        except CertParseError as exc:
            if isinstance(expected, ReferenceCertParseError):
                # each equation is read whole as its line comes, so the
                # error is on the same line or an earlier one
                assert exc.line <= expected.line, text
                outcomes["both reject"] += 1
            else:
                # the only newly rejected inputs: argument names holding
                # whitespace or one of [](),*+=
                assert lenient_argument_names(text), text
                outcomes["newly rejected"] += 1
            continue
        assert not isinstance(expected, Exception), text
        assert (type(got), vars(got)) == (type(expected), vars(expected)), text
        outcomes["same"] += 1
    assert min(outcomes.values()) > 0, outcomes
