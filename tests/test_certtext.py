import random
from fractions import Fraction

import pytest

from ptrs.certtext import (
    CertParseError,
    load_interpretation,
    parse_interpretation,
    render_certificate,
    render_interpretation,
)
from ptrs.interpretations import (
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
    interp = parse_interpretation(COIN_CERT)
    assert isinstance(interp, PolyInterpretation)
    assert interp.arities == {"?": 1, "s": 1, "0": 0, "f": 1, "g": 1, "$": 1}
    assert interp.coefficient("?", ()) == 11
    assert interp.coefficient("?", (1,)) == 7
    assert interp.coefficient("0", ()) == 1


def test_parse_matrix_certificate():
    interp = parse_interpretation(MATRIX_CERT)
    assert isinstance(interp, MatrixInterpretation)
    assert interp.dim == 2
    assert interp.matrices("a") == (((1, 1), (0, 0)),)
    assert interp.constant("a") == (0, 1)
    assert interp.constant("b") == (0, 0)


def test_render_parse_round_trip_poly():
    interp = parse_interpretation(COIN_CERT)
    text = render_interpretation(interp)
    again = parse_interpretation(text)
    assert again.coeffs == interp.coeffs
    assert render_interpretation(again) == text


def test_render_parse_round_trip_matrix():
    interp = parse_interpretation(MATRIX_CERT)
    text = render_interpretation(interp)
    again = parse_interpretation(text)
    assert again.entries == interp.entries
    assert render_interpretation(again) == text


def test_fractions_and_multilinear_terms():
    interp = PolyInterpretation(
        {"f": 2}, {"f": {(): Fraction(1, 2), (1,): 1, (2,): Fraction(3, 2), (1, 2): 2}}
    )
    text = render_interpretation(interp)
    assert "2*x*y" in text
    assert "3/2*y" in text
    again = parse_interpretation(text)
    assert again.coeffs == interp.coeffs


def test_full_check_output_reparses():
    system = random_walk_ptrs(Fraction(3, 4))
    interp = parse_interpretation("poly\n[s](x) = x + 1\n[0] = 0\n")
    cert = check_certificate(interp, system)
    text = render_certificate(cert, system)
    assert "rule 1: margin 1/2" in text
    assert text.endswith("epsilon = 1/2\n")
    again = parse_interpretation(text)  # margin/epsilon lines are skipped
    assert again.coeffs == interp.coeffs


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
    # spaces may stand between the symbol and its arguments
    assert render_interpretation(parse_interpretation("poly\n[f] (x) = x + 1\n")) == "poly\n[f](x) = x + 1\n"
    # an argument named twice, or not at all
    for header in ("[f](x, x)", "[f](x,)", "[f](, x)"):
        with pytest.raises(CertParseError):
            parse_interpretation(f"poly\n{header} = x + 1\n")


@pytest.mark.parametrize("text", [
    "poly\n[f](1) = 1\n",
    "poly\n[f](2) = 2*2 + 1\n",
    "poly\n[s](x) = x + 1\n[f](x, 1/2) = x + 1/2\n",
    "poly\n[f](1.5) = 1\n",
    "matrix 1\n[f](1) = [[1]]*1 + [0]\n",
])
def test_argument_named_by_a_number_is_rejected(text):
    # the number would otherwise read as the argument: `[f](1) = 1` as
    # `[f](x) = x`
    last = text.rstrip("\n").count("\n") + 1
    with pytest.raises(CertParseError, match=f"^line {last}: argument name .* reads as a number$"):
        parse_interpretation(text)


def test_argument_name_that_reads_as_no_number_is_kept():
    # 1/0 is no number (a factor 1/0 is a parse error), so it may name an
    # argument
    assert parse_interpretation("poly\n[f](1/0) = 1/0 + 3\n").coefficient("f", (1,)) == 1


def test_symbol_names_round_trip():
    # a symbol may be any WST identifier: `[ ] = * +` included, and line
    # breaks other than "\n" and "\r"
    rng = random.Random(22)
    alphabet = "fg01[]=*+-#$?!.\x0c\x85"
    for _ in range(300):
        arities: dict[str, int] = {}
        while len(arities) < 3:
            arities["".join(rng.choices(alphabet, k=rng.randint(1, 5)))] = rng.randint(0, 2)
        poly = PolyInterpretation(
            arities, {sym: {frozenset(): 1, **{frozenset((i,)): 2 for i in range(1, n + 1)}} for sym, n in arities.items()}
        )
        matrix = MatrixInterpretation(arities, 1, {sym: ([((1,),)] * n, (0,)) for sym, n in arities.items()})
        for interp in (poly, matrix):
            text = render_interpretation(interp)
            again = parse_interpretation(text)
            assert again.arities == arities, text
            assert render_interpretation(again) == text


def test_comments_ignored():
    text = "# the walk certificate\npoly\n[s](x) = x + 1\n# done\n[0] = 0\n"
    interp = parse_interpretation(text)
    assert interp.coefficient("s", (1,)) == 1


def test_load_interpretation(tmp_path):
    path = tmp_path / "walk.cert"
    path.write_text("poly\n[s](x) = x + 1\n[0] = 0\n")
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
