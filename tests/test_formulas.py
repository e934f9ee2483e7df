import pytest
from hypothesis import given, strategies as st

from atlir.formulas import (
    MAX_NESTING,
    And,
    Atom,
    EmptyCoalition,
    FormulaSyntaxError,
    Globally,
    Next,
    Not,
    Until,
    atoms,
    parse_formula,
    render_formula,
)


def test_parse_globally():
    f = parse_formula("<<1,2>> G ok")
    assert f == Globally(frozenset({1, 2}), Atom("ok"))


def test_parse_negated_conjunction():
    assert parse_formula("!(p & q)") == Not(And(Atom("p"), Atom("q")))


def test_parse_until():
    f = parse_formula("<<1>> p U (q & r)")
    assert f == Until(frozenset({1}), Atom("p"), And(Atom("q"), Atom("r")))


def test_parse_next():
    assert parse_formula("<<2>> X p") == Next(frozenset({2}), Atom("p"))


def test_conjunction_is_right_associative():
    assert parse_formula("a & b & c") == And(Atom("a"), And(Atom("b"), Atom("c")))


def test_negation_binds_tighter_than_and():
    assert parse_formula("!a & b") == And(Not(Atom("a")), Atom("b"))


def test_coalition_binds_tighter_than_and():
    f = parse_formula("<<1>> X p & q")
    assert f == And(Next(frozenset({1}), Atom("p")), Atom("q"))


def test_render_globally():
    assert render_formula(Globally(frozenset({2, 1}), Atom("ok"))) == "<<1,2>> G ok"


def test_render_atom_and_double_negation():
    assert render_formula(Atom("ok")) == "ok"
    assert render_formula(Not(Not(Atom("p")))) == "!!p"


def test_render_left_nested_and():
    f = And(And(Atom("a"), Atom("b")), Atom("c"))
    assert render_formula(f) == "(a & b) & c"
    assert parse_formula(render_formula(f)) == f


def test_empty_coalition():
    with pytest.raises(EmptyCoalition):
        parse_formula("<<>> G ok")


def test_empty_coalition_carries_position():
    with pytest.raises(EmptyCoalition) as exc:
        parse_formula("p & <<>> G ok")
    assert exc.value.position == 4


def test_agent_zero_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("<<0>> G ok")
    assert exc.value.position == 2
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("<<1,0>> X ok")
    assert exc.value.position == 4


def test_syntax_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("p & ?")
    assert exc.value.position == 4


def test_reserved_words_are_not_atoms():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("X")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p & U")


def test_until_requires_u():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("<<1>> p q")


def test_trailing_input_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("p q")
    assert str(exc.value) == "trailing input 'q' (at position 2)"
    assert exc.value.position == 2


@pytest.mark.parametrize(
    "text",
    [
        "<<1>> p U q",
        "<<1,2>> !p U (q & r)",
        "<<2>> <<1>> p U q U !<<1,3>> X r",
        "<<1>> p U q & <<2>> G <<1>> q U p",
    ],
)
def test_render_until_round_trips(text):
    # each text is already in the canonical form, with no redundant brackets
    f = parse_formula(text)
    assert render_formula(f) == text
    assert parse_formula(render_formula(f)) == f


@pytest.mark.parametrize(
    "opener, closer, at",
    [("!", "", 0), ("ok & ", "", 3), ("(", ")", 0), ("<<1>> X ", "", 0), ("<<1>> ok U ", "", 0)],
)
def test_nesting_limit(opener, closer, at):
    # ``at``: where the token that opens a level sits inside ``opener``
    deepest = opener * MAX_NESTING + "ok" + closer * MAX_NESTING
    f = parse_formula(deepest)
    assert parse_formula(render_formula(f)) == f
    too_deep = opener * (MAX_NESTING + 1) + "ok" + closer * (MAX_NESTING + 1)
    with pytest.raises(FormulaSyntaxError, match="nests deeper than") as exc:
        parse_formula(too_deep)
    assert exc.value.position == len(opener) * MAX_NESTING + at


def test_atoms():
    assert atoms(parse_formula("<<1>> p U (q & !r)")) == {"p", "q", "r"}


names = st.sampled_from(["p", "q", "r", "ok", "p1", "p2", "flag_2"])
agent_sets = st.frozensets(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)


def formula_strategy():
    return st.recursive(
        st.builds(Atom, names),
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, sub, sub),
            st.builds(Next, agent_sets, sub),
            st.builds(Globally, agent_sets, sub),
            st.builds(Until, agent_sets, sub, sub),
        ),
        max_leaves=12,
    )


@given(formula_strategy())
def test_round_trip(f):
    assert parse_formula(render_formula(f)) == f
