import dataclasses
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from tenselab.formats import load_proof
from tenselab.syntax import (
    MAX_FORMULA_DEPTH,
    PROGRAM_CACHE_SIZE,
    And,
    BBox,
    BDia,
    Bot,
    Box,
    Dia,
    Iff,
    Imp,
    LexError,
    MetaVar,
    Not,
    Or,
    ParseError,
    ReservedWordError,
    Top,
    Var,
    check_var_name,
    compile_formula,
    has_modal,
    is_valid_var_name,
    iter_subformulas,
    match,
    metavariables_of,
    mirror,
    parse_formula,
    parse_schema,
    render_formula,
    substitute,
    variables_of,
)
from util import random_formula

P, Q, R = Var("p"), Var("q"), Var("r")


class TestParsing:
    def test_precedence_and_over_or(self):
        assert parse_formula("p & q | r") == Or(And(P, Q), R)
        assert parse_formula("p | q & r") == Or(P, And(Q, R))

    def test_imp_right_associative(self):
        assert parse_formula("p -> q -> r") == Imp(P, Imp(Q, R))

    def test_iff_left_associative(self):
        assert parse_formula("p <-> q <-> r") == Iff(Iff(P, Q), R)

    def test_and_or_left_associative(self):
        assert parse_formula("p & q & r") == And(And(P, Q), R)
        assert parse_formula("p | q | r") == Or(Or(P, Q), R)

    def test_imp_binds_weaker_than_or(self):
        assert parse_formula("p | q -> r") == Imp(Or(P, Q), R)

    def test_unary_chain(self):
        assert parse_formula("~ F ~ p") == Not(Dia(Not(P)))
        assert parse_formula("G H p") == Box(BBox(P))

    def test_unary_binds_tightest(self):
        assert parse_formula("F p & q") == And(Dia(P), Q)
        assert parse_formula("F (p & q)") == Dia(And(P, Q))
        assert parse_formula("~p -> q") == Imp(Not(P), Q)

    def test_word_operators_match_letters(self):
        assert parse_formula("dia p") == parse_formula("F p")
        assert parse_formula("box p") == parse_formula("G p")
        assert parse_formula("bdia p") == parse_formula("P p")
        assert parse_formula("bbox p") == parse_formula("H p")

    def test_constants(self):
        assert parse_formula("top") == Top()
        assert parse_formula("bot -> p") == Imp(Bot(), P)

    def test_parens(self):
        assert parse_formula("((p))") == P
        assert parse_formula("(p -> q) -> r") == Imp(Imp(P, Q), R)

    def test_variable_names(self):
        f = parse_formula("ab_1 -> q0")
        assert f == Imp(Var("ab_1"), Var("q0"))

    def test_metavariables_only_in_schema_mode(self):
        assert parse_schema("A -> B") == Imp(MetaVar("A"), MetaVar("B"))
        with pytest.raises(ParseError):
            parse_formula("A -> B")

    def test_lex_error(self):
        with pytest.raises(LexError):
            parse_formula("p $ q")

    @pytest.mark.parametrize(
        "parse, text, pos",
        [
            (parse_formula, "é", 0),
            (parse_formula, "pé", 1),
            (parse_formula, "F é", 2),
            (parse_schema, "é", 0),
            (parse_schema, "A -> Aé", 6),
            (lambda text: load_proof({"system": "Int", "theorem": text, "steps": []}), "A -> é", 5),
        ],
    )
    def test_non_ascii_letter_is_lex_error(self, parse, text, pos):
        with pytest.raises(LexError) as info:
            parse(text)
        assert info.value.pos == pos
        assert str(info.value) == f"unexpected character 'é' at position {pos}"

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_formula("p q")

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse_formula("p ->")
        with pytest.raises(ParseError):
            parse_formula("F")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_formula("(p -> q")

    @pytest.mark.parametrize(
        "text",
        [
            # 50 modalities, 25 parentheses and a chain of 25 conjunctions
            "G ~" * 25 + "(" * 25 + "p" + " & q" * 25 + ")" * 25,
            # -> is right associative: the last (p | q) sits under 98 arrows
            "(p | q) -> " * 98 + "p",
            "~" + "P (p <-> " * 33 + "q" + ")" * 33,
        ],
    )
    def test_depth_counts_every_construct_on_a_path(self, text):
        parse_formula(text)
        for deeper in ("(" + text + ")", "~(" + text + ")", "(" + text + ") & p"):
            with pytest.raises(ParseError, match=f"nested deeper than {MAX_FORMULA_DEPTH}"):
                parse_formula(deeper)

    def test_reserved_names(self):
        assert not is_valid_var_name("dia")
        assert is_valid_var_name("diameter")
        with pytest.raises(ReservedWordError):
            check_var_name("bbox")
        assert check_var_name("p1") == "p1"


class TestRendering:
    def test_minimal_parens(self):
        cases = [
            "p & q | r",
            "p -> q -> r",
            "(p -> q) -> r",
            "F (p & q)",
            "F p & q",
            "~(p | q)",
            "~p | q",
            "G (p | q) -> G p | F q",
            "p <-> q <-> r",
            "p <-> (q <-> r)",
        ]
        for text in cases:
            assert render_formula(parse_formula(text)) == text

    def test_negation_is_tight(self):
        assert render_formula(Not(P)) == "~p"
        assert render_formula(Not(Dia(P))) == "~F p"

    def test_modal_spacing(self):
        assert render_formula(Dia(Box(P))) == "F G p"

    def test_seeded_random_roundtrip(self):
        rng = random.Random(20240817)
        for _ in range(500):
            f = random_formula(rng, depth=5)
            assert parse_formula(render_formula(f)) == f

    @given(st.data())
    def test_hypothesis_roundtrip(self, data):
        f = _formulas(data.draw(st.integers(0, 4)), data)
        assert parse_formula(render_formula(f)) == f

    def test_schema_roundtrip(self):
        rng = random.Random(7)
        for _ in range(300):
            f = random_formula(rng, depth=4, meta=("A", "B", "C"))
            assert parse_schema(render_formula(f)) == f


def _formulas(depth, data):
    if depth == 0:
        return data.draw(
            st.one_of(
                st.sampled_from([Top(), Bot()]),
                st.sampled_from(["p", "q", "r", "s_1"]).map(Var),
            )
        )
    choice = data.draw(st.integers(0, 2))
    if choice == 0:
        return _formulas(0, data)
    if choice == 1:
        op = data.draw(st.sampled_from([Not, Dia, Box, BDia, BBox]))
        return op(_formulas(depth - 1, data))
    op = data.draw(st.sampled_from([And, Or, Imp, Iff]))
    return op(_formulas(depth - 1, data), _formulas(depth - 1, data))


class TestTraversals:
    def test_variables_sorted_unique(self):
        f = parse_formula("q & p | q -> zz & p")
        assert variables_of(f) == ("p", "q", "zz")

    def test_metavariables(self):
        f = parse_schema("B -> (A & B)")
        assert metavariables_of(f) == ("A", "B")
        assert variables_of(f) == ()

    def test_has_modal(self):
        assert has_modal(parse_formula("p -> F q"))
        assert not has_modal(parse_formula("~(p -> q)"))

    def test_preorder_counts_occurrences(self):
        f = parse_formula("p & p")
        subs = list(iter_subformulas(f))
        assert len(subs) == 3
        assert subs[0] == f


class TestCompile:
    def test_one_step_per_distinct_subformula(self):
        prog = compile_formula(parse_formula("(q -> p) & ~(q -> p) | top"))
        assert prog.variables == ("p", "q")
        assert prog.steps == (
            (Var, "q", None),
            (Var, "p", None),
            (Imp, 0, 1),
            (Not, 2, None),
            (And, 2, 3),
            (Top, None, None),
            (Or, 4, 5),
        )

    @given(st.data())
    def test_steps_rebuild_the_formula(self, data):
        f = _formulas(4, data)
        built = []
        for kind, a, b in compile_formula(f).steps:
            if kind in (Var, MetaVar):
                built.append(kind(a))
            elif kind in (Top, Bot):
                built.append(kind())
            elif b is None:
                assert a < len(built)
                built.append(kind(built[a]))
            else:
                assert a < len(built) and b < len(built)
                built.append(kind(built[a], built[b]))
        assert built[-1] == f
        assert len(built) == len(set(built)) == len(set(iter_subformulas(f)))

    def test_hazards_in_preorder(self):
        prog = compile_formula(parse_schema("q & (X | F (p & F q)) & G X"))
        assert prog.hazards == (
            Var("q"), MetaVar("X"), Dia(parse_formula("p & F q")), Var("p"),
        )
        assert prog.variables == ("p", "q")

    def test_equal_formulas_share_one_program(self):
        a = parse_formula("F (p -> q) -> G p -> F q")
        b = parse_formula("F (p -> q) -> G p -> F q")
        assert a == b and a is not b
        assert compile_formula(a) is compile_formula(b)

    @given(st.data())
    def test_separately_parsed_trees_hash_alike(self, data):
        text = render_formula(_formulas(4, data))
        a, b = parse_formula(text), parse_formula(text)
        shown = repr(a)
        assert a is not b and hash(a) == hash(b)
        assert compile_formula(a) is compile_formula(b)
        # the cached hash is the dataclass hash of the node's fields
        assert hash(a) == hash(tuple(getattr(a, f.name) for f in dataclasses.fields(a)))
        assert repr(a) == shown and a == b
        assert "_hash" not in {f.name for f in dataclasses.fields(a)}

    def test_cached_hash_is_not_pickled(self):
        f = parse_formula("F (p -> q) -> G p -> F q")
        hash(f)
        back = pickle.loads(pickle.dumps(f))
        assert all("_hash" not in vars(g) for g in iter_subformulas(back))
        assert back == f and hash(back) == hash(f)

    def test_cache_is_bounded(self):
        assert compile_formula.cache_info().maxsize == PROGRAM_CACHE_SIZE
        assert isinstance(PROGRAM_CACHE_SIZE, int) and PROGRAM_CACHE_SIZE > 0

    def test_rejects_non_formulas(self):
        with pytest.raises(TypeError, match="not a formula"):
            compile_formula(And(P, "q"))


class TestSubstitutionAndMatch:
    def test_substitute_leaves_vars_alone(self):
        f = parse_schema("A -> p")
        g = substitute(f, {"A": parse_formula("q & r")})
        assert g == parse_formula("(q & r) -> p")

    def test_substitute_partial(self):
        f = parse_schema("A -> B")
        g = substitute(f, {"A": P})
        assert g == Imp(P, MetaVar("B"))

    def test_match_recovers_substitution(self):
        rng = random.Random(99)
        for _ in range(200):
            pattern = random_formula(rng, depth=3, meta=("A", "B"))
            sigma = {
                name: random_formula(rng, depth=2)
                for name in metavariables_of(pattern)
            }
            target = substitute(pattern, sigma)
            got = match(pattern, target)
            assert got is not None
            assert substitute(pattern, got) == target

    def test_match_conflict(self):
        pattern = parse_schema("A -> A")
        assert match(pattern, parse_formula("p -> q")) is None
        assert match(pattern, parse_formula("p -> p")) == {"A": P}

    def test_match_respects_existing_bindings(self):
        pattern = parse_schema("A")
        assert match(pattern, Q, {"A": P}) is None
        assert match(pattern, P, {"A": P}) == {"A": P}

    def test_target_metavars_opaque(self):
        pattern = parse_schema("A -> B")
        target = parse_schema("A -> p")
        got = match(pattern, target)
        assert got == {"A": MetaVar("A"), "B": P}


_SCHEMAS = st.recursive(
    st.sampled_from([Top(), Bot(), P, Q, MetaVar("A"), MetaVar("B")]),
    lambda kids: st.builds(
        lambda op, f: op(f), st.sampled_from([Not, Dia, Box, BDia, BBox]), kids
    )
    | st.builds(
        lambda op, f, g: op(f, g), st.sampled_from([And, Or, Imp, Iff]), kids, kids
    ),
    max_leaves=12,
)


class TestMirror:
    def test_swaps_the_two_pairs(self):
        f = parse_schema("F A -> G (P B & H ~p) | dia q")
        assert mirror(f) == parse_schema("P A -> H (F B & G ~p) | bdia q")

    @given(_SCHEMAS)
    def test_involution(self, f):
        assert mirror(mirror(f)) == f

    @given(_SCHEMAS, _SCHEMAS, _SCHEMAS)
    def test_commutes_with_substitute(self, f, a, b):
        sigma = {"A": a, "B": b}
        mirrored = {k: mirror(v) for k, v in sigma.items()}
        assert mirror(substitute(f, sigma)) == substitute(mirror(f), mirrored)
