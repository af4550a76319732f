"""Small helpers shared between test modules."""

import random
import tracemalloc

from tenselab.syntax import (
    And,
    BBox,
    BDia,
    Bot,
    Box,
    Dia,
    Iff,
    Imp,
    MetaVar,
    Not,
    Or,
    Top,
    Var,
)

_LEAVES = ("var", "var", "var", "top", "bot")
_UNARY = (Not, Dia, Box, BDia, BBox)
_BINARY = (And, Or, Imp, Iff)


def random_formula(rng: random.Random, depth: int = 4, vars=("p", "q", "r"), meta=()):
    """Uniform-ish random AST; depth bounds the tree height."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(_LEAVES)
        if kind == "top":
            return Top()
        if kind == "bot":
            return Bot()
        if meta and rng.random() < 0.4:
            return MetaVar(rng.choice(meta))
        return Var(rng.choice(vars))
    if rng.random() < 0.45:
        op = rng.choice(_UNARY)
        return op(random_formula(rng, depth - 1, vars, meta))
    op = rng.choice(_BINARY)
    return op(
        random_formula(rng, depth - 1, vars, meta),
        random_formula(rng, depth - 1, vars, meta),
    )


def peak_allocation(fn) -> int:
    """Peak bytes allocated (Python and numpy) while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
