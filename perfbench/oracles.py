"""Reference computations the benchmark checks tenselab against.

Everything here is written from the definitions in the tenselab README
and module docstrings, in plain Python over lists and int bitmasks, and
imports nothing from tenselab.  Structures arrive as plain data: an
order is a list of rows of booleans (``leq[a][b]`` is a <= b), unary
operator tables are lists of element indices, frames are a pair of
boolean matrices (order, accessibility), and formulas are tuples:

    ("var", name)  ("top",)  ("bot",)
    ("not", f)  ("F", f)  ("G", f)  ("P", f)  ("H", f)
    ("and", f, g)  ("or", f, g)  ("imp", f, g)  ("iff", f, g)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

# Unlabeled distributive lattices with n elements, n = 1..6 (OEIS A006982).
A006982 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 5}

UNARY = ("not", "F", "G", "P", "H")
BINARY = ("and", "or", "imp", "iff")


# ----------------------------------------------------------------- lattices


@dataclass(frozen=True)
class Lattice:
    """Join, meet and Heyting implication tables of a finite lattice."""

    leq: tuple[tuple[bool, ...], ...]
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    imp: tuple[tuple[int, ...], ...]
    bottom: int
    top: int

    @property
    def n(self) -> int:
        return len(self.leq)


def closure(n: int, pairs: Sequence[tuple[int, int]]) -> list[list[bool]]:
    """Reflexive-transitive closure of generator pairs on 0..n-1."""
    rel = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        rel[a][b] = True
    for k in range(n):
        for a in range(n):
            if rel[a][k]:
                for b in range(n):
                    if rel[k][b]:
                        rel[a][b] = True
    return rel


def _extreme(leq, items, least: bool) -> Optional[int]:
    for c in items:
        if all((leq[c][d] if least else leq[d][c]) for d in items):
            return c
    return None


def lattice_of(leq: Sequence[Sequence[bool]]) -> Lattice:
    """Tables of the lattice whose order is ``leq``.

    Raises ValueError when the order is not a bounded distributive
    lattice; the implication is the largest z with z & a <= b.
    """
    n = len(leq)
    leq = tuple(tuple(bool(x) for x in row) for row in leq)
    everything = list(range(n))
    bottom = _extreme(leq, everything, least=True)
    top = _extreme(leq, everything, least=False)
    if bottom is None or top is None:
        raise ValueError("order has no bottom or no top")
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            ups = [c for c in range(n) if leq[a][c] and leq[b][c]]
            downs = [c for c in range(n) if leq[c][a] and leq[c][b]]
            lub = _extreme(leq, ups, least=True)
            glb = _extreme(leq, downs, least=False)
            if lub is None or glb is None:
                raise ValueError(f"elements {a}, {b} have no join or meet")
            join[a][b], meet[a][b] = lub, glb
    for x, y, z in itertools.product(range(n), repeat=3):
        if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
            raise ValueError("lattice is not distributive")
    imp = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            below = [z for z in range(n) if leq[meet[z][a]][b]]
            imp[a][b] = _extreme(leq, below, least=False)
    return Lattice(
        leq,
        tuple(map(tuple, join)),
        tuple(map(tuple, meet)),
        tuple(map(tuple, imp)),
        bottom,
        top,
    )


def join_irreducibles(lat: Lattice) -> list[int]:
    """Elements other than bottom that are not the join of those below."""
    out = []
    for j in range(lat.n):
        if j == lat.bottom:
            continue
        acc = lat.bottom
        for c in range(lat.n):
            if c != j and lat.leq[c][j]:
                acc = lat.join[acc][c]
        if acc != j:
            out.append(j)
    return out


def _monotone_maps(lat: Lattice, points: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Order-preserving maps from ``points`` (order inherited) into lat."""
    for image in itertools.product(range(lat.n), repeat=len(points)):
        if all(
            lat.leq[image[i]][image[k]]
            for i, a in enumerate(points)
            for k, b in enumerate(points)
            if lat.leq[a][b]
        ):
            yield image


def galois_pair_count(lat: Lattice) -> int:
    """Galois connections on a finite distributive lattice (Birkhoff).

    A map preserving finite joins is fixed by its values on the
    join-irreducibles J(L), and every monotone J(L) -> L extends, so the
    count is the number of monotone maps from J(L) into L.
    """
    return sum(1 for _ in _monotone_maps(lat, join_irreducibles(lat)))


def galois_pairs(lat: Lattice) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (f, g) with f -| g, ordered by f's table as a tuple."""
    jis = join_irreducibles(lat)
    tables = []
    for image in _monotone_maps(lat, jis):
        f = []
        for x in range(lat.n):
            acc = lat.bottom
            for j, v in zip(jis, image):
                if lat.leq[j][x]:
                    acc = lat.join[acc][v]
            f.append(acc)
        tables.append(tuple(f))
    pairs = []
    for f in sorted(tables):
        g = []
        for b in range(lat.n):
            acc = lat.bottom
            for a in range(lat.n):
                if lat.leq[f[a]][b]:
                    acc = lat.join[acc][a]
            g.append(acc)
        pairs.append((f, tuple(g)))
    return pairs


def down_set_lattices(n_max: int) -> list[Lattice]:
    """Every distributive lattice with at most n_max elements, once each.

    Built the other way round from tenselab's enumeration: by Birkhoff
    every finite distributive lattice is the lattice of down-sets of a
    poset, unique up to isomorphism, so this walks the posets with fewer
    than n_max points up to isomorphism and keeps their down-set
    lattices of the right size.
    """
    out = []
    for k in range(n_max):
        for below in _posets_up_to_iso(k):
            downs = [
                m
                for m in range(1 << k)
                if all(m & below[i] == below[i] for i in range(k) if m >> i & 1)
            ]
            if len(downs) > n_max:
                continue
            leq = [[a & ~b == 0 for b in downs] for a in downs]
            out.append(lattice_of(leq))
    return out


def _posets_up_to_iso(k: int) -> list[tuple[int, ...]]:
    """Posets on k points as strict-below bitmasks, one per iso class.

    Every poset has a linear extension, so it suffices to try the
    relations that only put i below j when i < j.
    """
    pairs = [(i, j) for j in range(k) for i in range(j)]
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        below = [0] * k
        for t, (i, j) in enumerate(pairs):
            if bits >> t & 1:
                below[j] |= 1 << i
        if any(
            below[i] & ~below[j]
            for j in range(k)
            for i in range(k)
            if below[j] >> i & 1
        ):
            continue
        code = min(
            tuple(
                sum(1 << q for q in range(k) if below[perm[p]] >> perm[q] & 1)
                for p in range(k)
            )
            for perm in itertools.permutations(range(k))
        )
        if code not in seen:
            seen.add(code)
            out.append(tuple(below))
    return out


def count_distributive_lattices(n_max: int) -> dict[int, int]:
    counts = {n: 0 for n in range(1, n_max + 1)}
    for lat in down_set_lattices(n_max):
        counts[lat.n] += 1
    return counts


# --------------------------------------------------------------- law table


@dataclass(frozen=True)
class Ops:
    dia: tuple[int, ...]
    box: tuple[int, ...]
    bdia: tuple[int, ...]
    bbox: tuple[int, ...]


CORE_LAWS = (
    "gc_dia_bbox", "gc_bdia_box",
    "additive_dia", "normal_dia", "additive_bdia", "normal_bdia",
    "multiplicative_box", "conormal_box", "multiplicative_bbox", "conormal_bbox",
    "br1", "br2", "br3", "br4",
    "fs1", "fs2", "fs3", "fs4", "d1", "d2",
)
EXTRA_LAWS = ("dunn2_dia", "dunn2_bdia")
LAWS = CORE_LAWS + EXTRA_LAWS


def _law_sides(lat: Lattice, o: Ops):
    """law -> (arity, relation, sides(x, y) -> (lhs, rhs)), from the README.

    The relation says how the sides compare when the law holds: "eq",
    "leq" (lhs <= rhs), or "iff" for the adjunctions, whose sides are
    the truth values of the two inequalities.
    """
    le, j, m, i = lat.leq, lat.join, lat.meet, lat.imp
    bot, top = lat.bottom, lat.top
    return {
        "gc_dia_bbox": (2, "iff", lambda x, y: (le[o.dia[x]][y], le[x][o.bbox[y]])),
        "gc_bdia_box": (2, "iff", lambda x, y: (le[o.bdia[x]][y], le[x][o.box[y]])),
        "additive_dia": (2, "eq", lambda x, y: (o.dia[j[x][y]], j[o.dia[x]][o.dia[y]])),
        "normal_dia": (0, "eq", lambda: (o.dia[bot], bot)),
        "additive_bdia": (2, "eq", lambda x, y: (o.bdia[j[x][y]], j[o.bdia[x]][o.bdia[y]])),
        "normal_bdia": (0, "eq", lambda: (o.bdia[bot], bot)),
        "multiplicative_box": (2, "eq", lambda x, y: (o.box[m[x][y]], m[o.box[x]][o.box[y]])),
        "conormal_box": (0, "eq", lambda: (o.box[top], top)),
        "multiplicative_bbox": (2, "eq", lambda x, y: (o.bbox[m[x][y]], m[o.bbox[x]][o.bbox[y]])),
        "conormal_bbox": (0, "eq", lambda: (o.bbox[top], top)),
        "br1": (1, "leq", lambda x: (x, o.bbox[o.dia[x]])),
        "br2": (1, "leq", lambda x: (o.dia[o.bbox[x]], x)),
        "br3": (1, "leq", lambda x: (x, o.box[o.bdia[x]])),
        "br4": (1, "leq", lambda x: (o.bdia[o.box[x]], x)),
        "fs1": (2, "leq", lambda x, y: (o.dia[i[x][y]], i[o.box[x]][o.dia[y]])),
        "fs2": (2, "leq", lambda x, y: (i[o.dia[x]][o.box[y]], o.box[i[x][y]])),
        "fs3": (2, "leq", lambda x, y: (o.bdia[i[x][y]], i[o.bbox[x]][o.bdia[y]])),
        "fs4": (2, "leq", lambda x, y: (i[o.bdia[x]][o.bbox[y]], o.bbox[i[x][y]])),
        "d1": (2, "leq", lambda x, y: (m[o.dia[x]][o.box[y]], o.dia[m[x][y]])),
        "d2": (2, "leq", lambda x, y: (m[o.bdia[x]][o.bbox[y]], o.bdia[m[x][y]])),
        "dunn2_dia": (2, "leq", lambda x, y: (o.box[j[x][y]], j[o.box[x]][o.dia[y]])),
        "dunn2_bdia": (2, "leq", lambda x, y: (o.bbox[j[x][y]], j[o.bbox[x]][o.bdia[y]])),
    }


def check_laws(lat: Lattice, ops: Ops) -> dict[str, Optional[tuple]]:
    """law -> None when it holds, else its first failure (args, lhs, rhs).

    Arguments are tried in row-major order over element indices.
    """
    out = {}
    for name, (arity, rel, sides) in _law_sides(lat, ops).items():
        out[name] = None
        for args in itertools.product(range(lat.n), repeat=arity):
            lhs, rhs = sides(*args)
            if rel == "eq":
                ok = lhs == rhs
            elif rel == "leq":
                ok = lat.leq[lhs][rhs]
            else:
                ok = lhs == rhs
            if not ok:
                out[name] = (args, lhs, rhs)
                break
    return out


def is_h2gc_fs(lat: Lattice, ops: Ops) -> bool:
    verdicts = check_laws(lat, ops)
    return all(verdicts[law] is None for law in CORE_LAWS)


# ---------------------------------------------------------------- formulas


def variables(f: tuple) -> list[str]:
    names: set[str] = set()

    def walk(g):
        if g[0] == "var":
            names.add(g[1])
        for child in g[1:]:
            if isinstance(child, tuple):
                walk(child)

    walk(f)
    return sorted(names)


def evaluate(lat: Lattice, ops: Optional[Ops], env: dict[str, int], f: tuple) -> int:
    """Value of a formula by walking the tables one node at a time."""
    kind = f[0]
    if kind == "var":
        return env[f[1]]
    if kind == "top":
        return lat.top
    if kind == "bot":
        return lat.bottom
    if kind in UNARY:
        a = evaluate(lat, ops, env, f[1])
        if kind == "not":
            return lat.imp[a][lat.bottom]
        table = {"F": ops.dia, "G": ops.box, "P": ops.bdia, "H": ops.bbox}[kind]
        return table[a]
    a = evaluate(lat, ops, env, f[1])
    b = evaluate(lat, ops, env, f[2])
    if kind == "and":
        return lat.meet[a][b]
    if kind == "or":
        return lat.join[a][b]
    if kind == "imp":
        return lat.imp[a][b]
    return lat.meet[lat.imp[a][b]][lat.imp[b][a]]


def first_countervaluation(
    lat: Lattice, ops: Optional[Ops], f: tuple
) -> Optional[dict[str, int]]:
    """First valuation (sorted variables, element index) not giving top."""
    names = variables(f)
    for combo in itertools.product(range(lat.n), repeat=len(names)):
        env = dict(zip(names, combo))
        if evaluate(lat, ops, env, f) != lat.top:
            return env
    return None


def render(f: tuple) -> str:
    """Text with the fewest parentheses under the README grammar.

    Unary operators bind tightest, then &, |, -> and <->; & and | and
    <-> group to the left (the grammar repeats them) and -> to the
    right.
    """
    prec = {"iff": 0, "imp": 1, "or": 2, "and": 3}
    token = {"not": "~", "F": "F ", "G": "G ", "P": "P ", "H": "H "}
    infix = {"iff": "<->", "imp": "->", "or": "|", "and": "&"}

    def level(g):
        return prec.get(g[0], 4 if g[0] in UNARY else 5)

    def wrap(g, minimum):
        text = render(g)
        return f"({text})" if level(g) < minimum else text

    kind = f[0]
    if kind == "var":
        return f[1]
    if kind in ("top", "bot"):
        return kind
    if kind in UNARY:
        return token[kind] + wrap(f[1], 4)
    p = prec[kind]
    if kind == "imp":
        left, right = wrap(f[1], p + 1), wrap(f[2], p)
    else:
        left, right = wrap(f[1], p), wrap(f[2], p + 1)
    return f"{left} {infix[kind]} {right}"


def render_bracketed(f: tuple) -> str:
    """Text with every compound subformula in parentheses."""
    kind = f[0]
    if kind == "var":
        return f[1]
    if kind in ("top", "bot"):
        return kind
    token = {"not": "~", "F": "F ", "G": "G ", "P": "P ", "H": "H "}
    if kind in UNARY:
        return f"({token[kind]}{render_bracketed(f[1])})"
    infix = {"iff": "<->", "imp": "->", "or": "|", "and": "&"}
    return f"({render_bracketed(f[1])} {infix[kind]} {render_bracketed(f[2])})"


# ------------------------------------------------------------------ frames


def row_masks(rel) -> list[int]:
    return [sum(1 << y for y in range(len(rel)) if rel[x][y]) for x in range(len(rel))]


def _compose(a: list[int], b: list[int]) -> list[int]:
    """x (a;b) z iff some y has x a y and y b z; relations as row masks."""
    out = []
    for row in a:
        acc = 0
        y = 0
        while row >> y:
            if row >> y & 1:
                acc |= b[y]
            y += 1
        out.append(acc)
    return out


def _converse(rows: list[int]) -> list[int]:
    n = len(rows)
    return [sum(1 << x for x in range(n) if rows[x] >> y & 1) for y in range(n)]


def _subset_witness(small: list[int], big: list[int]) -> Optional[tuple[int, int]]:
    for x, (s, b) in enumerate(zip(small, big)):
        extra = s & ~b
        if extra:
            return (x, (extra & -extra).bit_length() - 1)
    return None


def ik_witnesses(leq, r) -> tuple[Optional[tuple], Optional[tuple]]:
    """First pairs breaking (R;<=) <= (<=;R) and (>=;R) <= (R;>=)."""
    up, rr = row_masks(leq), row_masks(r)
    down = _converse(up)
    forward = _subset_witness(_compose(rr, up), _compose(up, rr))
    backward = _subset_witness(_compose(down, rr), _compose(rr, down))
    return forward, backward


def is_ik(leq, r) -> bool:
    return ik_witnesses(leq, r) == (None, None)


class Kripke:
    """Truth sets on a frame, from the clauses in tenselab.frames.

        x |= F a  iff  some y with x (R;>=) y has y |= a
        x |= G a  iff  every y with x (<=;R) y has y |= a
        x |= P a  iff  some y with y (<=;R) x has y |= a
        x |= H a  iff  every y with y (R;>=) x has y |= a

    The connectives are intuitionistic: x |= a -> b iff every y >= x
    with y |= a has y |= b, and ~a is a -> bot.
    """

    def __init__(self, leq, r):
        self.n = len(leq)
        self.full = (1 << self.n) - 1
        self.up = row_masks(leq)
        rr = row_masks(r)
        down = _converse(self.up)
        r_geq = _compose(rr, down)
        leq_r = _compose(self.up, rr)
        self.f_rows = r_geq
        self.g_rows = leq_r
        self.p_rows = _converse(leq_r)
        self.h_rows = _converse(r_geq)

    def up_sets(self) -> list[int]:
        return [
            m
            for m in range(self.full + 1)
            if all(self.up[x] & ~m == 0 for x in range(self.n) if m >> x & 1)
        ]

    def _where(self, test) -> int:
        return sum(1 << x for x in range(self.n) if test(x))

    def truth(self, val: dict[str, int], f: tuple) -> int:
        kind = f[0]
        if kind == "var":
            return val[f[1]]
        if kind == "top":
            return self.full
        if kind == "bot":
            return 0
        a = self.truth(val, f[1])
        if kind == "not":
            return self._where(lambda x: self.up[x] & a == 0)
        if kind == "F":
            return self._where(lambda x: self.f_rows[x] & a != 0)
        if kind == "G":
            return self._where(lambda x: self.g_rows[x] & ~a == 0)
        if kind == "P":
            return self._where(lambda x: self.p_rows[x] & a != 0)
        if kind == "H":
            return self._where(lambda x: self.h_rows[x] & ~a == 0)
        b = self.truth(val, f[2])
        if kind == "and":
            return a & b
        if kind == "or":
            return a | b
        if kind == "imp":
            return self._where(lambda x: self.up[x] & a & ~b == 0)
        return self._where(lambda x: self.up[x] & (a ^ b) == 0)

    def first_counterexample(self, f: tuple) -> Optional[tuple[dict[str, int], int]]:
        """First up-closed valuation (ascending masks, sorted variables)
        where f fails somewhere, with the lowest such world."""
        names = variables(f)
        for combo in itertools.product(self.up_sets(), repeat=len(names)):
            val = dict(zip(names, combo))
            missing = self.full & ~self.truth(val, f)
            if missing:
                return val, (missing & -missing).bit_length() - 1
        return None


def _preorders(n: int) -> list[tuple[int, ...]]:
    out = []
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(off)):
        rows = [1 << i for i in range(n)]
        for t, (i, j) in enumerate(off):
            if bits >> t & 1:
                rows[i] |= 1 << j
        if _compose(rows, rows) == rows:
            out.append(tuple(rows))
    return out


def frame_code(leq_rows: Sequence[int], r_rows: Sequence[int]) -> tuple:
    """Least relabelled copy of (order, accessibility) row masks."""
    n = len(leq_rows)

    def relabel(rows, perm):
        return tuple(
            sum(1 << q for q in range(n) if rows[perm[p]] >> perm[q] & 1)
            for p in range(n)
        )

    return min(
        (relabel(leq_rows, perm), relabel(r_rows, perm))
        for perm in itertools.permutations(range(n))
    )


def ik_frame_codes(n_max: int) -> set[tuple]:
    """Isomorphism classes of IK frames with 1..n_max worlds, brute force."""
    codes = set()
    for n in range(1, n_max + 1):
        for up in _preorders(n):
            down = _converse(list(up))
            for bits in range(1 << (n * n)):
                rr = [bits >> (x * n) & ((1 << n) - 1) for x in range(n)]
                if _subset_witness(_compose(rr, list(up)), _compose(list(up), rr)):
                    continue
                if _subset_witness(_compose(down, rr), _compose(rr, down)):
                    continue
                codes.add((n,) + frame_code(up, rr))
    return codes


def fuzzy_lift(lat: Lattice, relation: Sequence[Sequence[int]]):
    """The predicate algebra H^U of an algebra-valued relation on U.

    Order and connectives act pointwise; with R the relation,

        (dia a)(x)  = join over y of  R(x,y) & a(y)
        (box a)(x)  = meet over y of  R(x,y) -> a(y)
        (bdia a)(x) = join over y of  R(y,x) & a(y)
        (bbox a)(x) = meet over y of  R(y,x) -> a(y)

    Returns the predicates in lexicographic order, their lattice and
    the four operator tables.
    """
    u = len(relation)
    carrier = list(itertools.product(range(lat.n), repeat=u))
    index = {phi: i for i, phi in enumerate(carrier)}

    def pointwise(table):
        return tuple(
            tuple(index[tuple(table[a][b] for a, b in zip(p, q))] for q in carrier)
            for p in carrier
        )

    def fold(op, unit, values):
        acc = unit
        for v in values:
            acc = op[acc][v]
        return acc

    def lift(kind):
        out = []
        for phi in carrier:
            image = []
            for x in range(u):
                grades = [relation[x][y] if kind in ("dia", "box") else relation[y][x] for y in range(u)]
                if kind in ("dia", "bdia"):
                    image.append(fold(lat.join, lat.bottom, (lat.meet[g][phi[y]] for y, g in enumerate(grades))))
                else:
                    image.append(fold(lat.meet, lat.top, (lat.imp[g][phi[y]] for y, g in enumerate(grades))))
            out.append(index[tuple(image)])
        return tuple(out)

    leq = tuple(
        tuple(all(lat.leq[a][b] for a, b in zip(p, q)) for q in carrier) for p in carrier
    )
    product = Lattice(
        leq,
        pointwise(lat.join),
        pointwise(lat.meet),
        pointwise(lat.imp),
        index[(lat.bottom,) * u],
        index[(lat.top,) * u],
    )
    return carrier, product, Ops(lift("dia"), lift("box"), lift("bdia"), lift("bbox"))


def prime_filters(lat: Lattice) -> list[int]:
    """Nonempty proper up-sets closed under meets that are prime, as masks."""
    out = []
    n = lat.n
    for mask in range(1, 1 << n):
        if mask >> lat.bottom & 1:
            continue
        members = [a for a in range(n) if mask >> a & 1]
        if any(not mask >> b & 1 for a in members for b in range(n) if lat.leq[a][b]):
            continue
        if any(not mask >> lat.meet[a][b] & 1 for a in members for b in members):
            continue
        if any(
            mask >> lat.join[a][b] & 1 and not (mask >> a & 1 or mask >> b & 1)
            for a in range(n)
            for b in range(n)
        ):
            continue
        out.append(mask)
    return out
