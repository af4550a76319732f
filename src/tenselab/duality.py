"""Finite duality between operator algebras and tense frames.

prime_filters lists the prime filters of a finite Heyting algebra as
bitmasks.  canonical_frame turns an algebra passing every core law into
a frame on those filters; complex_algebra goes the other way, building
the up-set algebra of a frame.  embedding_check composes the two and
grades the map h(a) = {F : a in F} on injectivity, surjectivity and
preservation of all nine operations.

The canonical accessibility relation is defined from the forward pair,

    F Rc G   iff   box^{-1} F subseteq G subseteq dia^{-1} F,

and independently from the backward pair,

    F Rc G   iff   bbox^{-1} G subseteq F subseteq bdia^{-1} G.

On algebras passing the core laws the two definitions agree; the
canonical frame builder computes both and records whether they do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraWithOps, attach_ops
from .frames import Frame, check_ik_frame, compose, IKFrameReport
from .lattice import HeytingAlgebra, from_order, mask_rows, up_sets


class DualityError(ValueError):
    pass


class NotAnH2GCFSAlgebra(DualityError):
    def __init__(self, failures):
        super().__init__(f"algebra fails core laws: {', '.join(failures)}")
        self.failures = tuple(failures)


class DegenerateAlgebra(DualityError):
    def __init__(self):
        super().__init__("one-element algebra has no prime filters; frame is empty")


class NotAnIKFrame(DualityError):
    def __init__(self, report: IKFrameReport):
        bad = []
        if not report.forward.holds:
            bad.append(f"(R;<=) escapes (<=;R) at {report.forward.witness}")
        if not report.backward.holds:
            bad.append(f"(>=;R) escapes (R;>=) at {report.backward.witness}")
        super().__init__("; ".join(bad))
        self.report = report


# ----------------------------------------------------------- prime filters


def prime_filters(base: HeytingAlgebra) -> tuple[int, ...]:
    """Prime filters of the algebra, as ascending element bitmasks.

    On a finite distributive lattice these are exactly the principal
    filters of the join-irreducible elements (Birkhoff): a is
    join-irreducible when it is not bottom and the join of everything
    strictly below it is not a itself.
    """
    ups = base.poset().up_masks()
    n = base.n
    return tuple(
        sorted(
            ups[a]
            for a in range(n)
            if a != base.bottom
            and base.join_all(b for b in range(n) if b != a and base.leq[b, a]) != a
        )
    )


def _inverse_image_mask(table: np.ndarray, filter_mask: int) -> int:
    """{a : table[a] in filter} as a bitmask."""
    out = 0
    for a in range(len(table)):
        if (filter_mask >> int(table[a])) & 1:
            out |= 1 << a
    return out


@dataclass(frozen=True)
class CanonicalFrameResult:
    frame: Frame
    filters: tuple[int, ...]
    key_lemma_agrees: bool


def canonical_frame(alg: AlgebraWithOps) -> CanonicalFrameResult:
    """Frame of prime filters of an algebra passing every core law.

    Worlds are ordered by inclusion; each filter is principal in the
    finite case and is named ^m after its least element m.
    """
    if not alg.laws.all_green:
        raise NotAnH2GCFSAlgebra(alg.laws.failures())
    base = alg.base
    filters = prime_filters(base)
    k = len(filters)
    if k == 0:
        raise DegenerateAlgebra()
    names = []
    for fm in filters:
        members = [a for a in range(base.n) if (fm >> a) & 1]
        m = base.meet_all(members)
        names.append("^" + base.names[m])
    leq = np.zeros((k, k), dtype=bool)
    r_fwd = np.zeros((k, k), dtype=bool)
    r_bwd = np.zeros((k, k), dtype=bool)
    box_inv = [_inverse_image_mask(alg.box, fm) for fm in filters]
    dia_inv = [_inverse_image_mask(alg.dia, fm) for fm in filters]
    bbox_inv = [_inverse_image_mask(alg.bbox, fm) for fm in filters]
    bdia_inv = [_inverse_image_mask(alg.bdia, fm) for fm in filters]
    for i, fi in enumerate(filters):
        for j, fj in enumerate(filters):
            leq[i, j] = (fi & ~fj) == 0
            r_fwd[i, j] = (box_inv[i] & ~fj) == 0 and (fj & ~dia_inv[i]) == 0
            r_bwd[i, j] = (bbox_inv[j] & ~fi) == 0 and (fi & ~bdia_inv[j]) == 0
    agrees = bool((r_fwd == r_bwd).all())
    frame = Frame(tuple(names), leq, r_fwd, name="canonical")
    return CanonicalFrameResult(frame, filters, agrees)


# ---------------------------------------------------------- complex algebra


@dataclass(frozen=True)
class ComplexAlgebraResult:
    algebra: AlgebraWithOps
    carrier: tuple[int, ...]  # carrier[i] = world bitmask of element i

    def index_of_mask(self, mask: int) -> int:
        return self.carrier.index(mask)


def _upset_name(frame: Frame, mask: int) -> str:
    members = [frame.names[i] for i in range(frame.n) if (mask >> i) & 1]
    return "{" + ",".join(members) + "}"


def complex_algebra(frame: Frame) -> ComplexAlgebraResult:
    """Up-set algebra of an IK frame with the four modal set operators.

    dia A = R-preimage of A, bdia A = R-image of A; box goes through
    <=;R and bbox through R;>= so the results stay up-closed.
    """
    report = check_ik_frame(frame)
    if not report.is_ik:
        raise NotAnIKFrame(report)
    carrier = up_sets(frame.poset())
    index = {m: i for i, m in enumerate(carrier)}
    names = tuple(_upset_name(frame, m) for m in carrier)
    pairs = []
    for a, ma in enumerate(carrier):
        for b, mb in enumerate(carrier):
            if (ma & ~mb) == 0:
                pairs.append((names[a], names[b]))
    # from_order keeps the given name order, so indices align with carrier
    base = from_order(names, pairs, name=f"complex({frame.name or 'frame'})")
    n = frame.n
    r_rows = mask_rows(frame.r)
    r_cols = mask_rows(frame.r.T)
    dia_t, box_t, bdia_t, bbox_t = [], [], [], []
    for m in carrier:
        dia_m = sum(1 << x for x in range(n) if r_rows[x] & m)
        box_m = sum(1 << x for x in range(n) if not (frame.g_rows[x] & ~m))
        bdia_m = sum(1 << x for x in range(n) if r_cols[x] & m)
        bbox_m = sum(1 << x for x in range(n) if not (frame.h_cols[x] & ~m))
        dia_t.append(index[dia_m])
        box_t.append(index[box_m])
        bdia_t.append(index[bdia_m])
        bbox_t.append(index[bbox_m])
    alg = attach_ops(base, dia_t, box_t, bdia_t, bbox_t)
    return ComplexAlgebraResult(alg, carrier)


# --------------------------------------------------------------- embedding


_OP_NAMES = ("bottom", "top", "meet", "join", "imp", "dia", "box", "bdia", "bbox")


@dataclass(frozen=True)
class EmbeddingReport:
    filters: int
    injective: bool
    surjective: bool
    operations: dict[str, bool]
    key_lemma_agrees: bool
    connection2_leq_r: bool
    connection2_r_geq: bool
    vacuous: bool = False

    @property
    def is_embedding(self) -> bool:
        return self.injective and all(self.operations.values())

    @property
    def is_isomorphism(self) -> bool:
        return self.is_embedding and self.surjective


def embedding_check(alg: AlgebraWithOps) -> EmbeddingReport:
    """Grade h(a) = {F : a in F} from an algebra into its double dual.

    The one-element algebra has no prime filters at all; everything
    about its empty frame holds vacuously and is reported as such.
    """
    if not alg.laws.all_green:
        raise NotAnH2GCFSAlgebra(alg.laws.failures())
    if alg.n == 1:
        return EmbeddingReport(
            filters=0,
            injective=True,
            surjective=True,
            operations={op: True for op in _OP_NAMES},
            key_lemma_agrees=True,
            connection2_leq_r=True,
            connection2_r_geq=True,
            vacuous=True,
        )
    base = alg.base
    cf = canonical_frame(alg)
    frame, filters = cf.frame, cf.filters
    ca = complex_algebra(frame)
    k = len(filters)

    h_mask = [
        sum(1 << i for i, fm in enumerate(filters) if (fm >> a) & 1)
        for a in range(base.n)
    ]
    h = [ca.index_of_mask(m) for m in h_mask]

    injective = len(set(h)) == base.n
    surjective = set(h) == set(range(ca.algebra.n))

    cb = ca.algebra.base
    ops = {}
    ops["bottom"] = h[base.bottom] == cb.bottom
    ops["top"] = h[base.top] == cb.top
    ok_meet = ok_join = ok_imp = True
    for a in range(base.n):
        for b in range(base.n):
            ok_meet &= h[base.meet[a, b]] == cb.meet[h[a], h[b]]
            ok_join &= h[base.join[a, b]] == cb.join[h[a], h[b]]
            ok_imp &= h[base.imp[a, b]] == cb.imp[h[a], h[b]]
    ops["meet"], ops["join"], ops["imp"] = bool(ok_meet), bool(ok_join), bool(ok_imp)
    for label, src, dst in (
        ("dia", alg.dia, ca.algebra.dia),
        ("box", alg.box, ca.algebra.box),
        ("bdia", alg.bdia, ca.algebra.bdia),
        ("bbox", alg.bbox, ca.algebra.bbox),
    ):
        ops[label] = all(h[int(src[a])] == int(dst[h[a]]) for a in range(base.n))

    # second pair of composition identities on the canonical frame
    bdia_inv = [_inverse_image_mask(alg.bdia, fm) for fm in filters]
    bbox_inv = [_inverse_image_mask(alg.bbox, fm) for fm in filters]
    want_leq_r = np.zeros((k, k), dtype=bool)
    want_r_geq = np.zeros((k, k), dtype=bool)
    for i, fi in enumerate(filters):
        for j, fj in enumerate(filters):
            want_leq_r[i, j] = (fi & ~bdia_inv[j]) == 0
            want_r_geq[i, j] = (bbox_inv[j] & ~fi) == 0
    got_leq_r = compose(frame.leq, frame.r)
    got_r_geq = compose(frame.r, frame.leq.T)
    connection2_leq_r = bool((got_leq_r == want_leq_r).all())
    connection2_r_geq = bool((got_r_geq == want_r_geq).all())

    return EmbeddingReport(
        filters=k,
        injective=injective,
        surjective=surjective,
        operations=ops,
        key_lemma_agrees=cf.key_lemma_agrees,
        connection2_leq_r=connection2_leq_r,
        connection2_r_geq=connection2_r_geq,
    )
