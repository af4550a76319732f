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

Both builders work on bool matrices with one row per filter or up-set:
each relation between such sets is a row-inclusion test (_subset), and
each modal operator on up-sets is one product with a frame relation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraWithOps, attach_ops
from .frames import Frame, check_ik_frame, IKFrameReport
from .lattice import (
    MAX_ORDER_SIZE,
    HeytingAlgebra,
    bool_rows,
    check_order_size,
    from_order,
    mask_rows,
    name_pairs,
    up_sets,
)


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


def _prime_generators(base: HeytingAlgebra) -> list[int]:
    """Least elements of the prime filters, ordered by the bitmasks of
    the filters they generate.

    On a finite distributive lattice the prime filters are exactly the
    principal filters of the join-irreducible elements (Birkhoff): a is
    join-irreducible when it is not bottom and the join of everything
    strictly below it is not a itself.
    """
    ups = mask_rows(base.leq)
    return sorted(base.join_irreducibles(), key=ups.__getitem__)


def prime_filters(base: HeytingAlgebra) -> tuple[int, ...]:
    """Prime filters of the algebra, as ascending element bitmasks."""
    return mask_rows(base.leq[_prime_generators(base)])


def _subset(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j] is true iff row i of a is a subset of row j of b."""
    return ~(a @ ~b.T)


@dataclass(frozen=True)
class CanonicalFrameResult:
    frame: Frame
    filters: tuple[int, ...]
    key_lemma_agrees: bool


def canonical_frame(alg: AlgebraWithOps) -> CanonicalFrameResult:
    """Frame of prime filters of an algebra passing every core law.

    Worlds are ordered by inclusion; each filter is principal in the
    finite case and is named ^m after its least element m.  Row i of
    member[:, box] is box^{-1} of filter i, and likewise for the others.
    """
    if not alg.laws.all_green:
        raise NotAnH2GCFSAlgebra(alg.laws.failures())
    base = alg.base
    least = _prime_generators(base)
    if not least:
        raise DegenerateAlgebra()
    member = base.leq[least]  # member[i, a]: element a lies in filter i
    r_fwd = _subset(member[:, alg.box], member) & _subset(member, member[:, alg.dia]).T
    r_bwd = _subset(member[:, alg.bbox], member).T & _subset(member, member[:, alg.bdia])
    names = tuple("^" + base.names[a] for a in least)
    frame = Frame(names, _subset(member, member), r_fwd, name="canonical")
    return CanonicalFrameResult(frame, mask_rows(member), bool((r_fwd == r_bwd).all()))


# ---------------------------------------------------------- complex algebra


@dataclass(frozen=True)
class ComplexAlgebraResult:
    algebra: AlgebraWithOps
    carrier: tuple[int, ...]  # carrier[i] = world bitmask of element i


def complex_algebra(frame: Frame) -> ComplexAlgebraResult:
    """Up-set algebra of an IK frame with the four modal set operators.

    dia A = R-preimage of A, bdia A = R-image of A; box goes through
    <=;R and bbox through R;>= so the results stay up-closed.
    """
    report = check_ik_frame(frame)
    if not report.is_ik:
        raise NotAnIKFrame(report)
    # the listing stops once it passes the cap, before the quadratic
    # inclusion list and without trying every world mask of a large frame
    carrier = up_sets(frame.leq, stop=MAX_ORDER_SIZE + 1)
    check_order_size(len(carrier), at_least=True)
    ups = bool_rows(carrier, frame.n)
    names = tuple(
        "{" + ",".join(w for w, b in zip(frame.names, row) if b) + "}" for row in ups.tolist()
    )
    # from_order keeps the given name order, so indices align with carrier
    pairs = name_pairs(_subset(ups, ups), names)
    base = from_order(names, pairs, name=f"complex({frame.name or 'frame'})")
    # dia, box, bdia and bbox of every up-set, each again an up-set, so in the carrier
    images = np.stack(
        [ups @ frame.r.T, ~(~ups @ frame.leq_r.T), ups @ frame.r, ~(~ups @ frame.r_up)]
    )
    tables = np.searchsorted(carrier, images @ (1 << np.arange(frame.n))).tolist()
    return ComplexAlgebraResult(attach_ops(base, *tables), carrier)


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
    cx, cb, k = ca.algebra, ca.algebra.base, len(filters)

    member = base.leq[_prime_generators(base)]  # one row per filter, as in cf.filters
    # h(a) as a world mask; complex_algebra has capped the worlds at 20
    h_mask = (member.T.astype(np.int64) << np.arange(k)).sum(axis=1)
    # the carrier lists every up-set in ascending order, and each h(a) is one
    h = np.searchsorted(ca.carrier, h_mask)

    image = len(set(h.tolist()))  # np.unique imports numpy.ma, about 0.5 MB, on first use
    injective = image == base.n
    surjective = image == cb.n

    hx, hy = h[:, None], h[None, :]
    ops = {
        "bottom": bool(h[base.bottom] == cb.bottom),
        "top": bool(h[base.top] == cb.top),
        "meet": bool((h[base.meet] == cb.meet[hx, hy]).all()),
        "join": bool((h[base.join] == cb.join[hx, hy]).all()),
        "imp": bool((h[base.imp] == cb.imp[hx, hy]).all()),
    }
    for label in ("dia", "box", "bdia", "bbox"):
        ops[label] = bool((h[getattr(alg, label)] == getattr(cx, label)[h]).all())

    # second pair of composition identities on the canonical frame:
    # F (<=;R) G iff bdia a in G for every a in F, and
    # F (R;>=) G iff a in F whenever bbox a is in G
    want_leq_r = _subset(member, member[:, alg.bdia])
    want_r_geq = _subset(member[:, alg.bbox], member).T
    connection2_leq_r = bool((frame.leq_r == want_leq_r).all())
    connection2_r_geq = bool((frame.r_up == want_r_geq).all())

    return EmbeddingReport(
        filters=k,
        injective=injective,
        surjective=surjective,
        operations=ops,
        key_lemma_agrees=cf.key_lemma_agrees,
        connection2_leq_r=connection2_leq_r,
        connection2_r_geq=connection2_r_geq,
    )
