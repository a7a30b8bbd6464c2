"""Seeded random admissible presentations for property testing."""

from __future__ import annotations

import random

from qred.algebra import (
    DimensionNotResolved,
    InvalidPresentation,
    Path,
    Presentation,
    Quiver,
    complete,
)
from qred.linalg import FieldSpec


def random_presentation(
    rng: random.Random,
    field: FieldSpec,
    max_vertices: int = 4,
    max_arrows: int = 6,
    max_relations: int = 4,
    max_len: int = 4,
    name: str = "rand",
) -> Presentation:
    nv = rng.randint(1, max_vertices)
    vertices = [str(i + 1) for i in range(nv)]
    na = rng.randint(1, max_arrows)
    arrows = [
        (f"a{i}", str(rng.randint(1, nv)), str(rng.randint(1, nv))) for i in range(na)
    ]
    quiver = Quiver(vertices, arrows)

    def random_path():
        for _ in range(30):
            length = rng.randint(2, max_len)
            seq = [rng.randrange(na)]
            for _ in range(length - 1):
                outs = quiver.arrows_from[quiver.a_tgt[seq[-1]]]
                if not outs:
                    break
                seq.append(outs[rng.randrange(len(outs))])
            else:
                return Path(quiver.a_src[seq[0]], quiver.a_tgt[seq[-1]], tuple(seq))
        return None

    relations = []
    seen = set()
    for _ in range(rng.randint(1, max_relations)):
        p = random_path()
        if p is None:
            continue
        if rng.random() < 0.35:
            q = random_path()
            if q is not None and (q.source, q.target) == (p.source, p.target) and q != p:
                hi = (field.p or 4) - 1
                c = field.from_int(rng.randint(1, max(1, hi)))
                key = (p, q)
                if key not in seen:
                    seen.add(key)
                    relations.append(((p, field.one()), (q, field.neg(c))))
                continue
        if (p,) not in seen:
            seen.add((p,))
            relations.append(((p, field.one()),))
    return Presentation(field, quiver, relations, name=name)


def binomial_presentation(
    rng: random.Random,
    field: FieldSpec,
    max_vertices: int = 4,
    max_extra_arrows: int = 2,
    max_relations: int = 3,
    max_len: int = 3,
    name: str = "bin",
) -> Presentation:
    """A presentation whose first relation p - c q is binomial by
    construction: p and q are two chains of fresh arrows, each of length 2
    to max_len, from one vertex s to another t, so they are parallel and
    distinct.  Random extra arrows and monomial relations on random paths
    follow, none of them a subpath of p or q, so that the completion has a
    rule with lead p or q and a tail, unless completing it kills that tail."""
    nv = rng.randint(2, max_vertices)
    vertices = [str(i + 1) for i in range(nv)]
    s, t = rng.sample(range(nv), 2)
    arrows, chains = [], []
    for _ in range(2):
        stops = [s] + [rng.randrange(nv) for _ in range(rng.randint(2, max_len) - 1)] + [t]
        chain = []
        for u, w in zip(stops, stops[1:]):
            chain.append(len(arrows))
            arrows.append((f"a{len(arrows)}", str(u + 1), str(w + 1)))
        chains.append(tuple(chain))
    for _ in range(rng.randint(0, max_extra_arrows)):
        arrows.append((f"a{len(arrows)}", str(rng.randint(1, nv)), str(rng.randint(1, nv))))
    quiver = Quiver(vertices, arrows)
    hi = max(1, (field.p or 4) - 1)
    c = field.from_fraction(rng.randint(1, hi), rng.randint(1, hi))  # 2/3 over Q, say
    relations = [((Path(s, t, chains[0]), field.one()), (Path(s, t, chains[1]), field.neg(c)))]
    for _ in range(rng.randint(0, max_relations)):
        seq = [rng.randrange(len(arrows))]
        for _ in range(rng.randint(1, max_len)):
            outs = quiver.arrows_from[quiver.a_tgt[seq[-1]]]
            if not outs:
                break
            seq.append(outs[rng.randrange(len(outs))])
        inside = any(chain[i : i + len(seq)] == tuple(seq) for chain in chains for i in range(len(chain)))
        if len(seq) >= 2 and not inside:
            relations.append(((Path(quiver.a_src[seq[0]], quiver.a_tgt[seq[-1]], tuple(seq)), field.one()),))
    return Presentation(field, quiver, relations, name=name)


def completed_corpus(
    seed: int,
    count: int,
    field: FieldSpec,
    bound: int = 10,
    dim_cap: int = 14,
    max_draws: int = 4000,
    draw=random_presentation,
    **kwargs,
):
    """Yield `count` completed finite-dimensional algebras, deterministically,
    from the presentations that draw (`random_presentation` or
    `binomial_presentation`) makes."""
    rng = random.Random(seed)
    produced = 0
    for i in range(max_draws):
        pres = draw(rng, field, name=f"rand{seed}_{i}", **kwargs)
        if not pres.relations:
            continue
        try:
            handle = complete(pres, bound)
        except (DimensionNotResolved, InvalidPresentation):
            continue
        if handle.dim > dim_cap:
            continue
        yield handle
        produced += 1
        if produced >= count:
            return
    raise RuntimeError(f"corpus generation exhausted after {max_draws} draws")
