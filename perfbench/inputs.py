"""Stress-model documents for the benchmark, built from ttg's public API only.

Each generator returns a normalized model document, the same form
``ttg.docio.load`` digests, so the recorded digest of each document shows
any change to an input.
"""

from ttg import CategoryPresentation, chain_model, self_module, support_model
from ttg.docio import normalize_document
from ttg.presentation import rotation_closure

# The down-set lattice of a, b, c, d incomparable and e above a.
POSET = "abcde"
ABOVE = {"e": "a"}


def downset_lattice():
    """K acting on itself, K the 24 down-sets of POSET under union and
    intersection, with identity translation and the triangles (x, x+y, y)."""
    bit = {e: 1 << i for i, e in enumerate(POSET)}
    downs = [mask for mask in range(1 << len(POSET))
             if all(not mask & bit[hi] or mask & bit[lo] for hi, lo in ABOVE.items())]
    downs.sort(key=lambda mask: (bin(mask).count("1"), mask))
    full = (1 << len(POSET)) - 1

    def name(mask):
        if mask in (0, full):
            return "z" if mask == 0 else "t"
        return "".join(e for e in POSET if mask & bit[e])

    index = {mask: i for i, mask in enumerate(downs)}
    objs = range(len(downs))
    sum_t = tuple(tuple(index[downs[x] | downs[y]] for y in objs) for x in objs)
    tensor_t = tuple(tuple(index[downs[x] & downs[y]] for y in objs) for x in objs)
    translate = tuple(objs)
    cat = CategoryPresentation(
        names=tuple(name(mask) for mask in downs),
        zero=index[0],
        unit=index[full],
        sum=sum_t,
        tensor=tensor_t,
        translate=translate,
        triangles=rotation_closure(
            {(x, sum_t[x][y], y) for x in objs for y in objs}, translate),
    )
    return self_module(cat)


def _document(p, operators=None):
    doc = normalize_document({"category": {}}, p)
    if operators:
        doc["operators"] = operators
    return doc


GENERATORS = {
    "chain10": lambda: _document(chain_model(10)),
    "support4": lambda: _document(
        support_model(4), {"div_ab": {"kind": "division", "s": ["ab"]}}),
    "lattice24": lambda: _document(downset_lattice()),
    "support5": lambda: _document(support_model(5)),
}
