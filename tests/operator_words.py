"""Sums of operator words compared on every basis monomial.

Identities between operators are decided on generators in the package; this
per-monomial pass is the tests' independent check of them (Cartan's
formula, iota squared, commuting with d), read through the operators' own
monomial tables.
"""

from cokahler.errors import StructureError
from cokahler.exterior import Element, GradedAlgebra


def word_disagreements(alg: GradedAlgebra,
                       identities) -> list[Element | None]:
    """For each identity (lhs, rhs) between two sums of operator words, the
    first basis monomial, in degree order, where they differ, or None, all
    in one pass.  A word is a tuple of operators on ``alg``, composed right
    to left ((d, iota) is d after iota) on their tables.  An empty side is
    zero."""
    if any(op.algebra is not alg for sides in identities
           for word in (*sides[0], *sides[1]) for op in word):
        raise StructureError("operator acts on a different algebra")
    # lhs - rhs as (sign, first table, middle operators in turn, last table)
    signed = [[(sign, word[-1].image if word[1:] else None, word[-2:0:-1],
                word[0].image)
               for words, sign in ((lhs, 1), (rhs, -1)) for word in words]
              for lhs, rhs in identities]
    found: list[Element | None] = [None] * len(identities)
    for p in range(alg.top + 1):
        for key in alg.basis(p):
            for j, words in enumerate(signed):
                if found[j] is None and _words_differ(words, key):
                    found[j] = Element._trusted(alg, p, {key: 1})
            if all(f is not None for f in found):
                return found
    return found


def _words_differ(signed_words, key) -> bool:
    """Whether the signed words sum to nonzero on one basis monomial."""
    total: dict = {}
    for sign, first, middle, last in signed_words:
        vec = first(key) if first else {key: 1}
        for op in middle:
            vec = op._extend(vec)
        for k, c in vec.items():
            c = c if sign == 1 else -c
            for k2, c2 in last(k).items():
                t = c2 if c == 1 else c * c2
                total[k2] = total[k2] + t if k2 in total else t
    return any(total.values())
