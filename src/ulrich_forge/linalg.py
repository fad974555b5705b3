"""Exact sparse linear algebra over the coefficient fields (no floating
point).  A vector is a dict from basis key to nonzero coefficient, and a
linear map the images of the basis, its columns, each such a vector;
`apply_map` is the one map-times-vector product.

`mat_rank` is the one rank kernel: fraction-free forward elimination on
sparse rows, a row being a dict from column to entry (a dense list counts as
the dict of its positions).  It runs on integer images through the field
hooks of the Groebner kernel (see `fields`).  A row enters as its
`integer_image`: coprime integers over Q, residues over F_p.  While its
least column c holds a pivot row with entry a there, the row becomes
k*row - f*pivot for (k, f) = `scale_pair`(a, row[c]), its integers brought
back by `residue`; over F_p every pivot is monic, so k is always 1.  A row
whose least column holds no pivot yet becomes the pivot there, as its image
with a positive (Q) or unit (F_p) entry at c.  So Q and F_p run one loop
with no Fraction in it, and the rank is the number of pivot rows.  Entries
over Q may be ints or Fractions in any mix (the form `fields` gives a
rational is an int when integral); the images are plain ints either way.
"""
from __future__ import annotations

from .fields import QQ


def mat_rank(rows, field=QQ) -> int:
    """Rank of a matrix given as rows of field elements (or of integers
    standing for them): dicts from column to entry, or dense lists.  Columns
    must be mutually comparable; the least nonzero one leads a row."""
    integer_image, scale_pair, residue = field.integer_image, field.scale_pair, field.residue
    pivots = {}  # leading column -> pivot row
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        work = {c: v for c, v in items if not field.is_zero(v)}
        if work:
            work = dict(zip(work, integer_image(list(work.values()), work[min(work)])[0]))
        while work:
            lead = min(work)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = dict(zip(work, integer_image(list(work.values()), work[lead])[0]))
                break
            k, f = scale_pair(pivot[lead], work[lead])  # k*work[lead] == f*pivot[lead]
            if k != 1:
                work = {c: k * v for c, v in work.items()}
            for c, v in pivot.items():
                v = residue(work.get(c, 0) - f * v)
                if v:
                    work[c] = v
                else:
                    work.pop(c, None)
    return len(pivots)


def apply_map(columns, vector, field=QQ) -> dict:
    """The image of a sparse vector under a linear map: `vector` is a dict
    from basis key to coefficient and columns[key] the image of that basis
    element, a dict of the same kind; entries that cancel are dropped."""
    out: dict = {}
    for b, v in vector.items():
        for c, w in columns[b].items():
            out[c] = field.add(out.get(c, field.zero), field.mul(v, w))
    return {c: v for c, v in out.items() if not field.is_zero(v)}
