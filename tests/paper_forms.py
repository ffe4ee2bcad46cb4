"""The paper's indicator query, built from the code's reciprocal one.

The paper reads random sparsification and top-r case 2 with indicator
queries: 1 at the wanted entry plus (f_k - alpha_n) times the mask.  The
code sends the reciprocal query, 1/(f_k - alpha_n) there plus the mask, so
the indicator query is the reciprocal one times (f_k - alpha_n), entry by
entry.  Reference tests build the paper's form this way.
"""


def indicator_query(fp, fs, blocks):
    """The indicator blocks ``[n-1][k][m]`` behind the reciprocal ``blocks``
    for the bit constants ``fs``, in plain ints."""
    q = fp.q
    return [[[(f - alpha) * int(v) % q for v in vec] for f, vec in zip(fs, block)]
            for alpha, block in zip(fp.alphas, blocks)]
