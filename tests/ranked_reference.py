"""_SplitTables.ranked as it stood before it streamed its candidates, used
only as a reference: it gathers the index and float64 value of every
candidate at or above the cut, then takes the tie rule's choice with one
argmax and the order with one stable sort.  Its memory grows with the
number of candidates, which is every sign vector on inputs full of ties.
"""
import math

import numpy as np

from randcorr.norms import _SCREEN_ENTRIES, _TIE_RTOL, _largest


def ranked_reference(tables, count):
    """What tables.ranked(count) returns: (indices, values), best first."""
    n, size = tables.low16.shape
    rows = tables.high16_t.shape[1]
    block = min(rows, max(1, _SCREEN_ENTRIES // (n * size)))
    buf = np.empty((n, block, size), dtype=np.int16)
    if block == rows:
        screened = tables._screen(slice(None), buf).ravel()
        top, tops = int(screened.max()), [screened]
    else:
        row_max, tops = [], []
        for lo in range(0, rows, block):
            screened = tables._screen(slice(lo, lo + block), buf[:, :min(block, rows - lo)])
            row_max.append(screened.max(axis=1))
            if count > 1:
                tops.append(_largest(screened.ravel(), count))
        row_max = np.concatenate(row_max)
        top = int(row_max.max())
    kth = int(_largest(np.concatenate(tops), count).min()) if count > 1 else top
    cut = kth - 2 * tables.slack - math.ceil(_TIE_RTOL * (top + tables.slack))
    if block == rows:
        idx = (screened >= cut).nonzero()[0]
    else:
        idx = []
        hot = (row_max >= cut).nonzero()[0]
        for lo in range(0, hot.size, block):
            hs = hot[lo:lo + block]
            r, j = (tables._screen(hs, buf[:, :hs.size]) >= cut).nonzero()
            idx.append((hs[r] << tables.k) + j)
        idx = np.concatenate(idx)
    vals, chunk = np.empty(idx.size), block * size
    for lo in range(0, idx.size, chunk):
        h, j = np.divmod(idx[lo:lo + chunk], size)
        vals[lo:lo + chunk] = np.abs(tables.low[j] + tables.high[h]).sum(axis=1)
    top64 = vals.max()
    first = int((vals >= top64 - _TIE_RTOL * top64).argmax())
    order = np.argsort(-vals, kind="stable")[:count]
    order = np.concatenate(([first], order[order != first]))[:count]
    return idx[order], np.ldexp(vals[order], tables.exp)
