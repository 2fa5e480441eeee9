"""Hand-built rankings for the metric tests, as the table `retrieve_all` returns."""

import numpy as np

from searchbias.retrieval import RankedTable


def ranked_table(rankings):
    """The `RankedTable` of (text id, image ids best first) pairs.

    Its images are the distinct ids in order of first appearance; a ranking
    shorter than the longest is padded with row -1, and every score is 0.
    """
    index = {}
    width = max((len(ids) for _, ids in rankings), default=0)
    rows = np.full((len(rankings), width), -1, dtype=np.int64)
    for q, (_, ids) in enumerate(rankings):
        rows[q, : len(ids)] = [index.setdefault(iid, len(index)) for iid in ids]
    return RankedTable([tid for tid, _ in rankings], list(index), index, rows, np.zeros(rows.shape))
