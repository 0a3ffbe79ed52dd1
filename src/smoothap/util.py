"""Shared plumbing: deterministic parallel mapping.

The thread pool module (and the logging it pulls in) loads only when a
call actually fans out, so serial commands do not pay for it.
"""

from __future__ import annotations


def ordered_map(fn, items, threads: int = 1) -> list:
    """Map fn over items, results in input order regardless of thread count.

    With threads <= 1 this is a plain list comprehension; otherwise work is
    fanned out to a thread pool but collected in submission order, so any
    downstream reduction sees the same sequence either way.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
