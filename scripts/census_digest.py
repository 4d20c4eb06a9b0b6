"""Print a digest of the census to a given order, one line per order and filter.

    PYTHONPATH=src python3 scripts/census_digest.py 7 > digest.txt

For each order 1..N (default 5) and each of four filters, none and the
three that the meet search prunes by (``left_handed``, ``normal`` and
both), the line gives the number of classes ``enumerate_skew_lattices``
yields and the SHA-256 of their (meet table, join table, zero) in the
order yielded.  Run it on two trees and compare the outputs byte for
byte (``cmp``): a change that keeps the census prints the same lines.
Order 7 takes several seconds unfiltered.
"""

from __future__ import annotations

import hashlib
import sys

from skewlat.census import CensusFilter, enumerate_skew_lattices

FILTERS = {
    "none": {},
    "left_handed": {"left_handed": True},
    "normal": {"normal": True},
    "left_handed+normal": {"left_handed": True, "normal": True},
}


def main(argv: list[str]) -> None:
    top = int(argv[0]) if argv else 5
    for order in range(1, top + 1):
        for name, wants in FILTERS.items():
            digest = hashlib.sha256()
            classes = 0
            for S in enumerate_skew_lattices(order, CensusFilter(**wants), order_cap=order):
                digest.update(repr((S.meet_table, S.join_table, S.zero)).encode())
                classes += 1
            print(f"order {order}\t{name}\t{classes} classes\tsha256 {digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
