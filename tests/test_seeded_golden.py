"""The certified roots of float-seeded solves, pinned by their sha256.

``tests/golden/seeded_roots.sha256`` holds one line per draw: the sha256 of
the (centre, radius, multiplicity, str(exact)) tuples that ``roots_certified``
returns, in its order, and the draw's name (degree/index, with "^2" for a
squared draw).  The draws are dense polynomials with a Gaussian unit on every
power, two at each of the degrees 17, 20, 26, 34 and 45, so every one has a
squarefree factor that takes the float-seeded attempt; every fifth draw is
squared.  A change to how the seeds are refined that is meant to keep every
disk must keep this file.  Regenerate from the repository root with

    PYTHONPATH=src python tests/test_seeded_golden.py > tests/golden/seeded_roots.sha256
"""

import hashlib
import random
from pathlib import Path

from workbench.algebra.gaussrat import GaussRat
from workbench.algebra.poly import SparsePoly
from workbench.algebra.roots import roots_certified

GOLDEN = Path(__file__).resolve().parent / "golden" / "seeded_roots.sha256"

DEGREES = (17, 20, 26, 34, 45)
UNITS = (GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1))


def draws() -> list[tuple[str, SparsePoly]]:
    rng = random.Random("seeded-golden")
    out = []
    for i in range(2 * len(DEGREES)):
        degree = DEGREES[i // 2]
        f = SparsePoly(1, {(k,): rng.choice(UNITS) for k in range(degree + 1)})
        squared = i % 5 == 4
        out.append((f"{degree}/{i % 2}{'^2' if squared else ''}", f**2 if squared else f))
    return out


def digest_lines() -> str:
    lines = []
    for name, f in draws():
        disks = [(d.center, d.radius, d.multiplicity, str(d.exact))
                 for d in roots_certified(f).roots]
        lines.append(f"{hashlib.sha256(repr(disks).encode()).hexdigest()}  {name}\n")
    return "".join(lines)


def test_seeded_roots_match_golden():
    roots_certified.cache_clear()
    assert digest_lines() == GOLDEN.read_text()


if __name__ == "__main__":
    print(digest_lines(), end="")
