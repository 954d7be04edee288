"""The exceptional-set documents of six builds, pinned by their sha256.

``tests/golden/exset.sha256`` holds one line per build: the sha256 of
``exceptional_set_to_doc`` written as sorted-key JSON, and the build's name
(curve/bound).  The builds are the sphere at bounds 2, 3 and 4, the cubic
x0^3 + x1^3 + x2^3 + x0 x1 x2 at 2 and 3, and the quartic
x0^4 + x1^4 + x2^4 + x0 x1 x2^2 at 2.  A change that is meant to keep every
curve, centre, radius and provenance must keep this file; a change that is
meant to move one regenerates it and lists what moved.  Regenerate from the
repository root with

    PYTHONPATH=src python tests/test_exset_golden.py > tests/golden/exset.sha256
"""

import hashlib
import json
from pathlib import Path

from workbench.algebra.poly import SparsePoly
from workbench.exset import build_W, exceptional_set_to_doc

GOLDEN = Path(__file__).resolve().parent / "golden" / "exset.sha256"


def _curves() -> dict[str, SparsePoly]:
    x0, x1, x2 = (SparsePoly.variable(i, 3) for i in range(3))
    return {
        "sphere": x0**2 + x1**2 + x2**2,
        "cubic": x0**3 + x1**3 + x2**3 + x0 * x1 * x2,
        "quartic": x0**4 + x1**4 + x2**4 + x0 * x1 * x2**2,
    }


BUILDS = (("sphere", 2), ("sphere", 3), ("sphere", 4), ("cubic", 2), ("cubic", 3),
          ("quartic", 2))


def digest_lines() -> str:
    curves = _curves()
    lines = []
    for name, bound in BUILDS:
        doc = exceptional_set_to_doc(build_W(curves[name], bound))
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        lines.append(f"{digest}  {name}/{bound}\n")
    return "".join(lines)


def test_exceptional_set_documents_match_golden():
    assert digest_lines() == GOLDEN.read_text()


if __name__ == "__main__":
    print(digest_lines(), end="")
