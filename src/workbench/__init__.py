"""Computer-algebra and numerical-verification workbench for orbifold entire curves.

Subsystems:

- ``workbench.algebra``: exact sparse polynomial / resultant /
  root-enclosure kernel over the Gaussian rationals; SparsePoly is its one
  polynomial type.
- ``workbench.diffops``: the logarithmic differential operator on
  polynomials over a formal differential symbol ring, whose symbols are
  further SparsePoly variables.
- ``workbench.exset``: explicit exceptional curve sets via monomial
  substitution and resultant loci.
- ``workbench.constants``: exact effective constants and dimension counts.
- ``workbench.nevanlinna``: Nevanlinna functionals (T, m, N, truncated N,
  gcd counting) on a concrete closed class of meromorphic functions.
- ``workbench.morphisms``: power-monomial plane morphisms, Jacobians,
  general position and pushforward by the lowest-degree kernel modulo Z.
- ``workbench.harness``: scenario-driven margin reports for the supported
  inequalities; ``workbench.cli`` is the command-line surface.
"""

__version__ = "0.1.0"
