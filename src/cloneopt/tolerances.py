"""Central tolerance and size-guard knobs.

Structural identities (projections, isometries, trace preservation,
covariance) are checked at STRUCTURAL_TOL; state normalization at
STATE_TOL.  The dense guard bounds the dimension d**M of any full
tensor-product construction; occupation-basis fast paths ignore it.
The Kraus entry guard bounds the entries of the optimal cloner's Kraus operators.
"""

STRUCTURAL_TOL = 1e-10
STATE_TOL = 1e-12
OMEGA_RESIDUAL_TOL = 1e-8

DEFAULT_DENSE_GUARD = 4096
KRAUS_ENTRY_GUARD = 2**20
