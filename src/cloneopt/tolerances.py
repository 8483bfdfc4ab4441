"""Central tolerance and size-guard knobs.

Structural identities (projections, isometries, trace preservation,
covariance) are checked at STRUCTURAL_TOL; state normalization at
STATE_TOL.  The dense guard bounds two sizes: the dimension d**M of the
dense oracles that build a full tensor-product object (sym_embed,
symmetrizer, dense_cloner_output, kron_power), and the side
in_dim * out_dim of a Choi matrix.  Occupation-basis paths, including
the conjugation by Sym^N(u) in covariance_defect and twirl, build no
d**M object and answer past the first.  The Kraus entry guard bounds the
entries of the optimal cloner's Kraus operators.
"""

STRUCTURAL_TOL = 1e-10
STATE_TOL = 1e-12
OMEGA_RESIDUAL_TOL = 1e-8

DEFAULT_DENSE_GUARD = 4096
KRAUS_ENTRY_GUARD = 2**20
