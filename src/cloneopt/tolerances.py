"""Central tolerances and size limits.

Structural identities (projections, isometries, trace preservation,
covariance) are checked at STRUCTURAL_TOL; state normalization at
STATE_TOL.  The dense guard bounds three sizes: the dimension d**M of
a full tensor-product object (sym_embed, kron_power: the tests' dense
oracles), the side in_dim * out_dim of a Choi matrix, and the side
(2 alpha + 1)(2 beta + 1) of the coupled spin space of a qubit
component cloner.  Occupation-basis paths, including the conjugation
by Sym^N(u) in covariance_defect and twirl_choi, build no d**M object
and answer past the first.  The Kraus
entry guard bounds the entries of the optimal cloner's Kraus operators.
The branch guard bounds the summands pieri_branch lists.  The
enumeration guard (DEFAULT_M_GUARD, DEFAULT_D_GUARD) bounds the (m, mu)
label domain that enumerate_W1 and maximize_brute walk.  Each limit is
a fixed constant: no function or command takes another value.
"""

STRUCTURAL_TOL = 1e-10
STATE_TOL = 1e-12

DEFAULT_DENSE_GUARD = 4096
KRAUS_ENTRY_GUARD = 2**20
BRANCH_SUMMAND_GUARD = 2**16
DEFAULT_M_GUARD = 30
DEFAULT_D_GUARD = 8
