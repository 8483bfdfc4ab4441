"""Central tolerances and size limits.

Structural identities (projections, isometries, trace preservation,
covariance) are checked at STRUCTURAL_TOL; state normalization at
STATE_TOL.  The range (MAX_D, MAX_SITES) is the one every command
accepts: d <= MAX_D levels and N, M <= MAX_SITES sites; maximize_exact
answers all of it and refuses past it.  The dense guard bounds three
sizes: the dimension d**M of a full tensor-product object (sym_embed,
kron_power: the tests' dense oracles), the side in_dim * out_dim of a
Choi matrix, and the side (2 alpha + 1)(2 beta + 1) of the coupled spin
space of a qubit component cloner.  Occupation-basis paths, including
the conjugation by Sym^N(u) in covariance_defect and twirl_choi, build
no d**M object and answer past the first.  The Kraus entry guard
bounds the entries of the optimal cloner's Kraus operators.
The branch guard bounds the summands pieri_branch lists.  The
enumeration guard (DEFAULT_M_GUARD, with MAX_D) bounds the (m, mu)
label domain that enumerate_W1 and maximize_brute list.  Each limit is
a fixed constant: no function or command takes another value.
"""

STRUCTURAL_TOL = 1e-10
STATE_TOL = 1e-12

MAX_D = 8
MAX_SITES = 64
DEFAULT_DENSE_GUARD = 4096
KRAUS_ENTRY_GUARD = 2**20
BRANCH_SUMMAND_GUARD = 2**16
DEFAULT_M_GUARD = 30
