"""Every numerical tolerance of coniccond, each defined once.

The ill-posed set (the subspaces that touch the cone) has measure zero,
so every "touches the cone", "rank deficient" and "tie" decision in the
package is a floating-point band.  This module is the only place such a
band is set, and it imports nothing.  Each line below says what the value
decides; two decisions that happen to share a value keep separate names.
The size limit of exact enumeration, the multistart start count and the
sign certificate's step count and batch floor are effort limits, not
tolerances, and stay in cones.py; the multistart step limit is here
because it decides whether a run counts as converged.
"""

# --- Cones and their angles (cones.py) ---
# An angle to the subspace at or below this, in radians, means the subspace touches the cone.
ANGLE_THRESHOLD = 1e-7
# A point lies in a cone when it violates the cone's inequality by at most this.
MEMBERSHIP_TOL = 1e-9
# An eigenvector of a principal submatrix is signable when it dips at most this below zero.
SIGNABLE_TOL = 1e-9
# A minimum's interlacing cascade skips a support whose one-larger superset has lambda_min
# above the best accepted value by more than twice this times max(1, ||M||_inf): far above the
# n eps ||M|| error of a computed eigenvalue, so a skipped support could not attain the minimum.
INTERLACING_MARGIN = 1e-12
# An exact extremum skips the supports of more than k coordinates, k the rank of a form K
# (A^T A for the dual-route minimum, I - P for the maximum of the projector P onto W), when
# w = K x exceeds this times (||K|| x^T K x)^(1/2) in every entry, x the best smaller
# candidate (Gordan's alternative), or for a maximum that candidate plus ||K x|| e_i for
# each i with P_ii = 0, where K e_i = e_i: what follows holds for any x.  A larger support
# meets the kernel of K; were it accepted, its eigenvector v would have ||K^(1/2) v|| <=
# (sqrt(n eps) + SIGNABLE_TOL sqrt(n)) ||K||^(1/2), at most 6.4e-8 ||K||^(1/2) for n <= 16,
# and since w > 0 and v >= 0, min w <~ w.v <= (x^T K x)^(1/2) ||K^(1/2) v|| by
# Cauchy-Schwarz.  The factor of 15 between the two covers the rounding of w: passing needs
# q_i / R(A) > this (minimum, witness q) or sin(angle) x_i > this (maximum), so the bound
# exceeds 1e-12 ||K||, far above the n eps ||K|| error of w.
# The same margin makes a touching side's angle exactly 0: v = P y - y, y the strict side's
# unit witness and P its projector, lies in the touching side's subspace for any y, and
# passes when every signed entry of v exceeds this times ||v||.  A strict side has ||v|| =
# sin(angle) > ANGLE_THRESHOLD, so passing needs entries above 1e-13, while v errs by about
# (n + r) eps + ||B B^T - I|| <= 1e-14 (r <= n <= 16, B the orthonormal basis of P, whose
# defect is a few eps for the bases polar_decompose and complement build): the exact P y - y
# then lies in the cone's interior, and Gordan's alternative needs nothing more.
GORDAN_MARGIN = 1e-6
# The batched inverse X of a positive definite K (cones._spd_inverse) is trusted only through
# its residual: K X = I - E gives K^-1 = X (I - E)^-1, so ||K^-1||_F <= ||X||_F / (1 - e) for
# any e >= ||E||_F below 1.  e is the computed ||I - K X||_F plus this times nu ||X||_F, nu
# ||K||_F, or tr K where K = F F^T is formed from a factor: about 450 eps, above the k eps
# |K| |X| rounding of the residual and the k eps |F| |F^T| rounding of such a K (k <= 16).
# The realizable table also allows this times ||b|| for the k eps rounding of each product
# b^T v it reads off a computed unit ray v.
INVERSE_ROUNDING = 1e-13
# The sign certificate (cones._sign_rejections) proves from a batched inverse of a positive
# definite K that the lambda_min eigenvector of K has entries of both signs beyond
# SIGNABLE_TOL, so eigh would reject its support.  It trusts K only when ||K||_F ||X||_F, X
# the computed inverse, is at most this: there the rounding part of the residual bound
# (INVERSE_ROUNDING) stays below 1e-5, so the bound on ||K^-1||_F stays tight.  Worse
# conditioned supports go to eigh.
SIGN_CERT_COND_LIMIT = 1e8
# Rounding budget of the sign certificate, about 450 eps: above the p(n) eps (n <= 16) of
# each error it covers.  The residual ||K x - theta x||, the Rayleigh quotient theta and the
# gap each move by this times ||K||; and eigh's eigenvector errs by at most this times ||K||
# over the gap (LAPACK's p(n) eps ||K|| / gap).  At any gap where the certificate can reject,
# the margin this adds is far below the sign entries it compares.  The inverse needs none of
# it: its error enters only through the residual bound of INVERSE_ROUNDING.
SIGN_CERT_ROUNDING = 1e-13
# A ray rho of the realizable table (cones._realizable_supports) with ||rho|| this small
# relative to its columns, or an off-ray entry of B^T rho within this plus the ray's error
# bound of zero, voids general position.
GENERAL_POSITION_TOL = 1e-6
# Product cone sampling weights each factor at least this, so no sample drops a block.
PRODUCT_WEIGHT_FLOOR = 1e-12

# --- Multistart projected gradient (cones.py) ---
# A run stops after this many steps, converged or not; its last point is still ranked.
ASCENT_MAX_STEPS = 500
# A run has converged when its line search shrinks the step to this without improving.
ASCENT_MIN_STEP = 1e-18
# A projected trial point shorter than this cannot be renormalized and is skipped.
ASCENT_MIN_NORM = 1e-14
# A trial point is an improvement when it gains more than this times 1 + |f|.
ASCENT_MIN_GAIN = 1e-15

# --- Matrices and subspaces (linalg.py, grassmann.py) ---
# A singular value at most this times the largest one counts as zero.
RANK_TOLERANCE = 1e-9
# A matrix is balanced when ||B B^T - I||_F is at most this.
BALANCED_TOL = 1e-9
# A subspace basis is accepted when ||B B^T - I||_F is at most this.
BASIS_DEFECT_TOL = 1e-8
# A vector or subspace lies in a subspace when its largest angle to it is at most this.
SUBSPACE_ANGLE_TOL = 1e-8
# A computed cosine above 1 by more than this is reported as a numerical failure.
COSINE_OVERSHOOT = 1e-8
# Principal angles below this are recomputed through sines, where arccos loses digits.
SMALL_ANGLE = 1e-4

# --- Condition numbers and witnesses (condition.py) ---
# A dual-route minimum at most this times max(1, ||A||) makes the instance ill posed.
ZERO_DISTANCE = 1e-12
# A vector within this of pi/2 to the row span lies in its orthogonal complement.
COMPLEMENT_BAND = 1e-8
# The sampled inclusion radius agrees when within this fraction of 1/C(W).
INCLUSION_AGREEMENT = 0.1

# --- GCC cap (gcc.py) ---
# Cap points must have unit norm within this.
UNIT_NORM_TOL = 1e-9
# A circumcenter shorter than this before normalization gives no candidate center.
CENTER_NORM_FLOOR = 1e-12
# Candidate cap radii within this of the best tie, broken by the boundary index set.
CAP_TIE_TOL = 1e-12
# A point is on the cap boundary when its angle to the center is within this of the radius.
CAP_BOUNDARY_TOL = 1e-8
# A cap radius within this of pi/2 makes the GCC condition infinite.
RIGHT_ANGLE_TOL = 1e-9

# --- Oracles and experiments (harness.py) ---
# Relative and absolute slack of the sandwich check C(W) <= R(A) <= kappa(A) C(W).
SANDWICH_SLACK = 1e-9
# The bracket oracle also tries the primal witness perturbation scaled by 1 + this.
BRACKET_OVERSHOOT = 1e-9
