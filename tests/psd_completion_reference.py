"""gamma2 by bisection over PSD completions, used only as an independent
reference for the rescaling loop of `randcorr.norms`.

gamma2(t) is the least c for which some PSD matrix [[P, t], [t^t, Q]] has
every diagonal entry <= c.  Feasibility at a given c is decided by
alternating projections between the PSD cone (eigenvalue clipping) and the
affine slice {off-diagonal block = t, diagonal <= c}; c is bisected over
the interval gamma2_bracket reports.  The projections give up as
infeasible when 50 of them cut the residual by less than 0.1 %, which
happens for feasible c close to gamma2, so the result can lie above gamma2
by about 5e-4 relative, whatever `tol`.  Slow on purpose (up to
GAMMA2_ORACLE_MAX_ITER eigendecompositions of a 2n x 2n matrix per
bisection step), hence the cap on n.
"""
import numpy as np

from randcorr.errors import NumericalError, ValidationError
from randcorr.linalg import as_matrix
from randcorr.norms import gamma2_bracket

GAMMA2_ORACLE_CAP = 12         # the projections stay desk-scale
GAMMA2_ORACLE_TOL_FEAS = 1e-7  # relative residual of a feasible PSD completion
GAMMA2_ORACLE_MAX_ITER = 3000  # alternating projections per feasibility test
GAMMA2_ORACLE_MAX_BISECT = 40  # bisection steps before the reference gives up


def _psd_completion_feasible(t: np.ndarray, c: float, z0: np.ndarray | None):
    """Alternating projections between the PSD cone and the affine slice
    {off-diagonal block = t, diagonal <= c}.  Returns (feasible, last Z)."""
    n = t.shape[0]
    scale = 1.0 + float(np.linalg.norm(t))
    if z0 is None:
        z = np.zeros((2 * n, 2 * n))
        z[:n, n:] = t
        z[n:, :n] = t.T
        np.fill_diagonal(z, c)
    else:
        z = z0.copy()
        d = np.diagonal(z).copy()
        np.fill_diagonal(z, np.minimum(d, c))
    prev_res = np.inf
    for it in range(GAMMA2_ORACLE_MAX_ITER):
        w, vec = np.linalg.eigh(z)
        psd = (vec * np.maximum(w, 0.0)) @ vec.T
        z = psd.copy()
        z[:n, n:] = t
        z[n:, :n] = t.T
        d = np.diagonal(z).copy()
        np.fill_diagonal(z, np.minimum(d, c))
        res = float(np.linalg.norm(psd - z)) / scale
        if res < GAMMA2_ORACLE_TOL_FEAS:
            return True, z
        if it % 50 == 49:
            if res > 10 * GAMMA2_ORACLE_TOL_FEAS and res > 0.999 * prev_res:
                return False, z
            prev_res = res
    return res < 10 * GAMMA2_ORACLE_TOL_FEAS, z


def gamma2_psd_completion(t, tol: float = 1e-4) -> float:
    """Bisect c over gamma2_bracket(t)'s [lower, upper] on PSD-completion
    feasibility until the interval is narrower than `tol`; its midpoint."""
    m = as_matrix(t, square=True)
    if m.shape[0] > GAMMA2_ORACLE_CAP:
        raise ValidationError(
            f"the PSD-completion reference is capped at n={GAMMA2_ORACLE_CAP}")
    bracket = gamma2_bracket(m)
    lo, hi = bracket.lower, bracket.upper
    warm = None
    steps = 0
    while hi - lo > tol:
        if steps >= GAMMA2_ORACLE_MAX_BISECT:
            raise NumericalError("gamma2 bisection failed to separate",
                                 detail={"interval": (lo, hi)})
        mid = 0.5 * (lo + hi)
        feasible, warm = _psd_completion_feasible(m, mid, warm)
        if feasible:
            hi = mid
        else:
            lo = mid
        steps += 1
    return 0.5 * (lo + hi)
