"""Continuation of a spectral projection along the operator family.

At eps = 0 the three-state model is idempotent: eigenvalue 1 with
multiplicity 2^N and eigenvalue 0 with multiplicity 3^N - 2^N.  The near-1
projection continues smoothly in eps; the predictor-corrector path is
compared against exact eigendecompositions at every stop.
"""

import numpy as np

from stochpert import (Disk, PcaModel, Projection, SiteGraph,
                       continue_projection, gap_report, spectral_projection)

model = PcaModel(SiteGraph.path(2), alpha=0.3, epsilon=0.0)
fam = model.family()

lam = np.sort(np.linalg.eigvals(fam.t0).real)
print("eigenvalues at eps = 0:", np.array_str(lam, precision=3))

p0 = Projection(fam.t0)
print("projection rank (slow states):", p0.rank)

res = continue_projection(p0, fam, eps_target=0.1, n_steps=8)
print("\ncontinuation path:")
print(f"{'eps':>8} {'|P^2-P|':>10} {'|[P,T]|':>10} {'rank':>4} "
      f"{'gap':>8} {'sep':>8}")
for pt, proj in zip(res.path, res.projections):
    rep = gap_report(fam.at(pt.eps), proj)
    print(f"{pt.eps:8.4f} {pt.phi_residual:10.2e} {pt.comm_residual:10.2e} "
          f"{pt.rank:4d} {rep.gap:8.4f} {rep.sep:8.4f}")

exact = spectral_projection(fam.at(0.1), Disk(1.0, 0.5))
gap = np.abs(res.projection.matrix - exact.matrix).max()
print(f"\n|continued - eigendecomposition| at eps = 0.1: {gap:.2e}")

rep = gap_report(fam.at(0.1), res.projection)
print("slow-block eigenvalues:",
      np.array_str(np.sort(rep.eigenvalues_image.real), precision=4))
print("fast-block eigenvalue range:",
      f"[{rep.eigenvalues_kernel.real.min():.4f}, "
      f"{rep.eigenvalues_kernel.real.max():.4f}]")
