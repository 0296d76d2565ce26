"""Bayesian low-rank matrix reconstruction with Kronecker-structured priors.

Each name is imported from its module (``from rsvm.core import solve``):

* ``core``: the full solver and the iteration loop the Bayesian solvers share.
* ``accel``: the accelerated solver, a block descent over column groups.
* ``symmetric``: the single-precision solver for symmetric matrices.
* ``nuclear``: the constrained nuclear-norm baseline (FISTA + bisection).
* ``kronops``: vec/unvec, ``Prior`` and the structured posterior covariances.
* ``sensing``: measurement operators, synthetic instances and their JSON form.
* ``bench``: the sweep driver that ``rsvm.cli`` (not imported here) runs.

Dense references are test oracles in ``tests/naive_oracles.py``.
"""

from . import accel, bench, core, kronops, nuclear, sensing, symmetric
