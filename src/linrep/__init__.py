"""Multi-task linear representation learning with gradient-based meta-learning.

The package studies ``y = <theta, x> + noise`` tasks whose optimal
parameters ``theta = B* w*`` share a low-dimensional representation
``B*``.  It provides:

- :mod:`linrep.env` — seeded task environments, task batches, datasets;
- :mod:`linrep.model` — parameters, losses, gradients, initialization;
- :mod:`linrep.algorithms` — outer-loop updates for four meta-learning
  variants plus an average-risk baseline, in population and finite-sample
  modes, and the trajectory driver;
- :mod:`linrep.metrics` — subspace distances, spectral diagnostics, and
  trajectory-condition checking;
- :mod:`linrep.harness` — JSON-configured experiments with deterministic
  CSV/JSON/SVG artifacts (CLI: ``linrep``).

Every name a module lists in its ``__all__`` is re-exported here.
"""
from . import algorithms, env, harness, metrics, model, rng
from .algorithms import *  # noqa: F403
from .env import *  # noqa: F403
from .harness import *  # noqa: F403
from .metrics import *  # noqa: F403
from .model import *  # noqa: F403
from .rng import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (env, model, algorithms, metrics, harness, rng):
    __all__ += _module.__all__
del _module
