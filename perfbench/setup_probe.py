"""Time one fresh-interpreter set-up: import the package and build the models.

Prints the seconds from this script's first statement until the model,
covariance family and localization scheme of the workload exist.
``run.py`` starts it several times and reports the median as ``setup_s``.

    python3 perfbench/setup_probe.py <workload>
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports ou_jump_lab, numpy and scipy)

workloads.setup(sys.argv[1])
print(repr(perf_counter() - START))
