"""Set-up as a user pays it: a fresh interpreter imports markersim and loads
the workload's scenario, up to the start of the first run. ``run.py`` times
this script from outside to report ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import Workload  # noqa: E402

Workload(sys.argv[1], int(sys.argv[2])).close()
