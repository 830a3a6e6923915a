"""Set-up time of a fresh process, printed in seconds.

Usage: python3 bench/setup_probe.py ROOT

Times, from the first line of this script, importing flmech from ROOT/src,
`load_config(ROOT/configs/default.cfg)` and `new_world`: what every user of
the library pays before the first round.
"""

import sys
import time

t0 = time.perf_counter()
root = sys.argv[1]
sys.path.insert(0, f"{root}/src")
import flmech  # noqa: E402

flmech.new_world(flmech.load_config(f"{root}/configs/default.cfg"))
print(time.perf_counter() - t0)
