#!/usr/bin/env python3
"""The bundled example studies: one sweep and one comparison series per value.

* hoop: the ball-in-hoop with mu = m = 1, spin rate 0.1 and g = 9.81 from
  (0.5, 0.3), full dynamics against the one-dimensional reduced model for
  R in {5, 10, 20, 40} over 20 seconds. The deviation supremum shrinks as the
  hoop radius grows.
* cart: the four-state cart-pendulum against its bundled linear reduced model
  for cart friction d in {0.001, 0.01, 0.1, 1} with M=2 and m=R=k=b=1, from
  (1, 0, 0.5, 0), over 30 seconds. The reduced model spirals into the origin
  at a rate set by d, and the projected full trajectories stay within a
  bounded distance of it.

Each study writes results/<table>.csv and one series
results/<prefix><value>.csv per value, ready for any external plotter, e.g.

    python3 -c "import pandas as pd, matplotlib.pyplot as plt; \\
        df = pd.read_csv('results/hoop_compare_R5.csv', comment='#'); \\
        df.plot(x='t', y=['full_proj_0', 'reduced_0']); plt.show()"
"""

import pathlib
import sys

from approxred.cli import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

# system, swept parameter, its values, table name, series prefix, shared flags
STUDIES = [
    ("ball-hoop", "R", (5.0, 10.0, 20.0, 40.0), "hoop_radius_sweep", "hoop_compare_R",
     ["--x0", "0.5,0.3", "--t-end", "20"]),
    ("cart-pendulum", "d", (0.001, 0.01, 0.1, 1.0), "cart_friction_sweep", "cart_compare_d",
     ["--t-end", "30"]),
]


def run() -> int:
    RESULTS.mkdir(exist_ok=True)
    for system, param, values, table, prefix, flags in STUDIES:
        runs = [["sweep", "--system", system, "--param", param,
                 "--values", ",".join(str(v) for v in values), *flags,
                 "--out", str(RESULTS / f"{table}.csv")]]
        runs += [["compare", "--system", system, "--set", f"{param}={v}", *flags,
                  "--out", str(RESULTS / f"{prefix}{v:g}.csv")] for v in values]
        for argv in runs:
            rc = main(argv)
            if rc != 0:
                return rc
        print(f"wrote {RESULTS}/{table}.csv and its {len(values)} series")
    return 0


if __name__ == "__main__":
    sys.exit(run())
