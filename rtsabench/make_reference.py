#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks on its default seed (reference.json).

For each workload, rep 0 of ``workloads.DEFAULT_SEED`` is run once and its
checked outputs are stored: exact confusion counts for ``evaluate``, the
trained weights for ``learn``, the calibrated wind and iteration count for
``calibrate``. Regenerate only when a change to the library is meant to move
these numbers, and say so where the change is recorded.

    python3 rtsabench/make_reference.py    # rewrites rtsabench/reference.json
"""

import json

import workloads


def main():
    seed = workloads.DEFAULT_SEED
    reference = {"seed": seed, "backend": workloads.fastpath.BACKEND}
    for name, wl in workloads.WORKLOADS.items():
        ctx = wl.setup(seed)
        reference[name] = wl.summary(wl.call(ctx, wl.inputs(seed, 0)))
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH.name} for seed {seed}")


if __name__ == "__main__":
    main()
