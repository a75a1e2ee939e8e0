"""Set-up probe: one fresh interpreter that imports rootfold and builds
the inputs of a workload, then prints "ready".  run.py times it from
process start to that line to measure setup_s.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(HERE.parent / "src"))
    import rootfold  # noqa: F401  (the import is part of what is timed)
    import workloads
    workloads.WORKLOADS[workload](seed, workdir)
    sys.stdout.write("ready\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
