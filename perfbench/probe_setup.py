"""Time one cold set-up of a workload in a fresh interpreter.

Prints the raw seconds and the seconds at reference speed. run.py starts
this a few times to report the median set-up time:

    python3 perfbench/probe_setup.py certify 1
"""

import sys

from run import timed_setup
from workloads import WORKLOADS

if __name__ == "__main__":
    print(*timed_setup(WORKLOADS[sys.argv[1]](int(sys.argv[2]))))
