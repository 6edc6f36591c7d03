"""One set-up in a fresh process: import fedunlearn, parse the scenario,
prepare the data and build the architecture. Prints the seconds it took.

Usage: python3 perfbench/setup_probe.py SRC_DIR SCENARIO_INI
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from fedunlearn.cli import build_arch, parse_scenario, prepare_data

    scenario = parse_scenario(sys.argv[2])
    train, _, _ = prepare_data(scenario)
    build_arch(scenario, train)
    print(repr(time.perf_counter() - start))
