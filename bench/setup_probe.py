"""Time what every CLI invocation pays: import, parse_network, build_structure.

    python3 bench/setup_probe.py DOC.json [DOC.json ...]

Starts its clock before `import odadjust` and prints the seconds until every
document is parsed and its structure matrices are built.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import odadjust  # noqa: E402

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        odadjust.build_structure(odadjust.parse_network(fh.read()))
print(repr(time.perf_counter() - T0))
