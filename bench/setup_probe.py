"""Time one workload set-up in a fresh interpreter: import vargram, build the systems.

Usage: python3 bench/setup_probe.py PLAN_FILE
PLAN_FILE is JSON with "modules" to import, "registry" names to build and
"specs" (--spec documents as text) to parse and build.  Only the standard
library is loaded before the clock starts, so numpy and scipy imports
count as set-up.  Afterwards the reference computation of speed.py runs a
few times; prints the set-up time and the median reference time as JSON.
"""

import importlib
import json
import sys
import time
from pathlib import Path

REFERENCE_SAMPLES = 15


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    for name in plan["modules"]:
        importlib.import_module(name)
    from vargram.expr import parse_system_spec
    from vargram.systems import from_spec, registry

    built = [registry(name) for name in plan["registry"]]
    built += [from_spec(parse_system_spec(text)) for text in plan["specs"]]
    elapsed = time.perf_counter() - start

    from speed import reference

    samples = []
    for _ in range(REFERENCE_SAMPLES):
        begin = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - begin)
    samples.sort()
    print(json.dumps({"setup_s": elapsed, "reference_s": samples[len(samples) // 2],
                      "systems": len(built)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
