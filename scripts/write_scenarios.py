#!/usr/bin/env python3
"""Regenerate the bundled scenario and pattern files under scenarios/.

    python3 scripts/write_scenarios.py

The checked-in JSON must stay in sync with the builders of
BUNDLED_SCENARIOS and BUNDLED_PATTERNS in hmlbn.scenarios; tests compare
them.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, installed or not

from hmlbn.scenarios import BUNDLED_PATTERNS, BUNDLED_SCENARIOS  # noqa: E402


def main():
    scenario_dir = ROOT / "scenarios"
    pattern_dir = scenario_dir / "patterns"
    pattern_dir.mkdir(parents=True, exist_ok=True)
    for name, builder in BUNDLED_SCENARIOS.items():
        path = scenario_dir / f"{name}.json"
        path.write_text(json.dumps(builder(), indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    for name, builder in BUNDLED_PATTERNS.items():
        path = pattern_dir / f"{name}.json"
        doc = {"name": name, "items": builder()}
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
