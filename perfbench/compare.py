"""Compare two saved benchmark results.

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Both files are results ``run.py`` wrote to ``perfbench/_out/``.  Prints,
per metric, both values and NEW/BASE.  Times measured on different hosts
are not comparable: when the host fingerprints (nproc, Python version,
platform) differ, a warning goes to standard error first.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint_warning(base: Dict[str, Any],
                        new: Dict[str, Any]) -> str:
    """A warning line when the two results come from different hosts."""
    if base.get("host") == new.get("host"):
        return ""
    return (f"perfbench: WARNING: host fingerprints differ, times are not "
            f"comparable: {base.get('host')} vs {new.get('host')}")


def rows(base: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    out = []
    for section in ("metrics", "per_layer"):
        for name, metric in base.get(section, {}).items():
            other = new.get(section, {}).get(name)
            if other is None:
                continue
            ratio = (other["value"] / metric["value"]
                     if metric["value"] else float("nan"))
            out.append(f"{name:>28} {metric['value']:14.6g} "
                       f"{other['value']:14.6g} {ratio:8.3f} "
                       f"{metric['unit']}")
    return out


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    warning = fingerprint_warning(base, new)
    if warning:
        print(warning, file=sys.stderr)
    print(f"{'metric':>28} {'base':>14} {'new':>14} {'new/base':>8}")
    for line in rows(base, new):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
