"""Every call the benchmark's per-layer wrappers are meant to see goes
through the name they wrap.

``bench/child.py`` is run from its file, read only.  Each name in its
``WRAPPED`` is replaced by a counter on the module or class the benchmark
wraps, which is where its callers look it up; then the benchmark's own
``run_once`` runs every bundled scenario, and ``intra_area_handoff`` once
more with ``reflect_to_previous_ler``.  A caller that bound a wrapped name
at import time, or a wrapped method no scenario reaches any more, leaves a
counter at zero.
"""

import functools
import importlib
import json
import runpy
from collections import Counter
from pathlib import Path

from hmlbn.scenarios import BUNDLED_SCENARIOS

ROOT = Path(__file__).resolve().parent.parent
CHILD = runpy.run_path(str(ROOT / "bench" / "child.py"))


def _counted(fn, key, calls):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return counted


def test_every_wrapped_name_is_called_where_it_is_wrapped(monkeypatch,
                                                           tmp_path):
    calls = Counter()
    keys = []
    for module_name, cls_name, attr, _ in CHILD["WRAPPED"]:
        module = importlib.import_module(f"hmlbn.{module_name}")
        owner = getattr(module, cls_name) if cls_name else module
        key = f"{module_name}.{cls_name or ''}.{attr}"
        keys.append(key)
        monkeypatch.setattr(owner, attr,
                            _counted(getattr(owner, attr), key, calls))

    doc = json.loads((ROOT / "scenarios" / "intra_area_handoff.json")
                     .read_text(encoding="utf-8"))
    doc.setdefault("flags", {})["reflect_to_previous_ler"] = True
    reflect = tmp_path / "reflect.json"
    reflect.write_text(json.dumps(doc), encoding="utf-8")
    paths = [ROOT / "scenarios" / f"{name}.json"
             for name in sorted(BUNDLED_SCENARIOS)] + [reflect]
    for i, path in enumerate(paths):
        out = tmp_path / str(i)
        out.mkdir()
        CHILD["run_once"](path, out)

    assert len(paths) == 9
    assert [key for key in keys if not calls[key]] == []
