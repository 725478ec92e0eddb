"""The benchmark's traced run can still wrap every entry point it names.

``bench/spans.py`` replaces each name in its ``LAYERS`` table by a timing
wrapper, in every ``puiseux`` module that holds it.  A refactor that
renames, moves or turns one of those functions into something else would
break ``bench/run.py --trace 1``; this test loads the file as it is and
installs and removes the wrappers.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _home_attribute(layer, qualname):
    home = importlib.import_module(f"puiseux.{layer}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return vars(getattr(home, cls_name))[attr]
    return getattr(home, qualname)


def test_tracer_wraps_every_layer_entry_point():
    importlib.import_module("puiseux.cli")
    spans = _load_spans()
    names = [(layer, q) for layer, qualnames in spans.LAYERS.items() for q in qualnames]
    originals = {name: _home_attribute(*name) for name in names}
    tracer = spans.Tracer()
    try:
        tracer.install()
        for name in names:
            wrapped = _home_attribute(*name)
            assert getattr(wrapped, "__wrapped__", None) is originals[name], name
    finally:
        tracer.uninstall()
    for name in names:
        assert _home_attribute(*name) is originals[name], name
