"""The benchmark's tracer still finds and restores every function it times.

``perfbench/tracing.py`` binds its span wrappers by module and function
name, so renaming or moving a traced function breaks ``run.py --trace 1``.
The module is loaded read-only from its file, as the benchmark runs it.
"""

import importlib

from helpers import perfbench_module

tracing = perfbench_module("tracing")
MODULES = {name: importlib.import_module(f"lecnce.{name}") for name in tracing.LECNCE_MODULES}


def test_every_span_is_bound_and_restored():
    before = {name: dict(vars(module)) for name, module in MODULES.items()}
    table = dict(MODULES["alignment"].DTW_ALGORITHMS)
    originals = {}
    for module_name, attr in tracing.SPANS:
        assert callable(before[module_name].get(attr)), f"lecnce.{module_name}.{attr} is gone"
        originals[module_name, attr] = before[module_name][attr]
    with tracing.traced(tracing.Tracer()):
        for (module_name, attr), original in originals.items():
            # the defining module, every module that imported the function by name, and the DTW table
            sites = [(MODULES[name], key) for name, names in before.items() for key, value in names.items()
                     if value is original]
            assert (MODULES[module_name], attr) in sites
            bound = [getattr(module, key) for module, key in sites]
            bound += [MODULES["alignment"].DTW_ALGORITHMS[key] for key, value in table.items() if value is original]
            for wrapper in bound:
                assert wrapper is not original and wrapper.__wrapped__ is original, (module_name, attr)
    for name, module in MODULES.items():
        assert [key for key, value in before[name].items() if vars(module).get(key) is not value] == [], name
    assert MODULES["alignment"].DTW_ALGORITHMS == table

