"""The traced benchmark wraps lcmsim functions at the names their callers
look them up by (``perfbench/layers.py``). A deletion or rename that
breaks one of those lookups would crash ``perfbench/run.py --trace 1``;
this test catches it in the main suite."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    layers = load_layers()
    broken = []
    for sites, _ in layers.TRACED.values():
        for site in sites:
            try:
                owner, attr = layers._resolve(site)
                target = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError) as exc:
                broken.append(f"{site}: {exc!r}")
                continue
            if not callable(target) or target.__name__ != attr:
                broken.append(f"{site}: resolves to {target!r}")
    assert not broken, "\n".join(broken)
