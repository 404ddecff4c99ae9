"""The traced benchmark wraps lcmsim functions at the names their callers
look them up by (``perfbench/layers.py``). A deletion or rename that
breaks one of those lookups would crash ``perfbench/run.py --trace 1``;
this test catches it in the main suite."""

import ast
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


def test_every_import_kept_as_a_traced_site_is_traced():
    """An import that src keeps only for the tracer must name a traced site,
    so the import goes stale the day the benchmark stops tracing it."""
    traced = {site for sites, _ in load_layers().TRACED.values() for site in sites}
    src = Path(__file__).resolve().parents[1] / "src" / "lcmsim"
    kept = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if "kept as a traced site" in lines[alias.lineno - 1]:
                        kept.append(f"lcmsim.{path.stem}:{alias.asname or alias.name}")
    assert kept, "no import is marked as kept for a traced site"
    stale = [site for site in kept if site not in traced]
    assert not stale, stale
