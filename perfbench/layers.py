"""Per-layer tracing of lcmsim from outside the package.

``Tracer.install`` replaces each traced function with a wrapper at the
name its callers look it up by (``lcmsim.simulation.measure_csi``,
``lcmsim.container.write_container``, a class attribute for methods).
Every call appends one span to an in-memory list: layer key, start and
end in ``perf_counter_ns``, the index of the enclosing span, and a
measured value (bytes for container calls, 1 for a failed action).
Spans are written out once, when the worker ends, and turned into
metrics by ``summarize``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np


def _len_arg(args, result):
    return len(args[0])


def _len_result(args, result):
    return len(result)


def _action_failed(args, result):
    return int(result is not None and getattr(result.kind, "value", "") == "ActionFailed")


# layer key -> (lookup sites, measured value). A site is
# "module:attribute" or "module:Class.method".
TRACED = {
    "channel.generate_trace": (["lcmsim.simulation:generate_trace"], None),
    "channel.measure_csi": (["lcmsim.simulation:measure_csi"], None),
    "streams.substream": (["lcmsim.channel:substream"], None),
    "kpi.derive_input_descriptor": (
        ["lcmsim.simulation:derive_input_descriptor", "lcmsim.models:derive_input_descriptor"],
        None,
    ),
    "kpi.descriptor_divergence": (
        ["lcmsim.simulation:descriptor_divergence", "lcmsim.registry:descriptor_divergence"],
        None,
    ),
    "kpi.sgcs": (
        ["lcmsim.simulation:sgcs", "lcmsim.controller:sgcs", "lcmsim.monitoring:sgcs"],
        None,
    ),
    "models.predict_csi": (["lcmsim.simulation:predict_csi"], None),
    "models.train_predictor": (["lcmsim.simulation:train_predictor"], None),
    "models.fit_adaptation_delta": (["lcmsim.simulation:fit_adaptation_delta"], None),
    "models.apply_delta": (["lcmsim.controller:apply_delta"], None),
    "models.verify_package": (["lcmsim.registry:verify_package"], None),
    "monitoring.MonitoringSession.evaluate": (["lcmsim.monitoring:MonitoringSession.evaluate"], None),
    "controller.decide": (["lcmsim.simulation:decide"], None),
    "controller.decide_reactivation": (["lcmsim.simulation:decide_reactivation"], None),
    "controller.execute": (["lcmsim.simulation:execute"], _action_failed),
    "controller.legacy_csi_report": (["lcmsim.simulation:legacy_csi_report"], None),
    "registry.store": (["lcmsim.registry:ModelRegistry.store"], None),
    "registry.fetch_by_descriptor": (["lcmsim.registry:ModelRegistry.fetch_by_descriptor"], None),
    "registry.fetch_by_id": (["lcmsim.registry:ModelRegistry.fetch_by_id"], None),
    "registry.activate": (["lcmsim.registry:ModelRegistry.activate"], None),
    "container.read_container": (["lcmsim.container:read_container"], _len_arg),
    "container.write_container": (["lcmsim.container:write_container"], _len_result),
    "container.payload_checksum": (["lcmsim.container:payload_checksum"], _len_arg),
    "simulation.run_scenario": (["lcmsim.cli:run_scenario"], None),
    "simulation.write_metrics": (["lcmsim.cli:write_metrics"], None),
    "simulation.write_events": (["lcmsim.cli:write_events"], None),
    "config.load_scenario_config": (["lcmsim.cli:load_scenario_config"], None),
}

# Container calls hash a whole package once each (SHA-256).
HASH_PASSES = ("container.read_container", "container.write_container", "container.payload_checksum")
# Spans that build or store a package; hash passes under them are paid per store.
STORE_PATH = ("registry.store", "models.train_predictor", "models.apply_delta")

# Hot per-slot functions whose latency distribution is reported. Each
# has at least 1,000 calls in one traced round of every workload.
PERCENTILE_KEYS = ("channel.measure_csi", "streams.substream", "kpi.sgcs", "models.predict_csi")
PERCENTILE_MIN_CALLS = 1000
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)


def _resolve(site: str):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Wraps the functions in ``TRACED``; spans stay in memory."""

    def __init__(self) -> None:
        self.keys = list(TRACED)
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for key_id, key in enumerate(self.keys):
            sites, value_of = TRACED[key]
            for site in sites:
                owner, attr = _resolve(site)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(key_id, original, value_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, key_id: int, fn, value_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [key_id, 0, 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if value_of is not None:
                record[4] = value_of(args, result)
            return result

        return traced

    def dump(self, prefix: str) -> None:
        """Write spans to ``<prefix>.npy`` and key names to ``<prefix>.json``."""
        np.save(prefix + ".npy", np.asarray(self.spans, dtype=np.int64).reshape(-1, 5))
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(self.keys, fh)


def load_spans(prefix: str) -> tuple[list[str], np.ndarray]:
    with open(prefix + ".json", encoding="utf-8") as fh:
        keys = json.load(fh)
    return keys, np.load(prefix + ".npy")


def _under(spans: np.ndarray, ancestor_ids: set[int]) -> np.ndarray:
    """Mask of spans with an ancestor whose key is in ``ancestor_ids``.

    A parent is recorded before its children, so one forward pass works.
    """
    keys = spans[:, 0].tolist()
    parents = spans[:, 3].tolist()
    flag = [False] * len(keys)
    for i, parent in enumerate(parents):
        if parent >= 0:
            flag[i] = flag[parent] or keys[parent] in ancestor_ids
    return np.asarray(flag, dtype=bool)


def summarize(keys: list[str], spans: np.ndarray,
              rounds: int) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics for one traced worker, as {name: (value, unit)},
    and the percentile each ``.tail_us`` metric reports, as {key: pct}.

    Counts and times are per round, one pass over the workload's
    scenarios; rounds are identical, so counts are exact integers.
    """
    index = {key: i for i, key in enumerate(keys)}
    key_col = spans[:, 0]
    dur_ns = spans[:, 2] - spans[:, 1]
    out: dict[str, tuple[float, str]] = {}
    tails: dict[str, float] = {}

    def count(key, mask=None):
        sel = key_col == index[key]
        return int(np.count_nonzero(sel if mask is None else sel & mask))

    for key in keys:
        sel = key_col == index[key]
        out[f"{key}.calls"] = (count(key) / rounds, "count")
        out[f"{key}.total_s"] = (float(dur_ns[sel].sum()) / 1e9 / rounds, "s")

    for key in PERCENTILE_KEYS:
        samples = dur_ns[key_col == index[key]] / 1e3
        n = samples.size
        p50 = tail = tail_us = 0.0  # too few samples: only in shortened smoke runs
        if n >= PERCENTILE_MIN_CALLS:
            tail = next(p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10)
            p50, tail_us = np.percentile(samples, [50, tail])
        out[f"{key}.p50_us"] = (float(p50), "us")
        out[f"{key}.tail_us"] = (float(tail_us), "us")
        tails[key] = tail

    # Self time of run_scenario: its spans minus their direct children.
    run_id = index["simulation.run_scenario"]
    run_rows = np.flatnonzero(key_col == run_id)
    child = np.isin(spans[:, 3], run_rows)
    self_ns = dur_ns[run_rows].sum() - dur_ns[child].sum()
    out["simulation.run_scenario.self_s"] = (float(self_ns) / 1e9 / rounds, "s")

    fails = spans[key_col == index["controller.execute"], 4].sum()
    out["controller.execute.action_failed"] = (float(fails) / rounds, "count")
    for key in HASH_PASSES:
        sel = key_col == index[key]
        out[f"{key}.bytes"] = (float(spans[sel, 4].sum()) / rounds, "B")

    lookups = count("registry.fetch_by_descriptor")
    in_lookup = _under(spans, {index["registry.fetch_by_descriptor"]})
    reads = count("container.read_container", in_lookup)
    out["registry.reads_per_lookup"] = (reads / lookups if lookups else 0.0, "reads/lookup")

    stores = count("registry.store")
    in_store = _under(spans, {index[k] for k in STORE_PATH})
    passes = sum(count(k, in_store) for k in HASH_PASSES)
    out["container.checksum_passes_per_store"] = (passes / stores if stores else 0.0, "passes/store")
    return out, tails
