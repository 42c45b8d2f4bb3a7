"""``bench.py compare BASE.json HEAD.json``: judge a change per metric.

Both files are ``bench.py run`` results.  For every (end-to-end metric,
workload) pair the report gives each side's value and the IQR of its
raw per-repetition samples (how loud the host was), and a verdict
against the metric's bound from ``BENCHMARK.json``:

* ``worse``: the head is worse than the base by more than the bound;
* ``better``: the head is better by more than :data:`NOISE_SHARE` of
  the bound, the benchmark's own run-to-run spread;
* ``unchanged``: neither;
* ``unresolved``: the gain is within the bound while the layer that
  moved most is one whose share of the time (kernel, seccomp, net,
  scheduler: a few percent at most) cannot account for it.

The simulated outputs must not move at all: a digest or ``sim.*``
difference is reported as a change of the model.  Then the per-layer
shares are diffed and the layer whose self time moved most is named.
"""

from __future__ import annotations

import json
import pathlib
import statistics

#: Layers too small to explain a gain below the bound (see README).
SMALL_LAYERS = ("os.kernel", "os.seccomp", "os.net", "runtime.scheduler")
#: The benchmark's own run-to-run spread, as a share of each bound.  Over
#: ten seeds the widest spread was 13.9% (``host_req_p99_us``, README),
#: below 0.6 of its bound of 0.25, so a smaller change is not told apart
#: from noise.
NOISE_SHARE = 0.6


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _rel_iqr(samples: list[float]) -> float:
    return iqr(samples) / statistics.median(samples)


def _layers(detail: dict) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for key, value in detail.get("per_layer", {}).items():
        layer, _, field = key.rpartition(".")
        if field in ("self_s", "share"):
            out.setdefault(layer, {})[field] = value
    return out


def moved_layer(base: dict, head: dict) -> tuple[str, float] | None:
    """The layer whose self time changed most, with the change (s)."""
    base_layers, head_layers = _layers(base), _layers(head)
    deltas = {layer: head_layers[layer]["self_s"] - row["self_s"]
              for layer, row in base_layers.items() if layer in head_layers}
    if not deltas:
        return None
    layer = max(deltas, key=lambda name: abs(deltas[name]))
    return layer, deltas[layer]


def verdict(better: str, bound: float, base: dict, head: dict,
            small_layer_moved: bool) -> tuple[str, float]:
    """``(verdict, change)``; ``change`` > 0 means the head is worse."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (head["value"] - base["value"]) / base["value"]
    if change > bound:
        return "worse", change
    if -change <= bound * NOISE_SHARE:
        return "unchanged", change
    if -change <= bound and small_layer_moved:
        return "unresolved", change
    return "better", change


def compare(spec: dict, base_path: pathlib.Path,
            head_path: pathlib.Path) -> int:
    base_all = json.loads(base_path.read_text())["workloads"]
    head_all = json.loads(head_path.read_text())["workloads"]
    status = 0
    print(f"{'workload':<13} {'metric':<16} {'base (raw IQR)':>22} "
          f"{'head (raw IQR)':>22} {'change':>8} {'bound':>6}  verdict")
    for name in (w["name"] for w in spec["workloads"]):
        if name not in base_all or name not in head_all:
            print(f"{name:<13} missing from one side")
            continue
        base, head = base_all[name], head_all[name]
        moved = moved_layer(base, head)
        small = moved is not None and moved[0] in SMALL_LAYERS
        for metric in spec["end_to_end"]:
            key = metric["name"]
            b, h = base["end_to_end"][key], head["end_to_end"][key]
            result, change = verdict(metric["better"], metric["bound"],
                                     b, h, small)
            status |= result == "worse"
            base_iqr = _rel_iqr(b["samples"]) * b["value"]
            head_iqr = _rel_iqr(h["samples"]) * h["value"]
            print(f"{name:<13} {key:<16} "
                  f"{b['value']:>11.5g} ({base_iqr:>8.3g}) "
                  f"{h['value']:>11.5g} ({head_iqr:>8.3g}) "
                  f"{100 * change:>+7.1f}% {metric['bound']:>6.2f}  {result}")
        if base["digest"] != head["digest"] or base["sim"] != head["sim"]:
            status = 1
            print(f"{name:<13} simulated outputs CHANGED "
                  f"(digest {base['digest'][:12]} -> {head['digest'][:12]})")
        counts = sorted(
            key for key, value in base.get("per_layer", {}).items()
            if isinstance(value, int)
            and head.get("per_layer", {}).get(key) != value)
        if counts:
            print(f"{name:<13} counts moved: {', '.join(counts)}")
    print()
    print("per-layer shares of the traced repetition (base -> head):")
    for name in (w["name"] for w in spec["workloads"]):
        if name not in base_all or name not in head_all:
            continue
        base, head = base_all[name], head_all[name]
        moved = moved_layer(base, head)
        if moved is None:
            continue
        base_layers, head_layers = _layers(base), _layers(head)
        row = ", ".join(
            f"{layer} {base_layers[layer]['share']:.3f}->"
            f"{head_layers[layer]['share']:.3f}"
            for layer in base_layers if layer in head_layers)
        print(f"  {name}: {row}")
        print(f"  {name}: self time moved most in {moved[0]} "
              f"({moved[1]:+.3f} s)")
    return status
