"""The benchmark's arithmetic: from the harness's raw report to metrics.

The C++ harness (perfbench/harness) records raw observations only: host
seconds per pass, per point and per request, spans, exact simulated
counts. Everything statistical lives here, where
perfbench/test_benchlib.py pins it: medians and the tail-percentile
rule, span self time, ratios with their bases, the metric-name rule
and the BENCHMARK.json schema.
"""

import json
import re
import statistics

# ---- metric names and the BENCHMARK.json schema ----------------------

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}


def check_name(name):
    """Raise ValueError unless @p name follows the metric-name rule."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError(f"bad metric or workload name: {name!r}")
    return name


def validate_schema(doc):
    """Check a BENCHMARK.json document; returns it, raises ValueError."""
    if set(doc) != TOP_KEYS:
        raise ValueError(f"keys must be exactly {sorted(TOP_KEYS)}")
    cmd = doc["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or not all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        raise ValueError("command: 1..32 strings of <= 200 characters")
    for c in cmd:
        if c.startswith("/") or ".." in c.split("/"):
            raise ValueError(f"command escapes the repo: {c!r}")
    paths = doc["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        raise ValueError("paths: 1..16 directories")
    for p in paths:
        if (not isinstance(p, str) or not PATH_RE.match(p)
                or p.startswith("/") or ".." in p.split("/")):
            raise ValueError(f"bad path {p!r}")
    rs = doc["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        raise ValueError("run_seconds: a whole number from 1 to 60")
    seen = set()

    def unique(name):
        check_name(name)
        if name in seen:
            raise ValueError(f"name used twice: {name}")
        seen.add(name)

    wl = doc["workloads"]
    if not isinstance(wl, list) or not 2 <= len(wl) <= 8:
        raise ValueError("workloads: 2..8")
    for w in wl:
        if set(w) != {"name", "why"}:
            raise ValueError("a workload has exactly name and why")
        unique(w["name"])
        why = w["why"]
        if not isinstance(why, str) or "\n" in why or not 0 < len(why) <= 200:
            raise ValueError(f"bad why for {w['name']}")
    for section, lo, hi, keys in (
            ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
            ("per_layer", 1, 128, {"name", "unit", "better"})):
        ms = doc[section]
        if not isinstance(ms, list) or not lo <= len(ms) <= hi:
            raise ValueError(f"{section}: {lo}..{hi} metrics")
        for m in ms:
            if set(m) != keys:
                raise ValueError(f"{section} metric keys: {sorted(keys)}")
            unique(m["name"])
            if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
                raise ValueError(f"bad unit for {m['name']}")
            if m["better"] not in ("lower", "higher"):
                raise ValueError(f"better must be lower or higher: {m}")
            if section == "end_to_end":
                b = m["bound"]
                if (not isinstance(b, (int, float)) or isinstance(b, bool)
                        or not 0 < b <= 0.25):
                    raise ValueError(f"bound of {m['name']} not in (0, 0.25]")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise ValueError("end_to_end needs setup_s in s, lower is better")
    if len(json.dumps(doc).encode()) > 64 * 1024:
        raise ValueError("BENCHMARK.json larger than 64 KiB")
    return doc


def load_schema(path):
    with open(path, encoding="utf-8") as f:
        return validate_schema(json.load(f))


# ---- statistics --------------------------------------------------------

PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n):
    """The highest ladder percentile with at least ten of @p n samples
    strictly beyond it (None when even the median has fewer)."""
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def percentile(values, p):
    """@p p-th percentile, linear interpolation between order statistics
    (statistics.quantiles' "inclusive" method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if len(xs) == 1:
        return xs[0]
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def timing(values, p):
    """Median and p-th percentile of @p values with their sample count.
    Raises ValueError when fewer than ten samples lie beyond p."""
    n = len(values)
    best = tail_percentile(n)
    if best is None or best < p:
        raise ValueError(f"{n} samples cannot support p{p:g}")
    return {"p50": statistics.median(values), "tail": percentile(values, p),
            "percentile": p, "samples": n}


def ratio(num, base):
    """A ratio and the base it was taken over: (value, base)."""
    return (num / base if base else 0.0), base


# ---- spans -------------------------------------------------------------

def _union_length(intervals):
    total, end = 0.0, None
    start = None
    for s, e in sorted(intervals):
        if start is None or s > end:
            if start is not None:
                total += end - start
            start, end = s, e
        else:
            end = max(end, e)
    if start is not None:
        total += end - start
    return total


def self_times(spans):
    """Self time per span name: each span's duration minus the part of
    its interval its direct children cover (overlapping children count
    once). @p spans are rows [id, parent, name, start, end]."""
    children = {}
    for sid, parent, name, s, e in spans:
        children.setdefault(parent, []).append((s, e))
    out = {}
    for sid, parent, name, s, e in spans:
        covered = _union_length(
            (max(s, cs), min(e, ce)) for cs, ce in children.get(sid, [])
            if min(e, ce) > max(s, cs))
        out[name] = out.get(name, 0.0) + (e - s) - covered
    return out


def uncovered_share(spans, root, layers):
    """Share of the @p root spans' time that no span named in @p layers
    covers."""
    roots = [(s, e) for _, _, name, s, e in spans if name == root]
    wall = sum(e - s for s, e in roots)
    if wall <= 0:
        return 0.0
    covered = 0.0
    for rs, re_ in roots:
        covered += _union_length(
            (max(s, rs), min(e, re_)) for _, _, name, s, e in spans
            if name in layers and min(e, re_) > max(s, rs))
    return max(0.0, 1.0 - covered / wall)
