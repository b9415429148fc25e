#!/usr/bin/env python3
"""Validate a Prometheus text-exposition dump produced by countlib's obs
exporter (obs::ToPrometheusText), e.g. the one example_pipeline_ingest
writes with --metrics_out. CI runs this over the example's dump before
uploading it as an artifact, so a malformed scrape or a violated
must-stay-zero invariant fails the job, not the dashboard.

Checks:
  - every non-comment line parses as ``name value`` or
    ``name{label="v",...} value`` with a finite numeric value;
  - metric names match the Prometheus grammar
    (``[a-zA-Z_:][a-zA-Z0-9_:]*``);
  - every sample is preceded by a ``# TYPE`` declaration for its family
    (histogram ``_bucket``/``_sum``/``_count`` samples belong to the base
    name), and no family is declared twice;
  - histograms are well-formed: cumulative bucket counts never decrease as
    ``le`` rises, a ``+Inf`` bucket exists, and it equals ``_count``;
  - must-stay-zero metrics read exactly zero when present: the five that
    src/obs/README.md marks (the pipeline's drop counter, its
    unaccounted-events gauge and its backstop-rescue counter, the server's
    decode-error counter and the loadgen's lost-events counter). CI runs
    this over healthy runs only, where all five must read 0;
  - ``--require`` names must be present, and a required histogram must be
    populated (``_count`` above 0); a required counter or gauge may read 0.

Usage:
  tools/promcheck.py metrics.prom [--require countlib_pipeline_events_applied_total]

Exit status: 0 = valid, 1 = violations found, 2 = bad invocation/input.
"""

import argparse
import math
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# name, optional {labels}, whitespace, value. Label values in our exporter
# never contain escaped quotes, so a non-greedy brace match is enough.
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*?\})?\s+(\S+)$")
TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$")
LE_RE = re.compile(r'le="([^"]*)"')

MUST_BE_ZERO = (
    "countlib_pipeline_events_dropped_total",
    "countlib_pipeline_unaccounted_events",
    "countlib_pipeline_backstop_rescues_total",
    "countlib_net_decode_errors_total",
    "countlib_loadgen_events_lost_total",
)


def family_of(name):
    """Maps a histogram series name to its declared family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def check(text, require=()):
    """Returns a list of violation strings (empty = the dump is valid)."""
    errors = []
    types = {}          # family -> declared type
    values = {}         # plain sample name -> float value
    buckets = {}        # family -> list of (le_float, le_raw, count)
    counts = {}         # family -> _count value

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            m = TYPE_RE.match(line)
            if m:
                name, kind = m.group(1), m.group(2)
                if name in types:
                    errors.append(f"line {lineno}: duplicate # TYPE for {name}")
                types[name] = kind
            # Other comments (# HELP, free text) are legal and ignored.
            continue
        m = SAMPLE_RE.match(line)
        if m is None:
            errors.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        name, labels, raw_value = m.group(1), m.group(2), m.group(3)
        if not NAME_RE.match(name):
            errors.append(f"line {lineno}: bad metric name {name!r}")
            continue
        try:
            value = float(raw_value)
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value {raw_value!r} "
                          f"for {name}")
            continue
        if math.isnan(value) or math.isinf(value):
            errors.append(f"line {lineno}: non-finite value for {name}")
            continue
        family = family_of(name)
        if family not in types:
            errors.append(f"line {lineno}: sample {name} has no preceding "
                          f"# TYPE {family}")
        if name.endswith("_bucket") and labels:
            le = LE_RE.search(labels)
            if le is None:
                errors.append(f"line {lineno}: bucket without le label: "
                              f"{line!r}")
                continue
            raw_le = le.group(1)
            le_value = math.inf if raw_le == "+Inf" else float(raw_le)
            buckets.setdefault(family, []).append((le_value, raw_le, value))
        elif name.endswith("_count") and family in types \
                and types[family] == "histogram":
            counts[family] = value
        else:
            values[name] = value

    for family, entries in sorted(buckets.items()):
        entries.sort(key=lambda e: e[0])
        last = -1.0
        for le_value, raw_le, count in entries:
            if count < last:
                errors.append(f"{family}: bucket le={raw_le} count {count:g} "
                              f"below previous {last:g} (not cumulative)")
            last = count
        if not entries or not math.isinf(entries[-1][0]):
            errors.append(f"{family}: no le=\"+Inf\" bucket")
        elif family in counts and entries[-1][2] != counts[family]:
            errors.append(f"{family}: +Inf bucket {entries[-1][2]:g} != "
                          f"_count {counts[family]:g}")
        if family in types and types[family] != "histogram":
            errors.append(f"{family}: has buckets but TYPE is "
                          f"{types[family]}")

    for name in MUST_BE_ZERO:
        if name in values and values[name] != 0:
            errors.append(f"{name}: must stay zero, reads {values[name]:g}")

    for name in require:
        if name not in values and family_of(name) not in types:
            errors.append(f"required metric {name} is missing")
        elif types.get(name) == "histogram" and counts.get(name, 0) == 0:
            errors.append(f"required histogram {name} is empty (_count 0)")

    return errors


def main():
    parser = argparse.ArgumentParser(
        description="validate a countlib Prometheus text dump")
    parser.add_argument("file", help="the .prom text file to validate")
    parser.add_argument("--require", action="append", default=[],
                        metavar="NAME",
                        help="fail unless this metric is present, and "
                             "for a histogram populated (repeatable)")
    args = parser.parse_args()

    try:
        with open(args.file) as f:
            text = f.read()
    except OSError as e:
        print(f"promcheck: cannot read {args.file}: {e}", file=sys.stderr)
        return 2
    if not text.strip():
        print(f"promcheck: {args.file} is empty", file=sys.stderr)
        return 2

    errors = check(text, require=args.require)
    for err in errors:
        print(f"promcheck: {err}")
    families = len({family_of(n) for n in re.findall(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)", text, flags=re.M)})
    print(f"promcheck: {args.file}: {families} metric families, "
          f"{len(errors)} violation(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
