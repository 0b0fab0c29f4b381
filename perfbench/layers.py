"""Attributes SIGPROF samples to the repository's layers.

The driver's sampler (sampler.cc) writes one line per sample: the leaf frame
first, then its callers. A frame is `b<hex>`, an address inside the driver
binary relative to its load base, or `x`, a frame outside the binary (libc,
the allocator, the loader).

Each sample is charged to the innermost *repository* frame: the first frame,
walking from the leaf outwards and through the inline chain `addr2line -i`
reports for each address, whose source file lies under the repository's
`src/`, `bench/` or `perfbench/`. A sample whose leaf is outside the binary
is charged the same way, to its nearest repository caller, and also counts
toward the `runtime` share. A sample with no repository frame at all is
unattributed.
"""

import os
import subprocess
from collections import Counter

# src/<module>/<file> -> layer. Files not listed fall back to their module's
# entry, then to "other".
FILE_LAYERS = {
    "src/sim/machine.h": "machine",
    "src/sim/machine.cc": "machine",
    "src/util/cpu_set.h": "cpu_set",
    "src/util/cpu_set.cc": "cpu_set",
    "src/util/stats.h": "stats",
    "src/util/stats.cc": "stats",
}
MODULE_LAYERS = {
    "sim": "sim",
    "disk": "disk",
    "perfiso": "perfiso",
    "platform": "platform",
    "net": "net",
    "indexserve": "indexserve",
    "cluster": "cluster",
    "workload": "workload",
    "util": "util",
}

# Every layer a share is reported for, in report order.
LAYERS = ("sim", "machine", "cpu_set", "disk", "perfiso", "platform", "net",
          "indexserve", "cluster", "workload", "stats", "util", "other")

OUTSIDE = "x"


def layer_for_path(path, root):
    """Layer of a source file, or None if the file is not repository code."""
    if not path or path.startswith("??"):
        return None
    rel = os.path.relpath(os.path.normpath(path), root)
    parts = rel.split(os.sep)
    if parts[0] in ("bench", "perfbench"):
        return "other"
    if parts[0] != "src" or len(parts) < 3:
        return None
    rel = "/".join(parts)
    if rel in FILE_LAYERS:
        return FILE_LAYERS[rel]
    return MODULE_LAYERS.get(parts[1], "other")


def parse_sample_line(line):
    """One sample line -> list of frames: an int offset, or OUTSIDE."""
    frames = []
    for token in line.split():
        frames.append(OUTSIDE if token == OUTSIDE else int(token[1:], 16))
    return frames


def lookup_addresses(binary, addresses):
    """Runs addr2line once; returns {address: [file, ...]} innermost first."""
    if not addresses:
        return {}
    ordered = sorted(addresses)
    proc = subprocess.run(
        ["addr2line", "-e", binary, "-i", "-f", "-a"],
        input="".join("%x\n" % a for a in ordered),
        capture_output=True, text=True, check=True)
    chains = {}
    current = None
    lines = proc.stdout.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("0x"):
            current = int(line, 16)
            chains[current] = []
            i += 1
            continue
        # A function-name line followed by its file:line.
        location = lines[i + 1] if i + 1 < len(lines) else "??:0"
        chains[current].append(location.rsplit(":", 1)[0])
        i += 2
    return chains


def frame_address(frame, depth):
    """Address to look up: callers hold return addresses, so step back one
    byte into the call instruction."""
    return frame if depth == 0 else frame - 1


def attribute(samples, chains, root):
    """Charges each sample to a layer; returns (Counter of layers,
    runtime sample count, unattributed count)."""
    counts = Counter()
    runtime = 0
    unattributed = 0
    for frames in samples:
        if frames and frames[0] == OUTSIDE:
            runtime += 1
        layer = None
        for depth, frame in enumerate(frames):
            if frame == OUTSIDE:
                continue
            for path in chains.get(frame_address(frame, depth), ()):
                layer = layer_for_path(path, root)
                if layer is not None:
                    break
            if layer is not None:
                break
        if layer is None:
            unattributed += 1
        else:
            counts[layer] += 1
    return counts, runtime, unattributed


def load_samples(paths):
    samples = []
    for path in paths:
        with open(path) as f:
            samples.extend(parse_sample_line(line) for line in f if line.strip())
    return samples


def layer_shares(binary, sample_paths, root):
    """Resolves sample files of one workload; returns ({metric: value}, total)."""
    samples = load_samples(sample_paths)
    addresses = {frame_address(f, d)
                 for frames in samples for d, f in enumerate(frames) if f != OUTSIDE}
    chains = lookup_addresses(binary, addresses)
    counts, runtime, unattributed = attribute(samples, chains, root)
    total = len(samples)
    share = (lambda n: n / total) if total else (lambda n: 0.0)
    metrics = {"%s.self_share" % layer: share(counts[layer]) for layer in LAYERS}
    metrics["runtime.self_share"] = share(runtime)
    metrics["trace.unattributed_share"] = share(unattributed)
    return metrics, total
