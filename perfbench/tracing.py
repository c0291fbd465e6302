"""Spans around the program's public functions, recorded from outside it.

Tracing replaces module attributes of the spiketrum package with timing
wrappers. The pipeline looks those attributes up at call time (for
example ``encode_stream`` calls ``encode_segment`` through the encoder
module's globals, and ``encode_segment`` calls ``correlate_all_fft`` the
same way), so calls made inside the package are traced as well. Nothing
in the package is edited.

Each span records its id, its parent span, the clip it belongs to, the
layer name, and start and end times. Spans stay in memory and are
written out once, when the run ends. A span opened on a pool worker
thread, whose own stack is empty, takes the span open on the tracer's
main thread (``encode_stream``) as its parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

# (module, attribute) pairs wrapped when tracing is on. All are public
# except fixed_point._correlate_raw_fft, the integer correlation, which is
# the only way to split the fixed datapath's correlation time from the
# rest of its pursuit loop.
POINTS = (
    ("kernel_bank", "build_bank"),
    ("audio_io", "read_wav"),
    ("audio_io", "write_wav"),
    ("encoder", "encode_stream"),
    ("encoder", "segment_stream"),
    ("encoder", "encode_segment"),
    ("encoder", "correlate_all_fft"),
    ("encoder", "find_best_code"),
    ("encoder", "subtract_component"),
    ("encoder", "write_codes_csv"),
    ("fixed_point", "encode_segment_fixed"),
    ("fixed_point", "_correlate_raw_fft"),
    ("fixed_point", "q_mul"),
    ("fixed_point", "to_fixed"),
    ("fixed_point", "to_float"),
    ("itp", "codes_to_spikes"),
    ("itp", "write_aer_binary"),
    ("itp", "read_aer"),
    ("decoder", "encoding_report"),
    ("decoder", "reconstruct_from_codes"),
    ("decoder", "reconstruct_from_spikes"),
)


def _segment_info(args, result):
    """(codes emitted, stopped before the spike budget) for one segment."""
    return len(result), len(result) < args[2].sps


# Per-span counts taken from a call's arguments and result. They are stored
# on the span rather than in a shared counter, because pool threads finish
# segments concurrently.
INFO = {
    "encoder.segment_stream": lambda args, result: len(result),
    "encoder.encode_segment": _segment_info,
    "fixed_point.encode_segment_fixed": _segment_info,
    "itp.codes_to_spikes": lambda args, result: len(result),
    "itp.write_aer_binary": lambda args, result: os.path.getsize(args[1]),
}


class Tracer:
    """Records spans while installed; create one per run."""

    def __init__(self, modules):
        self.spans = []
        self.clip = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = [self._wrap(modules[mod], mod, attr) for mod, attr in POINTS]

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, original, info, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = original(*args, **kwargs)
        except BaseException:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, self.clip, name, start, end, None))
            raise
        end = time.perf_counter()
        stack.pop()
        extra = info(args, result) if info is not None else None
        self.spans.append((span_id, parent, self.clip, name, start, end, extra))
        return result

    def _wrap(self, module, module_name, attr):
        original = getattr(module, attr)
        name = f"{module_name}.{attr}"
        info = INFO.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self._record(name, original, info, args, kwargs)

        return module, attr, original, traced

    def install(self):
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def call(self, name, fn, *args):
        """Run fn as a span of its own on the calling thread (a clip root)."""
        return self._record(name, fn, None, args, {})

    def write(self, path):
        """Write every span as one JSON line, times relative to the first start."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for span_id, parent, clip, name, start, end, extra in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "clip": clip, "name": name,
                    "start_s": start - origin, "end_s": end - origin,
                    "info": extra}) + "\n")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans):
    """Per layer name: calls, inclusive seconds, self seconds, and span infos.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; children running in parallel on pool threads are
    counted once where they overlap.
    """
    children = defaultdict(list)
    for span_id, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    layers = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "info": []})
    for span_id, _, _, name, start, end, extra in spans:
        layer = layers[name]
        layer["calls"] += 1
        layer["total_s"] += end - start
        layer["self_s"] += (end - start) - _covered(children[span_id], start, end)
        if extra is not None:
            layer["info"].append(extra)
    return layers
