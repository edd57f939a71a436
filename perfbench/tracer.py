"""Spans around the public functions of each cadts module, recorded from
outside the program by patching names.

A function is patched under every name any loaded ``cadts`` module binds
it to (``cadts.train`` imports ``adam_step`` into its own namespace, so
``cadts.train.adam_step`` is replaced as well as
``cadts.numcore.optim.adam_step``); methods are patched on their class.
Each span records its name, start, end and the index of its parent span.
Spans stay in memory until ``dump``. The program is single-threaded per
process, so one stack of open spans per tracer is enough.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time


def _forward_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    return f"model.forward_{mode}"


def _best_f1_name(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "pa")
    return f"evaluate.best_f1.{mode}"


def _windows_in(args, kwargs):
    return {"windows": len(kwargs["windows"] if "windows" in kwargs else args[1])}


def _tape_records(args, kwargs):
    # the tape's private record list; None if a later tape renames it, which
    # the run's layer check reports as a failure
    records = getattr(args[0], "_records", None)
    return {"records": None if records is None else len(records)}


def _rows_out(result):
    return {"rows": result.shape[0]}


# (module, attribute, span name, attrs from the call, attrs from the result);
# "Class.method" attributes are patched on the class
TARGETS = [
    ("cadts.data", "load_series", "data.load_series", None, _rows_out),
    ("cadts.data", "apply_minmax", "data.apply_minmax", None, None),
    ("cadts.data", "make_windows", "data.make_windows", None, None),
    ("cadts.model", "build_model", "model.build_model", None, None),
    ("cadts.model", "CadModel.forward_batch", _forward_name, _windows_in, None),
    ("cadts.numcore.tensor", "Tape.grad", "numcore.tape_grad", _tape_records, None),
    ("cadts.numcore.optim", "adam_step", "numcore.adam_step", None, None),
    ("cadts.train", "train_model", "train.train_model", None, None),
    ("cadts.train", "write_history", "train.write_history", None, None),
    ("cadts.train", "save_checkpoint", "train.save_checkpoint", None, None),
    ("cadts.train", "load_checkpoint", "train.load_checkpoint", None, None),
    ("cadts.evaluate", "score_series", "evaluate.score_series", None, None),
    ("cadts.evaluate", "best_f1", _best_f1_name, None, None),
    ("cadts.evaluate", "write_scores", "evaluate.write_scores", None, None),
    ("cadts.evaluate", "read_scores", "evaluate.read_scores", None, None),
    ("cadts.cli", "cmd_train", "cli.train", None, None),
    ("cadts.cli", "cmd_score", "cli.score", None, None),
    ("cadts.cli", "cmd_eval", "cli.eval", None, None),
    ("cadts.cli", "cmd_report", "cli.report", None, None),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, fn, name, call_attrs=None, result_attrs=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = {
                "name": name if isinstance(name, str) else name(args, kwargs),
                "parent": open_[-1] if open_ else -1,
                "start": clock(),
                "end": None,
            }
            if call_attrs is not None:
                span.update(call_attrs(args, kwargs))
            spans.append(span)
            open_.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                span["end"] = clock()
            if result_attrs is not None:
                span.update(result_attrs(result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        # import every module first, so that none binds a wrapper on import
        homes = [importlib.import_module(target[0]) for target in TARGETS]
        undo = []
        try:
            for home, (_, attr, name, call_attrs, result_attrs) in zip(homes, TARGETS):
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[method]
                    undo.append((cls, method, original))
                    setattr(cls, method, self.wrap(original, name, call_attrs, result_attrs))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(original, name, call_attrs, result_attrs)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != "cadts" and not mod_name.startswith("cadts."):
                        continue
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, bound, original))
                            setattr(module, bound, wrapper)
            yield self
        finally:
            for owner, bound, original in reversed(undo):
                setattr(owner, bound, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its direct children cover
    (children of one parent never overlap in a single-threaded process)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
