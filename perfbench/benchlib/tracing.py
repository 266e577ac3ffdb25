"""Span tracing of callab from outside the package.

``instrument`` swaps callab's public functions for timing wrappers in every
callab module namespace that holds them (``from .x import f`` copies the
reference, so each copy is swapped) and restores the originals on exit.
Nothing under ``src/callab`` changes. Spans live in memory as
``[name, start, end, parent, step, phase]`` lists and are written out once,
after the run.
"""

from __future__ import annotations

import contextlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterator, Optional

# autodiff op kinds whose forward and backward are timed one by one
OP_KINDS = (
    "matmul", "add_bias", "add", "layer_norm", "softmax_rows", "log_softmax_rows",
    "dropout_apply", "l2_normalize_rows", "embedding_lookup", "transpose", "reshape",
)

# (module, function) -> span name for layer calls
LAYER_CALLS = {
    ("text", "encode_batch"): "text.encode_batch",
    ("encoder", "encode_from_embeddings"): "encoder.encode_from_embeddings",
    ("objectives", "cross_entropy"): "objectives.cross_entropy",
    ("objectives", "info_nce"): "objectives.info_nce",
    ("objectives", "info_nce_split"): "objectives.info_nce_split",
    ("attacks", "gen_supervised_adv"): "attacks.gen_supervised_adv",
    ("attacks", "gen_unsupervised_adv"): "attacks.gen_unsupervised_adv",
    ("autodiff", "backward"): "autodiff.backward",
    ("trainer", "clip_gradients"): "trainer.clip_gradients",
    ("metrics", "encode_sentences"): "metrics.encode_sentences",
    ("metrics", "evaluate_under_attack"): "metrics.evaluate_under_attack",
}


class Counters:
    """Per-phase tallies that every run keeps, traced or not."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[self.phase][key] += value


class Tracer:
    """Collects spans and tape sizes; ``step`` is advanced by the step sink."""

    def __init__(self, counters: Counters) -> None:
        self.counters = counters
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tape_stack: list = []
        self.tapes: list[tuple[int, str, int]] = []   # (step, phase, nodes)
        self.step = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.step, self.counters.phase])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tstep\tphase\n")
            for name, start, end, parent, step, phase in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{step}\t{phase}\n")


class _TimedBackward:
    """A tape node's backward closure, timed as a ``bwd:<kind>`` span."""

    __slots__ = ("tracer", "name", "fn")

    def __init__(self, tracer: Tracer, kind: str, fn: Callable) -> None:
        self.tracer, self.name, self.fn = tracer, f"bwd:{kind}", fn

    def __call__(self, g):
        idx = self.tracer.begin(self.name)
        try:
            return self.fn(g)
        finally:
            self.tracer.end(idx)


def _op_wrapper(tracer: Tracer, kind: str, fn: Callable) -> Callable:
    name = f"op:{kind}"
    counters = tracer.counters

    def traced(*args, **kwargs):
        tape = tracer.tape_stack[-1] if tracer.tape_stack else None
        before = len(tape.nodes) if tape is not None else 0
        idx = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        recorded = tape is not None and len(tape.nodes) > before
        if recorded and not isinstance(tape.nodes[-1].backward, _TimedBackward):
            node = tape.nodes[-1]
            node.backward = _TimedBackward(tracer, kind, node.backward)
        if kind == "matmul":
            a, b = args[0].data, args[1].data
            flops = 2.0 * out.data.size * a.shape[-1]
            nbytes = 4.0 * (a.size + b.size + out.data.size)
            # backward computes both operand grads: two products of the same size
            scale = 3.0 if recorded else 1.0
            counters.add("matmul.flops", scale * flops)
            counters.add("matmul.bytes", scale * nbytes)
        return out

    return traced


def _callab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "callab" or n.startswith("callab.")]


@contextlib.contextmanager
def instrument(counters: Counters, tracer: Optional[Tracer]) -> Iterator[None]:
    """Swap in wrappers for the run, then restore every original reference.

    Untraced runs only wrap ``adamw_step`` to count applied and skipped
    updates (``train_loop`` drops its return value). Traced runs also wrap
    the layer calls, the autodiff ops and ``Tape``.
    """
    import callab.autodiff as ad
    import callab.trainer as trainer

    adamw = trainer.adamw_step

    def counted_adamw(*args, **kwargs):
        applied = adamw(*args, **kwargs)
        counters.add("adamw.applied" if applied else "adamw.skipped")
        return applied

    replacements: dict[int, object] = {id(adamw): counted_adamw}
    if tracer is not None:
        replacements[id(adamw)] = tracer.wrap("trainer.adamw_step", counted_adamw)
        mods = {m.__name__.rpartition(".")[2]: m for m in _callab_modules()}
        for (mod, fn_name), span in LAYER_CALLS.items():
            fn = getattr(mods[mod], fn_name)
            replacements[id(fn)] = _layer_wrapper(tracer, span, fn)
        for kind in OP_KINDS:
            fn = getattr(ad, kind)
            replacements[id(fn)] = _op_wrapper(tracer, kind, fn)
        replacements[id(ad.Tape)] = _traced_tape(tracer, ad.Tape)

    swapped: list[tuple[object, str, object]] = []
    try:
        for module in _callab_modules():
            for attr, value in list(vars(module).items()):
                new = replacements.get(id(value))
                if new is not None:
                    swapped.append((module, attr, value))
                    setattr(module, attr, new)
        yield
    finally:
        for module, attr, value in reversed(swapped):
            setattr(module, attr, value)


def _layer_wrapper(tracer: Tracer, span: str, fn: Callable) -> Callable:
    traced = tracer.wrap(span, fn)
    counters = tracer.counters
    if span == "text.encode_batch":

        def encode(*args, **kwargs):
            batch = traced(*args, **kwargs)
            counters.add("text.positions", batch.attn_mask.size)
            counters.add("text.padded", batch.attn_mask.size - float(batch.attn_mask.sum()))
            return batch

        return encode
    if span == "trainer.clip_gradients":

        def clip(params, max_norm):
            norm = traced(params, max_norm)
            counters.add("clip.calls")
            counters.add("clip.fired", float(norm > max_norm > 0))
            return norm

        return clip
    return traced


def _traced_tape(tracer: Tracer, base: type) -> type:
    class TracedTape(base):
        def __enter__(self):
            tracer.tape_stack.append(self)
            return super().__enter__()

        def __exit__(self, exc_type, exc, tb):
            tracer.tape_stack.pop()
            tracer.tapes.append((tracer.step, tracer.counters.phase, len(self.nodes)))
            return super().__exit__(exc_type, exc, tb)

    return TracedTape


def pad_fraction(counters: Counters) -> float:
    positions = sum(c["text.positions"] for c in counters.counts.values())
    padded = sum(c["text.padded"] for c in counters.counts.values())
    return padded / positions

