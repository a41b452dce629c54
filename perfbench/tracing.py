"""Layer spans recorded from outside the program.

The traced run wraps the public functions and methods of each layer's
modules (``LAYERS``) in place, so every call into a layer opens a span
and every return closes it.  Generator functions are the simulator's
processes: their wrapper returns a proxy that times each resumption
(``send``/``throw``) as one span, because the time a process spends
parked in the event queue is not time spent in its layer.  Processes
handed to ``Engine.process`` are proxied the same way and attributed to
the layer whose file defines the generator's code.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` indexes
the enclosing span on the same thread (-1 at a root), ``op`` is the
benchmark operation it belongs to.  A span may also carry a ``tag``
(the job key a service call worked on), which joins server spans to
the client operation that sent that key.  A layer's self time is its
span time minus the time covered by its child spans.
"""

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import threading
import time

#: Layer name -> modules (a package name covers every module in it).
LAYERS = {
    "events": ["repro.events"],
    "cp": ["repro.cp"],
    "occam": ["repro.occam"],
    "fpu": ["repro.fpu"],
    "core": ["repro.core"],
    "memory": ["repro.memory"],
    "links": ["repro.links"],
    "runtime": ["repro.runtime"],
    "system": ["repro.system"],
    "algorithms": ["repro.algorithms"],
    "service.net": ["repro.service.net"],
    "service.jobkey": ["repro.service.jobkey"],
    "service.scheduler": ["repro.service.scheduler"],
    "service.cache": ["repro.service.cache"],
    "service.journal": ["repro.service.journal"],
    "parallel": ["repro.parallel"],
}

#: Public callables left unwrapped.  Each runs once per simulated
#: instruction, word, element or event and is called from its own
#: layer, so a span around it would cost more than the work it times
#: without moving any time between layers.
SKIP = {
    "repro.cp.cpu:CPU.step",
    "repro.cp.cpu:to_signed",
    "repro.cp.cpu:to_unsigned",
    "repro.cp.gather:GatherScatterEngine.move_element",
    "repro.cp.cpu:ArrayMemory.read_word",
    "repro.cp.cpu:ArrayMemory.write_word",
    "repro.events.engine:Timeout.__init__",
    "repro.events.engine:Event.__init__",
    "repro.events.resources:Request.__init__",
    "repro.fpu.vector_forms:dtype_for",
    "repro.fpu.units:FunctionalUnit.stages",
    "repro.fpu.units:FunctionalUnit.credit",
    "repro.fpu.vector_forms:VectorArithmeticUnit.duration",
    "repro.fpu.vector_forms:VectorArithmeticUnit.chain_depth",
    "repro.links.fabric:NodeLinkSet.endpoint",
    "repro.links.fabric:FabricSublink.other",
    "repro.links.frame:FrameSpec.transfer_ns",
    "repro.memory.parity:ParityStore.check",
    "repro.memory.parity:ParityStore.update",
    "repro.memory.vector_register:VectorRegister.capacity",
    # Long-lived or blocking: a span would cover the whole server
    # lifetime or a wait for another thread, not work.
    "repro.service.net.server:run_server",
    "repro.service.scheduler:JobFuture.result",
}

#: Calls that get a span of their own even when their caller is in the
#: same layer, because a per-layer metric is taken from them.
KEEP = {
    "repro.core.node:ProcessorNode.run_chain",
    "repro.service.net.protocol:FrameDecoder.feed",
    "repro.service.net.protocol:encode_frame",
}

#: Calls whose argument or result names the job key they work on.
_TAGGERS = {
    "repro.service.scheduler:SimulationService.submit":
        lambda args, result: getattr(result, "key", None),
    "repro.service.scheduler:SimulationService.drain":
        lambda args, result: tuple(f.key for f in result or ()),
    "repro.service.cache:ResultCache.get":
        lambda args, result: args[1] if len(args) > 1 else None,
    "repro.service.cache:ResultCache.put":
        lambda args, result: args[1] if len(args) > 1 else None,
    "repro.service.jobkey:job_key":
        lambda args, result: result,
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "tag")

    def __init__(self, name, layer, start, parent, op):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tag = None


class SpanRecorder:
    """Spans kept in memory, one open-span stack per thread."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.op = None
        self._stacks = {}

    def open(self, name, layer=None, keep=True):
        """Open a span; None when ``keep`` is false and the enclosing
        span is already in ``layer`` (its self time covers the call)."""
        stack = self._stacks.get(threading.get_ident())
        if stack is None:
            stack = self._stacks[threading.get_ident()] = []
        top = stack[-1] if stack else None
        if not keep and top is not None and top.layer == layer:
            return None
        span = Span(name, layer, self.clock(), top, self.op)
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span, tag=None):
        span.end = self.clock()
        if tag is not None:
            span.tag = tag
        self._stacks[threading.get_ident()].pop()

    def take(self):
        """The recorded spans in index form; clears the buffer."""
        spans, self.spans = self.spans, []
        return export(spans)


def export(spans):
    """Span objects -> ``(name, start, end, parent_index, op, tag)``."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [
        (s.name, s.start, s.end,
         index.get(id(s.parent), -1) if s.parent is not None else -1,
         s.op, s.tag)
        for s in spans
    ]


def layer_of(name):
    """``"fpu:VectorArithmeticUnit.execute"`` -> ``"fpu"``."""
    return name.partition(":")[0]


def self_times(spans):
    """Self time per span name: span time minus its children's time.

    ``spans`` is the index form; a child's time is charged against its
    direct parent only, so nested spans of one layer are not counted
    twice.
    """
    child = [0] * len(spans)
    for name, start, end, parent, *_rest in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, *_rest) in enumerate(spans):
        totals[name] = totals.get(name, 0) + (end - start) - child[i]
    return totals


def by_layer(named):
    """Per-name totals folded into per-layer totals."""
    out = {}
    for name, total in named.items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0) + total
    return out


# -- wrapping ---------------------------------------------------------

class GeneratorProxy:
    """A generator whose every resumption is one span."""

    __slots__ = ("_gen", "_name", "_layer", "_keep", "_rec")

    def __init__(self, gen, name, rec, keep=False):
        self._gen = gen
        self._name = name
        self._layer = layer_of(name)
        self._keep = keep
        self._rec = rec

    @property
    def __name__(self):
        return getattr(self._gen, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        rec = self._rec
        span = rec.open(self._name, self._layer, self._keep)
        if span is None:
            return self._gen.send(value)
        try:
            return self._gen.send(value)
        finally:
            rec.close(span)

    def throw(self, *args):
        rec = self._rec
        span = rec.open(self._name, self._layer, self._keep)
        if span is None:
            return self._gen.throw(*args)
        try:
            return self._gen.throw(*args)
        finally:
            rec.close(span)

    def close(self):
        return self._gen.close()


def _wrap(fn, qual, name, rec):
    """The traced stand-in for ``fn``.  A call from inside the same
    layer opens no span of its own unless ``qual`` is in ``KEEP``."""
    tagger = _TAGGERS.get(qual)
    keep = qual in KEEP or tagger is not None
    layer = layer_of(name)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return GeneratorProxy(fn(*args, **kwargs), name, rec, keep)
    elif tagger is None:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(name, layer, keep)
            if span is None:
                return fn(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(span)
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = rec.open(name, layer, keep)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.close(span)
                raise
            rec.close(span, tagger(args, result))
            return result
    return wrapper


def _modules(names):
    for modname in names:
        module = importlib.import_module(modname)
        yield module
        path = getattr(module, "__path__", None)
        if path is None:
            continue
        for info in pkgutil.walk_packages(path, modname + "."):
            if info.name.rsplit(".", 1)[-1].startswith("_"):
                continue
            yield importlib.import_module(info.name)


def _layer_for_file(filename, table):
    for prefix, layer in table:
        if filename.startswith(prefix):
            return layer
    return None


def install(rec):
    """Wrap every public function and method of each layer's modules.

    Rebinds functions imported by name into other ``repro`` modules
    too, so a call through either binding is seen.  Install before the
    program builds any objects.
    """
    originals = {}
    file_table = []
    seen = set()
    for layer, modnames in LAYERS.items():
        for module in _modules(modnames):
            if module.__name__ in seen:
                continue
            seen.add(module.__name__)
            base = os.path.splitext(module.__file__)[0]
            if base.endswith("__init__"):
                base = os.path.dirname(base) + os.sep
            file_table.append((base, layer))
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                qual = f"{module.__name__}:{attr}"
                if inspect.isfunction(obj) and qual not in SKIP:
                    new = _wrap(obj, qual, f"{layer}:{attr}", rec)
                    setattr(module, attr, new)
                    originals[id(obj)] = (obj, new)
                elif inspect.isclass(obj):
                    _wrap_class(obj, layer, module, rec)
    # Longest prefix first, so a subpackage wins over its parent.
    file_table.sort(key=lambda item: -len(item[0]))
    _rebind(originals)
    _proxy_processes(rec, file_table)


def _wrap_class(cls, layer, module, rec):
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        qual = f"{module.__name__}:{cls.__name__}.{attr}"
        if qual in SKIP:
            continue
        name = f"{layer}:{cls.__name__}.{attr}"
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(cls, attr, type(raw)(_wrap(raw.__func__, qual, name,
                                               rec)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, _wrap(raw, qual, name, rec))


def _rebind(originals):
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("repro") or module is None:
            continue
        for attr, obj in list(vars(module).items()):
            entry = originals.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])


def _proxy_processes(rec, file_table):
    """Proxy every process generator handed to ``Engine.process``."""
    from repro.events import engine as engine_module

    inner = engine_module.Engine.process

    @functools.wraps(inner)
    def process(self, generator, name=None):
        if not isinstance(generator, GeneratorProxy):
            code = getattr(generator, "gi_code", None)
            layer = (_layer_for_file(code.co_filename, file_table)
                     if code is not None else None)
            if layer is not None:
                generator = GeneratorProxy(
                    generator, f"{layer}:{code.co_name}", rec, True)
        return inner(self, generator, name)

    engine_module.Engine.process = process


# -- fault injection for the sensitivity self-test ------------------------

def parse_delays(text):
    """``"module:Qual.name=seconds,..."`` -> ``[(qual, seconds)]``."""
    delays = []
    for item in filter(None, (part.strip() for part in text.split(","))):
        qual, _, seconds = item.rpartition("=")
        delays.append((qual, float(seconds)))
    return delays


def delay(qual, seconds):
    """Make every call of one public function ``seconds`` slower.

    ``qual`` is ``"module:function"`` or ``"module:Class.method"``.  A
    generator function stays a generator function and sleeps on its
    first resumption, so a span around it still times the delay.
    """
    module_name, _, path = qual.partition(":")
    module = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    owner = module
    for part in outer:
        owner = getattr(owner, part)
    fn = vars(owner)[attr]
    if inspect.isgeneratorfunction(fn):
        def slowed(*args, **kwargs):
            time.sleep(seconds)
            return (yield from fn(*args, **kwargs))
    else:
        def slowed(*args, **kwargs):
            time.sleep(seconds)
            return fn(*args, **kwargs)
    slowed = functools.wraps(fn)(slowed)
    setattr(owner, attr, slowed)
    if owner is module:
        _rebind({id(fn): (fn, slowed)})
