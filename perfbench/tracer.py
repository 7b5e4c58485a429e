"""Spans and counters around varcong's public functions, installed from outside.

The tracer wraps functions and methods of varcong's modules in place and
restores them on exit.  A module-level function is replaced in every
varcong module that holds a reference to it, since `cli` imports most of
them by name.  A span records (name, start, end, parent, operation); a
layer's self time is its spans' durations minus the part covered by
their child spans.

Functions called hundreds of thousands of times per round (union-find,
equivalence-relation helpers) are not wrapped; their time stays in the
self time of the layer that called them.  Two hot functions get a bare
call counter instead of a span, which leaves their caller's self time
intact: `closure_labels` (the saturation step of the oracle) and
`join_labels` (one partition join), the latter tallied by the span that
called it.
"""

import json
import sys
from collections import Counter, defaultdict
from functools import partial
from time import perf_counter

# span name -> "module:qualname" of the functions it wraps
SPANS = {
    "cli.main": ["cli:main"],
    "cli.output": ["cli:_emit", "cli:_json_text", "cli:_report_text",
                   "congruence:dump_congruences", "synthesis:lattice_json",
                   "synthesis:lattice_dot"],
    "variant.build_context": ["variant:build_context"],
    "variant.txa": ["variant:VariantContext.txa"],
    "semigroup.table": ["semigroup:FiniteSemigroup.__init__"],
    "semigroup.greens": ["semigroup:GreenStructure.__init__"],
    "semigroup.eggbox": ["semigroup:eggbox_text", "semigroup:eggbox_dot"],
    "congruence.principal": ["congruence:principal_congruences"],
    "congruence.join_closure": ["congruence:enumerate_all_congruences"],
    "congruence.is_congruence": ["congruence:is_congruence"],
    "malcev.chain": ["malcev:malcev_chain"],
    "malcev.lift_sharp": ["malcev:lift_sharp"],
    "systems.families": ["systems:build_families"],
    "systems.enumerate": ["systems:enumerate_csystems", "systems:enumerate_psystems"],
    "systems.assemble": ["systems:assemble_rho", "systems:assemble_lambda"],
    "systems.extract": ["systems:psi_extract_rho", "systems:psi_extract_lambda"],
    "synthesis.structural": ["synthesis:enumerate_structurally"],
    "synthesis.fuse": ["synthesis:fuse"],
    "synthesis.kappa_fuse": ["synthesis:kappa_fuse"],
    "synthesis.classify": ["synthesis:classify"],
    "lattice.order": ["lattice:FiniteLattice.__init__"],
    "lattice.height": ["lattice:FiniteLattice.height"],
}

COUNTED = {
    "congruence.closure_labels": ["congruence:closure_labels"],
    "congruence.join_labels": ["congruence:join_labels"],
}

LAYERS = ("variant", "semigroup", "congruence", "malcev", "systems",
          "synthesis", "lattice", "cli")


def _tally_result(counts, name, args, result):
    """Deterministic work counters read off a span's arguments or result."""
    if name == "congruence.principal":
        counts["congruence.principal_distinct"] += len(result)
    elif name == "malcev.chain":
        counts["malcev.chain_entries"] += len(result)
    elif name == "systems.enumerate":
        counts["systems.enumerated"] += len(result)
    elif name == "variant.build_context":
        counts["variant.elements"] += len(result.P)
    elif name == "lattice.order":
        lattice = args[0]
        counts["lattice.nodes"] += len(lattice.nodes)
        counts["lattice.cover_edges"] += int(lattice.covers.sum())


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock       # span times; run.py passes one that stops during probes
        self.spans = []          # [name, start, end, parent, op]
        self.stack = []
        self.op = -1
        self.counts = Counter()  # calls per span name, and result tallies
        self.calls_by_parent = Counter()  # (counted name, enclosing span name)
        self._patches = []

    def _span(self, name, fn):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, self.clock

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            counts[name] += 1
            _tally_result(counts, name, args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        spans, stack, tally = self.spans, self.stack, self.calls_by_parent

        def wrapper(*args, **kwargs):
            tally[name, spans[stack[-1]][0] if stack else ""] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        for table, make in ((SPANS, self._span), (COUNTED, self._counter)):
            for name, targets in table.items():
                for target in targets:
                    self._patch(target, partial(make, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, target, wrap):
        module_name, qualname = target.split(":")
        module = sys.modules[f"varcong.{module_name}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, wrap(original))
            return
        original = getattr(module, qualname)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "varcong" or mod_name.startswith("varcong."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def self_times(self):
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def totals_by_kind(self, kinds):
        """Per operation kind and span name: calls and inclusive seconds of
        the outermost spans of that name.  kinds[i] is the kind of op i."""
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for name, start, end, parent, op in self.spans:
            if parent < 0 or self.spans[parent][0] != name:
                entry = out[kinds[op]][name]
                entry[0] += 1
                entry[1] += end - start
        return {kind: dict(sorted(names.items())) for kind, names in sorted(out.items())}

    def layer_metrics(self):
        """The per-layer metrics: self times, call counts and work counters."""
        selfs = self.self_times()
        c = self.counts
        m = {
            "congruence.principal_s": selfs["congruence.principal"],
            "congruence.principal_distinct": c["congruence.principal_distinct"],
            "congruence.join_closure_s": selfs["congruence.join_closure"],
            "congruence.join_calls": self.calls_by_parent[
                "congruence.join_labels", "congruence.join_closure"],
            "congruence.closure_calls": sum(
                n for (name, _), n in self.calls_by_parent.items()
                if name == "congruence.closure_labels"),
            "congruence.is_congruence_s": selfs["congruence.is_congruence"],
            "congruence.is_congruence_calls": c["congruence.is_congruence"],
            "synthesis.fuse_s": selfs["synthesis.fuse"],
            "synthesis.fuse_calls": c["synthesis.fuse"],
            "synthesis.kappa_fuse_s": selfs["synthesis.kappa_fuse"],
            "synthesis.kappa_fuse_calls": c["synthesis.kappa_fuse"],
            "synthesis.classify_s": selfs["synthesis.classify"],
            "synthesis.classify_calls": c["synthesis.classify"],
            "malcev.chain_s": selfs["malcev.chain"],
            "malcev.chain_entries": c["malcev.chain_entries"],
            "malcev.lift_sharp_s": selfs["malcev.lift_sharp"],
            "systems.families_s": selfs["systems.families"],
            "systems.enumerate_s": selfs["systems.enumerate"],
            "systems.enumerated": c["systems.enumerated"],
            "systems.assemble_s": selfs["systems.assemble"],
            "systems.extract_s": selfs["systems.extract"],
            "variant.build_context_s": selfs["variant.build_context"],
            "variant.build_context_calls": c["variant.build_context"],
            "variant.elements": c["variant.elements"],
            "semigroup.greens_s": selfs["semigroup.greens"],
            "lattice.order_s": selfs["lattice.order"],
            "lattice.height_s": selfs["lattice.height"],
            "lattice.nodes": c["lattice.nodes"],
            "lattice.cover_edges": c["lattice.cover_edges"],
            "cli.output_s": selfs["cli.output"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(t for name, t in selfs.items()
                                       if name.startswith(layer + "."))
        return m

    def dump(self, path, t0):
        """Write every span, times in microseconds from t0, and the counters."""
        names = sorted(SPANS)
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[name], round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1),
                 parent, op] for name, start, end, parent, op in self.spans]
        payload = {"columns": ["name", "start_us", "end_us", "parent", "op"],
                   "names": names, "spans": rows,
                   "counts": dict(sorted(self.counts.items())),
                   "calls_by_parent": sorted([name, parent, n] for (name, parent), n
                                             in self.calls_by_parent.items())}
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
