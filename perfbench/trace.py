"""Traced run of one CLI call, for the benchmark's per-layer metrics.

Runs ``didbounds.cli.run(argv)`` in this process with stdout captured, after
wrapping the public functions of each package module with span recorders. A
span is (id, parent id, function, start, end); spans and call counts are kept
in memory and written out at the end, with the captured stdout and the sums
the per-layer metrics are built from.

Each wrapper replaces every binding of the function it wraps: the attribute
of its own module, names imported into sibling modules and the package
(``bounds.trimmed_mean_lower``, ``extensions.bounds_tau_ooo``, the module
attributes ``cli`` calls through), and class attributes
(``PanelDataset.take``, ``PanelDataset.from_records``, ``RcsDataset.take``).
A function of the table below that the package no longer has is skipped and
named on stderr; a public function the table does not name is not wrapped, so
its time counts to its caller.

Usage: ``python3 perfbench/trace.py OUT.json -- ARGV...`` from the checkout
root with ``src`` on the path. Only the standard library is imported before
``didbounds``, so the import span holds the package's whole import cost. The
one line printed to stdout holds the ``perf_counter`` stamps of this script's
first line and of the end of writing OUT.json.
"""

from __future__ import annotations

import io
import sys
import time

clock = time.perf_counter
# perf_counter is CLOCK_MONOTONIC, one clock for every process, so the
# spawning process can tell interpreter start and exit from these stamps
MAIN_AT = clock()

# layer metric -> the functions whose self time it sums, as module.qualname
LAYERS = {
    "cli.self_s": ["cli.run"],
    "data.load_s": ["data.load_panel_csv", "data.load_rcs_csv", "data.load_multi_csv"],
    "data.take_s": ["data.PanelDataset.take", "data.RcsDataset.take"],
    "data.from_records_s": ["data.PanelDataset.from_records"],
    "core.trim_s": ["core.trimmed_mean_lower", "core.trimmed_mean_upper"],
    "core.quantile_s": ["core.empirical_quantile"],
    "core.cond_prob_s": ["core.cond_prob_s1", "core.frechet_interval"],
    "bounds.bound_s": ["bounds.bounds_tau_ooo", "bounds.bounds_tau_ono",
                       "bounds.bounds_tau_nno", "bounds.bounds_tau_noo",
                       "bounds.naive_did"],
    "bounds.mixing_s": ["bounds.mixing_no_mono", "bounds.mixing_mono",
                        "bounds.strata_proportions"],
    "inference.bootstrap_s": ["inference.bootstrap_ses"],
    "inference.ci_s": ["inference.ci_union", "inference.ci_imbens_manski",
                       "inference.solve_c_n"],
    "simulation.generate_s": ["simulation.generate_panel"],
    "simulation.mc_rep_s": ["simulation.run_monte_carlo"],
    "simulation.oracle_s": ["simulation.oracle_true_values"],
    "extensions.pivot_s": ["extensions.panel_from_staggered",
                           "extensions.bounds_staggered"],
    "extensions.rcs_s": ["extensions.bounds_tau_oo_rcs", "extensions.rcs_weights",
                         "extensions.naive_did_rcs"],
}
IMPORT_LAYER = "import.didbounds_s"
MODULES = ("cli", "data", "core", "bounds", "inference", "simulation", "extensions")


class Tracer:
    """Spans and counts of the wrapped calls, kept in memory."""

    def __init__(self):
        self.spans = []     # [id, parent, name, start, end]
        self.stack = []
        self.calls = {}
        self.sums = {}      # additive quantities the rates are built from

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0) + value

    def span(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            span = [len(self.spans), self.stack[-1] if self.stack else None, name, clock(), None]
            self.spans.append(span)
            self.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                self.stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
            if after is not None:
                after(self, span[4] - span[3], result)
            return result

        return traced

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, _, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        return out


def _after_load(tr, dur, result):
    tr.add("load_rows", len(result.ids))
    tr.add("load_incl_s", dur)


def _after_take(tr, dur, result):
    arrays = [v for v in vars(result).values() if hasattr(v, "nbytes")]
    tr.add("take_bytes", sys.getsizeof(result.ids) + sum(a.nbytes for a in arrays))


def _after_bootstrap(tr, dur, result):
    tr.add("boot_reps", result.reps_used + result.failed_reps)
    tr.add("boot_reps_used", result.reps_used)
    tr.add("boot_incl_s", dur)


def _after_oracle(tr, dur, result):
    tr.add("oracle_draws", result.mc_draws)
    tr.add("oracle_incl_s", dur)


AFTER = {
    "data.load_panel_csv": _after_load,
    "data.load_rcs_csv": _after_load,
    "data.load_multi_csv": _after_load,
    "data.PanelDataset.take": _after_take,
    "data.RcsDataset.take": _after_take,
    "inference.bootstrap_ses": _after_bootstrap,
    "simulation.oracle_true_values": _after_oracle,
}


def install(tracer: Tracer, package) -> list:
    """Wrap every function of LAYERS, rebinding it wherever the package
    holds it. Returns the names that were not found."""
    modules = [package] + [getattr(package, m) for m in MODULES if hasattr(package, m)]
    missing = []
    for names in LAYERS.values():
        for name in names:
            mod_name, *owner, attr = name.split(".")
            holder = getattr(package, mod_name, None)
            if owner and holder is not None:
                holder = getattr(holder, owner[0], None)
            raw = vars(holder).get(attr) if holder is not None else None
            if raw is None:
                missing.append(name)
                continue
            if isinstance(raw, classmethod):
                setattr(holder, attr, classmethod(tracer.span(name, raw.__func__, AFTER.get(name))))
                continue
            wrapped = tracer.span(name, raw, AFTER.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
            if owner:
                setattr(holder, attr, wrapped)
    return missing


def main(argv) -> int:
    out_path, sep, *cli_argv = argv
    if sep != "--":
        sys.stderr.write("usage: trace.py OUT.json -- ARGV...\n")
        return 2
    start = clock()
    import didbounds  # noqa: PLC0415 - the import is what this span times
    import didbounds.cli  # noqa: PLC0415
    imported = clock()
    import contextlib  # noqa: PLC0415
    import json  # noqa: PLC0415

    tracer = Tracer()
    missing = install(tracer, didbounds)
    for name in missing:
        sys.stderr.write(f"trace: {name} not found; not traced\n")
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = didbounds.cli.run(cli_argv)
    end = clock()

    self_times = tracer.self_times()
    layers = {IMPORT_LAYER: imported - start}
    for layer, names in LAYERS.items():
        layers[layer] = sum(self_times.get(name, 0.0) for name in names)
    counts = {
        "data.take_calls": sum(tracer.calls.get(n, 0) for n in LAYERS["data.take_s"]),
        "core.trim_calls": sum(tracer.calls.get(n, 0) for n in LAYERS["core.trim_s"]),
        "bounds.bound_calls": sum(tracer.calls.get(n, 0) for n in LAYERS["bounds.bound_s"]),
        "simulation.generate_calls": tracer.calls.get("simulation.generate_panel", 0),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "argv": cli_argv,
            "exit_code": code,
            "inner_s": end - start,
            "layers": layers,
            "counts": counts,
            "sums": tracer.sums,
            "calls": tracer.calls,
            "missing": missing,
            "stdout": captured.getvalue(),
            # [id, parent id, function, start s, end s], times from the import
            "spans": [[i, parent, name, t0 - start, t1 - start]
                      for i, parent, name, t0, t1 in tracer.spans],
        }, fh)
    # the only line on the real stdout; the CLI's output is in OUT.json
    sys.stdout.write(json.dumps({"main_at": MAIN_AT, "written_at": clock()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
