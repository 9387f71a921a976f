"""Closed-loop verdict benchmark for heckeforge.

One client submits one verdict at a time, in a single process and thread.
A verdict is one exact check whose answer is known in advance (see
``workloads.py``).  Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload weil --seed 1 --seconds 20 --trace 0

The seed fixes one round: the workload's verdict mix with seeded inputs.
With ``--trace 0`` the run repeats that round for as long as another repeat
fits in ``--seconds``; each repeat starts from a fresh import of
``heckeforge`` and fresh contexts, so every repeat pays the lazy caches the
way a CLI user does.  On a shared machine the speed drifts by up to 2x
in spells of a second to minutes, so every time is scaled by the speed
probe of ``speed.py``, timed between verdicts and around each set-up: it
reads as on a machine where the probe takes ``NOMINAL_PROBE_MS``.  A
verdict's latency is the median of its scaled times over the repeats, and
throughput is the round's verdicts over the sum of those latencies.
Set-up is timed cold, from a collected heap, a few times before the first
round and a few more after every round; the run reports the median of the
scaled samples.  It prints the end-to-end metrics.  With ``--trace 1`` it
runs the round once untraced and once under the outside-in tracer
(``tracer.py``), and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Per-verdict records, set-up
samples, machine information and (when traced) spans and per-function
counts go to ``perfbench/results/<workload>-seed<seed>-trace<t>.json``.
A human summary goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import NOMINAL_PROBE_MS, SpeedLog

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "heckeforge"

# set-up is timed this many times before the first round and again after
# every round, so that its samples span the run's fast and slow spells
SETUP_REPEATS = 5
SETUP_PER_ROUND = 3


def _nearest_rank(sorted_values, share):
    """The nearest-rank percentile: the smallest value with at least
    ``share`` of the values at or below it."""
    index = max(0, math.ceil(share * len(sorted_values)) - 1)
    return sorted_values[index]


def percentile_record(records, share):
    ranked = sorted(records, key=lambda r: r["ms"])
    return _nearest_rank(ranked, share)


def fresh_import():
    """Drop every loaded heckeforge module and import the package again, so
    that module-level caches start empty."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    hf = importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    return hf, cli


def setup(workload):
    """Import heckeforge and build the workload's contexts; (env, seconds)."""
    from workloads import Env
    t0 = time.perf_counter()
    hf, cli = fresh_import()
    ctx = workload.setup(hf)
    return Env(hf, cli, ctx), time.perf_counter() - t0


def sample_setups(workload, count, samples, speed):
    """Set up ``count`` times, each after collecting the previous set-up's
    modules and contexts and between two speed probes, appending
    {t0, t1, s} to ``samples``; returns the last env.  The caller drops its
    own env first."""
    env = None
    for _ in range(count):
        env = None
        gc.collect()
        speed.probe()
        t0 = time.perf_counter()
        env, took = setup(workload)
        samples.append({"t0": t0, "t1": time.perf_counter(), "s": took})
        speed.probe()
    return env


def round_inputs(workload, seed):
    return workload.make_round(random.Random(f"{workload.name}:{seed}"))


def run_round(env, verdicts, repeat, tracer=None, speed=None):
    """Run verdicts one at a time; returns (records, verdict-phase seconds).
    With a ``speed`` log, the speed probe runs before every verdict and
    after the last, and each record also carries its start and end."""
    records = []
    clock = time.perf_counter
    gc.collect()
    start = clock()
    if speed:
        speed.probe()
    for i, v in enumerate(verdicts):
        token = tracer.begin_verdict(i, v.kind) if tracer else None
        error = None
        t0 = clock()
        try:
            ok = v.run(env) is True
        except Exception as e:  # a raise the verdict did not expect
            ok = False
            error = f"{type(e).__name__}: {e}"
        t1 = clock()
        ms = (t1 - t0) * 1000.0
        if tracer:
            tracer.end_verdict(token)
        rec = {"repeat": repeat, "kind": v.kind, "class": v.klass,
               "p": v.size.get("p"), "q": v.size.get("q"),
               "dim": v.size.get("dim"), "L": v.size.get("L"),
               "ms": ms, "pass": ok}
        if speed:
            speed.probe()
            rec["t0"], rec["t1"] = t0, t1
        if error:
            rec["error"] = error
        records.append(rec)
    return records, clock() - start


def growth_exponent(records, kind_prefix, size_of):
    """Least-squares slope of log(ms) against log(size) over the records of
    the given kinds; 0.0 when the workload has no such verdicts."""
    pts = [(math.log(size_of(r)), math.log(r["ms"])) for r in records
           if r["kind"].startswith(kind_prefix) and r["ms"] > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def exponents(records):
    return {
        "sympweil.induction_check.exp_p":
            growth_exponent(records, "induction_", lambda r: r["p"]),
        "quadspace.spinor_norm.exp_qdim":
            growth_exponent(records, "spinor_grid",
                            lambda r: r["q"] ** r["dim"]),
        "heckealg.mul.exp_len":
            growth_exponent(records, "hecke_affine_inverse",
                            lambda r: r["L"]),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------


def run_untraced(workload, seed, seconds):
    """Repeat the seeded round while another repeat fits in ``seconds``
    (at least once); returns (records of every repeat, walls, set-up
    samples, speed log), each record and sample with its scaled time."""
    speed = SpeedLog()
    samples = []
    env = sample_setups(workload, SETUP_REPEATS, samples, speed)
    verdicts = round_inputs(workload, seed)
    records, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        recs, wall = run_round(env, verdicts, len(walls), speed=speed)
        records += recs
        walls.append(wall)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > seconds:
            break
        env = None
        env = sample_setups(workload, SETUP_PER_ROUND, samples, speed)
    for r in records:
        r["scaled_ms"] = r["ms"] * speed.factor(r["t0"], r["t1"])
    for sample in samples:
        sample["scaled_s"] = sample["s"] * speed.factor(sample["t0"],
                                                        sample["t1"])
    return records, walls, samples, speed


def per_verdict(records):
    """Per verdict, in round order, its first record with ``ms`` replaced
    by the median of its scaled times over the repeats."""
    n = sum(1 for r in records if r["repeat"] == 0)
    return [dict(records[i], ms=statistics.median(
                r["scaled_ms"] for r in records[i::n]))
            for i in range(n)]


def end_to_end_metrics(records, setup_samples):
    verdicts = per_verdict(records)
    ms = sorted(r["ms"] for r in verdicts)
    passed = sum(1 for r in records if r["pass"])
    return {
        "checks_per_s": (1000.0 * len(verdicts) / sum(ms), "1/s"),
        "verdict_p50_ms": (_nearest_rank(ms, 0.50), "ms"),
        "verdict_p90_ms": (_nearest_rank(ms, 0.90), "ms"),
        "correct_verdict_frac": (passed / len(records), "fraction"),
        "setup_s": (statistics.median(s["scaled_s"] for s in setup_samples),
                    "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_pass(workload, verdicts):
    """One round under the tracer, contexts built after installation so
    that their construction is traced too."""
    from tracer import Tracer
    from workloads import Env
    hf, cli = fresh_import()
    tracer = Tracer(hf).install()
    try:
        ctx = workload.setup(hf)
        records, wall = run_round(Env(hf, cli, ctx), verdicts, 0, tracer)
    finally:
        tracer.restore()
    return tracer, records, wall


def run_traced(workload, seed):
    verdicts = round_inputs(workload, seed)
    env, _ = setup(workload)
    plain, plain_wall = run_round(env, verdicts, 0)
    tracer, traced, traced_wall = traced_pass(workload, verdicts)
    same = [r["pass"] for r in plain] == [r["pass"] for r in traced]
    metrics = layer_metrics(tracer)
    metrics.update(exponents(plain))
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return plain, traced, same, metrics, tracer


def layer_metrics(t):
    from tracer import LAYERS
    FE = "ffield.FqElement."
    CN = "cyclo.CyclotomicNumber."
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = t.layer_calls(layer)
        m[f"{layer}.self_s"] = t.layer_self_s(layer)
        m[f"{layer}.raised"] = t.layer_raised[layer]
    spinor = t.calls("quadspace.spinor_norm")
    evaluate = t.calls("quadspace.QuadraticSpace.evaluate_form")
    det_sign = t.calls("sympweil.det_sign_character")
    weil_calls = t.calls("sympweil.WeilSL2.__call__")
    hecke_mul = t.calls("heckealg.HeckeAlgebra.mul")
    normal_form = t.calls("heckealg.CoxeterSystem.normal_form")
    m.update({
        "ffield.mul.calls": t.calls(FE + "__mul__", FE + "__rmul__"),
        "ffield.inv.calls": t.calls(FE + "inv"),
        "ffield.sgn.calls": t.calls("ffield.sgn"),
        "quadspace.spinor_norm.calls": spinor,
        "quadspace.spinor_norm.self_s": t.self_s("quadspace.spinor_norm"),
        "quadspace.reflection.calls": t.calls("quadspace.reflection"),
        "quadspace.evaluate_form.calls": evaluate,
        "quadspace.evaluate_form_per_spinor_norm":
            evaluate / spinor if spinor else 0.0,
        "gradedorth.extended_sn.calls": t.calls("gradedorth.extended_sn"),
        "gradedorth.construct.self_s":
            t.self_s("gradedorth.GradedQuadraticSpace.__init__"),
        "sp4oracle.convolve.calls":
            t.calls("sp4oracle.convolve_s", "sp4oracle.convolve_e"),
        "sp4oracle.series_mul.calls":
            t.calls("sp4oracle.TruncSeries.__mul__"),
        "cyclo.mat_matmul.calls": t.calls("cyclo.CycloMatrix.__matmul__"),
        "cyclo.mat_matmul.self_s": t.self_s("cyclo.CycloMatrix.__matmul__"),
        "cyclo.mat_scale.calls": t.calls("cyclo.CycloMatrix.scale"),
        "cyclo.num_mul.calls": t.calls(CN + "__mul__", CN + "__rmul__"),
        "cyclo.num_add.calls": t.calls(CN + "__add__", CN + "__radd__"),
        "cyclo.num_inv.calls": t.calls(CN + "inv"),
        "cyclo.num.self_s": t.prefix_self_s(CN),
        "sympweil.operator.calls": t.calls("sympweil.HeisenbergRep.operator"),
        "sympweil.operator.self_s":
            t.self_s("sympweil.HeisenbergRep.operator"),
        "sympweil.weil_call.calls": weil_calls,
        "sympweil.weil_cache_hit_ratio":
            (t.cache_hits.get("sympweil.WeilSL2.__call__", 0) / weil_calls
             if weil_calls else 0.0),
        "sympweil.trace_with.calls":
            t.calls("sympweil.HeisenbergRep.trace_with"),
        "sympweil.trace_with.self_s":
            t.self_s("sympweil.HeisenbergRep.trace_with"),
        "sympweil.induction_check.self_s":
            t.self_s("sympweil.induction_identity_check"),
        "sympweil.det_sign_ok_ratio":
            ((det_sign - t.raised("sympweil.det_sign_character")) / det_sign
             if det_sign else 0.0),
        "heckealg.normal_form.calls": normal_form,
        "heckealg.normal_form.self_s":
            t.self_s("heckealg.CoxeterSystem.normal_form"),
        "heckealg.normal_form_per_mul":
            normal_form / hecke_mul if hecke_mul else 0.0,
        "heckealg.mul.calls": hecke_mul,
        "heckealg.mul.self_s": t.self_s("heckealg.HeckeAlgebra.mul"),
        "heckealg.laurent_mul.calls":
            t.calls("heckealg.LaurentPoly.__mul__",
                    "heckealg.LaurentPoly.__rmul__"),
        "cli.main.calls": t.calls("cli.main"),
    })
    return m


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", ".raised")):
        return "count"
    if ".exp_" in name:
        return "exponent"
    if name.endswith("_frac"):
        return "fraction"
    return "ratio"


# ---------------------------------------------------------------------------


def machine_info(seed):
    import numpy
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = (ref_file.read_text().strip() if ref_file.is_file()
                      else ref)
        else:
            commit = ref
    uname = os.uname()
    return {"nproc": os.cpu_count(), "machine": uname.machine,
            "system": f"{uname.sysname} {uname.release}",
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "commit": commit, "seed": seed}


def summary(records, out):
    kinds = {}
    for r in records:
        kinds.setdefault((r["class"], r["kind"]), []).append(r["ms"])
    for (klass, kind), ms in sorted(kinds.items()):
        ms.sort()
        print(f"  {klass:6s} {kind:24s} n={len(ms):4d} "
              f"median={ms[len(ms) // 2]:9.2f} ms max={ms[-1]:9.2f} ms",
              file=out)


def parse_args(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy's import is a fixed third-party cost, kept out of setup_s
    import numpy  # noqa: F401
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    info = machine_info(args.seed)
    report = {"workload": workload.name, "why": workload.why,
              "seconds": args.seconds, "trace": args.trace, "machine": info}
    if args.trace:
        plain, traced, same, metrics, tracer = run_traced(workload, args.seed)
        records = plain + traced
        correct = same and all(r["pass"] for r in records)
        report.update({"records": plain, "traced_records": traced,
                       "function_stats": tracer.stats,
                       "spans": tracer.spans,
                       "spans_dropped": tracer.spans_dropped})
        out_metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in metrics.items()}
        summary(plain, sys.stderr)
    else:
        records, walls, samples, speed = run_untraced(workload, args.seed,
                                                      args.seconds)
        correct = all(r["pass"] for r in records)
        metrics = end_to_end_metrics(records, samples)
        verdicts = per_verdict(records)
        report.update({"records": records, "verdict_records": verdicts,
                       "speed": {"nominal_probe_ms": NOMINAL_PROBE_MS,
                                 "window_s": speed.window_s,
                                 "times": speed.times,
                                 "probes_ms": speed.probes},
                       "setup_samples": samples,
                       "verdict_phase_s": walls,
                       "samples": {"verdicts": len(verdicts),
                                   "repeats": len(walls),
                                   "setups": len(samples)},
                       "exponents": exponents(verdicts)})
        out_metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()}
        summary(verdicts, sys.stderr)
        print(f"  {len(verdicts)} verdicts, median of {len(walls)} repeats"
              " (scaled times)",
              file=sys.stderr)
        for share in (0.5, 0.9):
            r = percentile_record(verdicts, share)
            print(f"  p{int(share * 100)} verdict: {r['class']} {r['kind']}"
                  f" {r['ms']:.2f} ms", file=sys.stderr)
    failed = sum(1 for r in records if not r["pass"])
    report["metrics"] = out_metrics
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, separators=(",", ":"), default=str))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
