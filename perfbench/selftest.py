"""Self-test of the benchmark, run from the root of a source checkout:

    python3 perfbench/selftest.py [--seed N]

For every workload it checks that

* every verdict of one seeded round matches its known answer;
* the untraced round and two traced rounds give identical verdicts;
* the two traced rounds give identical per-function call counts;
* the tracer puts every wrapped name back;
* the layers stay isolated in the traced round: no cyclo or sympweil call on
  orthogonal and hecke; no FqElement multiplication, quadspace or heckealg
  call on weil; no ffield or cyclo call on hecke;
* the median verdict falls in the workload's median class and the p90
  verdict in its tail class.

It exits with 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import MEDIAN, TAIL, WORKLOADS  # noqa: E402

# metrics that must read 0 in the traced round of each workload
ISOLATION = {
    "weil": ("ffield.mul.calls", "quadspace.calls", "heckealg.calls"),
    "orthogonal": ("cyclo.calls", "sympweil.calls"),
    "hecke": ("ffield.calls", "cyclo.calls", "sympweil.calls"),
}


def _snapshot(package_name):
    """Every attribute of every heckeforge module and of the classes they
    define, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package_name
                               or name.startswith(package_name + ".")):
            continue
        for attr, obj in vars(mod).items():
            out[name, attr] = id(obj)
            if isinstance(obj, type) and obj.__module__ == name:
                for cattr, cobj in vars(obj).items():
                    out[name, attr, cattr] = id(cobj)
    return out


def check_restore():
    hf, _ = run.fresh_import()
    before = _snapshot(hf.__name__)
    tracer = Tracer(hf).install()
    wrapped = hasattr(hf.quadspace.sgn, "__wrapped__")
    tracer.restore()
    return wrapped and _snapshot(hf.__name__) == before


def check_workload(workload, seed):
    problems = []
    verdicts = run.round_inputs(workload, seed)
    env, _ = run.setup(workload)
    plain, _ = run.run_round(env, verdicts, 0)
    wrong = [r for r in plain if not r["pass"]]
    if wrong:
        problems.append(f"{len(wrong)} wrong verdicts, first: {wrong[0]}")
    first, traced1, _ = run.traced_pass(workload, verdicts)
    second, traced2, _ = run.traced_pass(workload, verdicts)
    outcome = [r["pass"] for r in plain]
    if outcome != [r["pass"] for r in traced1] or \
            outcome != [r["pass"] for r in traced2]:
        problems.append("traced and untraced verdicts differ")
    counts1, counts2 = first.counts(), second.counts()
    if counts1 != counts2:
        diff = sorted(k for k in set(counts1) | set(counts2)
                      if counts1.get(k) != counts2.get(k))
        problems.append(f"call counts differ between traced runs: {diff[:5]}")
    metrics = run.layer_metrics(first)
    for name in ISOLATION[workload.name]:
        if metrics[name] != 0:
            problems.append(f"{name} = {metrics[name]}, expected 0")
    for share, klass in ((0.5, MEDIAN), (0.9, TAIL)):
        rec = run.percentile_record(plain, share)
        if rec["class"] != klass:
            problems.append(f"p{int(share * 100)} verdict {rec['kind']} is "
                            f"{rec['class']}, expected {klass}")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    failed = False
    if not check_restore():
        print("FAIL tracer: wrapped names not restored")
        failed = True
    else:
        print("ok   tracer restores every wrapped name")
    for name, workload in WORKLOADS.items():
        problems = check_workload(workload, args.seed)
        for p in problems:
            print(f"FAIL {name}: {p}")
        if not problems:
            print(f"ok   {name}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
