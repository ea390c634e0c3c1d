"""Wall-clock benchmark of the ConCORD reproduction (see NOTES.md).

    python3 perfbench/run.py --workload ckpt_moldy --seed 1 --seconds 20 --trace 0

Builds nothing: it imports ``repro`` from ``src/`` of the checkout it
sits in and drives the public API from this one process.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ledger.  Lines
before it carry the environment fingerprint and the deterministic
outputs (sim seconds, handled counts, answer digests) of every cycle,
so two runs with one seed can be diffed.  Exits 1 when a correctness
check fails and 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Knobs that decide what is measured.  CI jobs export these for the
# test suite; the benchmark pins them so every run measures one thing.
KNOBS = {"CONCORD_WORKERS": "1", "CONCORD_STORAGE": "memory",
         "CONCORD_CHUNKING": "fixed"}
MIN_CYCLES = 2      # measured cycles per run, at least
DET_CYCLES = 1 + MIN_CYCLES   # warm-up + minimum: in every run, so diffable
# The synthetic workloads pack (seed + 1) << 44 into a signed 64-bit
# content ID, so the program takes seeds below 2**19.  Any --seed is
# folded into this range; small seeds map to themselves.
SEED_RANGE = 1 << 16


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_cycles(inst, n: int) -> None:
    """One warm-up cycle, then ``n`` measured cycles."""
    inst.cycle()
    inst.begin_measure()
    for _ in range(n):
        inst.cycle()


def measure(h, w, seed: int, seconds: float, tmp: Path):
    """Untraced: ``w.setups`` set-ups, then timed cycles on the last one."""
    led = h.Ledger()
    scaled, walls = [], []
    inst = None
    for i in range(w.setups):
        if inst is not None:
            inst.close()
            inst = None     # let it go before the next one is built
        inst = h.Instance(w, seed, tmp / f"setup{i}", led)
        scaled.append(inst.setup_s)
        walls.append(inst.setup_wall_s)
    try:
        run_cycles(inst, w.cycles_for(seconds, MIN_CYCLES))
    finally:
        inst.close()
    return (inst, h.end_to_end(inst, scaled, inst.samples),
            h.end_to_end(inst, walls, inst.wall))


def measure_traced(h, w, seed: int, seconds: float, tmp: Path):
    """Two instances of one seed, cycles alternating: one untraced, one
    with the layer wrappers recording.  The untraced one is built before
    the wrappers are installed; its calls pass through them unrecorded.
    The ratio of their timed seconds is the tracing overhead."""
    n = w.cycles_for(seconds / 2, MIN_CYCLES)
    plain = h.Instance(w, seed, tmp / "plain", h.Ledger())
    led = h.Ledger()
    led.install()
    traced = None
    try:
        traced = h.Instance(w, seed, tmp / "traced", led, record=True)
        setup_layers = dict(led.layer_self_ns["setup"])
        traced.record = False
        for inst in (plain, traced):     # warm-up, not recorded
            inst.cycle()
            inst.begin_measure()
        led.reset()
        traced.record = True
        for _ in range(n):
            plain.cycle()
            traced.cycle()
    finally:
        led.uninstall()
        plain.close()
        if traced is not None:
            traced.close()
    overhead = traced.timed_s() / plain.timed_s() - 1.0
    metrics = h.per_layer(traced, led, setup_layers, overhead)
    OUT.mkdir(exist_ok=True)
    led.write_jsonl(OUT / f"spans-{w.name}-{seed}.jsonl")
    return [plain, traced], metrics, led


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tmp = OUT / f"tmp-{os.getpid()}"
    os.environ.update(KNOBS)
    os.environ["CONCORD_STORAGE_DIR"] = str(tmp / "default-storage")
    # The fingerprint asks git for a sha; keep git from searching (and
    # reading) above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(ROOT / "src"))
    import harness as h
    from repro.obs.bench import environment_fingerprint

    w = h.WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(h.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = args.seed % SEED_RANGE
    print("env", json.dumps(environment_fingerprint(
        {"workers": 1, "storage": w.backend, "chunking": "fixed",
         "placement": "mod", "workload": w.name, "seed": args.seed,
         "program_seed": seed, "trace": args.trace}), sort_keys=True))
    try:
        if args.trace:
            insts, values, led = measure_traced(h, w, seed,
                                                args.seconds, tmp)
            units = {name: h.layer_unit(name)[0] for name in values}
            print(f"spans {len(led.spans)} kept, {led.dropped} dropped")
        else:
            inst, values, wall = measure(h, w, seed, args.seconds, tmp)
            insts = [inst]
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            units = {name: unit for name, unit, _better in h.E2E}
            print("unscaled wall", json.dumps(wall))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for inst in insts:
        for det in inst.det:
            print("det", json.dumps(det, sort_keys=True))
        print("det_digest", h.det_digest(inst.det[:DET_CYCLES]),
              "cycles", inst.n_cycles)
    attempted = sum(i.attempted for i in insts)
    failed = sum(i.failed for i in insts)
    print("failed_frac", failed / attempted)
    for inst in insts:
        for line in inst.failures:
            print("FAILED", line, file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
