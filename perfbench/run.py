"""utmcont benchmark: one closed-loop client, checked outputs, one JSON line.

Run from the root of a utmcont checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The program under test is imported from ``src/`` of the working directory.
One process acts as one client: it submits the next op only after the
previous one returns, and never passes ``--threads``.  ``--trace 0`` prints
the end-to-end metrics of an untraced run; ``--trace 1`` runs one traced
pass and prints the per-layer metrics, then runs the known-defect probes.
The last line of standard output is the JSON result; the lines before it
repeat every metric with its unit, the run environment, each failed op and,
when traced, each known defect.
"""

import os

# Pin BLAS to one thread before numpy loads, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# setup_s is the median of this many fresh-interpreter launches: back to
# back on a shared 2-core machine one launch ranged over 0.36-1.4 s
SETUP_LAUNCHES = 11
RUN_DIR = ".perfbench_run"

class SetupError(RuntimeError):
    """The working directory does not hold a utmcont source tree."""


def import_program(root):
    """Import utmcont from ``root/src``, never from an installed copy."""
    src = root / "src"
    if not (src / "utmcont" / "__init__.py").is_file():
        raise SetupError(f"no utmcont sources under {src}")
    sys.path.insert(0, str(src))
    import utmcont
    from utmcont import cli, continuous
    from utmcont.expr import parse

    if Path(utmcont.__file__).resolve().parent != (src / "utmcont").resolve():
        raise SetupError(f"utmcont imported from {utmcont.__file__}, "
                         f"not from {src}")
    return cli, continuous, parse


def taylor_spec(req, continuous, parse):
    """A fresh ProblemSpec for one taylor_coefficients request."""
    data = dict(req["data"])
    fields = {k: parse(data.pop(k), var_name="x" if k == "u0" else "t")
              for k in ("u0", "f0", "f1", "g0") if k in data}
    decay = data.pop("u0_decay", None)
    if decay:
        fields["u0_decay"] = (decay["type"], decay["rate"])
    return continuous.ProblemSpec(req["kind"], **fields, **data)


def prepare(ops, workdir, program):
    """Write each generated config, validate and build it, and fix argv."""
    cli, continuous, parse = program
    workdir.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(ops):
        csv = workdir / f"op{i}.csv"
        op.outputs = [csv]
        if op.command == "taylor":
            taylor_spec(op.taylor, continuous, parse)
            continue
        if op.scenario is not None:
            op.argv = [op.command, "--scenario", op.scenario, "--out",
                       str(csv)]
            cfg = json.loads(cli.scenario_path(op.scenario).read_text())
        else:
            report = workdir / f"op{i}.json"
            cfg = dict(op.config, outputs={"csv": str(csv),
                                           "json": str(report)})
            path = workdir / f"op{i}.config.json"
            path.write_text(json.dumps(cfg, indent=1))
            op.argv = [op.command, "--config", str(path)]
            op.outputs.append(report)
        cli.validate_config(cfg)
        cli.build_problem(cfg["problem"])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        if line:
            rows.append({k: (float(v) if v else None)
                         for k, v in zip(header, line.split(","))})
    return rows


def run_op(op, cli, continuous, parse, meter=None):
    """Execute one op; returns (latency_s, values delivered, failure).  With
    a started ``meter``, the latency is at the meter's reference speed."""
    for path in op.outputs:
        path.unlink(missing_ok=True)
    failure = None
    result = None
    sink = io.StringIO()
    since = meter.mark() if meter else None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if op.command == "taylor":
                req = op.taylor
                spec = taylor_spec(req, continuous, parse)
                result = continuous.taylor_coefficients(
                    spec, req["which"], req["t"], req["N"],
                    parity=req["parity"])
            else:
                code = cli.main(op.argv)
                if code != 0:
                    failure = f"exit code {code}: {sink.getvalue().strip()}"
    except tracing.TraceError:
        raise  # the tracer, not the op, is at fault
    except Exception as err:  # an op that raises is a failed op
        failure = f"{type(err).__name__}: {err}"
    latency = time.perf_counter() - started
    if meter:
        latency = meter.rescale(latency, since)
    if failure:
        return latency, 0, failure
    try:
        problems, delivered = check_output(op, result)
    except (OSError, ValueError, IndexError, KeyError, TypeError) as err:
        problems = [f"unreadable output: {type(err).__name__}: {err}"]
    if problems:
        return latency, 0, "; ".join(problems)
    return latency, delivered, None


def check_output(op, result):
    """(failure messages, values delivered) for a finished op."""
    if op.command == "taylor":
        values = [float(o) for o in result.orders] + list(result.coeffs)
        return (op.check(values) if op.check else []), len(result.coeffs)
    rows = read_csv(op.outputs[0])
    if op.scenario is None:
        problems = op.check(rows)
    elif op.command == "converge":
        problems = op.check([row[k] for row in rows
                             for k in ("h", "max_err", "observed_order")])
    else:
        problems = op.check([row["u_ac"] for row in rows])
    return problems, (op.points if op.points is not None else len(rows))


def csv_bytes(op):
    """Size of the op's CSV; the JSON report carries a wall time, so its
    size is not a repeatable count."""
    csv = op.outputs[0]
    return csv.stat().st_size if csv.exists() else 0


def run_pass(ops, program, tracer=None, meter=None):
    """One pass over the op list; returns per-op (name, latency, points,
    failure), the pass's wall time and its CSV bytes."""
    results = []
    io_bytes = 0
    started = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        latency, points, failure = run_op(op, *program, meter=meter)
        io_bytes += csv_bytes(op)
        results.append((op.name, latency, points, failure))
    return results, time.perf_counter() - started, io_bytes


def time_setup_probe(cmd, root):
    """Seconds from spawning a fresh interpreter to its first op, at the
    reference speed, and as measured."""
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        code = child.wait(timeout=60)
    word, *reading = line.split()
    if word != "ready" or len(reading) != 2 or code != 0:
        raise SetupError(f"setup probe failed (exit {code})")
    # the child's meter covers it from just after numpy is imported; its
    # speed stands for the whole launch
    spent, speed_ratio = map(float, reading)
    return (ready - started - spent) * speed_ratio, ready - started


def measure_setup(args, root):
    """setup_s: the median of SETUP_LAUNCHES fresh-interpreter launches at
    the reference speed; also the median as measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    launches = [time_setup_probe(cmd, root) for _ in range(SETUP_LAUNCHES)]
    return (statistics.median(t for t, _ in launches),
            statistics.median(t for _, t in launches))


def setup_probe(args, root):
    """Set up as a run does, under a meter; print "ready", the seconds spent
    sampling and the reference-to-measured speed ratio."""
    meter = speed.Meter()
    meter.start()
    try:
        program = import_program(root)
        ops = workloads.build(args.workload, args.seed, smoke=args.smoke)
        workdir = root / RUN_DIR / f"probe-{args.workload}-{args.seed}"
        prepare(ops, workdir, program)
    finally:
        meter.stop()
    print(f"ready {meter.spent!r} {meter.factor()!r}", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def harrell_davis_median(values):
    """Median estimate weighting every order statistic by a Beta kernel: it
    moves smoothly when two dissimilar ops swap places around the middle of
    a heterogeneous op list, where the sample median jumps between them."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2.0
    weights = [betainc(a, a, (i + 1) / n) - betainc(a, a, i / n)
               for i in range(n)]
    return float(sum(w * x for w, x in zip(weights, xs)))


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op lists, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()

    if args.setup_probe:
        setup_probe(args, root)
        return 0

    program = import_program(root)
    golden = workloads.load_golden()
    ops = workloads.build(args.workload, args.seed, smoke=args.smoke,
                          golden=golden)
    run_root = root / RUN_DIR
    workdir = run_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    prepare(ops, workdir, program)
    try:
        if not args.trace:
            setup_s, setup_measured_s = measure_setup(args, root)
        # untimed warm-up: the smoke-size list runs every op kind once
        warm = workloads.build(args.workload, args.seed, smoke=True,
                               golden=golden)
        prepare(warm, workdir / "warm-up", program)
        run_pass(warm, program)
        if args.trace:
            _, plain_wall, _ = run_pass(ops, program)  # overhead reference
            tracer = tracing.Tracer()
            tracer.install()
            try:
                results, traced_wall, io_bytes = run_pass(ops, program, tracer)
            finally:
                tracer.uninstall()
            passes = 1
        else:
            # max(2, round(seconds / t)) passes, t the first pass's wall
            # time: about --seconds of ops, and at least two repeats of each
            meter = speed.Meter()
            meter.start()
            try:
                results, first, _ = run_pass(ops, program, meter=meter)
                walls = [first]
                passes = max(2, round(args.seconds / first))
                for _ in range(passes - 1):
                    more, wall, _ = run_pass(ops, program, meter=meter)
                    results += more
                    walls.append(wall)
            finally:
                meter.stop()
        defects = []
        if args.trace:
            probes = workloads.defect_probes(args.workload)
            prepare(probes, workdir / "defects", program)
            defects = [(op.name, run_op(op, *program)[2]) for op in probes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(results)
    failed = [(name, why) for name, _, _, why in results if why]
    # an op's latency is the median of its repeats (one per pass), each at
    # the reference speed; an op that failed in any pass delivers nothing
    latencies = [statistics.median(r[1] for r in results[i::len(ops)])
                 for i in range(len(ops))]
    delivered = [min(r[2] for r in results[i::len(ops)])
                 for i in range(len(ops))]
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} ops={attempted} passes={passes} "
          f"(closed loop, 1 client)")
    print("env " + json.dumps(env))

    if args.trace:
        metrics_raw = tracer.metrics(io_bytes, traced_wall - plain_wall)
        trace_path = run_root / f"trace-{args.workload}-{args.seed}.npz"
        tracer.save(trace_path)
        print(f"spans {len(tracer.start)} written to {trace_path}")
        metrics = {name: metric(value, tracing.LAYER_METRICS[name][0])
                   for name, value in metrics_raw.items()}
    else:
        busy = sum(latencies)
        points = sum(delivered)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "points_per_s": metric(points / busy, "1/s"),
            "op_p50_s": metric(harrell_davis_median(latencies), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
        print(f"points: {points} values a pass over {busy:.3f} s of op "
              f"time at the reference speed, each op the median of "
              f"{passes} repeats")
        print(f"op_p50_s (Harrell-Davis) over {len(ops)} ops, each the "
              f"median of {passes} repeats at the reference speed")
        print(f"as measured: pass wall times "
              f"{' '.join(f'{w:.3f}' for w in walls)} s, setup "
              f"{setup_measured_s:.4f} s; reference / measured speed "
              f"{meter.factor():.4f} over {len(meter.inverse)} samples, "
              f"{meter.spent:.3f} s spent sampling")
        print(f"error_rate {len(failed) / attempted:.6g} "
              f"({len(failed)} failed of {attempted} ops)")
    for name, value in metrics.items():
        print(f"{name} {value['value']:.6g} {value['unit']}")
    for name, why in failed:
        print(f"failed op {name}: {why}")
    for name, why in defects:
        state = why if why else "no longer fails"
        print(f"known defect {name}: {state}")

    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SetupError, tracing.TraceError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
