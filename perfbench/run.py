#!/usr/bin/env python3
"""Build and run rispar's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
perfbench/ (with the library one directory up) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only re-check the build.

The last line of standard output is the result JSON object
{correct, attempted, failed, metrics}. Every run also writes a record with
the result, the host fingerprint and the summary lines to
<build dir>/results/, which compare.py reads.
Exit code: the perfbench binary's (0 ok, 1 incorrect), or 2 when the build
or the set-up fails or the run overstays its time limit.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_recognize", "log_find")


def run_timeout_s(seconds):
    """Past the timed loop a run spends at most about 60 s on inputs,
    oracles and its other set-ups; allow as much again."""
    return 2 * seconds + 90


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no rispar sources next to perfbench/ (looked in {ROOT})")
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def flatten(config):
    """config.json as the binary's tab-separated `key<TAB>field...` lines."""

    def esc(value):
        text = str(value)
        return text.replace("\\", "\\\\").replace("\n", "\\n").replace("\t", "\\t")

    def line(key, *fields):
        return "\t".join([key] + [esc(f) for f in fields])

    paper = config["paper_recognize"]
    stream = config["stream_probes"]
    lines = [line("setup_reps", config["setup_reps"]), line("log.text_bytes", config["log"]["text_bytes"])]
    for b in paper["benches"]:
        lines.append(
            line("paper.bench", b["name"], b["group"], b["bytes"], b["paper_dfa_rid_speedup"],
                 b["paper_transition_ratio"], b["regex"])
        )
    lines += [line("log.pattern", p) for p in config["log"]["patterns"]]
    for key in ("window_bytes", "session_windows", "nominal_feeds_per_s"):
        lines.append(line("stream." + key, stream[key]))
    return "\n".join(lines) + "\n"


def source_digest():
    """Identity of the measured code: the checkout is not a git repository."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(base, f) for f in sorted(files) if not f.endswith(".pyc")]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(HERE, "config.json")) as handle:
        config = json.load(handle)
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(build_root, "runs", f"{tag}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", work_dir]
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(command, input=flatten(config), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {timeout:g} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode == 2 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"perfbench exited with {proc.returncode} and no result")

    fingerprint = {}
    for text in lines[:-1]:
        if text.startswith("fingerprint "):
            fingerprint = json.loads(text[len("fingerprint "):])
            fingerprint["source"] = source_digest()
            text = "fingerprint " + json.dumps(fingerprint, sort_keys=True)
        print(text)
    result = json.loads(lines[-1])
    os.makedirs(os.path.join(build_root, "results"), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "exit_code": proc.returncode,
              "fingerprint": fingerprint, "result": result, "summary": lines[:-1]}
    with open(os.path.join(build_root, "results", f"{tag}-{os.getpid()}.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    if not args.trace:  # traced runs keep their span files
        shutil.rmtree(work_dir, ignore_errors=True)
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
