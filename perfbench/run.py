#!/usr/bin/env python3
"""Build finser's benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig9_sweep --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload listed in BENCHMARK.json, each in a
fresh process, one after another.

Build outputs, the Go build cache and the benchmark's scratch data all stay
under .bench_build/ in the checkout.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                      ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                      ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[name] = path
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off",
               GOENV="off", GOTELEMETRY="off", CGO_ENABLED="0")
    return env


def build(env):
    res = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        sys.exit("perfbench: build failed")


def workload_arg(args):
    for i, a in enumerate(args):
        if a == "--workload" and i + 1 < len(args):
            return i + 1
    return None


def main():
    args = sys.argv[1:]
    env = go_env()
    build(env)
    i = workload_arg(args)
    if i is None or args[i] != "all":
        os.chdir(ROOT)
        os.execve(BINARY, [BINARY] + args, env)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    code = 0
    for name in names:
        args[i] = name
        res = subprocess.run([BINARY] + args, cwd=ROOT, env=env)
        code = code or res.returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
