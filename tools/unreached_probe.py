#!/usr/bin/env python3
"""List the amsyn functions that no paper bench, example or workload calls.

    python3 tools/unreached_probe.py WORKDIR [--seconds 3] [--jobs 2]
    python3 tools/unreached_probe.py --options

Run from anywhere; WORKDIR receives two coverage builds and the run
directory.  The probe

  1. configures and builds `-O1 --coverage` trees of the repository (the nine
     paper benches and the five examples) in WORKDIR/cov and of perfbench/
     (flow_bench) in WORKDIR/covpb;
  2. from an empty directory, WORKDIR/run, runs each paper bench with
     --benchmark_filter=NONE, each example, and flow_bench for --seconds on
     each workload with --trace 0 and 1;
  3. runs `gcov -f -n -m` over every object directory of the amsyn libraries
     in both trees and keeps, per demangled function, the best line coverage
     seen in any translation unit of either tree;
  4. prints every named amsyn function body that was never called, with its
     line count, and a summary line.

Lambdas and standard-library template copies (std::sort over an amsyn type,
say) are left out.  The build types append their own -O2/-O3 after -O1;
call counts are exact either way.  A cold run takes several minutes, so the
probe is not part of CI: run it when deciding what a bench still reaches.
Exits non-zero when a build, a bench, an example or a workload fails.

--options needs no build and no WORKDIR.  For every field of every
`*Options` / `*Config` struct under src/, it lists the files that assign the
field (`x.field = ...`, `x.field.y = ...`, `x->field += ...`, designated
initializers, `x.field.push_back(...)`), grouped by src/tests/bench/examples/
perfbench, and ends with the fields that only tests/ assigns, then those that
nothing assigns.  It matches by field name: a name that several of these
structs share (marked `*`), or that any other struct's member also carries,
lists the files of all of them, and positional aggregate initialization is
not seen.
"""
import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHES = ["table1_pulse_detector", "fig1_approaches", "fig2_cell_layouts", "fig3_rail_grid",
           "claim_corners", "claim_stacking", "claim_eval_speed", "claim_coupling",
           "ablations"]
EXAMPLES = ["quickstart", "pulse_detector", "mixed_signal_chip", "symbolic_analysis",
            "topology_explorer"]
WORKLOADS = ["amp_flow", "robust_corners", "gen_batch"]
AREAS = ["src", "tests", "bench", "examples", "perfbench"]
COVERAGE = ["-DCMAKE_CXX_FLAGS=-O1 --coverage", "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]


def run(cmd, **kw):
    print("+ " + " ".join(str(c) for c in cmd), file=sys.stderr, flush=True)
    subprocess.run(cmd, check=True, **kw)


def build(work, jobs):
    cov, covpb = work / "cov", work / "covpb"
    run(["cmake", "-S", ROOT, "-B", cov, *COVERAGE], stdout=sys.stderr)
    run(["cmake", "--build", cov, "-j", str(jobs), "--target",
         *["bench_" + b for b in BENCHES], *EXAMPLES], stdout=sys.stderr)
    run(["cmake", "-S", ROOT / "perfbench", "-B", covpb, *COVERAGE], stdout=sys.stderr)
    run(["cmake", "--build", covpb, "-j", str(jobs), "--target", "flow_bench"],
        stdout=sys.stderr)
    return cov, covpb


def exercise(work, cov, covpb, seconds):
    # Earlier runs' counts would add up: start every probe from zero.
    for tree in (cov, covpb):
        for gcda in tree.rglob("*.gcda"):
            gcda.unlink()
    cwd = work / "run"
    cwd.mkdir(parents=True, exist_ok=True)
    quiet = {"cwd": cwd, "stdout": subprocess.DEVNULL}
    for b in BENCHES:
        run([cov / "bench" / ("bench_" + b), "--benchmark_filter=NONE"], **quiet)
    for e in EXAMPLES:
        run([cov / "examples" / e], **quiet)
    for w in WORKLOADS:
        for trace in ("0", "1"):
            run([covpb / "flow_bench", "--workload", w, "--seconds", str(seconds),
                 "--trace", trace], **quiet)


def qualified_name(demangled):
    """The function's qualified name: no return type, no parameter list."""
    s = demangled.replace("(anonymous namespace)", "{anon}")
    s = re.sub(r"operator\s*(\(\)|\[\]|[^\w\s(]+|\s+\w+)",
               lambda m: "operator_" + str(len(m.group(1))), s)
    depth = 0
    for i, ch in enumerate(s):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            s = s[:i]
            break
    tokens, depth, cur = [], 0, ""
    for ch in s:
        depth += (ch == "<") - (ch == ">")
        if ch == " " and depth == 0:
            tokens.append(cur)
            cur = ""
        else:
            cur += ch
    return cur or (tokens[-1] if tokens else "")


def coverage(trees):
    """Best executed fraction and line count per named amsyn function."""
    best = {}
    for tree in trees:
        for objdir in sorted(tree.rglob("CMakeFiles/amsyn_*.dir")):
            gcnos = sorted(str(p) for p in objdir.glob("*.gcno"))
            if not gcnos:
                continue
            out = subprocess.run(["gcov", "-f", "-n", "-m", "-o", str(objdir), *gcnos],
                                 cwd=objdir, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True).stdout
            for name, pct, lines in re.findall(
                    r"^Function '(.*)'\nLines executed:([\d.]+)% of (\d+)", out, re.M):
                if "{lambda" in name or not qualified_name(name).startswith("amsyn::"):
                    continue
                seen = best.get(name)
                fraction = float(pct)
                if seen is None or fraction > seen[0]:
                    best[name] = (fraction, int(lines))
    return best


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def struct_fields(body):
    """Data member names declared at the top level of a struct body."""
    statements, depth, cur = [], 0, ""
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if depth == 0 and ch == ";":
            statements.append(cur)
            cur = ""
        elif depth == 0 and ch != "}":
            cur += ch
    fields = []
    for st in statements:
        st = " ".join(st.split())
        if not st or re.match(r"(static|using|friend|enum|struct|class|typedef)\b", st):
            continue
        angle = 0
        for i, ch in enumerate(st):  # cut the default value off
            angle += (ch == "<") - (ch == ">")
            if angle == 0 and ch in "={":
                st = st[:i]
                break
        if "(" in re.sub(r"<[^<>]*(<[^<>]*>[^<>]*)*>", "", st):
            continue  # a member function or constructor
        m = re.search(r"(\w+)\s*(\[[^\]]*\])?\s*$", st)
        if m:
            fields.append(m.group(1))
    return fields


def option_structs():
    """(struct, field, defining file) for every *Options/*Config struct."""
    out = []
    for path in sorted((ROOT / "src").rglob("*.[hc]pp")):
        text = strip_comments(path.read_text())
        for m in re.finditer(r"\b(?:struct|class)\s+(\w+(?:Options|Config))\b[^;{()]*\{", text):
            depth, i = 1, m.end()
            while depth and i < len(text):
                depth += (text[i] == "{") - (text[i] == "}")
                i += 1
            for field in struct_fields(text[m.end():i - 1]):
                out.append((m.group(1), field, path.relative_to(ROOT)))
    return out


def option_pass():
    """Print who assigns each option field, by area; see --options."""
    fields = option_structs()
    sources = {}
    for area in AREAS:
        for path in sorted((ROOT / area).rglob("*.[hc]pp")):
            sources[path.relative_to(ROOT)] = strip_comments(path.read_text())
    names = [f for _, f, _ in fields]
    only_tests, nowhere = [], []
    for struct, field, home in fields:
        assign = re.compile(r"(\.|->)\s*" + field + r"\b(\s*\[[^\]]*\])?"
                            r"(\s*(\.|->)\s*\w+)*\s*([-+*/|&]?=(?!=)|"
                            r"\.\s*(push_back|emplace_back|insert|emplace|assign)\s*\()")
        hits = {area: [] for area in AREAS}
        for path, text in sources.items():
            if assign.search(text):
                hits[path.parts[0]].append(str(path))
        label = f"{struct}::{field}" + ("*" if names.count(field) > 1 else "")
        print(f"{label}  ({home})")
        for area in AREAS:
            if hits[area]:
                print(f"    {area}: {' '.join(hits[area])}")
        if not any(hits.values()):
            nowhere.append(label)
        elif not any(hits[a] for a in AREAS if a != "tests"):
            only_tests.append(label)
    print(f"\nassigned only under tests/ ({len(only_tests)} of {len(fields)} fields):")
    for label in only_tests:
        print(f"    {label}")
    print(f"assigned nowhere ({len(nowhere)}):")
    for label in nowhere:
        print(f"    {label}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workdir", type=Path, nargs="?",
                    help="directory for the builds and the runs")
    ap.add_argument("--seconds", type=int, default=3, help="flow_bench seconds per run")
    ap.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    ap.add_argument("--options", action="store_true",
                    help="list who assigns each option field (no build)")
    args = ap.parse_args()
    if args.options:
        option_pass()
        return 0
    if args.workdir is None:
        ap.error("WORKDIR is required unless --options is given")
    work = args.workdir.resolve()
    try:
        cov, covpb = build(work, args.jobs)
        exercise(work, cov, covpb, args.seconds)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"unreached_probe.py: {e}", file=sys.stderr)
        return 1
    best = coverage([cov / "src", covpb / "amsyn"])
    unreached = sorted((lines, name) for name, (fraction, lines) in best.items()
                       if fraction == 0.0)
    for lines, name in sorted(unreached, key=lambda u: (-u[0], u[1])):
        print(f"{lines:5d}  {name}")
    print(f"{len(unreached)} of {len(best)} named amsyn function bodies have zero calls "
          f"({sum(lines for lines, _ in unreached)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
