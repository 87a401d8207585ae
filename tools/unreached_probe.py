#!/usr/bin/env python3
"""List the amsyn functions that no paper bench, example or workload calls.

    python3 tools/unreached_probe.py WORKDIR [--seconds 3] [--jobs 2] [--check]
    python3 tools/unreached_probe.py --options [--check]

Run from anywhere; WORKDIR receives two coverage builds and the run
directory.  The probe

  1. configures and builds `-O1 -fno-inline --coverage` trees of the
     repository (the ten paper benches and the five examples) in WORKDIR/cov
     and of perfbench/ (flow_bench) in WORKDIR/covpb;
  2. from an empty directory, WORKDIR/run, runs each paper bench with
     --benchmark_filter=NONE, each example, and flow_bench for --seconds on
     each workload with --trace 0 and 1;
  3. runs `gcov -f -n -m` over every object directory in both trees and
     keeps, per demangled amsyn function, the best line coverage seen in any
     translation unit of either tree;
  4. prints every named amsyn function body that was never called, with its
     line count, and a summary line.

Lambdas and standard-library template copies (std::sort over an amsyn type,
say) are left out.  The build types append their own -O2/-O3 after -O1;
call counts are exact either way, and -fno-inline keeps an out-of-line copy
of every function, so a call that would have been inlined still counts.
Exits non-zero when a build, a bench, an example or a workload fails.

With --check it also exits 1 when a zero-call body is not named in
KEPT_UNREACHED (the bodies kept on purpose, each with its reason), or when
an entry there names a body that is now called or gone.  A cold run takes
several minutes, so it is not part of tier-1 CI; a scheduled workflow
(.github/workflows/unreached.yml) runs it.

--options needs no build and no WORKDIR.  For every field of every
`*Options` / `*Config` struct under src/, it lists the files that assign the
field (`x.field = ...`, `x.field.y = ...`, `x->field += ...`,
`x.field.push_back(...)`), grouped by src/tests/bench/examples/perfbench,
and ends with the fields that only tests/ assigns, then those that nothing
assigns.  A match counts for a struct only when its receiver's declared type
in that file is the struct: the receiver may be a local, a parameter, a
member (declared in the file or its header), an `auto` copy of one of
those, an element of a vector/array/map, or a path through fields whose
declared types lead to the struct.  So a name that several structs share
(marked `*`) counts only for the struct it belongs to.  A receiver it cannot
type is listed under its own heading and not counted as an assignment.
Positional aggregate initialization and designated initializers are not
seen.

    python3 tools/unreached_probe.py --options --check

exits 1 when a field outside KEPT_DEFAULTS (the defaults kept on purpose,
each with its reason) is assigned nowhere, when a field outside
KEPT_TEST_KNOBS (the knobs only tests turn, each with its reason) is
assigned only under tests/, or when an entry of either list no longer
matches what it names.  CI runs it.
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
           "ablations", "robustness"]
EXAMPLES = ["quickstart", "pulse_detector", "mixed_signal_chip", "symbolic_analysis",
            "topology_explorer"]
WORKLOADS = ["amp_flow", "robust_corners", "gen_batch"]
AREAS = ["src", "tests", "bench", "examples", "perfbench"]
# gcov spells std::string out; the list prints and keys it short.
STRING = "std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >"
COVERAGE = ["-DCMAKE_CXX_FLAGS=-O1 -fno-inline --coverage", "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]


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
    """Best executed fraction and line count per named amsyn function.  Every
    object directory counts, the benches' and examples' too: an inline
    function's calls land in whichever copy of it the linker kept."""
    best = {}
    for tree in trees:
        for objdir in sorted(tree.rglob("CMakeFiles/*.dir")):
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
                name = name.replace(STRING, "std::string").replace("[abi:cxx11]", "")
                seen = best.get(name)
                fraction = float(pct)
                if seen is None or fraction > seen[0]:
                    best[name] = (fraction, int(lines))
    return best


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


# A template argument list, nested up to three deep.
TEMPLATE = r"<[^<>]*(?:<[^<>]*(?:<[^<>]*>[^<>]*)*>[^<>]*)*>"
# Words that can precede a name without being its type.
NOT_TYPES = {"return", "else", "case", "new", "delete", "throw", "typename", "using",
             "goto", "co_return", "sizeof", "operator", "struct", "class", "const",
             "if", "while", "for", "switch", "do", "and", "or", "not", "static_cast"}
ELEMENT_OF = {"vector": 0, "array": 0, "deque": 0, "span": 0, "initializer_list": 0,
              "map": 1, "unordered_map": 1}
POINTEE_OF = {"unique_ptr", "shared_ptr", "weak_ptr", "optional"}
# A receiver: `opts`, `cases[0].opts`, `o.synthesis.anneal`, `p->grid`.
STEP = r"\w+(?:\s*\[[^\[\]]*\])*"
RECEIVER = re.compile(STEP + r"(?:\s*(?:\.|->)\s*" + STEP + r")*")
# Function bodies that no bench, example or workload calls, kept on purpose.
# Each reason starts with its kind: (a) safety code (error handling, the
# tests' fault injector); (b) a path a real input reaches, named; (c) a
# reference or oracle tests compare against; (d) a test's only way to observe
# code a workload reaches; (e) a caller a named ROADMAP item plans.  --check
# fails on any other zero-call body, and on an entry here that is called or
# gone.  Keys are gcov's demangled names.
KEPT_UNREACHED = {
    # (a) safety code
    "amsyn::core::classifyException(std::__exception_ptr::exception_ptr)":
        "(a) maps an escaped exception to its EvalStatus; no bench input throws",
    "amsyn::core::Performance::clear()":
        "(a) safeEvaluate's catch path empties a throwing model's payload",
    "amsyn::sizing::markInfeasible(amsyn::core::Performance&, amsyn::core::EvalStatus)":
        "(a) tags a failed evaluation; no bench evaluation fails",
    "amsyn::core::StageOutcome::skip(std::string)":
        "(a) a sizing stage with no candidate or a failed plan backtrack skips",
    "amsyn::sim::FaultInjector::arm(amsyn::sim::FaultPlan const&)":
        "(a) the tests' fault injector",
    "amsyn::sim::FaultInjector::disarm()": "(a) the tests' fault injector",
    "amsyn::sim::FaultInjector::takeBudgetExhaustion()": "(a) the tests' fault injector",
    "amsyn::sim::(anonymous namespace)::take(unsigned long&)": "(a) the tests' fault injector",
    "amsyn::manufacture::CornerSetModel::evaluateEach(std::vector<double, "
    "std::allocator<double> > const&) const":
        "(a) a corner set whose factory is not the two-stage batch, or a batch that throws, "
        "evaluates each corner through safeEvaluate",
    "amsyn::manufacture::(anonymous namespace)::foldByName(amsyn::core::Performance&, "
    "amsyn::core::Performance const&, amsyn::sizing::SpecSet const&)":
        "(a) folds a corner that is NaN, failed or thrown, where the by-position fold "
        "cannot",
    # (b) a path a real input reaches
    "amsyn::layout::generateResistor(std::string const&, double, std::string const&, "
    "std::string const&, amsyn::circuit::Process const&)":
        "(b) core::layoutCell on a netlist with a resistor (celllayout.cpp:123), e.g. a "
        "Miller-nulled structure's RZ",
    "amsyn::sizing::SpecSet::maximize(std::string const&, double, double)":
        "(b) a spec set with a maximize objective (flowgraph.cpp:107)",
    "amsyn::circuit::Netlist::addDiode(std::string const&, std::string const&, "
    "std::string const&, double)": "(b) a deck with a D card (parser.cpp:189)",
    "amsyn::sim::(anonymous namespace)::diodeEval(double, double, double, double&, double&)":
        "(b) simulating a deck with a D card (mna.cpp:166)",
    "amsyn::circuit::Netlist::addInductor(std::string const&, std::string const&, "
    "std::string const&, double)": "(b) a deck with an L card (parser.cpp:120)",
    "amsyn::circuit::Netlist::addVcvs(std::string const&, std::string const&, "
    "std::string const&, std::string const&, std::string const&, double)":
        "(b) a deck with an E card (parser.cpp:144)",
    "amsyn::circuit::Netlist::addVccs(std::string const&, std::string const&, "
    "std::string const&, std::string const&, std::string const&, double)":
        "(b) a deck with a G card (parser.cpp:148)",
    # (c) references and oracles
    "amsyn::layout::stackingValid(amsyn::layout::DiffusionGraph const&, "
    "amsyn::layout::Stacking const&)": "(c) the oracle the stacking tests check both "
                                      "extractors against",
    "amsyn::sizing::TwoStageParams::activeArea(amsyn::circuit::Process const&) const":
        "(c) the hand-written area the equation model's area is tested against",
    # (d) a test's only view of code a workload reaches
    "amsyn::awe::aweTransfer(amsyn::sim::Mna const&, amsyn::sim::DcResult const&, "
    "std::string const&, unsigned long)":
        "(d) AWE of a netlist: acMatrices plus aweLinearSystem, which the relaxed model "
        "and RAIL run",
    "amsyn::awe::AweModel::magnitudeAt(double) const":
        "(d) |H(jw)| of the pole/residue form that the relaxed model and RAIL evaluate",
    "amsyn::core::trace::reset()":
        "(d) clears the span aggregates every run records, so a test reads its own spans",
    "amsyn::circuit::Netlist::device(std::string const&) const":
        "(d) reads one device of a parsed deck or built netlist",
    "amsyn::geom::CellMaster::pinsOnNet(std::string const&) const":
        "(d) reads the pins the module generators make",
    "amsyn::extract::ExtractionResult::couplingBetween(std::string const&, "
    "std::string const&) const": "(d) reads the coupling the extractor computes",
    "amsyn::extract::ExtractionResult::groundCapOf(std::string const&) const":
        "(d) reads the ground capacitance the extractor computes",
    "amsyn::sim::dcOperatingPoint(amsyn::sim::Mna const&, amsyn::core::Deadline*)":
        "(d) the DC solve the flows run, from a zero start",
    "amsyn::topology::boundsBySampling(amsyn::sizing::PerformanceModel const&, "
    "unsigned long, double)":
        "(d) the library build's sampled bounds on a uniform grid",
}


# Fields that no caller assigns, on purpose.  --check fails on any other
# field that nothing assigns, and on an entry here that something does.
KEPT_DEFAULTS = {
    **{f"PulseDetectorConfig::{f}": "describes the detector being designed (the problem "
       "statement, like a SpecSet), not a tuning knob"
       for f in ("detectorCap", "leakageCurrent", "shaperStages", "stageLoadCap",
                 "shaperStageGain", "csaLoadCap")},
    "YieldOptions::space": "the variation box of the yield estimate; worstCaseCorners "
                           "takes the same box as an argument",
}


# Fields that only tests/ assigns, on purpose.  --check fails on any other
# test-only field, and on an entry here that is no longer test-only.
KEPT_TEST_KNOBS = {
    "FlowOptions::maxRedesigns": "tests set 1-4 redesigns to reach the redesign-limit exit "
                                 "and keep flow fixtures short",
    "FlowOptions::synthesis": "tests pass fast sizing options and seeds; the benches reach "
                              "the same options through RobustOptions, perfbench through "
                              "its own flow",
    "FlowOptions::layout": "tests switch annealed placement off to keep flow fixtures short; "
                           "the benches set CellLayoutOptions through core::layoutCell",
    "RobustOptions::maxRounds": "tests cap the corner search at one round to reach its "
                                "round-limit exit and keep robust fixtures short",
    "AnnealOptions::coolingRate": "fastSynthesisOptions() cools faster to keep sizing "
                                  "fixtures short",
}


def struct_fields(body):
    """(type, name) of each data member declared at the top level of a struct body."""
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
        st = re.sub(r"^(public|private|protected)\s*:\s*", "", st)
        if not st or re.match(r"(static|using|friend|enum|struct|class|typedef)\b", st):
            continue
        angle = 0
        for i, ch in enumerate(st):  # cut the default value off
            angle += (ch == "<") - (ch == ">")
            if angle == 0 and ch in "={":
                st = st[:i]
                break
        if "(" in re.sub(TEMPLATE, "", st):
            continue  # a member function or constructor
        m = re.search(r"(\w+)\s*(\[[^\]]*\])?\s*$", st)
        if m:
            fields.append((re.sub(r"^mutable\s+", "", st[:m.start()].strip()), m.group(1)))
    return fields


def structs_in(text):
    """(name, fields) for every struct or class defined in a source text."""
    for m in re.finditer(r"\b(?:struct|class)\s+(\w+)\b[^;{()]*\{", text):
        if text[:m.start()].rstrip().endswith("enum"):
            continue
        depth, i = 1, m.end()
        while depth and i < len(text):
            depth += (text[i] == "{") - (text[i] == "}")
            i += 1
        yield m.group(1), struct_fields(text[m.end():i - 1])


def type_parts(t):
    """(base name, top-level template arguments) of a declared type."""
    t = re.sub(r"\b(const|volatile|mutable|static|inline|constexpr)\b|[&*]", " ", t).strip()
    lt = t.find("<")
    head, args = (t if lt < 0 else t[:lt]), []
    if lt >= 0:
        depth, cur = 0, ""
        for ch in t[lt + 1:t.rfind(">")]:
            depth += (ch == "<") - (ch == ">")
            if ch == "," and depth == 0:
                args.append(cur)
                cur = ""
            else:
                cur += ch
        args.append(cur)
    return re.split(r"\s*::\s*", head.strip())[-1], args


class Resolver:
    """Finds the declared type of an assignment's receiver in one file."""

    def __init__(self, sources):
        self.sources = sources
        self.fields = {}  # struct name -> {field name: declared type}
        for text in sources.values():
            for name, members in structs_in(text):
                self.fields.setdefault(name, {}).update({f: t for t, f in members})
        self.decls = {}

    def declarations(self, path, name):
        """(position, type, initializer) of every declaration of `name` in a file."""
        key = (path, name)
        if key not in self.decls:
            text = self.sources[path]
            # `T name`, `const T& name`, and later names of a list `T a, name`.
            pat = re.compile(r"(?<![\w.>:])((?:\w+\s*::\s*)*\w+(?:\s*" + TEMPLATE + r")?)"
                             r"(?:\s+const)?\s*[&*]*\s*(?:\b\w+\s*,\s*)*\b" + name +
                             r"\s*(?=[;=,)\[{(:])")
            found = []
            for m in pat.finditer(text):
                if m.group(1) in NOT_TYPES or m.group(1) == name:
                    continue
                init = re.match(r"\s*=\s*([^;]*);", text[m.end():])
                found.append((m.start(), m.group(1), init.group(1) if init else ""))
            self.decls[key] = found
        return self.decls[key]

    def root_type(self, path, name, pos, depth):
        """The type of the variable `name` used at `pos`: the nearest declaration
        before it, else the first after it (a member), else one in the header."""
        candidates = [(path, pos)]
        header = path.with_suffix(".hpp")
        if path.suffix == ".cpp" and header in self.sources:
            candidates.append((header, 0))
        for where, at in candidates:
            decls = self.declarations(where, name)
            before = [d for d in decls if d[0] < at]
            chosen = before[-1] if before else (decls[0] if decls else None)
            if chosen is None:
                continue
            declared, init = chosen[1], chosen[2]
            if type_parts(declared)[0] != "auto":
                return declared
            m = re.fullmatch(r"\s*((?:\w+\s*::\s*)*\w+)\s*(?:\{.*\}|\(.*\))\s*", init, re.S)
            if m:
                return m.group(1)
            return self.path_type(where, init.strip(), chosen[0], depth + 1)
        return None

    def path_type(self, path, receiver, pos, depth=0):
        """Base type name of a receiver such as `opts`, `cases[0].opts` or
        `o.synthesis.anneal`, or None when it cannot be resolved."""
        if depth > 4 or not RECEIVER.fullmatch(receiver):
            return None
        steps = re.findall(r"(\.|->|^)\s*(\w+)((?:\s*\[[^\[\]]*\])*)", receiver)
        declared = None
        for sep, name, index in steps:
            if declared is None:
                declared = self.root_type(path, name, pos, depth)
            else:
                base, args = type_parts(declared)
                if sep == "->" and base in POINTEE_OF and args:
                    base, args = type_parts(args[0])
                declared = self.fields.get(base, {}).get(name)
            if declared is None:
                return None
            for _ in re.findall(r"\[", index):
                base, args = type_parts(declared)
                if base in ELEMENT_OF and len(args) > ELEMENT_OF[base]:
                    declared = args[ELEMENT_OF[base]]
        return type_parts(declared)[0]


def option_structs():
    """(struct, field, defining file) for every *Options/*Config struct."""
    out = []
    for path in sorted((ROOT / "src").rglob("*.[hc]pp")):
        for name, members in structs_in(strip_comments(path.read_text())):
            if name.endswith(("Options", "Config")):
                out.extend((name, field, path.relative_to(ROOT)) for _, field in members)
    return out


def option_pass(check):
    """Print who assigns each option field, by area; see --options."""
    fields = option_structs()
    sources = {}
    for area in AREAS:
        for path in sorted((ROOT / area).rglob("*.[hc]pp")):
            sources[path.relative_to(ROOT)] = strip_comments(path.read_text())
    resolver = Resolver(sources)
    names = [f for _, f, _ in fields]
    only_tests, nowhere, unresolved = [], [], []
    for struct, field, home in fields:
        assign = re.compile(r"(\.|->)\s*" + field + r"\b(\s*\[[^\]]*\])?"
                            r"(\s*(\.|->)\s*\w+)*\s*([-+*/|&]?=(?!=)|"
                            r"\.\s*(push_back|emplace_back|insert|emplace|assign)\s*\()")
        hits = {area: [] for area in AREAS}
        label = f"{struct}::{field}" + ("*" if names.count(field) > 1 else "")
        for path, text in sources.items():
            assigned = False
            for m in assign.finditer(text):
                before = re.search("(" + RECEIVER.pattern + r")\s*$",
                                   text[max(0, m.start() - 200):m.start()])
                receiver = before.group(1) if before else ""
                found = resolver.path_type(path, receiver, m.start()) if receiver else None
                if found == struct:
                    assigned = True
                elif found is None:
                    line = text.count("\n", 0, m.start()) + 1
                    unresolved.append(f"{label}  {path}:{line}  `{receiver or '?'}`")
            if assigned:
                hits[path.parts[0]].append(str(path))
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
        print(f"    {label}" + (f"  (kept: {KEPT_TEST_KNOBS[label.rstrip('*')]})"
                                if label.rstrip("*") in KEPT_TEST_KNOBS else ""))
    print(f"receiver type unresolved, not counted as assigned ({len(unresolved)}):")
    for hit in unresolved:
        print(f"    {hit}")
    print(f"assigned nowhere ({len(nowhere)}):")
    for label in nowhere:
        print(f"    {label}" + (f"  (kept: {KEPT_DEFAULTS[label.rstrip('*')]})"
                                if label.rstrip("*") in KEPT_DEFAULTS else ""))
    if not check:
        return 0
    failed = False
    for found, kept, name, what, fix in (
            (nowhere, KEPT_DEFAULTS, "KEPT_DEFAULTS", "assigned nowhere", "make it a constant"),
            (only_tests, KEPT_TEST_KNOBS, "KEPT_TEST_KNOBS", "assigned only under tests/",
             "make it a constant, or have a bench set it")):
        bare = {label.rstrip("*") for label in found}
        for label in sorted(bare - kept.keys()):
            print(f"unreached_probe.py: {label} is {what}: {fix}, or keep it in {name} "
                  f"with a reason", file=sys.stderr)
            failed = True
        for label in sorted(kept.keys() - bare):
            print(f"unreached_probe.py: {name} lists {label}, which is no longer {what}: "
                  f"drop the entry", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def function_pass(best, check):
    """Print the zero-call bodies; with check, hold them to KEPT_UNREACHED."""
    unreached = {name: lines for name, (fraction, lines) in best.items() if fraction == 0.0}
    for name, lines in sorted(unreached.items(), key=lambda u: (-u[1], u[0])):
        kept = KEPT_UNREACHED.get(name)
        print(f"{lines:5d}  {name}" + (f"  (kept: {kept})" if kept else ""))
    print(f"{len(unreached)} of {len(best)} named amsyn function bodies have zero calls "
          f"({sum(unreached.values())} lines)")
    kept = [name for name in unreached if name in KEPT_UNREACHED]
    print("kept by reason: " + ", ".join(
        f"({r}) {sum(KEPT_UNREACHED[n].startswith(f'({r})') for n in kept)}" for r in "abcde"))
    if not check:
        return 0
    failed = False
    for name in sorted(unreached.keys() - KEPT_UNREACHED.keys()):
        print(f"unreached_probe.py: {name} has zero calls: delete it, or keep it in "
              f"KEPT_UNREACHED with a reason", file=sys.stderr)
        failed = True
    for name in sorted(KEPT_UNREACHED.keys() - unreached.keys()):
        print(f"unreached_probe.py: KEPT_UNREACHED lists {name}, which is "
              f"{'now called' if name in best else 'gone'}: drop the entry", file=sys.stderr)
        failed = True
    for name, reason in sorted(KEPT_UNREACHED.items()):
        if not re.match(r"\([a-e]\) ", reason):
            print(f"unreached_probe.py: KEPT_UNREACHED's reason for {name} does not start "
                  f"with one of (a)-(e)", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workdir", type=Path, nargs="?",
                    help="directory for the builds and the runs")
    ap.add_argument("--seconds", type=int, default=3, help="flow_bench seconds per run")
    ap.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    ap.add_argument("--options", action="store_true",
                    help="list who assigns each option field (no build)")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on a zero-call body outside KEPT_UNREACHED, or with "
                         "--options on a field outside the kept lists")
    args = ap.parse_args()
    if args.options:
        return option_pass(args.check)
    if args.workdir is None:
        ap.error("WORKDIR is required unless --options is given")
    work = args.workdir.resolve()
    try:
        cov, covpb = build(work, args.jobs)
        exercise(work, cov, covpb, args.seconds)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"unreached_probe.py: {e}", file=sys.stderr)
        return 1
    return function_pass(coverage([cov, covpb]), args.check)


if __name__ == "__main__":
    sys.exit(main())
