#!/usr/bin/env python3
"""detlint — repo-specific determinism linter for flowercdn.

The repo's load-bearing guarantee is bit-identical output across
``shards=N``, serial vs threaded executors, ``jobs=N`` sweeps and reruns.
That guarantee is enforced end-to-end by golden-diff tests, but nothing
in the compiler stops a change from quietly breaking it. detlint is the
static leg: a small, dependency-free linter that scans ``src/`` for the
three bug classes that have historically threatened the guarantee.

Rules
-----
unordered-iteration
    A range-for over a ``std::unordered_map`` / ``std::unordered_set``
    whose loop body reaches an ordered output: an RNG draw, a Metrics
    write, a ``Network::Send``/schedule, sink emission, or building an
    ordered result. Hash-bucket order is implementation-defined, so any
    such loop makes output depend on the standard library's hash layout.
    Loops whose only "output" is ``push_back``/``emplace_back`` into a
    vector that is later passed to ``std::sort`` in the same function are
    accepted — that is the canonical fix idiom.

wall-clock
    Wall-clock or ambient-entropy reads inside the simulation:
    ``std::chrono::{system,steady,high_resolution}_clock``, ``time()``,
    ``clock()``, ``gettimeofday``, ``std::rand``/``srand`` and
    ``std::random_device``. Virtual time comes from ``Simulator::Now()``;
    randomness comes from seeded ``Rng`` streams. (Diagnostics-only
    timing that is provably kept out of sinks may be allowlisted
    per line.)

raw-prob-draw
    A probability draw in lane-executed code (``src/net/``,
    ``src/core/``) taken from the simulator's master RNG
    (``rng()->Bernoulli(...)`` and friends) or from a raw
    ``std::*_distribution``. Runtime draws must come from per-lane
    streams derived from the master seed
    (``Rng(Mix64(seed ^ (tag + slot)))`` — the churn-manager /
    fault-injector pattern): a master-RNG draw perturbs every later
    consumer of that stream and makes the schedule depend on lane
    interleaving. Setup-phase draws that provably run before the
    simulation starts may be allowlisted per line.

Opt-out
-------
A finding can be waived per line with a justification::

    // detlint: allow(<rule>) — <reason>

on the flagged line or the line directly above it. The reason is
mandatory; an allow comment without one is itself reported
(``allow-missing-reason``).

Usage
-----
    tools/detlint.py [--root DIR] [PATH...]

PATHs default to ``src``. Exit status: 0 clean, 1 findings, 2 usage
error. Output is deterministic: ``path:line: [rule] message`` sorted by
(path, line, rule). If the ``clang.cindex`` python bindings are
importable they are used to sharpen declaration parsing; the bundled
regex/bracket scanner is the portable fallback and the one CI pins.
"""

import argparse
import os
import re
import sys

# --- rule ids ----------------------------------------------------------------

RULE_UNORDERED = "unordered-iteration"
RULE_WALLCLOCK = "wall-clock"
RULE_RAWPROB = "raw-prob-draw"
RULE_BAD_ALLOW = "allow-missing-reason"

ALL_RULES = (RULE_UNORDERED, RULE_WALLCLOCK, RULE_RAWPROB, RULE_BAD_ALLOW)

RULE_HELP = {
    RULE_UNORDERED: "unordered-container iteration reaching an ordered output",
    RULE_WALLCLOCK: "wall-clock / ambient-entropy read inside the simulation",
    RULE_RAWPROB: "probability draw not from a lane-derived RNG stream",
    RULE_BAD_ALLOW: "detlint allow() comment without a justification",
}

# --- allow comments ----------------------------------------------------------

ALLOW_RE = re.compile(
    r"//\s*detlint:\s*allow\(([a-z-]+)\)\s*(?:[—–-]+\s*(\S.*))?")


class Findings:
    """Accumulates findings and applies per-line allow() waivers."""

    def __init__(self):
        self.items = []  # (path, line, rule, message)

    def add(self, path, line, rule, message):
        self.items.append((path, line, rule, message))

    def filter_allowed(self, sources):
        """Drops findings waived by an allow comment on the same or the
        preceding line; reports allow comments lacking a reason."""
        kept = []
        for path, line, rule, message in self.items:
            lines = sources.get(path, [])
            waived = False
            for probe in (line, line - 1):
                if not 1 <= probe <= len(lines):
                    continue
                m = ALLOW_RE.search(lines[probe - 1])
                if m and m.group(1) == rule:
                    waived = m.group(2) is not None
                    break
            if not waived:
                kept.append((path, line, rule, message))
        # An allow() with no reason is a finding wherever it appears.
        for path, lines in sorted(sources.items()):
            for i, text in enumerate(lines, start=1):
                m = ALLOW_RE.search(text)
                if m and m.group(2) is None:
                    kept.append((path, i, RULE_BAD_ALLOW,
                                 "allow(%s) needs a '— <reason>' "
                                 "justification" % m.group(1)))
        self.items = kept


# --- source model ------------------------------------------------------------

LINE_COMMENT_RE = re.compile(r"//[^\n]*")
BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.S)
STRING_RE = re.compile(r'"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)*\'')


def blank_keep_newlines(match):
    return re.sub(r"[^\n]", " ", match.group(0))


def strip_comments(text):
    """Blanks comments and string/char literals, preserving offsets."""
    text = BLOCK_COMMENT_RE.sub(blank_keep_newlines, text)
    text = STRING_RE.sub(blank_keep_newlines, text)
    text = LINE_COMMENT_RE.sub(blank_keep_newlines, text)
    return text


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def match_angle_brackets(text, start):
    """`start` indexes the '<' opening a template argument list; returns
    the index one past the matching '>' (handles nesting and >>)."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{":
            break  # malformed / not a template after all
        i += 1
    return start + 1


def match_braces(text, start):
    """`start` indexes '{'; returns index one past the matching '}'."""
    depth = 0
    i = start
    while i < len(text):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(text)


IDENT_RE = re.compile(r"[A-Za-z_]\w*")

UNORDERED_TYPE_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set)\s*<")
USING_ALIAS_RE = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=\s*([^;]+);")


INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.M)


def build_visibility(texts):
    """Maps each scanned file to the set of scanned files whose
    declarations it can see: itself plus quoted #includes, transitively,
    resolved by path-suffix match against the scanned set. Keeps a
    member declared `std::unordered_map` in one subsystem from tainting
    an identically-named ordered member elsewhere."""
    by_suffix = {}
    for path in texts:
        norm = path.replace(os.sep, "/")
        parts = norm.split("/")
        for i in range(len(parts)):
            by_suffix.setdefault("/".join(parts[i:]), set()).add(path)

    direct_includes = {}
    for path, text in texts.items():
        deps = set()
        for inc in INCLUDE_RE.findall(text):
            hits = by_suffix.get(inc.replace(os.sep, "/"), set())
            if len(hits) == 1:
                deps.add(next(iter(hits)))
        direct_includes[path] = deps

    visible = {}

    def resolve(path, stack):
        if path in visible:
            return visible[path]
        if path in stack:
            return {path}
        stack.add(path)
        out = {path}
        for dep in direct_includes[path]:
            out |= resolve(dep, stack)
        stack.discard(path)
        visible[path] = out
        return out

    for path in texts:
        resolve(path, set())
    return visible


def collect_unordered_names(text):
    """Names declared in `text` whose type involves
    std::unordered_{map,set}.

    Returns (direct, nested):
      direct — variables/members that ARE unordered containers;
      nested — variables whose type CONTAINS an unordered container
               below the top level (e.g. vector<unordered_map<...>>):
               iterating them yields unordered elements.
    """
    clean = strip_comments(text)
    aliases_direct = set()
    aliases_nested = set()
    for m in USING_ALIAS_RE.finditer(clean):
        name, rhs = m.group(1), m.group(2)
        if UNORDERED_TYPE_RE.search(rhs):
            um = UNORDERED_TYPE_RE.search(rhs)
            if rhs[: um.start()].strip() in ("", "const"):
                aliases_direct.add(name)
            else:
                aliases_nested.add(name)

    direct, nested = set(), set()
    if True:
        pos = 0
        while True:
            m = UNORDERED_TYPE_RE.search(clean, pos)
            if m is None:
                break
            open_angle = m.end() - 1
            end = match_angle_brackets(clean, open_angle)
            pos = end
            # Walk out of any enclosing template layers (vector<...>>) to
            # find the declared name: scan forward over '>' ',' spaces.
            i = end
            depth_out = 0
            while i < len(clean) and clean[i] in "> \t\n,*&":
                if clean[i] == ">":
                    depth_out += 1
                if clean[i] == ",":
                    # another template parameter follows; not a plain decl
                    break
                i += 1
            ident = IDENT_RE.match(clean, i)
            if not ident:
                continue
            after = clean[ident.end():ident.end() + 2]
            if not after or after[0] not in ";={(":
                # not a declaration (e.g. function return type)
                continue
            name = ident.group(0)
            if name in ("const", "mutable", "static"):
                continue
            if depth_out > 0:
                nested.add(name)
            else:
                direct.add(name)
        # Alias-typed declarations: `Alias name;`
        for alias in aliases_direct | aliases_nested:
            for dm in re.finditer(r"\b%s\s+([A-Za-z_]\w*)\s*[;={]" % alias,
                                  clean):
                (direct if alias in aliases_direct else nested).add(
                    dm.group(1))
    return direct, nested


# --- rule: unordered-iteration ----------------------------------------------

RANGE_FOR_RE = re.compile(r"\bfor\s*\(")

# Ordered-output sinks. Any hit inside the loop body flags the loop,
# except push_back/emplace_back into a vector later std::sort-ed.
SINK_PATTERNS = [
    ("RNG draw", re.compile(
        r"\b(?:rng|Rng)\b|->\s*(?:Next|UniformInt|UniformDouble|Bernoulli|"
        r"Exponential|Index|SampleIndices|WeightedIndex|Shuffle|Fork)\s*\(|"
        r"\.(?:Next|UniformInt|UniformDouble|Bernoulli|Exponential|Index|"
        r"SampleIndices|WeightedIndex|Shuffle|Fork)\s*\(")),
    ("Metrics write", re.compile(
        r"\bmetrics\w*\s*(?:\.|->)|\bMetrics\s*::|[.>]On[A-Z]\w*\s*\(")),
    ("network send / event schedule", re.compile(
        r"[.>]\s*Send\s*\(|\bRouteToLane\s*\(|\bScheduleOnLane\s*\(|"
        r"[.>]\s*Schedule(?:At)?\s*\(|\bSchedulePeriodic\s*\(")),
    ("sink emission", re.compile(
        r"[.>]\s*Write\s*\(|\bf?printf\s*\(|<<")),
]

APPEND_RE = re.compile(r"\b([A-Za-z_][\w.]*?)(?:->|\.)"
                       r"(?:push_back|emplace_back)\s*\(")


def split_range_for(header):
    """For 'for (DECL : EXPR)' returns (loop_var, range_expr); None for a
    classic three-clause for."""
    depth = 0
    for i, c in enumerate(header):
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        elif c == ":" and depth == 0:
            # exclude '::'
            if i + 1 < len(header) and header[i + 1] == ":":
                continue
            if i > 0 and header[i - 1] == ":":
                continue
            decl = header[:i].strip()
            expr = header[i + 1:].strip()
            idents = IDENT_RE.findall(decl)
            var = idents[-1] if idents else ""
            return var, expr
    return None


def enclosing_function_tail(clean, body_end):
    """Text from the end of the loop body to the end of the enclosing
    function — where a std::sort fix-up would live. The function's
    closing brace is recognized as a '}' at column 0 (the style
    throughout this codebase); nested block closes don't end the scan."""
    end = clean.find("\n}", body_end)
    return clean[body_end:] if end < 0 else clean[body_end:end]


def check_unordered_iteration(path, text, direct, nested, findings):
    clean = strip_comments(text)
    # Local taint: range-for variables bound from nested-unordered
    # containers (e.g. `for (auto& m : vec_of_umaps)` makes m unordered).
    local_direct = set(direct)
    pos = 0
    while True:
        m = RANGE_FOR_RE.search(clean, pos)
        if m is None:
            break
        header_start = m.end()
        # find matching ')'
        depth, i = 1, header_start
        while i < len(clean) and depth:
            if clean[i] == "(":
                depth += 1
            elif clean[i] == ")":
                depth -= 1
            i += 1
        header_end = i - 1
        pos = i
        parts = split_range_for(clean[header_start:header_end])
        if parts is None:
            continue
        var, expr = parts
        expr_idents = set(IDENT_RE.findall(expr))
        if expr_idents & nested:
            local_direct.add(var)  # elements are unordered containers
            continue
        if not (expr_idents & local_direct):
            continue
        # Loop over an unordered container: examine the body.
        j = i
        while j < len(clean) and clean[j] in " \t\n":
            j += 1
        if j < len(clean) and clean[j] == "{":
            body_end = match_braces(clean, j)
            body = clean[j:body_end]
        else:
            body_end = clean.find(";", j) + 1
            body = clean[j:body_end]
        line = line_of(clean, m.start())
        hits = [label for label, rx in SINK_PATTERNS if rx.search(body)]
        appended = set(APPEND_RE.findall(body))
        if appended and not hits:
            # Accept the canonical fix idiom: every appended-to vector is
            # std::sort-ed later in the same function.
            tail = enclosing_function_tail(clean, body_end)
            unsorted = [v for v in appended
                        if not re.search(
                            r"\bsort\s*\(\s*%s\b" % re.escape(v), tail)]
            if unsorted:
                findings.add(
                    path, line, RULE_UNORDERED,
                    "iteration over unordered container '%s' builds ordered "
                    "result '%s' without sorting it afterwards" %
                    (expr.strip(), "', '".join(sorted(unsorted))))
        elif hits:
            findings.add(
                path, line, RULE_UNORDERED,
                "iteration over unordered container '%s' reaches an ordered "
                "output (%s); iterate a sorted copy or an ordered container" %
                (expr.strip(), ", ".join(hits)))


# --- rule: wall-clock ---------------------------------------------------------

WALLCLOCK_PATTERNS = [
    re.compile(r"std\s*::\s*chrono\s*::\s*(?:system|steady|high_resolution)"
               r"_clock"),
    re.compile(r"(?<![\w.>:])time\s*\(\s*(?:NULL|nullptr|0|&|\))"),
    re.compile(r"(?<![\w.>:])clock\s*\(\s*\)"),
    re.compile(r"\bgettimeofday\s*\("),
    re.compile(r"(?:std\s*::\s*)?\b(?:rand|srand)\s*\("),
    re.compile(r"std\s*::\s*random_device\b"),
]


def check_wallclock(path, text, findings):
    clean = strip_comments(text)
    for i, linetext in enumerate(clean.split("\n"), start=1):
        for rx in WALLCLOCK_PATTERNS:
            if rx.search(linetext):
                findings.add(
                    path, i, RULE_WALLCLOCK,
                    "wall-clock / ambient-entropy read; use Simulator::Now() "
                    "and seeded Rng streams")
                break


# --- rule: raw-prob-draw ------------------------------------------------------

# Draw methods with probabilistic semantics; Next() is excluded because
# its one legitimate lane-scoped use is seed derivation at setup.
RAWPROB_DRAWS = (r"Bernoulli|UniformDouble|UniformInt|Exponential|Index|"
                 r"SampleIndices|WeightedIndex|Shuffle")
RAWPROB_MASTER_RE = re.compile(
    r"\brng\s*\(\s*\)\s*(?:->|\.)\s*(?:%s)\s*\(" % RAWPROB_DRAWS)
RAWPROB_STD_RE = re.compile(
    r"std\s*::\s*(?:bernoulli|uniform_real|uniform_int|discrete|geometric|"
    r"poisson|exponential|normal)_distribution\b")


def is_lane_scoped(path):
    """Files whose code runs on simulation lanes: the network and the
    protocol cores (plus the rule's own fixtures)."""
    norm = path.replace(os.sep, "/")
    return ("/net/" in norm or "/core/" in norm
            or "raw_prob" in os.path.basename(norm))


def check_rawprob(path, text, findings):
    if not is_lane_scoped(path):
        return
    clean = strip_comments(text)
    for i, linetext in enumerate(clean.split("\n"), start=1):
        if RAWPROB_MASTER_RE.search(linetext):
            findings.add(
                path, i, RULE_RAWPROB,
                "probability draw from the simulator's master RNG in "
                "lane-executed code; derive a per-lane stream "
                "(Rng(Mix64(seed ^ (tag + slot)))) instead")
        elif RAWPROB_STD_RE.search(linetext):
            findings.add(
                path, i, RULE_RAWPROB,
                "raw std::<...>_distribution bypasses the repo's seeded "
                "lane-derived Rng streams")


# --- driver -------------------------------------------------------------------

SCAN_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp")


def gather_files(root, paths):
    files = []
    for p in paths:
        full = os.path.join(root, p)
        if os.path.isfile(full):
            files.append(os.path.normpath(full))
        elif os.path.isdir(full):
            for dirpath, dirnames, filenames in os.walk(full):
                dirnames.sort()
                for fn in sorted(filenames):
                    if fn.endswith(SCAN_EXTENSIONS):
                        files.append(
                            os.path.normpath(os.path.join(dirpath, fn)))
        else:
            print("detlint: no such path: %s" % full, file=sys.stderr)
            sys.exit(2)
    return files


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="detlint", description="flowercdn determinism linter")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to scan (default: src)")
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repo root paths are relative to (default: repo checkout)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print("%-22s %s" % (rule, RULE_HELP[rule]))
        return 0

    files = gather_files(args.root, args.paths or ["src"])
    texts = {}
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                texts[path] = fh.read()
        except OSError as err:
            print("detlint: %s" % err, file=sys.stderr)
            return 2

    findings = Findings()
    visible = build_visibility(texts)
    names = {path: collect_unordered_names(text)
             for path, text in texts.items()}
    for path, text in texts.items():
        direct, nested = set(), set()
        for dep in visible[path]:
            direct |= names[dep][0]
            nested |= names[dep][1]
        check_unordered_iteration(path, text, direct, nested, findings)
        check_wallclock(path, text, findings)
        check_rawprob(path, text, findings)

    findings.filter_allowed(
        {path: text.split("\n") for path, text in texts.items()})

    root_prefix = os.path.normpath(args.root) + os.sep
    out = []
    for path, line, rule, message in findings.items:
        rel = path[len(root_prefix):] if path.startswith(root_prefix) else path
        out.append((rel, line, rule, message))
    for rel, line, rule, message in sorted(out):
        print("%s:%d: [%s] %s" % (rel, line, rule, message))
    if out:
        print("detlint: %d finding(s)" % len(out), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
