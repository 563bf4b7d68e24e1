#!/usr/bin/env python3
"""cextend-lint: project-specific determinism & error-discipline checks.

The repo's correctness story rests on two hand-enforced invariants: solves
are bit-identical at any thread count, and every failure path surfaces as a
non-OK Status. This lint makes both machine-checked at the source level,
before any test runs. See tools/lint/README.md for the full catalog.

Checks
  D1 unordered-iteration  Range-for / iterator loops over std::unordered_map
                          or std::unordered_set in result-affecting code
                          (src/core, src/graph, src/ilp, src/constraints).
                          Hash order leaks into the output unless the loop is
                          order-independent. Suppressed by the sorted-drain
                          idiom (a std::sort over the drained elements inside
                          or just after the loop) or an explicit waiver.
  D2 banned-primitive     Nondeterminism primitives outside util/rng.{h,cc}:
                          std::random_device, rand()/srand(), time(),
                          std::hash over pointer types, associative
                          containers keyed on raw pointers.
  S1 status-ignored       Call sites that discard a Status/StatusOr return.
                          [[nodiscard]] covers this on clang/gcc builds; the
                          lint keeps the rule enforced for other compilers
                          and in code the build does not compile.
  T1 static-state         Mutable file-scope / static / thread_local state in
                          solver translation units (.cc files in the
                          result-affecting directories).

Waivers
  A finding is waived by a comment on the same line or up to 3 lines above:
      // cextend-lint: <check-slug>-ok(<reason>)
  e.g. // cextend-lint: unordered-iteration-ok(commutative accumulation)
  The reason is mandatory; an empty reason keeps the finding alive. S1 is
  additionally suppressed by an explicit `(void)` cast.

Analysis
  Token-stream heuristics with no dependencies: comments and strings are
  scrubbed with line structure preserved, and declarations are resolved per
  file first, then across the scanned set, so cross-file member iteration is
  still caught when the member name is unambiguous.

Usage
  tools/lint/cextend_lint.py                 # lint src/ under the repo root
  tools/lint/cextend_lint.py --root DIR      # lint DIR/src (fixtures use this)
  tools/lint/cextend_lint.py --checks D1,D2  # subset
  tools/lint/cextend_lint.py --list-checks

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

# Check id -> (waiver slug, one-line description).
CHECKS = {
    "D1": ("unordered-iteration",
           "iteration over std::unordered_{map,set} in result-affecting code"),
    "D2": ("banned-primitive",
           "nondeterminism primitive outside util/rng.{h,cc}"),
    "S1": ("status-ignored", "discarded Status/StatusOr return value"),
    "T1": ("static-state",
           "mutable file-scope/static state in a solver translation unit"),
}

# Directories (relative to the scanned root) whose code is result-affecting:
# any ordering leak here changes the synthesized database.
RESULT_AFFECTING = ("src/core", "src/graph", "src/ilp", "src/constraints")

# The one blessed home for randomness primitives.
RNG_EXEMPT = ("src/util/rng.h", "src/util/rng.cc")

# Lines scanned above a finding for a waiver comment (multi-line comments).
WAIVER_WINDOW = 3

# Lines after a D1 loop in which a std::sort counts as the sorted-drain idiom.
SORT_WINDOW = 5

WAIVER_RE = re.compile(r"cextend-lint:\s*([a-z0-9-]+)-ok\((\S?)")


class Finding:
    def __init__(self, path, line, check, message, suppressed=None):
        self.path = path
        self.line = line
        self.check = check
        self.message = message
        self.suppressed = suppressed  # None, "waiver", or "sorted-drain"

    def __str__(self):
        slug = CHECKS[self.check][0]
        return (f"{self.path}:{self.line}: [{self.check} {slug}] "
                f"{self.message}")


# ---------------------------------------------------------------------------
# Source model: raw text, a comment/string-scrubbed twin with identical line
# structure, and the waiver lines.
# ---------------------------------------------------------------------------

class SourceFile:
    def __init__(self, root, rel):
        self.rel = rel.replace(os.sep, "/")
        self.abspath = os.path.join(root, rel)
        with open(self.abspath, "r", encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.scrubbed = scrub(self.text)
        self.lines = self.scrubbed.split("\n")
        # line number -> set of waiver slugs declared on that line.
        self.waivers = {}
        for i, raw in enumerate(self.text.split("\n"), 1):
            for m in WAIVER_RE.finditer(raw):
                slug, first = m.group(1), m.group(2)
                if not first or first == ")":
                    continue  # reason is mandatory
                self.waivers.setdefault(i, set()).add(slug)

    def line_of(self, offset):
        return self.scrubbed.count("\n", 0, offset) + 1

    def waived(self, line, slug):
        for k in range(line, max(0, line - WAIVER_WINDOW - 1), -1):
            if slug in self.waivers.get(k, set()):
                return True
        return False

    def in_result_affecting(self):
        return self.rel.startswith(tuple(d + "/" for d in RESULT_AFFECTING))

    def is_rng_exempt(self):
        return self.rel in RNG_EXEMPT


def scrub(text):
    """Blanks comments and string/char literals, preserving newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def match_forward(text, start, open_ch, close_ch):
    """Offset just past the bracket matching text[start] (which must be
    open_ch), or -1. Understands '>>' closing two template levels."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\b(?:std\s*::\s*)?unordered_(?:map|set)\s*<")
ORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:map|set|vector|deque|array|list)\s*<")
DECL_NAME_RE = re.compile(r"\s*&?\s*([A-Za-z_]\w*)\s*(?=[;={(,)\[]|$)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
TAIL_IDENT_RE = re.compile(r"([A-Za-z_]\w*)\s*$")
BEGIN_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")
SORT_RE = re.compile(r"\b(?:std\s*::\s*)?(?:stable_)?sort\s*\(")

BANNED_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*random_device\b"), "std::random_device"),
    (re.compile(r"\bs?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\btime\s*\("), "time()"),
    (re.compile(r"\bstd\s*::\s*hash\s*<[^>;]*\*"), "std::hash over a pointer"),
    (re.compile(r"\b(?:unordered_)?(?:map|set)\s*<\s*(?:[\w:]|\s)*\*"),
     "associative container keyed on a raw pointer"),
]

STATUS_FN_RES = [
    re.compile(r"\bStatus\s+(?:[A-Za-z_]\w*\s*::\s*)*([A-Za-z_]\w*)\s*\("),
    re.compile(r"\bStatusOr\s*<[^;{}()]*>\s*"
               r"(?:[A-Za-z_]\w*\s*::\s*)*([A-Za-z_]\w*)\s*\("),
]

CALL_STMT_RE = re.compile(
    r"[;{}]\s*(\(\s*void\s*\)\s*)?"
    r"((?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*)([A-Za-z_]\w*)\s*\(")

STATIC_RE = re.compile(r"\b(static|thread_local)\b")
KEYWORDS_NOT_CALLS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "assert",
    "alignof", "decltype", "new", "delete", "co_return", "co_await",
}


def collect_declarations(src):
    """(unordered_names, ordered_names) declared in this file."""
    unordered, ordered = set(), set()
    for regex, bucket in ((UNORDERED_DECL_RE, unordered),
                          (ORDERED_DECL_RE, ordered)):
        for m in regex.finditer(src.scrubbed):
            open_angle = src.scrubbed.find("<", m.start())
            end = match_forward(src.scrubbed, open_angle, "<", ">")
            if end < 0:
                continue
            name_m = DECL_NAME_RE.match(src.scrubbed, end)
            if name_m:
                bucket.add(name_m.group(1))
    return unordered, ordered


def loop_extent(src, header_end):
    """(first_line, last_line) of the loop whose header ends at header_end."""
    first = src.line_of(header_end)
    i = header_end
    while i < len(src.scrubbed) and src.scrubbed[i].isspace():
        i += 1
    if i < len(src.scrubbed) and src.scrubbed[i] == "{":
        close = match_forward(src.scrubbed, i, "{", "}")
        return first, src.line_of(close if close > 0 else i)
    semi = src.scrubbed.find(";", i)
    return first, src.line_of(semi if semi >= 0 else i)


def has_sort_after(src, last_line):
    window = "\n".join(src.lines[last_line - 1:last_line + SORT_WINDOW])
    return bool(SORT_RE.search(window))


def is_unordered_name(name, src, local_unordered, local_ordered,
                      global_unordered, global_ordered):
    if name in local_ordered and name not in local_unordered:
        return False
    if name in local_unordered:
        return True
    # Cross-file member/variable: only when the name is globally unambiguous.
    return name in global_unordered and name not in global_ordered


def check_d1(src, global_unordered, global_ordered, findings):
    local_unordered, local_ordered = collect_declarations(src)

    def resolve(name):
        return is_unordered_name(name, src, local_unordered, local_ordered,
                                 global_unordered, global_ordered)

    def emit(line, last_line, what):
        suppressed = None
        if src.waived(line, CHECKS["D1"][0]):
            suppressed = "waiver"
        elif has_sort_after(src, last_line):
            suppressed = "sorted-drain"
        findings.append(Finding(
            src.rel, line, "D1",
            f"{what} iterates an unordered container; hash order can leak "
            f"into results — sort, drain into a sorted vector, or waive with "
            f"// cextend-lint: unordered-iteration-ok(<reason>)",
            suppressed))

    for m in RANGE_FOR_RE.finditer(src.scrubbed):
        open_paren = src.scrubbed.find("(", m.start())
        end = match_forward(src.scrubbed, open_paren, "(", ")")
        if end < 0:
            continue
        header = src.scrubbed[open_paren + 1:end - 1]
        # Top-level ':' (range-for), ignoring '::'.
        depth = 0
        colon = -1
        k = 0
        while k < len(header):
            c = header[k]
            if c in "(<[":
                depth += 1
            elif c in ")>]":
                depth -= 1
            elif c == ":" and depth == 0:
                if k + 1 < len(header) and header[k + 1] == ":":
                    k += 2
                    continue
                if k > 0 and header[k - 1] == ":":
                    k += 1
                    continue
                colon = k
                break
            k += 1
        if colon < 0:
            continue
        range_expr = header[colon + 1:].strip()
        line = src.line_of(m.start())
        _, last_line = loop_extent(src, end)
        if UNORDERED_DECL_RE.search(range_expr):
            emit(line, last_line, "range-for")
            continue
        tail = TAIL_IDENT_RE.search(range_expr)
        if tail and resolve(tail.group(1)):
            emit(line, last_line, "range-for")

    for m in BEGIN_CALL_RE.finditer(src.scrubbed):
        if resolve(m.group(1)):
            line = src.line_of(m.start())
            emit(line, line, f"`{m.group(1)}.begin()`")


def check_d2(src, findings):
    for regex, what in BANNED_PATTERNS:
        for m in regex.finditer(src.scrubbed):
            line = src.line_of(m.start())
            suppressed = ("waiver" if src.waived(line, CHECKS["D2"][0])
                          else None)
            findings.append(Finding(
                src.rel, line, "D2",
                f"{what} is banned outside util/rng.{{h,cc}}: route all "
                f"randomness through the seeded Rng so runs stay "
                f"reproducible",
                suppressed))


NON_STATUS_FN_RE = re.compile(
    r"\b(?:void|bool|int|unsigned|size_t|u?int\d+_t|double|float|auto|char)"
    r"\s+[&*]?\s*(?:[A-Za-z_]\w*\s*::\s*)*([A-Za-z_]\w*)\s*\(")


def collect_status_functions(sources):
    names = set()
    for src in sources:
        for regex in STATUS_FN_RES:
            for m in regex.finditer(src.scrubbed):
                names.add(m.group(1))
    return names - KEYWORDS_NOT_CALLS


def check_s1(src, status_fns, findings):
    # A same-file declaration with a non-Status return type wins over the
    # cross-file name table (e.g. a local void Begin() vs RowSink::Begin()).
    local_non_status = {m.group(1)
                        for m in NON_STATUS_FN_RE.finditer(src.scrubbed)}
    for m in CALL_STMT_RE.finditer(src.scrubbed):
        void_cast, chain, callee = m.group(1), m.group(2), m.group(3)
        if callee not in status_fns or callee in local_non_status:
            continue
        if chain.strip().startswith("Status"):
            continue  # Status::Ok() etc. inside an expression statement
        open_paren = src.scrubbed.find("(", m.end() - 1)
        end = match_forward(src.scrubbed, open_paren, "(", ")")
        if end < 0:
            continue
        rest = src.scrubbed[end:end + 8].lstrip()
        if not rest.startswith(";"):
            continue  # part of a larger expression; result is consumed
        line = src.line_of(open_paren)
        suppressed = None
        if void_cast:
            suppressed = "waiver"
        elif src.waived(line, CHECKS["S1"][0]):
            suppressed = "waiver"
        findings.append(Finding(
            src.rel, line, "S1",
            f"result of Status-returning `{callee}(...)` is discarded; "
            f"check it, propagate it, or cast to void with a reason",
            suppressed))


def check_t1(src, findings):
    for m in STATIC_RE.finditer(src.scrubbed):
        tail = src.scrubbed[m.end():]
        head = ""
        for c in tail:
            if c in ";{=(":
                head += c
                break
            head += c
        if head.endswith("("):
            continue  # function declaration/definition
        if re.search(r"\bconst(expr|eval|init)?\b", head):
            continue
        if not re.search(r"[A-Za-z_]", head[:-1] if head else ""):
            continue
        line = src.line_of(m.start())
        suppressed = ("waiver" if src.waived(line, CHECKS["T1"][0]) else None)
        findings.append(Finding(
            src.rel, line, "T1",
            f"mutable {m.group(1)} state in a solver translation unit makes "
            f"solves order- and history-dependent; pass state explicitly or "
            f"waive with // cextend-lint: static-state-ok(<reason>)",
            suppressed))


def run_checks(sources, enabled):
    findings = []
    global_unordered, global_ordered = set(), set()
    for src in sources:
        u, o = collect_declarations(src)
        global_unordered |= u
        global_ordered |= o
    status_fns = (collect_status_functions(sources)
                  if "S1" in enabled else set())
    for src in sources:
        if "D1" in enabled and src.in_result_affecting():
            check_d1(src, global_unordered, global_ordered, findings)
        if "D2" in enabled and not src.is_rng_exempt():
            check_d2(src, findings)
        if "S1" in enabled:
            check_s1(src, status_fns, findings)
        if ("T1" in enabled and src.in_result_affecting()
                and src.rel.endswith(".cc")):
            check_t1(src, findings)
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def gather_sources(root, paths):
    rels = []
    for p in paths:
        absolute = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(absolute):
            rels.append(os.path.relpath(absolute, root))
            continue
        for dirpath, _, filenames in os.walk(absolute):
            for f in sorted(filenames):
                if f.endswith((".cc", ".h", ".cpp", ".hpp")):
                    rels.append(
                        os.path.relpath(os.path.join(dirpath, f), root))
    return [SourceFile(root, rel) for rel in sorted(set(rels))]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=[],
                        help="files or directories relative to --root "
                             "(default: src)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels up from this "
                             "script)")
    parser.add_argument("--checks", default="D1,D2,S1,T1",
                        help="comma-separated subset of checks to run")
    parser.add_argument("--verbose", action="store_true",
                        help="also print suppressed findings (waivers and "
                             "sorted drains)")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args()

    if args.list_checks:
        for check, (slug, desc) in CHECKS.items():
            print(f"{check}  {slug:<22} {desc}")
        return 0

    enabled = {c.strip().upper() for c in args.checks.split(",") if c.strip()}
    unknown = enabled - set(CHECKS)
    if unknown:
        print(f"error: unknown checks: {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    paths = args.paths or ["src"]
    sources = gather_sources(root, paths)
    if not sources:
        print(f"error: nothing to lint under {root} ({', '.join(paths)})",
              file=sys.stderr)
        return 2

    findings = run_checks(sources, enabled)

    findings.sort(key=lambda f: (f.path, f.line, f.check))
    live = [f for f in findings if f.suppressed is None]
    for f in live:
        print(f)
    if args.verbose:
        for f in findings:
            if f.suppressed is not None:
                print(f"{f.path}:{f.line}: suppressed [{f.check}] "
                      f"({f.suppressed})")
    n_waived = sum(1 for f in findings if f.suppressed is not None)
    print(f"cextend-lint: {len(sources)} files, "
          f"{len(live)} finding(s), {n_waived} suppressed", file=sys.stderr)
    return 1 if live else 0


if __name__ == "__main__":
    sys.exit(main())
