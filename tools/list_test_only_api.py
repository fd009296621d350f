#!/usr/bin/env python3
"""Lists functions and classes declared in src headers that no binary runs.

Usage:
    tools/list_test_only_api.py [REPO_ROOT]

A name is "declared" when a src/**/*.hpp file declares it: an identifier
followed by "(" whose preceding token ends a type (an identifier that is
not a keyword, or a > * & glued to the type), optionally qualified as
Class::name, a constructor, or the name of a class or struct definition.

A name is "reached" when a binary can get to it by name:
  * every use in a function body under tools, bench or examples (the
    binaries' own code) and every use outside any function body (static
    tables, member types, template arguments) reaches its name;
  * a use inside the body of a src function F reaches its name only once
    F itself is reached, so a chain of functions that only tests call is
    reported whole, and a function calling itself does not count.
A use is any occurrence other than a declaration or definition: calls,
member access, address-of and type names all count.  Comments, string
literals and preprocessor lines are ignored.  Matching is by bare name,
so a test-only function that shares its name with one a binary runs (an
overload, or a member of another class) is not reported.

Every declared name that is not reached is printed with the header line
that declares it.  The exit status is 1 when such a name is missing from
ALLOWLIST below, or when an ALLOWLIST entry is stale (reached, or no
longer declared), and 0 otherwise.  Each ALLOWLIST entry states in one
line why the name stays in src although only tests reach it.
"""

import bisect
import pathlib
import re
import sys

ALLOWLIST = {
    # Analytic references the tests hold simulated output to.
    "BetaQuantile": "Beta-limit quantiles ML-PoS model tests compare with",
    "KolmogorovSurvival": "the p-value of KsTestTwoSample",
    "KsTestTwoSample": "Distributional.* tests compare two simulated laws",
    "MeasurePopulation": "sorting reference for PopulationMeter's merge",
    "MlPosLimitNormalisedVariance": "Pólya-limit equitability tests check",
    "Quantile": "reference for ReduceToResult's in-place quantiles",
    "Quantiles": "reference QuantilesInPlace promises the bits of",
    "SelfishMiningThreshold": "Eyal-Sirer threshold chain tests cross",
    # Observers and accessors tests read model and sampler state through.
    "InitialShare": "StakeState observer",
    "PendingTotal": "StakeState observer of withheld rewards",
    "PrefixSum": "Fenwick observer checked against a linear reference",
    "RewardPerStep": "IncentiveModel issuance the conservation tests use",
    "Weight": "Fenwick observer checked against a linear reference",
    "active": "ProgressReporter observer: no thread off a TTY",
    "block_reward": "PoW / ML-PoS parameter accessor",
    "columns": "Table shape accessor for output-shape tests",
    "inflation_reward": "CPosModel parameter accessor",
    "initial_total": "StakeState observer",
    "proposer_reward": "CPosModel parameter accessor",
    # Test tools.
    "ForScenario": "builds a registry scenario's plan in plan tests",
    "Label": "names a cell in conformance-test failure messages",
    "NextBounded": "unbiased bounded draw tests size random inputs with",
}

BINARY_TREES = ("tools", "bench", "examples")
SOURCE_SUFFIXES = (".hpp", ".cpp")

KEYWORDS = frozenset("""
    alignas alignof and asm auto bool break case catch char class co_await
    co_return co_yield concept const const_cast consteval constexpr
    constinit continue decltype default defined delete do double
    dynamic_cast else enum explicit export extern false final float for
    friend goto if inline int long mutable namespace new noexcept not
    nullptr operator or override private protected public register
    reinterpret_cast requires return short signed sizeof static
    static_assert static_cast struct switch template this thread_local
    throw true try typedef typeid typename union unsigned using virtual
    void volatile while
""".split())

# Keywords that may end a declaration's return type.
TYPE_KEYWORDS = frozenset(
    "auto bool char const constexpr double float int long short signed "
    "unsigned void".split())

_TOKEN = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'',
    re.S)
_DECL = re.compile(
    r"(?P<prev>[A-Za-z_]\w*|(?<=[\w>])[*&]+|(?<=[\w>])>)\s+"
    r"(?P<qual>(?:[A-Za-z_]\w*::)*)(?P<name>~?[A-Za-z_]\w*)\s*\(")
_CTOR = re.compile(
    r"\b(?P<cls>[A-Za-z_]\w*)::(?P<ctor>~?(?P=cls))\s*\(")
_CLASS = re.compile(
    r"\b(?:class|struct)\s+(?P<name>[A-Za-z_]\w*)(?:\s+final)?\s*[{:]")
_IN_CLASS_CTOR = re.compile(
    r"(?:[;{}]|(?<!:):(?!:)|\bexplicit)\s*(?P<name>~?[A-Za-z_]\w*)\s*\(")
_WORD = re.compile(r"[A-Za-z_]\w*")


def strip_code(text):
    """Blanks comments, literals and preprocessor lines; keeps offsets."""
    def blank(match):
        return re.sub(r"[^\n]", " ", match.group(0))
    text = _TOKEN.sub(blank, text)
    return re.sub(r"(?m)^[ \t]*#[^\n]*", blank, text)


def skip_group(code, at):
    """Index just past the bracket group opening at `at`, or len(code)."""
    opening = code[at]
    closing = {"(": ")", "{": "}"}[opening]
    depth = 0
    for i in range(at, len(code)):
        if code[i] == opening:
            depth += 1
        elif code[i] == closing:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def body_after(code, paren):
    """The (start, end) of the body of a function whose parameter list
    opens at `paren`, or None for a declaration without a body.  Groups
    in between (noexcept(...), a constructor's initializers) are
    skipped."""
    i = skip_group(code, paren)
    while i < len(code):
        c = code[i]
        if c == "{":
            return i, skip_group(code, i)
        if c in ";=)":
            return None
        i = skip_group(code, i) if c == "(" else i + 1
    return None


def declarations(code):
    """Yields (name, site offsets, paren offset) for each declaration."""
    for match in _DECL.finditer(code):
        prev, name = match.group("prev"), match.group("name")
        if name.lstrip("~") in KEYWORDS:
            continue
        if prev in KEYWORDS and prev not in TYPE_KEYWORDS:
            continue
        sites = [match.start("name")]
        offset = match.start("qual")
        for part in match.group("qual").split("::")[:-1]:
            sites.append(offset)
            offset += len(part) + 2
        yield name.lstrip("~"), sites, match.end() - 1
    for match in _CTOR.finditer(code):
        yield (match.group("cls"),
               [match.start("cls"), match.start("ctor")], match.end() - 1)
    classes = set()
    for match in _CLASS.finditer(code):
        classes.add(match.group("name"))
        yield match.group("name"), [match.start("name")], None
    for match in _IN_CLASS_CTOR.finditer(code):
        if match.group("name").lstrip("~") in classes:
            yield (match.group("name").lstrip("~"), [match.start("name")],
                   match.end() - 1)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else ".").resolve()
    files = sorted(
        path for tree in ("src",) + BINARY_TREES
        for path in (root / tree).rglob("*")
        if path.suffix in SOURCE_SUFFIXES and path.is_file())
    code = {path: strip_code(path.read_text()) for path in files}

    declared = {}  # name -> (header, line) of its first header declaration
    sites = {}     # path -> offsets of every declaration occurrence
    bodies = {}    # path -> sorted [(start, end, function name)]
    for path, text in code.items():
        is_header = path.suffix == ".hpp" and (root / "src") in path.parents
        sites[path] = set()
        found = []
        for name, offsets, paren in declarations(text):
            sites[path].update(offsets)
            if is_header and name not in declared:
                rel = path.relative_to(root)
                declared[name] = (rel, line_of(text, offsets[0]))
            body = body_after(text, paren) if paren is not None else None
            if body is not None:
                found.append((body[0], body[1], name))
        # Function bodies do not nest; keep the outermost of any overlap.
        found.sort()
        bodies[path] = []
        for start, end, name in found:
            if bodies[path] and start < bodies[path][-1][1]:
                continue
            bodies[path].append((start, end, name))

    defined = {name for spans in bodies.values() for _, _, name in spans}
    roots = set()
    calls = {}  # function name -> names its src bodies use
    for path, text in code.items():
        binary = path.relative_to(root).parts[0] in BINARY_TREES
        starts = [start for start, _, _ in bodies[path]]
        for match in _WORD.finditer(text):
            name = match.group(0)
            if name not in declared and name not in defined:
                continue
            if match.start() in sites[path]:
                continue
            k = bisect.bisect_right(starts, match.start()) - 1
            inside = k >= 0 and match.start() < bodies[path][k][1]
            if binary or not inside:
                roots.add(name)
            elif bodies[path][k][2] != name:
                calls.setdefault(bodies[path][k][2], set()).add(name)

    reached = set()
    frontier = list(roots)
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier.extend(calls.get(name, ()))

    unreached = sorted(set(declared) - reached,
                       key=lambda name: (str(declared[name][0]), name))
    failures = 0
    for name in unreached:
        header, line = declared[name]
        reason = ALLOWLIST.get(name)
        status = "allowed: " + reason if reason else "NOT ALLOWLISTED"
        failures += reason is None
        print(f"{header}:{line}: {name} -- {status}")
    for name in sorted(set(ALLOWLIST) - set(unreached)):
        failures += 1
        why = "is reached by a binary" if name in declared else "is gone"
        print(f"stale allowlist entry: {name} {why}")
    print(f"{len(unreached)} test-only name(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
