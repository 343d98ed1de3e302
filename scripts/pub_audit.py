#!/usr/bin/env python3
"""Fail on a public function that no other file calls.

Every `pub fn` under `crates/*/src`, outside `#[cfg(test)]` items, must have
its name, as a whole word, in the code of at least one other `.rs` file under
`crates/`, `benchmark/src`, `src/` or `examples/`. Test code does not count:
`#[cfg(test)]` items and files under a `tests/` directory are left out of the
search. A function only its own file or tests name is either dead, a helper
that should be private or folded into its caller, or a test helper that
belongs under `#[cfg(test)]`.

The names below are kept on purpose, each with its reason. An entry is
stale, and fails the audit too, when its function is gone or another file
now names it: the list holds only the exceptions that still need it.

    python3 scripts/pub_audit.py
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    # Test oracles: the fast paths are checked against them.
    "naive_dft": "field::ntt's O(n²) reference for the NTT tests",
    "prove_cpu": "orion's sequential prover, the oracle the pipelined Orion stages match byte for byte",
    "naive_mul_mod": "limb's schoolbook oracle, which field's integration tests check the Montgomery kernels against",
    "is_satisfied": "the R1CS oracle vml's compiler tests and tests/verifiable_ml.rs check circuits against",
    # Integration tests build the library without `cfg(test)`, so what they
    # probe has to be public.
    "arena_capacities": "the sum-check arenas zkp's steady-state allocation test reads; it is its own binary for the counting allocator",
    # `NttDomain`'s threaded transforms: deleting them drops `batchzk-field`'s
    # dependency on `batchzk-par`, which rewrites `benchmark/Cargo.lock`; they
    # go with the benchmark's own change.
    "forward_par": "NttDomain's threaded forward transform, deleted with the next benchmark change",
    "inverse_par": "NttDomain's threaded inverse transform, deleted with the next benchmark change",
}

PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+|async\s+|unsafe\s+)*fn\s+([A-Za-z_][A-Za-z0-9_]*)")
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]")
# Strings, char literals and comments, so that braces inside them do not
# count towards an item's extent.
NOISE = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'|//.*')


def braces(line):
    code = NOISE.sub("", line)
    return code.count("{") - code.count("}")


def code_lines(text):
    """(line number, line) of every line of `text` outside `#[cfg(test)]` items."""
    skip_depth = None  # brace depth at which a `#[cfg(test)]` item closes
    pending_test = False
    depth = 0
    for number, line in enumerate(text.splitlines(), 1):
        if skip_depth is None:
            if CFG_TEST.match(line):
                pending_test = True
            elif pending_test and line.strip() and not line.lstrip().startswith(("#", "//")):
                pending_test = False
                # A `#[cfg(test)]` item ends at its `;` or its closing brace.
                if "{" in NOISE.sub("", line):
                    skip_depth = depth
            else:
                yield number, line
        depth += braces(line)
        if skip_depth is not None and depth <= skip_depth:
            skip_depth = None


def public_fns(text):
    """(line, name) of every `pub fn` in `text` outside `#[cfg(test)]` items."""
    return [(number, match.group(1))
            for number, line in code_lines(text)
            if (match := PUB_FN.match(line))]


def main():
    sources = sorted(ROOT.glob("crates/*/src/**/*.rs"))
    searched = sorted(
        path
        for path in set(ROOT.glob("crates/**/*.rs"))
        | set(ROOT.glob("benchmark/src/**/*.rs"))
        | set(ROOT.glob("src/**/*.rs"))
        | set(ROOT.glob("examples/**/*.rs"))
        if "tests" not in path.relative_to(ROOT).parts
    )
    texts = {path: "\n".join(line for _, line in code_lines(path.read_text())) for path in searched}

    def named_elsewhere(name, home):
        word = re.compile(rf"\b{re.escape(name)}\b")
        return any(word.search(text) for path, text in texts.items() if path != home)

    failures = []
    defined = set()
    for path in sources:
        for number, name in public_fns(path.read_text()):
            defined.add(name)
            if name in ALLOWED:
                if named_elsewhere(name, path):
                    failures.append(f"stale allow-list entry: `{name}` is now named outside {path.relative_to(ROOT)}")
                continue
            if not named_elsewhere(name, path):
                failures.append(f"{path.relative_to(ROOT)}:{number}: `pub fn {name}` is named in no other file")
    for name in sorted(set(ALLOWED) - defined):
        failures.append(f"stale allow-list entry: no `pub fn {name}` left")

    for failure in failures:
        print(failure)
    if failures:
        print(f"{len(failures)} finding(s): delete the function, make it private, "
              "move it under #[cfg(test)], or allow it above with a reason")
        return 1
    print(f"every pub fn is named in another file ({len(ALLOWED)} allowed on purpose)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
