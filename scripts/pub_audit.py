#!/usr/bin/env python3
"""Fail on a public function that no other file calls.

Every `pub fn` under `crates/*/src`, outside `#[cfg(test)]` items, must be
called from the code of at least one other `.rs` file under `crates/`,
`benchmark/src`, `src/` or `examples/`. What counts as a call depends on
where the function is defined. A free function (one outside any `impl` or
`trait` block) is called as `name(` or `name::<` with no `.` or `::` before
it, or through a module path, `lowercase_path::name`. A method is called as
`.name(` (or `.name::<`), `Self::name` or `Type::name`. So a method call
`k.seal()` or a path `a::Key::commit` does not keep a free `seal` or
`commit` alive, and a bare `build(` does not keep a method `build` alive. A
definition (`fn name(`) is not a call, nor is a bare word: a field, a local
variable or a same-named item elsewhere does not keep a function alive, nor
does a function passed by a bare imported name, which the allow-list below
names. Test code does not count: `#[cfg(test)]` items and files under a
`tests/` directory are left out of the search. Re-exports do not count
either: a `pub use` statement, one line or a multi-line `pub use { … };`
list, only passes a name on, so it is left out too. Nor do comments (doc
comments and their examples included) and string literals: a name mentioned
there is not called. A function only its own file or tests name is either
dead, a helper that should be private or folded into its caller, or a test
helper that belongs under `#[cfg(test)]`.

The functions below are kept on purpose, each keyed by its file and name
with its reason, so that an entry exempts that one function and not a
same-named one in another file. An entry is stale, and fails the audit too,
when its function is gone from its file or another file now names it: the
list holds only the exceptions that still need it.

    python3 scripts/pub_audit.py
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    # Test oracles: the fast paths are checked against them.
    ("crates/field/src/ntt.rs", "naive_dft"): "field::ntt's O(n²) reference for the NTT tests",
    ("crates/zkp/src/orion.rs", "prove_cpu"): "orion's sequential prover, the oracle the pipelined Orion stages match byte for byte",
    ("crates/field/src/limb.rs", "naive_mul_mod"): "limb's schoolbook oracle, which field's integration tests check the Montgomery kernels against",
    ("crates/zkp/src/r1cs.rs", "is_satisfied"): "the R1CS oracle vml's compiler tests and tests/verifiable_ml.rs check circuits against",
    # Cross-crate test hooks: another crate's tests call them, and such
    # callers are out of the search by design.
    ("crates/field/src/lanes.rs", "with_portable_bodies"): "field's hooks-off seam; zkp's portable_bodies_prove_the_dispatched_bytes proves under it, and a CI rule keeps it in test code",
    ("crates/metrics/src/registry.rs", "gauge"): "the registry's gauge reader; pipeline's observe tests, zkp's pool tests and vml's service tests read recorded gauges through it",
    ("crates/metrics/src/registry.rs", "counter"): "the registry's counter reader; pipeline's observe tests and zkp's pool tests read recorded counters through it",
    ("crates/gpu-sim/src/memory.rs", "in_use"): "device memory still allocated; the pipeline, zkp and tests/pipeline_system.rs schedules assert through it that a run frees all it took",
    ("crates/gpu-sim/src/arrivals.rs", "one"): "ArrivalPlan's single-arrival builder; gpu-sim's spec tests and bench's service tests build plans with it",
    ("crates/metrics/src/span.rs", "h2d_bytes"): "a span's host-to-device total; pipeline's merkle tests check the spans against the run's transfer counters",
    ("crates/metrics/src/span.rs", "d2h_bytes"): "a span's device-to-host total; pipeline's merkle tests check the spans against the run's transfer counters",
    ("crates/sumcheck/src/poly.rs", "evals"): "a multilinear polynomial's evaluation table; sumcheck's prover tests and zkp's r1cs tests read tables through it",
    ("crates/metrics/src/timeline.rs", "completed"): "a timeline window's completions; zkp's service test checks through it that the windows conserve the run's total",
    # Passed by a bare imported name, which is not a call in path form.
    ("crates/hash/src/sha256.rs", "compress"): "the dispatched single-block SHA-256; hash's sha_blocks example times it, passed as a function value",
    ("crates/hash/src/sha256.rs", "compress_blocks"): "SHA-256 over a message's whole blocks; hash's sha_blocks example times it, passed as a function value",
    ("crates/hash/src/sha256.rs", "compress_portable"): "the portable SHA-256 body; hash's sha_blocks example times it, passed as a function value",
    ("crates/curve/src/msm.rs", "table_bytes_for"): "a fixed-base table's size without building it; curve's byte-budget test sweeps it to 2^20 and pipeline's Groth16 tests pin the table that ROADMAP item 5 is to charge",
    # Public API kept on purpose.
    ("crates/metrics/src/registry.rs", "to_prometheus"): "the registry's Prometheus text exposition, one of its two formats (README's metrics section); observe's exposition_known_answer pins its bytes",
    ("crates/vml/src/compile.rs", "compile_inference_with_options"): "vml's range-checked compile, the one way to set CompileOptions::range_check_bits (sound ReLU hints at ~2·bits constraints each); its callers are vml's tests",
    ("crates/vml/src/service.rs", "metrics"): "MlService's accumulated registry, the one way to read what its serve rounds record (DESIGN.md §9); vml's service tests read it",
    ("crates/zkp/src/spartan.rs", "verify_with"): "the free Spartan verifier under a prebuilt witness key, the body SpartanBackend::verify runs in its idle arena; zkp's tests verify through it",
    ("crates/zkp/src/batch.rs", "imbalance"): "a pool run's max-over-mean device time, which README's pool example prints; zkp's pool tests check the gauge and the pool analyzer against it",
    # Integration tests build the library without `cfg(test)`, so what they
    # probe has to be public.
    ("crates/vml/src/service.rs", "predict"): "MlService's plain inference, the oracle tests/verifiable_ml.rs checks each proven prediction's logits against",
    ("crates/zkp/src/batch.rs", "arena_capacities"): "the sum-check arenas zkp's steady-state allocation test reads; it is its own binary for the counting allocator",
    ("crates/zkp/src/r1cs.rs", "small_r1cs"): "the small-integer instance generator; zkp's steady-state allocation test (its own binary) proves one on the integer path",
    ("crates/pipeline/src/sumcheck.rs", "claim"): "a pipelined sum-check task's claimed sum; tests/pipeline_system.rs verifies each proof against it",
}

PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+|async\s+|unsafe\s+)*fn\s+([A-Za-z_][A-Za-z0-9_]*)")
# The header of an `impl` or `trait` block, whose functions are methods.
IMPL_OR_TRAIT = re.compile(r"^\s*(?:pub(?:\s*\([^)]*\))?\s+)?(?:unsafe\s+)?(?:impl|trait)\b")
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]")
# A re-export (`pub use`, `pub(crate) use`, one line or a braced list over
# several), which names a function without calling it.
PUB_USE = re.compile(r"\bpub(?:\s*\([^)]*\))?\s+use\b[^;]*;")
# Comments, string literals (raw ones included) and char literals over a
# whole file, so that the names inside them are not taken for callers and
# the braces inside them do not count towards an item's extent.
LITERALS = re.compile(
    r'\br(#*)".*?"\1|"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'|//[^\n]*|/\*.*?\*/', re.S)


def blank_literals(text):
    """`text` with its comments and literals blanked, its line breaks kept."""
    return LITERALS.sub(lambda match: " " + "\n" * match.group().count("\n"), text)


def braces(line):
    return line.count("{") - line.count("}")


def code_lines(text):
    """(line number, line) of every line of `text` outside `#[cfg(test)]`
    items, its comments and literals blanked."""
    text = blank_literals(text)
    skip_depth = None  # brace depth at which a `#[cfg(test)]` item closes
    pending_test = False
    depth = 0
    for number, line in enumerate(text.splitlines(), 1):
        if skip_depth is None:
            if CFG_TEST.match(line):
                pending_test = True
            elif pending_test and line.strip() and not line.lstrip().startswith("#"):
                pending_test = False
                # A `#[cfg(test)]` item ends at its `;` or its closing brace.
                if "{" in line:
                    skip_depth = depth
            else:
                yield number, line
        depth += braces(line)
        if skip_depth is not None and depth <= skip_depth:
            skip_depth = None


def public_fns(text):
    """(line, name, is_method) of every `pub fn` in `text` outside
    `#[cfg(test)]` items; `is_method` when it sits in an `impl` or `trait`
    block."""
    found = []
    depth = 0
    blocks = []  # brace depth outside each open `impl` / `trait` block
    header = False  # an `impl` / `trait` header whose `{` is still to come
    for number, line in code_lines(text):
        header = header or bool(IMPL_OR_TRAIT.match(line))
        if match := PUB_FN.match(line):
            found.append((number, match.group(1), bool(blocks)))
        if header and "{" in line:
            blocks.append(depth)
            header = False
        depth += braces(line)
        while blocks and depth <= blocks[-1]:
            blocks.pop()
    return found


def call_pattern(name, is_method):
    """The forms in which another file calls a function `name`."""
    name = re.escape(name)
    if is_method:
        # `.name(`, `.name::<`, `Self::name`, `Type::name`, `Type::<T>::name`.
        return re.compile(rf"\.\s*{name}\s*(?:\(|::\s*<)|(?:\b[A-Z]\w*|>)\s*::\s*{name}\b")
    # `name(` or `name::<` after no `.` or `::` (a definition, `fn name(`,
    # is not a call), or `lowercase_path::name`.
    return re.compile(rf"(?<![\w.:])(?<!fn ){name}\s*(?:\(|::\s*<)|\b[a-z_][a-z0-9_]*\s*::\s*{name}\b")


def audit(root, allowed):
    """The findings over the tree at `root`, one line each."""
    sources = sorted(root.glob("crates/*/src/**/*.rs"))
    searched = sorted(
        path
        for path in set(root.glob("crates/**/*.rs"))
        | set(root.glob("benchmark/src/**/*.rs"))
        | set(root.glob("src/**/*.rs"))
        | set(root.glob("examples/**/*.rs"))
        if "tests" not in path.relative_to(root).parts
    )
    texts = {
        path: PUB_USE.sub("", "\n".join(line for _, line in code_lines(path.read_text())))
        for path in searched
    }

    def called_elsewhere(name, is_method, home):
        call = call_pattern(name, is_method)
        return any(call.search(text) for path, text in texts.items() if path != home)

    failures = []
    defined = set()
    for path in sources:
        home = path.relative_to(root).as_posix()
        for number, name, is_method in public_fns(path.read_text()):
            defined.add((home, name))
            if (home, name) in allowed:
                if called_elsewhere(name, is_method, path):
                    failures.append(f"stale allow-list entry: `{name}` is now called outside {home}")
                continue
            if not called_elsewhere(name, is_method, path):
                failures.append(f"{home}:{number}: `pub fn {name}` is called from no other file")
    for home, name in sorted(set(allowed) - defined):
        failures.append(f"stale allow-list entry: no `pub fn {name}` left in {home}")
    return failures


def main():
    failures = audit(ROOT, ALLOWED)
    for failure in failures:
        print(failure)
    if failures:
        print(f"{len(failures)} finding(s): delete the function, make it private, "
              "move it under #[cfg(test)], or allow it above with a reason")
        return 1
    print(f"every pub fn is called from another file ({len(ALLOWED)} allowed on purpose)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
