#!/usr/bin/env python3
"""Self-test of scripts/pub_audit.py's call-site rule over a small fixture tree.

A `pub fn` that another file names only as a variable or a field is flagged.
A method passes when another file reaches it as `Type::name` or `.name(`, and
a free function when another file calls it as `name::<`, `name(` or
`path::name`; a method call or a `Type::` path does not keep a free function
alive, nor a bare call a method. A function on the allow-list, which names a
file and a function, passes: an uncalled function of an allowed name in
another file is still flagged.
Exits 1 on the first wrong verdict.

    python3 scripts/pub_audit_test.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import pub_audit  # noqa: E402

FIXTURE = {
    "crates/tree/src/lib.rs": """
pub struct Tree { depth: usize }

impl Tree {
    pub fn depth(&self) -> usize { self.depth }
    pub fn leaves(&self) -> usize { 1 << self.depth }
    pub fn height(&self) -> usize { self.depth }
    pub fn hook(&self) {}
    pub fn claim(&self) {}
    pub fn prune(&self) {}
}

pub fn build<T>(depth: usize) -> Tree { Tree { depth } }

pub fn grow(depth: usize) -> Tree { Tree { depth } }

pub fn commit(tree: &Tree) {}

pub fn seal(tree: &Tree) {}

pub fn unused_but_commented() {}
""",
    "crates/other/src/lib.rs": """
pub fn claim() {}
""",
    "crates/user/src/lib.rs": """
use tree::*;

fn run() -> usize {
    // unused_but_commented() is only mentioned here.
    let depth = 3;
    let tree = build::<u8>(depth);
    let total = tree.depth + tree.leaves();
    let label = "unused_but_commented()";
    let h = Tree::height;
    a::Key::commit(&tree);
    tree.seal();
    let prune = |n: usize| n;
    let grown = tree::grow(depth);
    prune(total) + h(&grown) + label.len()
}
""",
}


def main():
    with tempfile.TemporaryDirectory() as root:
        root = Path(root)
        for path, text in FIXTURE.items():
            (root / path).parent.mkdir(parents=True, exist_ok=True)
            (root / path).write_text(text)
        allowed = {("crates/tree/src/lib.rs", name): "kept on purpose" for name in ("hook", "claim")}
        findings = pub_audit.audit(root, allowed)
    flagged = {
        (line.split(":")[0], line.split("`pub fn ")[1].split("`")[0])
        for line in findings
        if "`pub fn " in line
    }
    tree = "crates/tree/src/lib.rs"
    expected = {
        (tree, "depth"),
        (tree, "unused_but_commented"),
        (tree, "commit"),
        (tree, "seal"),
        (tree, "prune"),
        ("crates/other/src/lib.rs", "claim"),
    }
    if flagged != expected or len(findings) != len(expected):
        print(f"expected exactly {sorted(expected)} flagged, got:")
        print("\n".join(findings) or "(no findings)")
        return 1
    print("pub_audit flags names used only as variables, fields, comments or "
          "strings, free functions reached only as methods or `Type::` paths, and "
          "methods reached only by bare calls; it passes `Type::name` and `.name(` "
          "for methods, `name::<` and `path::name` for free functions, and the "
          "allow-list, which exempts its own file's function only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
