#!/usr/bin/env python3
"""The public-item census and the suppression budget, applied by script.

A public item stays only if non-test code outside its own definition
names it. rustc's dead-code lint stops at `pub`, so across the workspace
nothing reports the last caller of a public item leaving; this script
does, and the build confirms each deletion.

What counts as a use:
- the non-test part of every source file under `crates/*/src`, `src/`,
  `bench/ledger/src` and `examples/` (each file up to its first column-0
  `#[cfg(test)]`, the split `scripts/check.sh` counts lines with);
- with comments and string literals stripped, except the inline format
  arguments a literal carries (`"{USAGE}"` names `USAGE`);
- without `pub use` re-export lines and without definitions (`fn name`,
  `struct name`, ..., and `impl name` / `impl Trait for name` headers).

Which items: every `pub fn|struct|enum|const|trait|type|static` in the
non-test part of `crates/*/src`, methods included. A name one definition
holds is counted as a word over all of the text above. A top-level name
that two or more crates define is counted per definition: its
path-qualified uses outside its crate (`wr_x::name`, `wr_x::m::name`,
`whitenrec::x::name` through core's re-export, `use wr_x::{...name...}`
lists) plus its own crate's uses. Methods that share a name with another
item are counted as one word, so a dead method with a common name
(`new`, `len`) needs a by-hand grep of its call form.

It prints every item with no use, and for each the reason `EXEMPT` gives
for keeping it. It exits non-zero when it finds an item `EXEMPT` does not
hold, or when `EXEMPT` holds a name that now has a use.

The suppression budget (DESIGN.md §5b): every clippy lint an
`#[expect(clippy::…)]` or `#![expect(clippy::…)]` names is counted, per
lint and per crate (`crates/<dir>`, else `workspace`), over every `.rs`
file of the repo outside `target/`, tests included, with comments and
string literals stripped. The counts must equal `check_baseline.json`
exactly: a new suppression and a removed one both fail until the budget
is edited in the same change.

Usage (from anywhere): python3 scripts/census.py
"""

import glob
import json
import os
import re
import sys

# Items no non-test code uses that stay anyway, each with its reason.
EXEMPT = {
    # The one reader of a format the program writes; its round-trip test
    # holds the writer to the format.
    "load_records": "reads `train --records` JSONL; export.rs round-trips the writer",
    "parse_fault_log": "reads `--fault-log-out`'s wr-faultlog/v1; faultlog.rs round-trips it",
    "read_dump": "reads the sealed flight dump; flight.rs and gateway tracing.rs round-trip it",
    # Recovery code.
    "latest_valid_checkpoint": "newest intact `.wrck` after a crash; checkpoint_corruption.rs",
    # The serving API the integration tests drive.
    "from_checkpoint": "ServeEngine from a saved `.wrck`; tests/persistence.rs, serve differential.rs",
    "recommend": "ServeEngine's one-history answer; tests/persistence.rs, serve ann_differential.rs",
    "try_serve": "admission control, engine and gateway; serve degraded.rs, gateway differential.rs",
    # The tests' references, fakes, fixtures and probes.
    "top_k_filtered": "per-row reference the batched top-k and the IVF scan are tested against",
    "bidirectional_padding_mask": "attention_chain.rs's mask for the bidirectional rule",
    "reconstruct": "Svd::reconstruct, the svd.rs tests' check of U S Vᵀ",
    "check_gradients": "finite-difference checker; tests/model_gradients.rs",
    "passed": "check_gradients's verdict; tests/model_gradients.rs",
    "advance": "MockClock: tests step virtual time",
    "with_tick": "MockClock: tests' auto-advancing clock",
    "NoSleep": "Sleeper that never sleeps, so retry tests run at once; serve and gateway suites",
    "damaged": "sealed::damaged, every truncation and bit flip of a sealed file; corruption suites",
    "tiny": "DatasetSpec::tiny, the test-sized dataset fixture",
    "from_slice": "Tensor::from_slice, the unit tests' vector constructor",
    "shares_storage_with": "probe that a cache shares its table; gateway differential.rs",
    "max_list_len": "IvfIndex probe; ann alloc_shape.rs",
    "steps": "Adam::steps probe; adam.rs, resume_differential.rs",
}

USER_ROOTS = ("src", "bench/ledger/src", "examples")
ITEM = r"pub (?:const |unsafe |async )*(?:fn|struct|enum|const|trait|type|static) (\w+)"
# A definition is not a use: `fn name`, `struct name`, ... and the header
# of an `impl name` / `impl Trait for name` block.
DEFINITION = re.compile(
    r"\b(?:fn|struct|enum|const|trait|type|static|mod) \w+"
    r"|\bimpl(?:<[^>{]*>)? (?:[\w:<>, ]+ for )?\w+"
)

# One pass, left to right: whichever of these starts first wins, so a
# quote inside a comment or a `//` inside a string is never mistaken.
LEXEME = re.compile(
    r"""//[^\n]*"""
    r"""|/\*[\s\S]*?\*/"""
    r"""|(?<!\w)b?r(\#*)"[\s\S]*?"\1"""
    r"""|(?<!\w)b?"(?:\\[\s\S]|[^"\\])*\""""
    r"""|'(?:\\(?:u\{[0-9a-fA-F]+\}|x[0-9a-fA-F]{2}|.)|[^\\'\n])'"""
)
FORMAT_ARG = re.compile(r"(?<!\{)\{([A-Za-z_]\w*)(?:[:}])")


def strip(text):
    """Comments and literals out, line count kept, format args kept."""

    def keep(m):
        s = m.group(0)
        args = " ".join(FORMAT_ARG.findall(s)) if s[0] in 'br"' else ""
        return args + "\n" * s.count("\n")

    return LEXEME.sub(keep, text)


def non_test(path):
    lines = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith("#[cfg(test)]"):
                break
            lines.append(line)
    text = strip("".join(lines))
    # Re-export statements name an item without using it.
    return re.sub(r"^\s*pub(?:\([\w:]+\))? use [^;]*;", "", text, flags=re.M)


EXPECT = re.compile(r"#!?\[expect\(([^\]]*)\)\]")


def suppressions(root="."):
    """Per-lint and per-crate counts of the clippy lints `#[expect]` names."""
    lints, crates = {}, {}
    for d, dirs, files in os.walk(root):
        dirs[:] = sorted(x for x in dirs if x != "target" and not x.startswith("."))
        for name in sorted(f for f in files if f.endswith(".rs")):
            path = os.path.relpath(os.path.join(d, name), root)
            with open(os.path.join(d, name), encoding="utf-8") as f:
                text = strip(f.read())
            parts = path.split(os.sep)
            owner = parts[1] if parts[0] == "crates" and len(parts) > 2 else "workspace"
            for attr in EXPECT.findall(text):
                for lint in re.findall(r"\bclippy::(\w+)", attr):
                    lints[f"clippy::{lint}"] = lints.get(f"clippy::{lint}", 0) + 1
                    crates[owner] = crates.get(owner, 0) + 1
    return lints, crates


def budget_drift():
    """Lines naming each count that differs from check_baseline.json."""
    with open("check_baseline.json", encoding="utf-8") as f:
        budget = json.load(f)
    drift = []
    for key, counted in zip(("lints", "crates"), suppressions()):
        allowed = budget[key]
        for name in sorted(set(allowed) | set(counted)):
            if counted.get(name, 0) != allowed.get(name, 0):
                drift.append(
                    f"{name:28} {key:14} <- {counted.get(name, 0)} suppressed, "
                    f"budget {allowed.get(name, 0)}: edit check_baseline.json with the change"
                )
    return drift


def main():
    os.chdir(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    crate = {}
    for manifest in glob.glob("crates/*/Cargo.toml"):
        with open(manifest, encoding="utf-8") as f:
            name = re.search(r'^name = "([^"]+)"', f.read(), re.M)[1]
        crate[os.path.dirname(manifest)] = name.replace("-", "_")

    def owner(path):
        return crate.get("/".join(path.split("/")[:2]))

    with open("crates/core/src/lib.rs", encoding="utf-8") as f:
        alias = {c: f"whitenrec::{a}" for c, a in re.findall(r"pub use (\w+) as (\w+);", f.read())}

    src = {p: non_test(p) for p in sorted(glob.glob("crates/*/src/**/*.rs", recursive=True))}
    users = dict(src)
    for root in USER_ROOTS:
        for p in sorted(glob.glob(f"{root}/**/*.rs", recursive=True)):
            users[p] = non_test(p)
    bare = {p: DEFINITION.sub(" ", t) for p, t in users.items()}

    items = {}  # name -> {crate: column-0 definition?}
    for p, t in src.items():
        for m in re.finditer(r"^([ \t]*)" + ITEM, t, re.M):
            top = items.setdefault(m[2], {})
            top[owner(p)] = top.get(owner(p), False) or m[1] == ""

    words = {}
    for t in bare.values():
        for w in re.findall(r"\b\w+\b", t):
            words[w] = words.get(w, 0) + 1

    dead = []
    for name in sorted(items):
        tops = [c for c, top in items[name].items() if top]
        if len(tops) < 2:
            if words.get(name, 0) == 0:
                dead.append((name, sorted(items[name])))
            continue
        for c in sorted(tops):
            head = "|".join(re.escape(h) for h in (c, alias.get(c, c)))
            uses = 0
            for p, t in bare.items():
                if owner(p) == c:
                    uses += len(re.findall(rf"\b{name}\b", t))
                    continue
                uses += len(re.findall(rf"\b(?:{head})(?:::\w+)*::{name}\b", t))
                for group in re.findall(rf"\buse (?:{head})(?:::\w+)*::\{{([^}}]*)\}}", t):
                    uses += len(re.findall(rf"\b{name}\b", group))
            if uses == 0:
                dead.append((name, [c]))

    failed = False
    for name, crates in dead:
        reason = EXEMPT.get(name)
        if reason is None:
            failed = True
            reason = "<- no use, and not exempt"
        print(f"{name:28} {','.join(crates):14} {reason}")
    found = {name for name, _ in dead}
    for name in sorted(set(EXEMPT) - found):
        failed = True
        print(f"{name:28} {'':14} <- exempt, but now used: drop it from EXEMPT")
    for line in budget_drift():
        failed = True
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
