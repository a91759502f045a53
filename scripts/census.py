#!/usr/bin/env python3
"""The public-item and manifest census and the suppression budget.

A public item, and a `[dependencies]` line, stays only if non-test code
outside its own definition names it. rustc's dead-code lint stops at
`pub`, and Cargo never reports an unused dependency, so across the
workspace nothing reports the last caller of a public item or of a crate
leaving; this script does, and the build confirms each deletion.

What counts as a use:
- the non-test part of every source file under `crates/*/src`, `src/`,
  `bench/ledger/src` and `examples/` (each file up to its first column-0
  `#[cfg(test)]`, the split `scripts/check.sh` counts lines with);
- with comments and string literals stripped, except the inline format
  arguments a literal carries (`"{USAGE}"` names `USAGE`);
- without `pub use` re-export lines and without definitions (`fn name`,
  `struct name`, ..., and `impl name` / `impl Trait for name` headers).

Which items: every `pub fn|struct|enum|const|trait|type|static` in the
non-test part of `crates/*/src`, methods included. A name defined only
as indented `pub fn`s (a method, or a function inside an inline module)
is counted by its call forms over all of the text above: `.name(`,
`.name::<` and `::name` — a field, a parameter or a local of the same
name is not a call. Another name one definition holds is counted as a
word over that text. A top-level name
that two or more crates define is counted per definition: its
path-qualified uses outside its crate (`wr_x::name`, `wr_x::m::name`,
`whitenrec::x::name` through core's re-export, `use wr_x::{...name...}`
lists) plus its own crate's uses. Methods that share a name with another
item are counted by their call forms together, so a dead method with a
common name (`new`, `len`) needs a by-hand grep of its call form.

It prints every item with no use, and for each the reason `EXEMPT` gives
for keeping it. It exits non-zero when it finds an item `EXEMPT` does not
hold, or when `EXEMPT` holds a name that now has a use.

The manifest census applies the rule to every manifest of this workspace
(the root `Cargo.toml` and `crates/*/Cargo.toml`). A package's non-test
code is each file under its `src` up to the first column-0
`#[cfg(test)]`; its test code is the rest of those files and everything
under its `tests`, `examples` and `benches`; both with comments and
string literals stripped. A `pub use wr_x as x;` re-export is a use. It
fails on a `[dependencies]` line the non-test code does not name (saying
whether only test code names it, so the line moves to
`[dev-dependencies]`, or nothing does), on a `[dev-dependencies]` line no
test code names, and on a crate listed in both.

The suppression budget (DESIGN.md §5b): every clippy lint an
`#[expect(clippy::…)]` or `#![expect(clippy::…)]` names is counted, per
lint and per crate (`crates/<dir>`, else `workspace`), over every `.rs`
file of the repo outside `target/`, tests included, with comments and
string literals stripped. The counts must equal `check_baseline.json`
exactly: a new suppression and a removed one both fail until the budget
is edited in the same change.

Any finding of the three parts makes the exit status non-zero.

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
    # The tests' references, fakes, fixtures and probes.
    "top_k_filtered": "per-row reference the batched top-k and the IVF scan are tested against",
    "bidirectional_padding_mask": "attention_chain.rs's mask for the bidirectional rule",
    "reconstruct": "Svd::reconstruct, the svd.rs tests' check of U S Vᵀ",
    "check_gradients": "finite-difference checker; tests/model_gradients.rs",
    "passed": "check_gradients's verdict; tests/model_gradients.rs",
    "advance": "MockClock: tests step virtual time",
    "with_tick": "MockClock: tests' auto-advancing clock",
    "NoSleep": "Sleeper that never sleeps, so retry tests run at once; serve and gateway suites",
    "serve_rows": "KillAfter::serve_rows, the permanent-death injector the gateway's degraded tests arm",
    "damaged": "sealed::damaged, every truncation and bit flip of a sealed file; corruption suites",
    "tiny": "DatasetSpec::tiny, the test-sized dataset fixture",
    "from_slice": "Tensor::from_slice, the unit tests' vector constructor",
    "shares_storage_with": "probe that a cache shares its table; engine.rs, cache.rs",
    "max_list_len": "IvfIndex probe; ann alloc_shape.rs",
    "steps": "Adam::steps probe; adam.rs, resume_differential.rs",
    "dumps": "FlightRecorder::dumps probe; gateway tracing.rs checks chaos seals a dump",
    "list": "IvfIndex::list probe; ann determinism.rs compares lists across thread counts",
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


def halves(path):
    """A file's text up to its first column-0 `#[cfg(test)]`, and the rest."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    cut = re.search(r"^#\[cfg\(test\)\]", text, re.M)
    return (text[: cut.start()], text[cut.start() :]) if cut else (text, "")


def non_test(path):
    text = strip(halves(path)[0])
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


def dependencies(manifest):
    """The crates a manifest's `[dependencies]` and `[dev-dependencies]` list."""
    deps, section = {"dependencies": [], "dev-dependencies": []}, None
    with open(manifest, encoding="utf-8") as f:
        for line in f:
            if line.startswith("["):
                section = line.strip()[1:-1]
            elif section in deps and (m := re.match(r"([\w-]+)(?:\.workspace)? *=", line)):
                deps[section].append(m[1])
    return deps


def package_code(pkg):
    """A package's non-test code and its test code, comments and literals out.

    Non-test: each file under `src` up to its first column-0 `#[cfg(test)]`.
    Test: the rest of those files, and `tests`, `examples`, `benches`.
    """
    code, tests = [], []
    for p in sorted(glob.glob(f"{pkg}/src/**/*.rs", recursive=True)):
        head, tail = halves(p)
        code.append(strip(head))
        tests.append(strip(tail))
    for d in ("tests", "examples", "benches"):
        for p in sorted(glob.glob(f"{pkg}/{d}/**/*.rs", recursive=True)):
            with open(p, encoding="utf-8") as f:
                tests.append(strip(f.read()))
    return "\n".join(code), "\n".join(tests)


def names(text, dep):
    """Whether `text` names the crate `dep` (`-` in its name read as `_`)."""
    return re.search(rf"\b{dep.replace('-', '_')}\b", text) is not None


def manifest_drift():
    """Lines naming each dependency line the package's code does not need
    where its manifest puts it."""
    drift = []
    for manifest in ["Cargo.toml"] + sorted(glob.glob("crates/*/Cargo.toml")):
        deps = dependencies(manifest)
        code, tests = package_code(os.path.dirname(manifest) or ".")
        for dep in deps["dependencies"]:
            if dep in deps["dev-dependencies"]:
                why = "in [dependencies] and [dev-dependencies]: keep one"
            elif names(code, dep):
                continue
            elif names(tests, dep):
                why = "in [dependencies], but only test code names it: move it to [dev-dependencies]"
            else:
                why = "in [dependencies], but no code names it: delete the line"
            drift.append(f"{dep:28} {manifest:27} <- {why}")
        for dep in deps["dev-dependencies"]:
            if not names(tests, dep):
                drift.append(f"{dep:28} {manifest:27} <- in [dev-dependencies], but no test names it: delete the line")
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
    not_method = set()  # names some definition holds as more than an indented `pub fn`
    for p, t in src.items():
        for m in re.finditer(r"^([ \t]*)" + ITEM, t, re.M):
            top = items.setdefault(m[2], {})
            top[owner(p)] = top.get(owner(p), False) or m[1] == ""
            if m[1] == "" or not re.match(r"pub (?:const |unsafe |async )*fn ", m[0].lstrip()):
                not_method.add(m[2])

    words = {}
    for t in bare.values():
        for w in re.findall(r"\b\w+\b", t):
            words[w] = words.get(w, 0) + 1

    dead = []
    for name in sorted(items):
        tops = [c for c, top in items[name].items() if top]
        if name not in not_method:
            call = re.compile(rf"\.{name}\s*(?:\(|::<)|::{name}\b")
            if not any(call.search(t) for t in bare.values()):
                dead.append((name, sorted(items[name])))
            continue
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
    for line in budget_drift() + manifest_drift():
        failed = True
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
