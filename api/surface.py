#!/usr/bin/env python3
"""Pin each workspace crate's public surface to `api/<crate>.txt`.

Runs `cargo +nightly rustdoc --output-format json` on every crate under
`crates/` and writes one sorted `<kind> <path>` line per public item,
inherent method and field. Run from the repository root:

    python3 api/surface.py            # regenerate api/*.txt
    git diff --exit-code api/         # what CI checks afterwards
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target"))


def crates():
    for name in sorted(os.listdir(os.path.join(ROOT, "crates"))):
        manifest = os.path.join(ROOT, "crates", name, "Cargo.toml")
        if os.path.exists(os.path.join(ROOT, "crates", name, "src", "lib.rs")):
            with open(manifest) as f:
                package = next(l for l in f if l.startswith("name")).split('"')[1]
            yield package


def surface(package):
    subprocess.run(
        ["cargo", "+nightly", "rustdoc", "-q", "--locked", "-p", package, "--lib",
         "--", "-Z", "unstable-options", "--output-format", "json"],
        cwd=ROOT, check=True)
    with open(os.path.join(TARGET, "doc", package.replace("-", "_") + ".json")) as f:
        doc = json.load(f)
    index, root = doc["index"], doc["root"]
    lines = set()

    def walk(item_id, path):
        # Variants and trait items carry "default" visibility; anything
        # narrower than `pub` is not surface.
        item = index.get(str(item_id))
        if item is None or item["visibility"] not in ("public", "default"):
            return
        kind, inner = next(iter(item["inner"].items()))
        name = item["name"] if path is None else f"{path}::{item['name']}"
        if kind == "use":
            lines.add(f"use {path}::{inner['name']} = {inner['source']}")
            return
        lines.add(f"{kind} {name}")
        if kind == "module":
            for child in inner["items"]:
                walk(child, name)
        elif kind in ("struct", "union", "enum"):
            shape = inner.get("kind")
            fields = shape.get("plain", {}).get("fields", []) if isinstance(shape, dict) else []
            for child in fields + inner.get("variants", []) + inner.get("fields", []):
                walk(child, name)
            for impl_id in inner.get("impls", []):
                impl = index[str(impl_id)]["inner"]["impl"]
                if impl["trait"] is None:
                    for child in impl["items"]:
                        walk(child, name)
        elif kind == "trait":
            for child in inner["items"]:
                walk(child, name)

    walk(root, None)
    return sorted(lines)


if __name__ == "__main__":
    for package in crates():
        with open(os.path.join(ROOT, "api", f"{package}.txt"), "w") as out:
            out.write("".join(line + "\n" for line in surface(package)))
        print(package, file=sys.stderr)
