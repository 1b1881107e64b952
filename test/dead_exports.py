"""Guard against dead exports, run from the root of the repository:

    python3 test/dead_exports.py

For every `val` in a `lib/**/*.mli` it searches the name, as a whole
OCaml identifier, in every .ml/.mli under lib, bin, bench, perfbench,
examples and test, leaving out the module's own .ml and .mli.  A value
whose name appears nowhere else has no caller outside its module: delete
it, or drop it from the .mli if the module uses it itself.  Exits
non-zero when such a value is found and is not on ALLOW below, or when
an ALLOW entry is no longer needed.

The search is by name only, so it can miss a dead value whose name some
other file also uses.  A value that must stay exported although no other
file names it (say, to satisfy a module type) goes on ALLOW with a
one-line reason.
"""

import os
import re
import sys

ROOTS = ["lib", "bin", "bench", "perfbench", "examples", "test"]

# "lib/<path>.mli:<name>" -> why the value stays exported
ALLOW = {}

VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)\s*:", re.M)
WORD = re.compile(r"[A-Za-z0-9_']+")


def sources():
    found = {}
    for root in ROOTS:
        for d, dirs, files in os.walk(root):
            dirs[:] = [x for x in dirs if x != "_build"]
            for f in files:
                if f.endswith((".ml", ".mli")):
                    path = os.path.join(d, f)
                    with open(path, encoding="utf-8") as fh:
                        found[path] = fh.read()
    return found


def main():
    texts = sources()
    # identifier -> the files that name it
    where = {}
    for path, text in texts.items():
        for word in set(WORD.findall(text)):
            where.setdefault(word, set()).add(path)
    dead, unused, total = [], set(), 0
    for mli in sorted(p for p in texts if p.startswith("lib/") and p.endswith(".mli")):
        own = {mli, mli[:-1]}
        for name in VAL.findall(texts[mli]):
            key = f"{mli}:{name}"
            total += 1
            if not where.get(name, set()) - own:
                unused.add(key)
                if key not in ALLOW:
                    dead.append(key)
    for key in dead:
        print(f"dead export: {key} has no caller outside its module")
    stale = sorted(set(ALLOW) - unused)
    for key in stale:
        print(f"stale allow-list entry: {key} is gone or has a caller now")
    if dead or stale:
        sys.exit(1)
    print(f"ok: {total} exported values, each with a caller outside its module"
          f" or on the allow-list ({len(ALLOW)})")


if __name__ == "__main__":
    main()
